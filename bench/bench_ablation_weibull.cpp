// Ablation: exponential vs Weibull failure arrivals. The analytic model
// (like Young/Daly) assumes a constant hazard rate; HPC failure logs are
// better fit by Weibull with shape < 1 (bursty infant failures -- see the
// paper's related-work discussion). The simulator runs both, holding the
// per-node mean constant, to show how far the exponential closed forms
// stretch -- and, since PR 4, how much of the gap the clustered-failure
// model (model/nonexponential.hpp) recovers at matched shape.
#include "bench_common.hpp"

#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;
  using namespace dckpt::bench;
  const auto context = parse_bench_args(
      argc, argv, "Ablation: Weibull vs exponential failure distributions");
  if (!context) return 0;

  const std::uint64_t trials = context->trials_or(60);
  // Built with += (not operator+ chains): GCC 12's -Wrestrict false-fires on
  // char* + to_string(...) + char* at -O2.
  std::string blurb = "12 nodes, phi = R/4, model-optimal period, ";
  blurb += std::to_string(trials);
  blurb +=
      " trials. Weibull shapes < 1 cluster failures; mean held constant. "
      "'wmodel' columns: clustered-failure model at matched shape.";
  print_header("Ablation -- failure distribution (Base scenario, simulated)",
               blurb);

  util::TextTable table({"Protocol", "M", "model", "exp sim", "weib k=0.7",
                         "weib k=0.5", "wmodel k=0.7", "wmodel k=0.5"});
  // Schema note: the two model_weibull_* keys are appended after the
  // original columns (append-only JSONL/CSV rule).
  const std::vector<std::string> keys = {
      "protocol",        "mtbf_s",           "model",
      "sim_exp",         "sim_weibull_07",   "sim_weibull_05",
      "model_weibull_07", "model_weibull_05"};
  auto csv = context->csv("ablation_weibull", keys);
  auto jsonl = context->jsonl("ablation_weibull", keys);
  for (auto protocol : model::kPaperProtocols) {
    for (double mtbf : {1800.0, 7200.0}) {
      auto params = model::base_scenario().at_phi_ratio(0.25).with_mtbf(mtbf);
      params.nodes = 12;
      const auto opt = model::optimal_period_closed_form(protocol, params);
      sim::SimConfig config;
      config.protocol = protocol;
      config.params = params;
      config.period = opt.period;
      config.t_base = 20.0 * mtbf;
      config.stop_on_fatal = false;
      sim::MonteCarloOptions options;
      options.trials = trials;
      options.seed = 0xeeb;

      const auto exp_mc = sim::run_monte_carlo(config, options);
      options.weibull = util::Weibull::from_mean(0.7, params.node_mtbf());
      const auto w07 = sim::run_monte_carlo(config, options);
      options.weibull = util::Weibull::from_mean(0.5, params.node_mtbf());
      const auto w05 = sim::run_monte_carlo(config, options);

      // Matched-shape clustered model at the mission's expected horizon.
      const double horizon = model::expected_makespan(protocol, params,
                                                      opt.period,
                                                      config.t_base);
      const auto clustered = [&](double shape) {
        model::Extensions ext;
        ext.weibull = {shape, horizon};
        return model::waste(protocol, params, opt.period, ext);
      };
      const double m07 = clustered(0.7);
      const double m05 = clustered(0.5);

      table.add_row({std::string(model::protocol_name(protocol)),
                     util::format_duration(mtbf),
                     util::format_fixed(opt.waste, 4),
                     util::format_fixed(exp_mc.waste.mean(), 4),
                     util::format_fixed(w07.waste.mean(), 4),
                     util::format_fixed(w05.waste.mean(), 4),
                     util::format_fixed(m07, 4),
                     util::format_fixed(m05, 4)});
      if (csv) {
        csv->write_row({std::string(model::protocol_name(protocol)),
                        util::format_fixed(mtbf, 1),
                        util::format_fixed(opt.waste, 6),
                        util::format_fixed(exp_mc.waste.mean(), 6),
                        util::format_fixed(w07.waste.mean(), 6),
                        util::format_fixed(w05.waste.mean(), 6),
                        util::format_fixed(m07, 6),
                        util::format_fixed(m05, 6)});
      }
      if (jsonl) {
        jsonl->row({model::protocol_name(protocol), mtbf, opt.waste,
                    exp_mc.waste.mean(), w07.waste.mean(), w05.waste.mean(),
                    m07, m05});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  if (jsonl) std::printf("[jsonl] wrote %s\n", jsonl->path().c_str());
  return 0;
}
