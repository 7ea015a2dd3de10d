// Risk explorer: simulate a platform under a chosen protocol and compare
// the measured survival rate against the analytic success probability
// (Eq. 11/16), printing the full Monte-Carlo picture -- waste distribution,
// failures endured, fatal-failure rate.
//
//   ./risk_explorer --protocol triple --nodes 24 --mtbf 120 --tbase 3600
#include <cstdio>
#include <string>

#include "model/model_api.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("risk_explorer",
                      "Monte-Carlo survival analysis of a buddy protocol");
  cli.add_option("protocol", "doublenbl", "protocol to simulate");
  cli.add_option("nodes", "24", "platform nodes (multiple of 6)");
  cli.add_option("mtbf", "120", "platform MTBF, seconds");
  cli.add_option("phi-ratio", "0.25", "overhead fraction phi/R");
  cli.add_option("tbase", "3600", "application work, seconds");
  cli.add_option("trials", "1000", "Monte-Carlo trials");
  cli.add_option("seed", "42", "master seed");
  if (!cli.parse(argc, argv)) return 0;

  sim::SimConfig config;
  config.protocol =
      cli.get_parsed("protocol", dckpt::model::parse_protocol_name);
  config.params = model::base_scenario().params;
  config.params.nodes = cli.get_count("nodes");
  config.params.mtbf = cli.get_double("mtbf");
  config.params.overhead =
      cli.get_double("phi-ratio") * config.params.remote_blocking;
  config.t_base = cli.get_double("tbase");
  config.stop_on_fatal = true;
  config.max_makespan = 1e8;
  const auto opt =
      model::optimal_period_closed_form(config.protocol, config.params);
  config.period = opt.period;

  sim::MonteCarloOptions options;
  options.trials = cli.get_count("trials");
  options.seed = cli.get_count("seed");

  std::printf("Simulating %s on %s\n",
              std::string(model::protocol_name(config.protocol)).c_str(),
              config.params.describe().c_str());
  std::printf("period P* = %s (model waste %s)\n\n",
              util::format_duration(config.period).c_str(),
              util::format_percent(opt.waste, 2).c_str());

  const auto mc = sim::run_monte_carlo(config, options);

  util::TextTable table({"metric", "value"});
  table.add_row({"trials", std::to_string(mc.success.trials())});
  table.add_row({"survived", std::to_string(mc.success.successes())});
  const auto ci = mc.success.wilson_interval();
  table.add_row({"survival rate",
                 util::format_fixed(mc.success.estimate(), 4) + "  [" +
                     util::format_fixed(ci.lo, 4) + ", " +
                     util::format_fixed(ci.hi, 4) + "]"});
  table.add_row(
      {"model P(success)",
       util::format_fixed(model::success_probability(
                              config.protocol, config.params,
                              mc.makespan.count() ? mc.makespan.mean() : 0.0),
                          4)});
  table.add_row({"mean waste (survivors)",
                 util::format_percent(mc.waste.mean(), 2) + " +/- " +
                     util::format_percent(mc.waste.confidence_halfwidth(), 2)});
  table.add_row({"mean failures/run",
                 util::format_fixed(mc.failures.mean(), 2)});
  table.add_row({"risk window",
                 util::format_duration(model::risk_window(config.protocol,
                                                          config.params))});
  std::printf("%s\n", table.render().c_str());

  // Makespan distribution of surviving runs.
  if (mc.makespan.count() > 1) {
    util::Histogram histogram(mc.makespan.min() * 0.999,
                              mc.makespan.max() * 1.001, 12);
    // Cheap re-simulation pass to fill the histogram (same seeds).
    for (std::uint64_t trial = 0; trial < options.trials; ++trial) {
      const auto result = sim::simulate_exponential(
          config, options.seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
      if (!result.fatal && !result.diverged) histogram.add(result.makespan);
    }
    std::printf("Makespan distribution (survivors):\n%s",
                histogram.render(40).c_str());
  }
  return 0;
}
