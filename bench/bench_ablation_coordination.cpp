// Ablation: the price of coordination. The paper's protocols stall the
// whole platform for every failure; buddy groups are storage-self-contained,
// so with message logging they could recover privately (paper Sec. VIII).
// This bench simulates both regimes on identical failure processes:
//
//   coordinated: one global timeline, every failure stalls everyone;
//   independent: each group runs privately, makespan = slowest group.
//
// The gap grows with platform size and failure rate -- the quantitative
// motivation for the hybrid protocols the conclusion proposes. (The
// independent column excludes the message-logging overhead such a hybrid
// would pay.)
#include "bench_common.hpp"

#include "sim/independent.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;
  using namespace dckpt::bench;
  const auto context = parse_bench_args(
      argc, argv, "Coordinated vs independent-group recovery");
  if (!context) return 0;

  print_header(
      "Ablation -- coordination penalty (Base hardware, DoubleNBL, "
      "t_base = 10 M)",
      "30 trials per cell; waste = 1 - t_base/makespan. independent = "
      "groups recover privately (logging overhead excluded).");

  util::TextTable table({"nodes", "M", "coordinated waste",
                         "independent waste", "straggler gap"});
  auto csv = context->csv("ablation_coordination",
                          {"nodes", "mtbf_s", "coordinated",
                           "independent", "straggler_gap"});
  for (std::uint64_t nodes : {24ULL, 96ULL, 384ULL}) {
    for (double mtbf : {120.0, 600.0}) {
      sim::SimConfig config;
      config.protocol = model::Protocol::DoubleNbl;
      config.params =
          model::base_scenario().at_phi_ratio(0.25).with_mtbf(mtbf);
      config.params.nodes = nodes;
      const auto opt =
          model::optimal_period_closed_form(config.protocol, config.params);
      if (!opt.feasible) continue;
      config.period = opt.period;
      config.t_base = 10.0 * mtbf;
      config.stop_on_fatal = false;

      util::RunningStats coordinated, independent, straggler;
      for (std::uint64_t seed = 0; seed < 30; ++seed) {
        coordinated.add(
            sim::simulate_exponential(config, 100 + seed).waste());
        const auto ind =
            sim::simulate_independent_groups(config, 100 + seed);
        independent.add(ind.waste());
        straggler.add(ind.makespan / ind.mean_group_makespan - 1.0);
      }
      table.add_row({std::to_string(nodes), util::format_duration(mtbf),
                     util::format_percent(coordinated.mean(), 2),
                     util::format_percent(independent.mean(), 2),
                     util::format_percent(straggler.mean(), 2)});
      if (csv) {
        csv->write_row({std::to_string(nodes), util::format_fixed(mtbf, 1),
                        util::format_fixed(coordinated.mean(), 6),
                        util::format_fixed(independent.mean(), 6),
                        util::format_fixed(straggler.mean(), 6)});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  if (csv) std::printf("[csv] wrote %s\n", csv->path().c_str());
  return 0;
}
