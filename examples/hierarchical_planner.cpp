// Hierarchical planner: configure a two-level deployment (buddy in-memory
// checkpointing + periodic global checkpoints to stable storage) for a
// machine, and see how rarely the parallel file system actually gets hit.
//
//   ./hierarchical_planner --mtbf 600 --global-ckpt 900 --phi-ratio 0.25
#include <cmath>
#include <cstdio>

#include "model/model_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("hierarchical_planner",
                      "two-level buddy + stable-storage deployment planner");
  cli.add_option("scenario", "base", "base | exa level-1 hardware");
  cli.add_option("mtbf", "600", "platform MTBF, seconds");
  cli.add_option("phi-ratio", "0.25", "overhead fraction phi/R");
  cli.add_option("global-ckpt", "900",
                 "global checkpoint cost to stable storage, seconds");
  cli.add_option("global-recovery", "900",
                 "global recovery cost from stable storage, seconds");
  if (!cli.parse(argc, argv)) return 0;

  const auto scenario = cli.get_parsed("scenario", model::scenario_by_name);
  model::HierarchicalParams params;
  params.level1 = scenario.at_phi_ratio(cli.get_double("phi-ratio"))
                      .with_mtbf(cli.get_double("mtbf"));
  params.global_ckpt = cli.get_double("global-ckpt");
  params.global_recovery = cli.get_double("global-recovery");

  std::printf("Level 1 platform: %s\n", params.level1.describe().c_str());
  std::printf("Level 2 stable storage: C = %s, R_g = %s\n\n",
              util::format_duration(params.global_ckpt).c_str(),
              util::format_duration(params.global_recovery).c_str());

  util::TextTable table({"Level-1 protocol", "MTBF_fatal", "P1*", "P2*",
                         "ckpts/day to PFS", "w1", "w total"});
  for (auto protocol : model::kAllProtocols) {
    params.protocol = protocol;
    const auto eval = model::optimize_hierarchical(params);
    const double per_day = std::isfinite(eval.level2_period)
                               ? 86400.0 / eval.level2_period
                               : 0.0;
    table.add_row(
        {std::string(model::protocol_name(protocol)),
         util::format_duration(
             model::mean_time_between_fatal(protocol, params.level1)),
         util::format_duration(eval.level1_period),
         std::isfinite(eval.level2_period)
             ? util::format_duration(eval.level2_period)
             : "never",
         util::format_fixed(per_day, 2),
         util::format_percent(eval.level1_waste, 2),
         eval.feasible ? util::format_percent(eval.total_waste, 2)
                       : "stalled"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: a triple level 1 pushes the stable-storage checkpoint\n"
      "cadence from hours to weeks -- the I/O relief that makes the hybrid\n"
      "viable at exascale (paper Sec. VIII, future work).\n");
  return 0;
}
