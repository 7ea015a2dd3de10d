// Quickstart: describe your platform, get the recommended protocol, the
// optimal checkpoint period and the expected overhead.
//
//   ./quickstart --nodes 4096 --mtbf-node-years 10 --image-mb 512
//                --net-mbps 1000 --local-mbps 2000 --phi-ratio 0.25
#include <cstdio>

#include "model/model_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("quickstart",
                      "pick a buddy-checkpointing protocol for your machine");
  cli.add_option("nodes", "4096", "number of compute nodes");
  cli.add_option("mtbf-node-years", "10", "MTBF of one node, in years");
  cli.add_option("image-mb", "512", "checkpoint image per node, in MiB");
  cli.add_option("net-mbps", "1000", "node-to-node bandwidth, MiB/s");
  cli.add_option("local-mbps", "2000", "local storage bandwidth, MiB/s");
  cli.add_option("alpha", "10", "overlap speedup factor");
  cli.add_option("phi-ratio", "0.25",
                 "accepted overhead during transfers, as a fraction of R");
  cli.add_option("downtime", "60", "node replacement downtime, seconds");
  cli.add_option("mission-hours", "24", "mission length for the risk column");
  if (!cli.parse(argc, argv)) return 0;

  model::HardwareSpec spec;
  spec.nodes = cli.get_count("nodes");
  spec.node_mtbf_years = cli.get_double("mtbf-node-years");
  spec.checkpoint_bytes = cli.get_double("image-mb") * 1024 * 1024;
  spec.network_bandwidth = cli.get_double("net-mbps") * 1024 * 1024;
  spec.local_bandwidth = cli.get_double("local-mbps") * 1024 * 1024;
  spec.alpha = cli.get_double("alpha");
  spec.downtime = cli.get_double("downtime");

  auto params = spec.derive();
  params.overhead = cli.get_double("phi-ratio") * params.remote_blocking;
  params.validate();
  const double mission = cli.get_double("mission-hours") * 3600.0;

  std::printf("Platform: %s\n", params.describe().c_str());
  std::printf("  platform MTBF M = %s, theta(phi) = %s\n\n",
              util::format_duration(params.mtbf).c_str(),
              util::format_duration(params.theta()).c_str());

  const std::vector<model::Protocol> protocols(model::kAllProtocols.begin(),
                                               model::kAllProtocols.end());
  util::TextTable table({"Protocol", "Optimal period", "Waste", "Efficiency",
                         "Risk window", "P(success)"});
  for (const auto& row :
       model::evaluate_protocols(protocols, params, mission)) {
    table.add_row({std::string(model::protocol_name(row.protocol)),
                   util::format_duration(row.optimum.period),
                   util::format_percent(row.optimum.waste, 2),
                   util::format_percent(1.0 - row.optimum.waste, 2),
                   util::format_duration(row.risk_window),
                   util::format_fixed(row.success_probability, 6)});
  }
  std::printf("%s\n", table.render().c_str());

  const auto best_waste = model::best_protocol_by_waste(protocols, params);
  const auto best_risk =
      model::best_protocol_by_risk(protocols, params, mission);
  std::printf("Lowest waste:   %s\n",
              std::string(model::protocol_name(best_waste)).c_str());
  std::printf("Safest:         %s\n",
              std::string(model::protocol_name(best_risk)).c_str());
  return 0;
}
