// Runtime demo: a real parallel stencil computation protected by real buddy
// checkpointing. Kills workers mid-run and shows the application surviving
// with a bit-identical final state.
//
//   ./runtime_demo --topology triples --nodes 9 --steps 200 --kill 57:2,130:5
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "runtime/runtime_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("runtime_demo",
                      "fault-tolerant stencil run with worker kills");
  cli.add_option("topology", "pairs", "pairs | triples");
  cli.add_option("nodes", "8", "worker count (multiple of the group size)");
  cli.add_option("cells", "4096", "cells per worker");
  cli.add_option("steps", "200", "total iterations");
  cli.add_option("interval", "25", "checkpoint every k steps");
  cli.add_option("kill", "57:2,130:5",
                 "failure injections, step:node comma-separated; '' = none");
  if (!cli.parse(argc, argv)) return 0;

  runtime::RuntimeConfig config;
  config.topology = cli.get_parsed("topology", ckpt::parse_topology);
  config.nodes = cli.get_count("nodes");
  config.cells_per_node = cli.get_count("cells");
  config.total_steps = cli.get_count("steps");
  config.checkpoint_interval = cli.get_count("interval");
  // The chaos schedule grammar; '' injects nothing.
  const auto kills =
      cli.get("kill").empty()
          ? std::vector<runtime::FailureInjection>{}
          : cli.get_parsed("kill", chaos::ChaosSchedule::parse).failures;

  // Reference: the failure-free execution.
  runtime::Coordinator reference(config,
                                 std::make_unique<runtime::HeatKernel>());
  const auto expected = reference.run();

  runtime::Coordinator coordinator(config,
                                   std::make_unique<runtime::HeatKernel>());
  std::printf("running %llu workers (%s), %llu steps, checkpoint every %llu, "
              "%zu injected failure(s)\n",
              static_cast<unsigned long long>(config.nodes),
              cli.get("topology").c_str(),
              static_cast<unsigned long long>(config.total_steps),
              static_cast<unsigned long long>(config.checkpoint_interval),
              kills.size());
  const auto report = coordinator.run(kills);

  if (report.fatal) {
    std::printf("FATAL: %s\n", report.fatal_reason.c_str());
    return 1;
  }
  std::printf("\nsurvived: %llu failures, %llu rollbacks, %llu steps "
              "replayed\n",
              static_cast<unsigned long long>(report.failures),
              static_cast<unsigned long long>(report.rollbacks),
              static_cast<unsigned long long>(report.replayed_steps));
  std::printf("checkpoints: %llu, %s replicated to buddies, %llu COW pages\n",
              static_cast<unsigned long long>(report.checkpoints),
              util::format_bytes(
                  static_cast<double>(report.bytes_replicated)).c_str(),
              static_cast<unsigned long long>(report.cow_copies));
  std::printf("final state hash: %016llx (reference %016llx) -- %s\n",
              static_cast<unsigned long long>(report.final_hash),
              static_cast<unsigned long long>(expected.final_hash),
              report.final_hash == expected.final_hash
                  ? "BIT-IDENTICAL, failures fully masked"
                  : "MISMATCH (bug!)");
  return report.final_hash == expected.final_hash ? 0 : 1;
}
