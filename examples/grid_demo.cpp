// 2-D grid demo: a 2-D heat-diffusion field decomposed over a worker grid,
// protected by buddy checkpointing, surviving injected worker kills with a
// bit-identical result.
//
//   ./grid_demo --rows 3 --cols 3 --topology triples --kill 21:4
#include <cstdio>
#include <memory>
#include <vector>

#include "chaos/schedule.hpp"
#include "runtime/runtime_api.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace dckpt;

  util::CliParser cli("grid_demo", "2-D fault-tolerant stencil run");
  cli.add_option("rows", "2", "worker grid rows");
  cli.add_option("cols", "2", "worker grid columns");
  cli.add_option("topology", "pairs", "pairs | triples");
  cli.add_option("block", "32", "block edge length (cells)");
  cli.add_option("steps", "120", "total iterations");
  cli.add_option("interval", "20", "checkpoint every k steps");
  cli.add_option("kill", "45:1", "failure injections, step:node list");
  if (!cli.parse(argc, argv)) return 0;

  runtime::GridConfig config;
  config.grid_rows = cli.get_count("rows");
  config.grid_cols = cli.get_count("cols");
  config.topology = cli.get_parsed("topology", ckpt::parse_topology);
  config.block_rows = cli.get_count("block");
  config.block_cols = config.block_rows;
  config.total_steps = cli.get_count("steps");
  config.checkpoint_interval = cli.get_count("interval");
  // The chaos schedule grammar; '' injects nothing.
  const auto kills =
      cli.get("kill").empty()
          ? std::vector<runtime::FailureInjection>{}
          : cli.get_parsed("kill", chaos::ChaosSchedule::parse).failures;

  runtime::GridCoordinator reference(config,
                                     std::make_unique<runtime::HeatKernel2D>());
  const auto expected = reference.run();

  runtime::GridCoordinator coordinator(
      config, std::make_unique<runtime::HeatKernel2D>());
  std::printf("%zux%zu worker grid (%s), %zux%zu cells each, %llu steps\n",
              config.grid_rows, config.grid_cols, cli.get("topology").c_str(),
              config.block_rows, config.block_cols,
              static_cast<unsigned long long>(config.total_steps));
  const auto report = coordinator.run(kills);
  if (report.fatal) {
    std::printf("FATAL: %s\n", report.fatal_reason.c_str());
    return 1;
  }
  std::printf("failures %llu, rollbacks %llu, replayed %llu steps, "
              "%s replicated\n",
              static_cast<unsigned long long>(report.failures),
              static_cast<unsigned long long>(report.rollbacks),
              static_cast<unsigned long long>(report.replayed_steps),
              util::format_bytes(
                  static_cast<double>(report.bytes_replicated)).c_str());
  std::printf("final hash %016llx vs reference %016llx -- %s\n",
              static_cast<unsigned long long>(report.final_hash),
              static_cast<unsigned long long>(expected.final_hash),
              report.final_hash == expected.final_hash ? "IDENTICAL"
                                                       : "MISMATCH");
  return report.final_hash == expected.final_hash ? 0 : 1;
}
