// Runtime-substrate measurement: executes the real fault-tolerant runtime
// (stencil kernel + buddy checkpointing + injected failures) and reports the
// measured overheads -- the concrete counterpart of the model's WASTE_ff and
// failure costs, including the COW page pressure that motivates the paper's
// phi parameter.
//
// Extra mode for CI: `bench_runtime_overhead --runtime-json=PATH` skips the
// tables and measures the runtime's steps/s with checkpointing on and off
// on two shapes, both with differential checkpoints (dcp) and 4 KiB blocks
// on 2 stepping threads:
//   * grid: 3 x 3 triples of 256 x 256 doubles (HeatKernel2D), a commit
//     every 8 steps, K = 4, refills 2 steps after a loss, 50 steps, and one
//     loss of node 4 at step 37, whose rollback replays three layers;
//   * chain: 8 x 1 MiB pairs (HeatKernel), a commit every 4 steps, K = 8,
//     36 steps, no loss.
// Each shape alternates kReps runs with checkpointing on and kReps with it
// off (interval = total steps, dcp off), timing run() only. It writes
// {<shape>_ckpt_on_steps_per_s, <shape>_ckpt_off_steps_per_s,
// <shape>_efficiency = on / off, ...} (medians, useful steps per second) to
// PATH, and writes nothing when an on run's final hash differs from the
// off run's; scripts/check_bench_regression.py compares that file against
// the committed BENCH_runtime.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "runtime/runtime_api.hpp"

namespace {

using namespace dckpt;
using namespace dckpt::bench;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

runtime::RunReport timed_run(const runtime::RuntimeConfig& config,
                             std::span<const runtime::FailureInjection> fails,
                             double& elapsed) {
  runtime::Coordinator coordinator(config,
                                   std::make_unique<runtime::HeatKernel>());
  const auto start = std::chrono::steady_clock::now();
  auto report = coordinator.run(fails);
  elapsed = seconds_since(start);
  return report;
}

constexpr int kReps = 15;
constexpr std::size_t kRecordThreads = 2;
constexpr std::size_t kRecordBlock = 4096;

/// Median of `values` (odd count).
double median(std::vector<double> values) {
  const auto middle =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), middle, values.end());
  return *middle;
}

/// One shape's rates: kReps timed runs with checkpointing on alternated
/// with kReps with it off. `run(on, elapsed)` builds the runtime, times its
/// run() into `elapsed` and returns the report. False when a final hash
/// differs between the two.
template <typename Run>
bool measure_shape(const char* name, std::uint64_t steps, Run&& run,
                   util::JsonValue& record) {
  std::vector<double> on_rates;
  std::vector<double> off_rates;
  std::uint64_t hash = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool on : {true, false}) {
      double elapsed = 0.0;
      const runtime::RunReport report = run(on, elapsed);
      if (rep == 0 && on) hash = report.final_hash;
      if (report.fatal || report.final_hash != hash) {
        std::fprintf(stderr,
                     "%s: final hash %llx with checkpointing %s, want %llx\n",
                     name, static_cast<unsigned long long>(report.final_hash),
                     on ? "on" : "off",
                     static_cast<unsigned long long>(hash));
        return false;
      }
      (on ? on_rates : off_rates)
          .push_back(static_cast<double>(steps) / elapsed);
    }
  }
  const double on_rate = median(on_rates);
  const double off_rate = median(off_rates);
  const std::string prefix(name);
  record.set(prefix + "_steps", steps);
  record.set(prefix + "_ckpt_on_steps_per_s", on_rate);
  record.set(prefix + "_ckpt_off_steps_per_s", off_rate);
  record.set(prefix + "_efficiency", on_rate / off_rate);
  return true;
}

int run_runtime_record(const std::string& json_path) {
  auto record = util::JsonValue::object();
  record.set("record", "bench_runtime");
  record.set("reps", kReps);
  record.set("threads", kRecordThreads);
  record.set("dcp_block_size", kRecordBlock);

  runtime::GridConfig grid;
  grid.grid_rows = 3;
  grid.grid_cols = 3;
  grid.topology = ckpt::Topology::Triples;
  grid.block_rows = 256;
  grid.block_cols = 256;
  grid.checkpoint_interval = 8;
  grid.total_steps = 50;
  grid.threads = kRecordThreads;
  grid.rereplication_delay_steps = 2;
  grid.dcp_stack_size = 4;
  grid.dcp_block_size = kRecordBlock;
  const runtime::FailureInjection loss[] = {{37, 4}};
  const auto run_grid = [&](bool on, double& elapsed) {
    runtime::GridConfig config = grid;
    if (!on) {
      config.checkpoint_interval = config.total_steps;
      config.dcp_stack_size = 0;
    }
    runtime::GridCoordinator coordinator(
        config, std::make_unique<runtime::HeatKernel2D>());
    const auto start = std::chrono::steady_clock::now();
    auto report = coordinator.run(
        on ? std::span<const runtime::FailureInjection>(loss)
           : std::span<const runtime::FailureInjection>());
    elapsed = seconds_since(start);
    return report;
  };

  runtime::RuntimeConfig chain;
  chain.nodes = 8;
  chain.topology = ckpt::Topology::Pairs;
  chain.cells_per_node = (1u << 20) / sizeof(double);
  chain.checkpoint_interval = 4;
  chain.total_steps = 36;
  chain.threads = kRecordThreads;
  chain.dcp_stack_size = 8;
  chain.dcp_block_size = kRecordBlock;
  const auto run_chain = [&](bool on, double& elapsed) {
    runtime::RuntimeConfig config = chain;
    if (!on) {
      config.checkpoint_interval = config.total_steps;
      config.dcp_stack_size = 0;
    }
    return timed_run(config, {}, elapsed);
  };

  if (!measure_shape("grid", grid.total_steps, run_grid, record) ||
      !measure_shape("chain", chain.total_steps, run_chain, record)) {
    return 1;
  }

  const std::string text = record.dump();
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", text.c_str());
  std::fclose(out);
  std::printf("%s\n", text.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--runtime-json=", 15) == 0) {
      return run_runtime_record(argv[i] + 15);
    }
  }
  const auto context = parse_bench_args(
      argc, argv,
      "Measured runtime overheads of real buddy checkpointing");
  if (!context) return 0;

  print_header("Runtime substrate -- measured checkpoint overhead",
               "8 workers (pairs) / 9 (triples), 256 KiB state per worker, "
               "800 steps; overhead relative to a checkpoint-free run.");

  util::TextTable table({"Topology", "ckpt every", "wall(s)", "overhead",
                         "bytes replicated", "COW pages"});
  auto csv = context->csv("runtime_overhead",
                         {"topology", "interval", "wall_s", "overhead",
                          "bytes_replicated", "cow_pages"});

  for (auto topology : {ckpt::Topology::Pairs, ckpt::Topology::Triples}) {
    const std::string name =
        topology == ckpt::Topology::Pairs ? "pairs" : "triples";
    runtime::RuntimeConfig config;
    config.nodes = topology == ckpt::Topology::Pairs ? 8 : 9;
    config.topology = topology;
    config.cells_per_node = 32768;  // 256 KiB of doubles
    config.total_steps = 800;
    config.threads = 0;

    // Baseline: one checkpoint interval beyond the horizon.
    config.checkpoint_interval = config.total_steps + 1;
    double base_elapsed = 0.0;
    (void)timed_run(config, {}, base_elapsed);

    for (std::uint64_t interval : {10ULL, 40ULL, 160ULL}) {
      config.checkpoint_interval = interval;
      double elapsed = 0.0;
      const auto report = timed_run(config, {}, elapsed);
      const double overhead = elapsed / base_elapsed - 1.0;
      table.add_row({name, std::to_string(interval),
                     util::format_fixed(elapsed, 3),
                     util::format_percent(overhead, 1),
                     util::format_bytes(
                         static_cast<double>(report.bytes_replicated)),
                     std::to_string(report.cow_copies)});
      if (csv) {
        csv->write_row({name, std::to_string(interval),
                        util::format_fixed(elapsed, 6),
                        util::format_fixed(overhead, 6),
                        std::to_string(report.bytes_replicated),
                        std::to_string(report.cow_copies)});
      }
    }
  }
  std::printf("%s\n", table.render().c_str());

  print_header(
      "Runtime substrate -- blocking vs staged (semi-blocking) commit",
      "Pairs, checkpoint every 40 steps, one failure at step 100. Staging\n"
      "delays the commit: failures during staging roll back a full extra\n"
      "interval -- the runtime counterpart of the model's risk trade-off.");
  util::TextTable staging_table(
      {"staging steps", "commit lag", "replayed steps", "masked"});
  for (std::uint64_t staging : {0ULL, 10ULL, 25ULL, 40ULL}) {
    runtime::RuntimeConfig staged;
    staged.nodes = 8;
    staged.topology = ckpt::Topology::Pairs;
    staged.cells_per_node = 4096;
    staged.total_steps = 200;
    staged.checkpoint_interval = 40;
    staged.staging_steps = staging;
    const runtime::FailureInjection one[] = {{100, 3}};
    double ignored = 0.0;
    const auto r = timed_run(staged, one, ignored);
    staging_table.add_row({std::to_string(staging), std::to_string(staging),
                           std::to_string(r.replayed_steps),
                           r.fatal ? "NO" : "yes"});
  }
  std::printf("%s\n", staging_table.render().c_str());

  print_header("Runtime substrate -- failure recovery in action",
               "Same configuration, pairs, checkpoint every 40 steps, "
               "failures injected at steps 120/121 (burst) and 500.");
  runtime::RuntimeConfig config;
  config.nodes = 8;
  config.topology = ckpt::Topology::Pairs;
  config.cells_per_node = 32768;
  config.total_steps = 800;
  config.checkpoint_interval = 40;
  const runtime::FailureInjection failures[] = {{120, 3}, {121, 6}, {500, 0}};
  double elapsed = 0.0;
  const auto report = timed_run(config, failures, elapsed);
  util::TextTable recovery({"failures", "rollbacks", "replayed steps",
                            "fatal", "wall(s)"});
  recovery.add_row({std::to_string(report.failures),
                    std::to_string(report.rollbacks),
                    std::to_string(report.replayed_steps),
                    report.fatal ? "yes" : "no",
                    util::format_fixed(elapsed, 3)});
  std::printf("%s", recovery.render().c_str());
  return 0;
}
