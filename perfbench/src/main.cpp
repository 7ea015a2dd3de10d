// dckpt benchmark binary: runs one seeded workload and prints
//   * one {"record":"perfbench_report",...} line with the workload's own
//     metric names (mc_trials_per_s, serve_light_p99_ms, ...) and per-phase
//     operation counts, then
//   * one result line {"correct","attempted","failed","metrics"}.
// perfbench/run.py builds this binary and completes the result line.
//
// Usage: dckpt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        [--spans-out FILE] [--sabotage KIND]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dckpt_perfbench: " << why
            << "\nusage: dckpt_perfbench --workload "
               "mc-reference|chain-dcp|grid-recovery|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--sabotage KIND]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else if (flag == "--sabotage") {
        args.sabotage = value;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::map<std::string, void (*)(const Args&, perfbench::Outcome&)>
      workloads = {
          {"mc-reference", perfbench::run_mc_reference},
          {"chain-dcp", perfbench::run_chain_dcp},
          {"grid-recovery", perfbench::run_grid_recovery},
          {"serve-mixed", perfbench::run_serve_mixed},
      };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) usage("unknown workload '" + args.workload + "'");

  perfbench::Outcome out;
  const auto cpu_start = perfbench::CpuTimes::now();
  try {
    it->second(args, out);
  } catch (const std::exception& error) {
    std::cerr << "dckpt_perfbench: " << args.workload << ": " << error.what()
              << '\n';
    return 1;
  }

  out.report.set("record", "perfbench_report");
  out.report.set("workload", args.workload);
  out.report.set("seed", args.seed);
  out.report.set("trace", args.trace);
  out.report.set("host_steal_share",
                 perfbench::CpuTimes::now().steal_share_since(cpu_start));
  std::cout << out.report.dump() << '\n';

  auto result = dckpt::util::JsonValue::object();
  result.set("correct", out.failed() == 0 && out.attempted() > 0);
  result.set("attempted", out.attempted());
  result.set("failed", out.failed());
  result.set("metrics", out.metrics());
  std::cout << result.dump() << std::endl;
  return 0;
}
