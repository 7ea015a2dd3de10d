// Shared plumbing of the dckpt benchmark binary: run arguments, the
// outcome a workload fills in, the in-memory span recorder used by traced
// runs, and small statistics helpers.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public entry points; the library itself is unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/ring.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: corrupts one check input on purpose (final-hash,
  /// reply-drop, reply-alter, scalar-trial); the run must then count a
  /// failed operation.
  std::string sabotage;
  /// Where a traced run writes its spans (JSONL).
  std::string spans_out;
};

/// One timed call into a layer.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< serve request id; 0 elsewhere
  std::int64_t start_ns = 0;  ///< since the recorder's origin
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store, written out once at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  std::size_t size() const;
  double total_s(std::string_view name) const;
  std::vector<double> durations_s(std::string_view name) const;
  /// Durations of spans named `name` whose parent is `parent`.
  std::vector<double> durations_under(std::string_view name,
                                      std::uint64_t parent) const;

  /// One {"record":"span",...} line per span, in recording order.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span around one call. A null tracer makes it a no-op: that is the
/// untraced configuration the end-to-end metrics are measured in.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t parent = 0,
        std::uint64_t request = 0)
      : tracer_(tracer), name_(name), parent_(parent), request_(request) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->new_id();
    start_ = Clock::now();
  }
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, id_, parent_, request_, start_, Clock::now());
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  Clock::time_point start_{};
};

/// What one workload run produced: operation counts, metrics for the
/// result line, and a human-facing report with the workload's own names.
class Outcome {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Marks one already-attempted operation failed, logging why to stderr.
  void fail(const std::string& why);
  /// Counts one operation; `ok == false` also counts it failed.
  void check(bool ok, const std::string& what) {
    attempt();
    if (!ok) fail(what);
  }
  void metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const dckpt::util::JsonValue& metrics() const noexcept { return metrics_; }

  /// Extra lines printed before the result: the workload's named metrics
  /// (mc_trials_per_s, serve_light_p99_ms, ...) and per-phase counts.
  dckpt::util::JsonValue report = dckpt::util::JsonValue::object();

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  dckpt::util::JsonValue metrics_ = dckpt::util::JsonValue::object();
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Machine-wide CPU time counters from /proc/stat, to report how much time
/// the hypervisor stole from this machine while a workload ran: wall-clock
/// rates drop with it, and the report line says how much there was.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
  static CpuTimes now();
  /// Share of all CPU time since `start` that was stolen.
  double steal_share_since(const CpuTimes& start) const;
};

/// Direct micro-probes of the util layer (RNG fill, exponential and
/// Weibull sampling) and of the model's closed forms; every workload's
/// traced run reports them.
void probe_util(Tracer& tracer, Outcome& out);
void probe_model(Tracer& tracer, Outcome& out);

/// Tracing overhead from the untraced and traced halves of a traced run.
void trace_overhead(double plain_ops_per_s, double traced_ops_per_s,
                    Outcome& out);

/// End of every traced run: the direct probes, the span count, and the
/// spans written to `args.spans_out`.
void finish_trace(Tracer& tracer, const Args& args, Outcome& out);

/// One Monte-Carlo campaign of the traced engine decomposition.
struct EngineJob {
  dckpt::sim::SimConfig config;
  dckpt::sim::MonteCarloOptions options;
};

/// Traced decomposition of the engine over `jobs` on one thread:
/// run_monte_carlo time, the batch kernel's time per chunk (its sink only
/// keeps the trials), each chunk's accumulate_trial loop, the pool/merge
/// remainder, and the kernel's counters (sim.runner.*, sim.batch_kernel.*).
void engine_layers(Tracer& tracer, const std::vector<EngineJob>& jobs,
                   Outcome& out);

/// Shape of a runtime workload's checkpoint traffic, for the traced
/// replay of the ckpt layer.
struct ReplayGeometry {
  std::uint64_t nodes = 0;
  dckpt::ckpt::Topology topology = dckpt::ckpt::Topology::Pairs;
  std::size_t image_bytes = 0;
  std::size_t block_size = 0;
  std::uint64_t stack_size = 0;  ///< dcp K: one full commit + K - 1 deltas
  std::uint64_t interval = 0;    ///< application steps between commits
  std::function<void(std::uint64_t node, std::span<double> state)> init;
  std::function<void(std::uint64_t node, std::span<const double> prev,
                     std::span<double> next)>
      step;
};

/// Replays K-commit cycles on every node through the ckpt public calls,
/// with a loss-and-recovery of every node at chain depth 0 and K - 1
/// (ckpt.*).
void ckpt_layers(Tracer& tracer, const ReplayGeometry& geometry, Outcome& out);

void run_mc_reference(const Args& args, Outcome& out);
void run_chain_dcp(const Args& args, Outcome& out);
void run_grid_recovery(const Args& args, Outcome& out);
void run_serve_mixed(const Args& args, Outcome& out);

}  // namespace perfbench
