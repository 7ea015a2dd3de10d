// chain-dcp and grid-recovery: the two checkpointing runtimes with
// differential checkpoints on, driven through Coordinator::run and
// GridCoordinator::run.
//
// A run repeats one seed-fixed job (build the coordinator, run it to
// completion) until the time budget is spent. Construction is the set-up
// time; useful steps over run() wall time is the throughput. Every job is
// checked against a checkpoint-free, failure-free run of the same config
// (final state hash) and against the chaos shadow oracle's prediction of
// the seed-fixed counters.
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <type_traits>

#include "bench.hpp"
#include "chaos/shadow.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/grid.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace rt = dckpt::runtime;

namespace {

// ---------------------------------------------------------------------------
// chain-dcp geometry: 8 nodes x 1 MiB in pairs, a commit every 4 steps, a
// full exchange every 8 commits (dcp K = 8) with 4 KiB blocks, 2 threads.
// A job of 36 steps makes exactly one K-commit cycle (1 full + 7 deltas);
// short jobs give the per-job median many samples.
constexpr std::uint64_t kChainNodes = 8;
constexpr std::size_t kChainCells = (1u << 20) / sizeof(double);
constexpr std::uint64_t kChainInterval = 4;
constexpr std::uint64_t kChainStack = 8;
constexpr std::uint64_t kChainSteps = 36;
// The drifting window: 1536 cells (three 4 KiB blocks) moving 512 cells
// per step, so a 4-step commit interval dirties ~7 of 256 blocks plus the
// block holding the step counter -- about 3 %.
constexpr std::size_t kWindowCells = 1536;
constexpr std::size_t kDriftCells = 512;

// grid-recovery geometry: 3 x 3 triples of 256 x 256 cells (512 KiB), a
// commit every 8 steps, K = 4, refills 2 steps after a loss, 2 threads, and
// one node loss per 50-step job.
constexpr std::size_t kGridSide = 3;
constexpr std::size_t kBlockSide = 256;
constexpr std::uint64_t kGridInterval = 8;
constexpr std::uint64_t kGridStack = 4;
constexpr std::uint64_t kGridSteps = 50;
constexpr std::uint64_t kRereplicationDelay = 2;
// One loss per 50-step window, at a seeded step inside it, so every job
// loses the same number of nodes.
constexpr std::uint64_t kLossWindow = 50;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kBlockBytes = 4096;

/// Heat stencil confined to a window that drifts along the block, leaving
/// most 4 KiB blocks of the image byte-identical between commits (the case
/// content-hash dcp exists for). The step counter lives in the block's last
/// cell, so the kernel stays stateless and replays after a rollback follow
/// the same windows.
class DriftWindowKernel final : public rt::Kernel {
 public:
  explicit DriftWindowKernel(std::uint64_t seed) {
    dckpt::util::Xoshiro256ss rng(seed);
    phase_ = rng.next_double() * 2.0 * std::numbers::pi;
    start_ = static_cast<std::size_t>(rng.next_below(kChainCells));
  }

  void initialize(std::size_t global_offset,
                  std::span<double> state) const override {
    const std::size_t n = state.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(global_offset + i);
      state[i] = std::sin(0.013 * x + phase_) + 0.5 * std::sin(0.0007 * x);
    }
    state[n] = 0.0;  // step counter
  }

  void step(std::span<const double> previous, std::span<double> next,
            double left_ghost, double right_ghost) const override {
    const std::size_t n = previous.size() - 1;
    std::copy(previous.begin(), previous.end(), next.begin());
    const auto counter = static_cast<std::size_t>(previous[n]);
    const std::size_t span = n - kWindowCells;
    const std::size_t begin = (start_ + counter * kDriftCells) % span;
    for (std::size_t i = begin; i < begin + kWindowCells; ++i) {
      const double left = i == 0 ? left_ghost : previous[i - 1];
      const double right = i + 1 == n ? right_ghost : previous[i + 1];
      next[i] = previous[i] + 0.25 * (left - 2.0 * previous[i] + right);
    }
    next[n] = previous[n] + 1.0;
  }

  std::size_t right_halo_index(std::size_t cells) const override {
    return cells - 2;  // the last cell is the counter, not field
  }
  std::string name() const override { return "drift-window-heat"; }

 private:
  double phase_ = 0.0;
  std::size_t start_ = 0;
};

/// Shared parent of the kernel spans of the run in flight.
std::atomic<std::uint64_t> g_run_span{0};

/// Times every kernel step (traced runs only): application time.
class TimedKernel final : public rt::Kernel {
 public:
  TimedKernel(std::unique_ptr<rt::Kernel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void initialize(std::size_t offset, std::span<double> state) const override {
    inner_->initialize(offset, state);
  }
  void step(std::span<const double> previous, std::span<double> next,
            double left, double right) const override {
    Scope s(&tracer_, "runtime.kernel.step", g_run_span.load());
    inner_->step(previous, next, left, right);
  }
  std::size_t left_halo_index(std::size_t cells) const override {
    return inner_->left_halo_index(cells);
  }
  std::size_t right_halo_index(std::size_t cells) const override {
    return inner_->right_halo_index(cells);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rt::Kernel> inner_;
  Tracer& tracer_;
};

class TimedGridKernel final : public rt::GridKernel {
 public:
  TimedGridKernel(std::unique_ptr<rt::GridKernel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override {
    inner_->initialize(row0, col0, rows, cols, state);
  }
  void step(std::span<const double> previous, std::span<double> next,
            std::size_t rows, std::size_t cols, std::span<const double> north,
            std::span<const double> south, std::span<const double> west,
            std::span<const double> east) const override {
    Scope s(&tracer_, "runtime.kernel.step", g_run_span.load());
    inner_->step(previous, next, rows, cols, north, south, west, east);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rt::GridKernel> inner_;
  Tracer& tracer_;
};

/// What differs between the two workloads.
template <typename Coordinator, typename Config, typename Kernel>
struct Workload {
  Config config;
  /// Failure schedule of job `index` (each job of a run gets its own).
  std::function<std::vector<rt::FailureInjection>(std::uint64_t index)>
      schedule;
  std::function<std::unique_ptr<Kernel>()> make_kernel;
  ReplayGeometry geometry;

  std::uint64_t useful_steps() const { return config.total_steps; }

  std::unique_ptr<Kernel> kernel(Tracer* tracer) const {
    auto k = make_kernel();
    if (tracer == nullptr) return k;
    if constexpr (std::is_same_v<Kernel, rt::Kernel>) {
      return std::make_unique<TimedKernel>(std::move(k), *tracer);
    } else {
      return std::make_unique<TimedGridKernel>(std::move(k), *tracer);
    }
  }
};

struct Job {
  std::uint64_t index = 0;
  rt::RunReport report;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t run_span = 0;
};

template <typename Coordinator, typename Config, typename Kernel>
Job run_job(const Workload<Coordinator, Config, Kernel>& w,
            const Config& config,
            std::span<const rt::FailureInjection> failures, Tracer* tracer) {
  Job job;
  auto start = Clock::now();
  Coordinator coordinator(config, w.kernel(tracer));
  job.setup_s = seconds_since(start);
  Scope run(tracer, "runtime.run");
  job.run_span = run.id();
  g_run_span = run.id();
  start = Clock::now();
  job.report = coordinator.run(failures);
  job.run_s = seconds_since(start);
  return job;
}

/// Checks one job: the final state matches the checkpoint-free run, the run
/// stayed whole, and the seed-fixed counters match the shadow oracle's
/// prediction for the job's schedule.
void check_job(const rt::RunReport& r, std::uint64_t final_hash,
               const dckpt::chaos::ShadowPrediction& p, Outcome& out) {
  std::string why;
  if (r.final_hash != final_hash) why += " final_hash";
  if (r.fatal || r.degraded) why += " fatal/degraded";
  if (r.checkpoints != p.checkpoints) why += " checkpoints";
  if (r.delta_commits != p.delta_commits) why += " delta_commits";
  if (r.failures != p.failures) why += " failures";
  if (r.chain_replays != p.chain_replays) why += " chain_replays";
  out.check(why.empty(), "runtime job mismatch:" + why);
}

/// state_hash of a checkpoint-free, failure-free run of the same config.
template <typename Coordinator, typename Config, typename Kernel>
std::uint64_t reference_hash(const Workload<Coordinator, Config, Kernel>& w,
                             const Args& args) {
  Config plain = w.config;
  plain.checkpoint_interval = plain.total_steps;  // no boundary is reached
  plain.dcp_stack_size = 0;
  Coordinator reference(plain, w.make_kernel());
  (void)reference.run();
  std::uint64_t hash = rt::state_hash(reference.global_state());
  if (args.sabotage == "final-hash") hash ^= 1;
  return hash;
}

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> rates;  ///< useful steps/s of each job
  std::vector<Job> jobs;
  /// Median over jobs: robust to bursts of contention from other tenants.
  double steps_per_s() const { return median(rates); }
};

template <typename Coordinator, typename Config, typename Kernel>
Phase run_phase(const Workload<Coordinator, Config, Kernel>& w,
                double budget_s, Tracer* tracer) {
  Phase phase;
  const auto start = Clock::now();
  while (phase.jobs.empty() || seconds_since(start) < budget_s) {
    const std::uint64_t index = phase.jobs.size();
    Job job = run_job(w, w.config, w.schedule(index), tracer);
    job.index = index;
    phase.setup_s.push_back(job.setup_s);
    phase.rates.push_back(static_cast<double>(w.useful_steps()) / job.run_s);
    phase.jobs.push_back(std::move(job));
  }
  return phase;
}

template <typename Coordinator, typename Config, typename Kernel>
void run_workload(const Workload<Coordinator, Config, Kernel>& w,
                  const Args& args, Outcome& out) {
  Phase timed;
  Phase plain;  // the untraced half of a traced run
  std::unique_ptr<Tracer> tracer;
  if (!args.trace) {
    timed = run_phase(w, args.seconds, nullptr);
  } else {
    plain = run_phase(w, args.seconds / 2, nullptr);
    tracer = std::make_unique<Tracer>();
    timed = run_phase(w, args.seconds / 2, tracer.get());
    trace_overhead(plain.steps_per_s(), timed.steps_per_s(), out);
  }

  // Sampled before the checks, which are not part of the workload.
  out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  const std::uint64_t final_hash = reference_hash(w, args);
  for (const Job& job : plain.jobs) {
    check_job(job.report, final_hash,
              dckpt::chaos::predict_outcome(w.config, w.schedule(job.index)),
              out);
  }
  rt::RunReport total;
  for (const Job& job : timed.jobs) {
    check_job(job.report, final_hash,
              dckpt::chaos::predict_outcome(w.config, w.schedule(job.index)),
              out);
    total.failures += job.report.failures;
    total.full_commits += job.report.full_commits;
    total.delta_commits += job.report.delta_commits;
    total.chain_replays += job.report.chain_replays;
    total.replayed_steps += job.report.replayed_steps;
  }

  out.metric("setup_s", median(timed.setup_s), "s");
  out.metric("ops_per_s", timed.steps_per_s(), "op/s");
  out.report.set("runtime_steps_per_s", timed.steps_per_s());
  out.report.set("job_rate_p25", quantile(timed.rates, 0.25));
  out.report.set("job_rate_p75", quantile(timed.rates, 0.75));
  out.report.set("jobs", static_cast<std::uint64_t>(timed.jobs.size()));
  out.report.set("steps_per_job", w.useful_steps());
  out.report.set("failures", total.failures);
  out.report.set("full_commits", total.full_commits);
  out.report.set("delta_commits", total.delta_commits);
  out.report.set("chain_replays", total.chain_replays);
  out.report.set("replayed_steps", total.replayed_steps);

  if (!tracer) return;
  // Runtime layer, from the traced jobs. The counters are job 0's, whose
  // schedule every run with this seed repeats.
  const rt::RunReport& r = timed.jobs.front().report;
  std::vector<double> run_s;
  std::vector<double> kernel_s;
  for (const Job& job : timed.jobs) {
    run_s.push_back(job.run_s);
    const auto k = tracer->durations_under("runtime.kernel.step", job.run_span);
    kernel_s.push_back(sum(k));
  }
  // The same config with checkpointing off and no failures.
  Config off = w.config;
  off.checkpoint_interval = off.total_steps;
  off.dcp_stack_size = 0;
  const Job off_job = run_job(w, off, {}, tracer.get());
  out.check(off_job.report.final_hash == final_hash,
            "checkpoint-free job: final_hash differs from the reference");
  const double off_kernel_s =
      sum(tracer->durations_under("runtime.kernel.step", off_job.run_span));
  const double threads = static_cast<double>(w.config.threads);

  out.metric("runtime.run_s", median(run_s), "s");
  out.metric("runtime.kernel_s", median(kernel_s), "s");
  out.metric("runtime.ckpt_off_run_s", off_job.run_s, "s");
  out.metric("runtime.ckpt_share", 1.0 - off_job.run_s / median(run_s),
             "ratio");
  out.metric("runtime.step_other_s", off_job.run_s - off_kernel_s / threads,
             "s");
  const auto count = [&](const char* name, std::uint64_t v) {
    out.metric(name, static_cast<double>(v), "count");
  };
  count("runtime.checkpoints", r.checkpoints);
  count("runtime.delta_commits", r.delta_commits);
  count("runtime.full_commits", r.full_commits);
  count("runtime.bytes_replicated", r.bytes_replicated);
  count("runtime.cow_copies", r.cow_copies);
  count("runtime.rollbacks", r.rollbacks);
  count("runtime.replayed_steps", r.replayed_steps);
  count("runtime.chain_replays", r.chain_replays);
  count("runtime.chain_replay_depth", r.chain_replay_depth);
  count("runtime.rereplications", r.rereplications);
  count("runtime.risk_steps", r.risk_steps);
  out.metric("runtime.replay_share",
             static_cast<double>(r.replayed_steps) /
                 static_cast<double>(r.steps_executed),
             "ratio");

  ckpt_layers(*tracer, w.geometry, out);
  finish_trace(*tracer, args, out);
}

/// Seeded loss schedule of one job: one node loss in each 50-step window,
/// on a random node at a random step of the window's middle 40 steps,
/// redrawn until the shadow oracle predicts no fatal loss.
std::vector<rt::FailureInjection> loss_schedule(const rt::GridConfig& config,
                                                std::uint64_t seed,
                                                std::uint64_t job) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    dckpt::util::Xoshiro256ss rng(seed * 1000003 + job * 1009 + attempt);
    std::vector<rt::FailureInjection> losses;
    for (std::uint64_t window = 0; window + kLossWindow <= config.total_steps;
         window += kLossWindow) {
      rt::FailureInjection loss;
      loss.step = window + 5 + rng.next_below(kLossWindow - 10);
      loss.node = rng.next_below(config.nodes());
      loss.kind = rt::InjectionKind::NodeLoss;
      losses.push_back(loss);
    }
    if (!dckpt::chaos::predict_outcome(config, losses).fatal) return losses;
  }
}

}  // namespace

void run_chain_dcp(const Args& args, Outcome& out) {
  Workload<rt::Coordinator, rt::RuntimeConfig, rt::Kernel> w;
  w.config.nodes = kChainNodes;
  w.config.topology = dckpt::ckpt::Topology::Pairs;
  w.config.cells_per_node = kChainCells;
  w.config.checkpoint_interval = kChainInterval;
  w.config.total_steps = kChainSteps;
  w.config.threads = kThreads;
  w.config.dcp_stack_size = kChainStack;
  w.config.dcp_block_size = kBlockBytes;
  const std::uint64_t seed = args.seed;
  w.schedule = [](std::uint64_t) { return std::vector<rt::FailureInjection>(); };
  w.make_kernel = [seed] { return std::make_unique<DriftWindowKernel>(seed); };

  auto kernel = std::make_shared<DriftWindowKernel>(seed);
  w.geometry.nodes = kChainNodes;
  w.geometry.topology = dckpt::ckpt::Topology::Pairs;
  w.geometry.image_bytes = kChainCells * sizeof(double);
  w.geometry.block_size = kBlockBytes;
  w.geometry.stack_size = kChainStack;
  w.geometry.interval = kChainInterval;
  w.geometry.init = [kernel](std::uint64_t node, std::span<double> state) {
    kernel->initialize(node * kChainCells, state);
  };
  w.geometry.step = [kernel](std::uint64_t, std::span<const double> prev,
                             std::span<double> next) {
    kernel->step(prev, next, 0.0, 0.0);
  };
  out.report.set("state_bytes_per_node", static_cast<std::uint64_t>(
                                             kChainCells * sizeof(double)));
  run_workload(w, args, out);
}

void run_grid_recovery(const Args& args, Outcome& out) {
  Workload<rt::GridCoordinator, rt::GridConfig, rt::GridKernel> w;
  w.config.grid_rows = kGridSide;
  w.config.grid_cols = kGridSide;
  w.config.topology = dckpt::ckpt::Topology::Triples;
  w.config.block_rows = kBlockSide;
  w.config.block_cols = kBlockSide;
  w.config.checkpoint_interval = kGridInterval;
  w.config.total_steps = kGridSteps;
  w.config.threads = kThreads;
  w.config.rereplication_delay_steps = kRereplicationDelay;
  w.config.dcp_stack_size = kGridStack;
  w.config.dcp_block_size = kBlockBytes;
  const std::uint64_t seed = args.seed;
  w.schedule = [config = w.config, seed](std::uint64_t job) {
    return loss_schedule(config, seed, job);
  };
  w.make_kernel = [] { return std::make_unique<rt::HeatKernel2D>(); };

  auto kernel = std::make_shared<rt::HeatKernel2D>();
  auto zeros = std::make_shared<std::vector<double>>(kBlockSide, 0.0);
  w.geometry.nodes = w.config.nodes();
  w.geometry.topology = dckpt::ckpt::Topology::Triples;
  w.geometry.image_bytes = kBlockSide * kBlockSide * sizeof(double);
  w.geometry.block_size = kBlockBytes;
  w.geometry.stack_size = kGridStack;
  w.geometry.interval = kGridInterval;
  w.geometry.init = [kernel](std::uint64_t node, std::span<double> state) {
    kernel->initialize((node / kGridSide) * kBlockSide,
                       (node % kGridSide) * kBlockSide, kBlockSide, kBlockSide,
                       state);
  };
  w.geometry.step = [kernel, zeros](std::uint64_t, std::span<const double> prev,
                                    std::span<double> next) {
    kernel->step(prev, next, kBlockSide, kBlockSide, *zeros, *zeros, *zeros,
                 *zeros);
  };
  out.report.set("state_bytes_per_node",
                 static_cast<std::uint64_t>(w.geometry.image_bytes));
  run_workload(w, args, out);
}

}  // namespace perfbench
