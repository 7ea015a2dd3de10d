#include "sim/batch_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "model/protocol.hpp"
#include "sim/engine_geometry.hpp"
#include "sim/failure_injector.hpp"

namespace dckpt::sim {
namespace {

using engine::Geometry;
using engine::kPhaseEpsilon;
using engine::kWorkEpsilon;

/// Raw xoshiro words per bulk refill (one cache-line-friendly block).
/// Kept modest: a trial consumes roughly two words per failure, so a large
/// block would mostly pre-generate words the trial never reads.
constexpr std::size_t kWordBlock = 64;
/// Pre-sampled failure events per refill of the exponential event ring.
/// Each pre-sampled event costs a log(); sampling far past the trial's last
/// failure is pure waste, so the block is small and refills amortize the
/// loop overhead rather than the sampling itself.
constexpr std::size_t kEventBlock = 8;

/// Conservative relative margin for the fast-path guards. It dwarfs the few
/// ulps of drift between the guard arithmetic and the exact per-step values
/// (< 10 rounding errors of 2^-53 each), so a passing guard *proves* the
/// scalar engine would see an event-free, cap-free, completion-free period,
/// while a near-boundary period merely falls back to exact stepping.
constexpr double kGuardMargin = 1.0 + 1e-12;

/// Margin for the multi-period fast-run bound: must dominate both
/// kGuardMargin and the rounding drift the += chains accumulate over
/// kMaxFastRun periods (~3 * kMaxFastRun ulps < 1e-10 relative).
constexpr double kMultiMargin = 1.0 + 2e-9;
constexpr double kInvMultiMargin = 1.0 / kMultiMargin;
constexpr std::size_t kMaxFastRun = 65536;

enum class Phase : std::uint8_t {
  Part1, Part2, Part3, Down, Recover, Reexec, Verify, Proactive
};

/// Open exposure window, the flat-vector mirror of RiskTracker's per-group
/// map. Failure times are strictly increasing within a trial, so pruning
/// globally on each failure drops only windows that could never influence a
/// later verdict -- decisions are identical to the lazy per-group pruning.
struct RiskWin {
  std::uint64_t group;
  std::uint64_t member;
  double expiry;
};

/// Exponential platform failures, pre-sampled in blocks.
///
/// PlatformExponentialInjector is a pure function of its RNG stream (peek
/// samples lazily, replacement is a no-op for the memoryless process), so
/// sampling kEventBlock arrivals ahead yields exactly the events the scalar
/// injector would produce on demand: per event one open-zero uniform for the
/// inter-arrival, then Lemire rejection words for the node id, in that order.
class ExpEventSource {
 public:
  void reset(std::uint64_t seed, double platform_mtbf, std::uint64_t nodes) {
    rng_ = util::Xoshiro256ss(seed);
    rate_ = 1.0 / platform_mtbf;  // same literal op as the scalar injector
    node_count_ = nodes;
    clock_ = 0.0;
    word_pos_ = kWordBlock;
    refill_events();
  }

  double peek_time() const noexcept { return times_[head_]; }
  std::uint64_t peek_node() const noexcept { return nodes_[head_]; }

  void pop() {
    if (++head_ == kEventBlock) refill_events();
  }

  void on_node_replaced(std::uint64_t, double, double) noexcept {
    // Memoryless process: replacement changes nothing (mirrors the scalar
    // injector exactly).
  }

 private:
  std::uint64_t word() {
    if (word_pos_ == kWordBlock) {
      rng_.fill(words_.data(), kWordBlock);
      word_pos_ = 0;
    }
    return words_[word_pos_++];
  }

  /// Lemire multiply-shift rejection, verbatim from Xoshiro256ss::next_below
  /// but consuming words from the bulk ring in the same order.
  std::uint64_t next_below(std::uint64_t bound) {
    std::uint64_t x = word();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = word();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  void refill_events() {
    head_ = 0;
    for (std::size_t i = 0; i < kEventBlock; ++i) {
      // (0, 1] uniform from the top 53 bits -- identical rounding to
      // Xoshiro256ss::next_double_open_zero.
      const double u =
          (static_cast<double>(word() >> 11) + 1.0) * 0x1.0p-53;
      clock_ += -std::log(u) / rate_;
      times_[i] = clock_;
      nodes_[i] = next_below(node_count_);
    }
  }

  util::Xoshiro256ss rng_{0};
  double rate_ = 1.0;
  std::uint64_t node_count_ = 1;
  double clock_ = 0.0;
  std::array<std::uint64_t, kWordBlock> words_{};
  std::size_t word_pos_ = kWordBlock;
  std::array<double, kEventBlock> times_{};
  std::array<std::uint64_t, kEventBlock> nodes_{};
  std::size_t head_ = 0;
};

/// Per-node renewal failures (Weibull et al.): wraps the real injector so
/// heap ordering, generation invalidation and draw order are identical by
/// construction. The lane builds its injector once and resets it for every
/// later trial (no per-trial law clones or heap allocation). The cached
/// next event is refreshed only at the points where the scalar engine would
/// observe peek() -- never between pop() and on_node_replaced(), where the
/// heap is in a transient state.
class RenewalEventSource {
 public:
  void set_law(const util::Weibull& weibull) { law_ = weibull; }

  void reset(std::uint64_t seed, double /*platform_mtbf*/,
             std::uint64_t nodes) {
    const util::Xoshiro256ss stream(seed);
    if (injector_) {
      injector_->reset(stream);
    } else {
      injector_ = std::make_unique<PerNodeInjector>(law_, nodes, stream);
    }
    next_ = injector_->peek();
  }

  double peek_time() const noexcept { return next_.time; }
  std::uint64_t peek_node() const noexcept { return next_.node; }

  void pop() { injector_->pop(); }

  void on_node_replaced(std::uint64_t node, double failure_time,
                        double rebirth_time) {
    injector_->on_node_replaced(node, failure_time, rebirth_time);
    next_ = injector_->peek();
  }

 private:
  util::Weibull law_{1.0, 1.0};
  std::unique_ptr<PerNodeInjector> injector_;
  FailureEvent next_{};
};

/// Cold (exact-path-only) per-lane state. The hot fields live in the SoA
/// arrays of WaveRunner; these are touched only around failures and the
/// completion endgame.
struct LaneCold {
  Phase phase = Phase::Part1;
  double rem = 0.0;      ///< phase_remaining
  double overlap = 0.0;  ///< degraded re-execution window left
  Phase resume_phase = Phase::Part1;
  double resume_rem = 0.0;
  double pre_failure_work = 0.0;
  double risk_open_until = 0.0;
  double time_down = 0.0;
  double time_recovering = 0.0;
  double time_reexecuting = 0.0;
  double time_at_risk = 0.0;
  std::uint64_t failures = 0;
  bool fatal = false;
  double fatal_time = 0.0;
  bool diverged = false;
  bool done = true;
  std::vector<RiskWin> risk;  ///< buffer reused across trials

  // Silent-error mirror of the scalar engine (cold: SDC lanes never take
  // the fast path, so none of this sits on the event-free hot loop).
  util::Xoshiro256ss sdc_rng{0};
  std::uint64_t live_taint = 0;
  std::uint64_t pending_taint = 0;
  engine::SdcLadder ladder;  ///< rung buffer reused across trials
  std::uint64_t periods_since_verify = 0;
  bool resume_fresh_period = false;
  double time_verifying = 0.0;
  std::uint64_t sdc_injected = 0;
  std::uint64_t verifications_run = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t rollback_depth = 0;

  // Fault-prediction mirror of the scalar engine (cold: prediction lanes
  // never take the fast path either -- proactive commits splice into the
  // period structure just like verification does).
  util::Xoshiro256ss pred_rng{0};
  util::Xoshiro256ss false_rng{0};
  double next_true_alarm = 0.0;
  double next_false_alarm = 0.0;
  double pred_decided_for = 0.0;
  bool next_fail_predicted = false;
  Phase proactive_resume_phase = Phase::Part1;
  double proactive_resume_rem = 0.0;
  double time_proactive = 0.0;
  std::uint64_t alarms_raised = 0;
  std::uint64_t proactive_ckpts = 0;
  std::uint64_t true_predictions = 0;
  std::uint64_t missed_failures = 0;
};

template <class Source>
class WaveRunner {
 public:
  WaveRunner(const SimConfig& config, const MonteCarloOptions& options)
      : geo_(engine::make_geometry(config.protocol, config.params,
                                   config.period, config.dcp)),
        t_base_(config.t_base),
        cap_(engine::makespan_cap(config.max_makespan, config.t_base,
                                  config.period)),
        stop_on_fatal_(config.stop_on_fatal),
        mtbf_(config.params.mtbf),
        nodes_(config.params.nodes),
        seed_(options.seed),
        group_size_(
            static_cast<std::uint64_t>(model::group_size(config.protocol))),
        sdc_rate_(config.sdc.rate),
        verify_cost_(config.sdc.verify_cost),
        verify_every_(config.sdc.verify_every),
        keep_last_(config.keep_last),
        pred_recall_(config.predictor.recall),
        pred_window_(config.predictor.window),
        proactive_cost_(config.predictor.proactive_cost),
        false_rate_(config.predictor.recall > 0.0
                        ? engine::false_alarm_rate(config.params.mtbf,
                                                   config.predictor.precision,
                                                   config.predictor.recall)
                        : 0.0) {
    // Precomputed per-phase constants. Each gain/loss is the product of the
    // exact operands the scalar advance() multiplies, so applying them in
    // phase order reproduces its rounded += sequence bit-for-bit.
    g1_ = geo_.rate1 * geo_.part1;
    l1_ = (1.0 - geo_.rate1) * geo_.part1;
    g2_ = geo_.rate2 * geo_.part2;
    l2_ = (1.0 - geo_.rate2) * geo_.part2;
    g3_ = 1.0 * geo_.part3;
    sum_parts_ = (geo_.part1 + geo_.part2) + geo_.part3;
    gain_ = (g1_ + g2_) + g3_;
    work_limit_ = t_base_ - (gain_ * kGuardMargin + 2.0 * kWorkEpsilon);
    // The fast path walks whole periods; any zero-length phase chains
    // through end_of_phase() recursion instead, and a work rate above 1
    // would invalidate the division-skip bound (no protocol has one, but
    // guard anyway).
    fast_ok_ = geo_.part1 > 0.0 && geo_.part2 > 0.0 && geo_.part3 > 0.0 &&
               gain_ > 0.0;
    // Verification splices extra phases into the period structure and
    // strikes are events the horizon guard knows nothing about, so SDC
    // trials always run the exact state machine. Same for prediction:
    // alarms are events and proactive commits splice into periods.
    fast_ok_ = fast_ok_ && verify_every_ == 0 && sdc_rate_ == 0.0 &&
               pred_recall_ == 0.0;
    rates_le_one_ = geo_.rate1 <= 1.0 && geo_.rate2 <= 1.0 &&
                    geo_.overlap_rate <= 1.0;
    if (fast_ok_) {
      // Reciprocals for the fast-run bound: the few extra ulps a multiply-
      // by-reciprocal adds over a true divide are absorbed by kMultiMargin
      // (1e-9 relative slack against ~1e-16 reciprocal rounding).
      inv_sum_parts_ = 1.0 / sum_parts_;
      inv_gain_ = 1.0 / gain_;
    }
  }

  /// See run_trials_batched.
  void run(std::size_t begin_trial, std::size_t end_trial,
           const std::function<void(const TrialResult&)>& sink,
           BatchKernelStats& stats) {
    for (std::size_t wave = begin_trial; wave < end_trial;
         wave += kBatchLanes) {
      const std::size_t count = std::min(kBatchLanes, end_trial - wave);
      for (std::size_t lane = 0; lane < count; ++lane) {
        load_lane(lane, wave + lane);
      }
      ++stats.waves;
      stats.lanes += count;
      std::size_t active = count;
      while (active > 0) {
        for (std::size_t lane = 0; lane < count; ++lane) {
          if (cold_[lane].done) continue;
          visit(lane, stats);
          if (cold_[lane].done) --active;
        }
      }
      for (std::size_t lane = 0; lane < count; ++lane) {
        sink(make_result(lane));
      }
    }
  }

  void set_law(const util::Weibull& weibull) {
    for (auto& src : sources_) src.set_law(weibull);
  }

 private:
  void load_lane(std::size_t lane, std::size_t trial) {
    const std::uint64_t stream_seed =
        seed_ ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
    sources_[lane].reset(stream_seed, mtbf_, nodes_);
    now_[lane] = 0.0;
    work_[lane] = 0.0;
    committed_[lane] = 0.0;
    pending_[lane] = 0.0;
    tc_[lane] = 0.0;
    LaneCold& c = cold_[lane];
    const Phase zero = Phase::Part1;
    c.phase = zero;
    c.rem = 0.0;
    c.overlap = 0.0;
    c.resume_phase = zero;
    c.resume_rem = 0.0;
    c.pre_failure_work = 0.0;
    c.risk_open_until = 0.0;
    c.time_down = 0.0;
    c.time_recovering = 0.0;
    c.time_reexecuting = 0.0;
    c.time_at_risk = 0.0;
    c.failures = 0;
    c.fatal = false;
    c.fatal_time = 0.0;
    c.diverged = false;
    c.done = false;
    c.risk.clear();
    c.live_taint = 0;
    c.pending_taint = 0;
    c.periods_since_verify = 0;
    c.resume_fresh_period = false;
    c.time_verifying = 0.0;
    c.sdc_injected = 0;
    c.verifications_run = 0;
    c.sdc_detected = 0;
    c.rollback_depth = 0;
    c.next_true_alarm = std::numeric_limits<double>::infinity();
    c.next_false_alarm = std::numeric_limits<double>::infinity();
    c.pred_decided_for = -std::numeric_limits<double>::infinity();
    c.next_fail_predicted = false;
    c.proactive_resume_phase = zero;
    c.proactive_resume_rem = 0.0;
    c.time_proactive = 0.0;
    c.alarms_raised = 0;
    c.proactive_ckpts = 0;
    c.true_predictions = 0;
    c.missed_failures = 0;
    next_sdc_[lane] = std::numeric_limits<double>::infinity();
    if (verify_every_ > 0) c.ladder.reset(keep_last_);
    if (sdc_rate_ > 0.0) {
      c.sdc_rng = util::Xoshiro256ss(stream_seed ^ engine::kSdcSeedSalt);
      next_sdc_[lane] = engine::next_strike_time(0.0, c.sdc_rng, sdc_rate_);
    }
    if (pred_recall_ > 0.0) {
      c.pred_rng = util::Xoshiro256ss(stream_seed ^ engine::kPredSeedSalt);
      c.false_rng =
          util::Xoshiro256ss(stream_seed ^ engine::kFalseAlarmSeedSalt);
      if (false_rate_ > 0.0) {
        c.next_false_alarm =
            engine::next_strike_time(0.0, c.false_rng, false_rate_);
      }
    }
    next_fail_[lane] = sources_[lane].peek_time();
    start_period(lane);
  }

  TrialResult make_result(std::size_t lane) const {
    const LaneCold& c = cold_[lane];
    TrialResult r;
    r.makespan = now_[lane];
    r.t_base = t_base_;
    r.failures = c.failures;
    r.fatal = c.fatal;
    r.fatal_time = c.fatal_time;
    r.diverged = c.diverged;
    r.time_checkpointing = tc_[lane];
    r.time_down = c.time_down;
    r.time_recovering = c.time_recovering;
    r.time_reexecuting = c.time_reexecuting;
    r.time_at_risk = c.time_at_risk;
    r.time_verifying = c.time_verifying;
    r.sdc_injected = c.sdc_injected;
    r.verifications_run = c.verifications_run;
    r.sdc_detected = c.sdc_detected;
    r.rollback_depth = c.rollback_depth;
    r.time_proactive = c.time_proactive;
    r.alarms_raised = c.alarms_raised;
    r.proactive_ckpts = c.proactive_ckpts;
    r.true_predictions = c.true_predictions;
    r.missed_failures = c.missed_failures;
    return r;
  }

  /// One unit of progress for a parked lane (invariant: immediately after
  /// start_period). The common case is a run of whole event-free periods.
  void visit(std::size_t lane, BatchKernelStats& stats) {
    const double n0 = now_[lane];
    // Conservative horizon past the whole period: if the next failure, the
    // cap and completion all clear it, the scalar engine provably takes the
    // no-event branch at every step of this period.
    const double horizon = (n0 + sum_parts_) * kGuardMargin;
    if (fast_ok_ && next_fail_[lane] >= horizon && horizon <= cap_ &&
        work_[lane] < work_limit_) {
      advance_fast_run(lane, stats);
      return;
    }
    step_exact(lane, stats);
  }

  /// Walks as many consecutive whole periods as can be *proved* event-free
  /// up front, so the inner loop carries no guards, calls or event peeks.
  ///
  /// Soundness: the per-period guard in visit() compares rounded state
  /// (now_k, work_k) against next_fail / cap_ / work_limit_. Over a run of
  /// n <= kMaxFastRun periods the rounded += chains drift from the exact
  /// affine values (n0 + k*sum_parts, w0 + k*gain) by at most ~3n ulps --
  /// under 1e-10 relative for n = 65536 -- so bounding the exact values
  /// with the much coarser kMultiMargin proves every period in the run
  /// would individually pass the guard. The first period is already proved
  /// by visit(), hence n >= 1 even when the coarse bound yields nothing.
  void advance_fast_run(std::size_t lane, BatchKernelStats& stats) {
    const double n0 = now_[lane];
    const double w0 = work_[lane];
    const double fail_lim =
        (next_fail_[lane] * kInvMultiMargin - n0) * inv_sum_parts_;
    const double cap_lim = (cap_ * kInvMultiMargin - n0) * inv_sum_parts_;
    const double work_lim =
        (work_limit_ * kInvMultiMargin - w0) * inv_gain_;
    const double bound =
        std::floor(std::min(std::min(fail_lim, cap_lim), work_lim));
    std::size_t n = 1;
    if (bound > 1.0) {
      n = std::min(static_cast<std::size_t>(bound), kMaxFastRun);
    }
    double w = w0;
    double t = n0;
    double tc = tc_[lane];
    double committed = committed_[lane];
    double pending = pending_[lane];
    for (std::size_t k = 0; k < n; ++k) {
      // The scalar engine's exact += sequence, three advances per period.
      const double w1 = w + g1_;
      const double w2 = w1 + g2_;
      const double w3 = w2 + g3_;
      t = ((t + geo_.part1) + geo_.part2) + geo_.part3;
      tc = (tc + l1_) + l2_;
      committed = pending;
      pending = w3;
      w = w3;
    }
    work_[lane] = w;
    now_[lane] = t;
    tc_[lane] = tc;
    committed_[lane] = committed;
    pending_[lane] = pending;
    stats.fast_periods += n;
  }

  double rate_of(const LaneCold& c) const noexcept {
    switch (c.phase) {
      case Phase::Part1:
        return geo_.rate1;
      case Phase::Part2:
        return geo_.rate2;
      case Phase::Part3:
        return 1.0;
      case Phase::Down:
      case Phase::Recover:
      case Phase::Verify:
      case Phase::Proactive:
        return 0.0;
      case Phase::Reexec:
        return c.overlap > 0.0 ? geo_.overlap_rate : 1.0;
    }
    return 0.0;
  }

  /// Exact port of Engine::advance.
  void advance(std::size_t lane, double rate, double dt) {
    LaneCold& c = cold_[lane];
    const double gained = rate * dt;
    work_[lane] += gained;
    now_[lane] += dt;
    switch (c.phase) {
      case Phase::Part1:
      case Phase::Part2: {
        const double lost = (1.0 - rate) * dt;
        tc_[lane] += lost;
        break;
      }
      case Phase::Part3:
        break;
      case Phase::Down:
        c.time_down += dt;
        break;
      case Phase::Recover:
        c.time_recovering += dt;
        break;
      case Phase::Reexec:
        c.time_reexecuting += dt;
        break;
      case Phase::Verify:
        c.time_verifying += dt;
        break;
      case Phase::Proactive:
        c.time_proactive += dt;
        break;
    }
    c.rem -= dt;
    if (c.phase == Phase::Reexec && c.overlap > 0.0) c.overlap -= dt;
  }

  /// Exact port of Engine::start_period. Returns true: the lane is at the
  /// park point (a fresh period just began).
  bool start_period(std::size_t lane) {
    LaneCold& c = cold_[lane];
    pending_[lane] = work_[lane];
    c.pending_taint = c.live_taint;
    c.phase = Phase::Part1;
    c.rem = geo_.part1;
    if (geo_.part1 == 0.0) return end_of_phase(lane);
    return true;
  }

  bool resume_interrupted(std::size_t lane) {
    LaneCold& c = cold_[lane];
    if (c.resume_fresh_period) {
      c.resume_fresh_period = false;
      return start_period(lane);
    }
    c.phase = c.resume_phase;
    c.rem = c.resume_rem;
    if (c.rem <= 0.0) return end_of_phase(lane);
    return false;
  }

  /// Exact port of Engine::commit_snapshot (a proactive commit taken after
  /// the period's snapshot was captured supersedes it).
  void commit_snapshot(std::size_t lane) {
    LaneCold& c = cold_[lane];
    if (pending_[lane] < committed_[lane]) return;
    committed_[lane] = pending_[lane];
    if (verify_every_ > 0) c.ladder.push(pending_[lane], c.pending_taint);
  }

  /// Exact port of Engine::end_of_period (park semantics of end_of_phase).
  bool end_of_period(std::size_t lane) {
    LaneCold& c = cold_[lane];
    if (verify_every_ > 0 && ++c.periods_since_verify >= verify_every_) {
      c.periods_since_verify = 0;
      c.phase = Phase::Verify;
      c.rem = verify_cost_;
      if (c.rem == 0.0) return end_of_phase(lane);
      return false;
    }
    return start_period(lane);
  }

  /// Exact port of Engine::end_of_phase. Returns true when the transition
  /// chain ended with start_period (the lane may park).
  bool end_of_phase(std::size_t lane) {
    LaneCold& c = cold_[lane];
    switch (c.phase) {
      case Phase::Part1:
        if (geo_.commit_after_part1) commit_snapshot(lane);
        c.phase = Phase::Part2;
        c.rem = geo_.part2;
        return false;
      case Phase::Part2:
        if (!geo_.commit_after_part1) commit_snapshot(lane);
        c.phase = Phase::Part3;
        c.rem = geo_.part3;
        if (geo_.part3 == 0.0) return end_of_period(lane);
        return false;
      case Phase::Part3:
        return end_of_period(lane);
      case Phase::Down:
        c.phase = Phase::Recover;
        c.rem = geo_.recover;
        if (c.rem == 0.0) return end_of_phase(lane);
        return false;
      case Phase::Recover: {
        const double deficit = c.pre_failure_work - work_[lane];
        if (deficit > kWorkEpsilon) {
          c.phase = Phase::Reexec;
          c.overlap = geo_.reexec_overlap;
          c.rem = engine::reexec_duration(geo_, deficit);
          return false;
        }
        return resume_interrupted(lane);
      }
      case Phase::Reexec:
        return resume_interrupted(lane);
      case Phase::Verify:
        return finish_verification(lane);
      case Phase::Proactive:
        committed_[lane] = work_[lane];
        if (verify_every_ > 0) c.ladder.push(work_[lane], c.live_taint);
        ++c.proactive_ckpts;
        c.phase = c.proactive_resume_phase;
        c.rem = c.proactive_resume_rem;
        if (c.rem <= 0.0) return end_of_phase(lane);
        return false;
    }
    return false;
  }

  /// Exact port of Engine::finish_verification.
  bool finish_verification(std::size_t lane) {
    LaneCold& c = cold_[lane];
    ++c.verifications_run;
    if (c.live_taint == 0) return start_period(lane);
    ++c.sdc_detected;
    const std::size_t depth = c.ladder.first_clean();
    if (depth == engine::SdcLadder::npos) {
      if (!c.fatal) {
        c.fatal = true;
        c.fatal_time = now_[lane];
      }
      c.live_taint = 0;
      return start_period(lane);
    }
    c.rollback_depth += depth;
    c.pre_failure_work = work_[lane];
    work_[lane] = c.ladder.rungs[depth].level;
    committed_[lane] = work_[lane];
    c.live_taint = 0;
    c.ladder.drop(depth);
    c.resume_fresh_period = true;
    c.overlap = 0.0;
    c.phase = Phase::Recover;
    c.rem = geo_.recover;
    if (c.rem == 0.0) return end_of_phase(lane);
    return false;
  }

  /// Flat-vector mirror of RiskTracker::on_failure (node ids come from the
  /// injector, hence always < nodes; the range check is compiled out).
  bool risk_on_failure(LaneCold& c, std::uint64_t node, double time) {
    const std::uint64_t group = node / group_size_;
    const std::uint64_t member = node % group_size_;
    std::erase_if(c.risk,
                  [time](const RiskWin& w) { return w.expiry <= time; });
    bool member_open = false;
    std::uint64_t distinct_others = 0;
    std::uint64_t seen_mask = 0;
    for (const RiskWin& w : c.risk) {
      if (w.group != group) continue;
      if (w.member == member) {
        member_open = true;
      } else if (!(seen_mask & (1ULL << w.member))) {
        seen_mask |= 1ULL << w.member;
        ++distinct_others;
      }
    }
    if (distinct_others >= group_size_ - 1) return true;
    const double expiry = time + geo_.risk;
    if (member_open) {
      for (RiskWin& w : c.risk) {
        if (w.group == group && w.member == member) {
          w.expiry = std::max(w.expiry, expiry);
        }
      }
    } else {
      c.risk.push_back(RiskWin{group, member, expiry});
    }
    return false;
  }

  /// Exact port of Engine::handle_failure. Returns false when the trial must
  /// stop (fatal failure with stop_on_fatal).
  bool handle_failure(std::size_t lane) {
    LaneCold& c = cold_[lane];
    Source& src = sources_[lane];
    const double t = next_fail_[lane];
    const std::uint64_t node = src.peek_node();
    src.pop();
    ++c.failures;
    if (pred_recall_ > 0.0) {
      // The decision for this failure was drawn when it first became the
      // pending event; settle the prediction scoreboard.
      if (c.next_fail_predicted) {
        ++c.true_predictions;
      } else {
        ++c.missed_failures;
      }
    }
    const bool fatal = risk_on_failure(c, node, t);
    const double window_close = t + geo_.risk;
    c.time_at_risk += std::min(geo_.risk, window_close - c.risk_open_until);
    c.risk_open_until = window_close;
    src.on_node_replaced(node, t, t + geo_.downtime);
    next_fail_[lane] = src.peek_time();
    if (fatal) {
      c.fatal = true;
      c.fatal_time = t;
      if (stop_on_fatal_) return false;
    }
    const bool in_failure_handling = c.phase == Phase::Down ||
                                     c.phase == Phase::Recover ||
                                     c.phase == Phase::Reexec;
    if (!in_failure_handling) {
      if (c.phase == Phase::Proactive) {
        // The failure kills the in-flight proactive checkpoint; after
        // repair the run resumes the phase the alarm had interrupted.
        c.resume_phase = c.proactive_resume_phase;
        c.resume_rem = c.proactive_resume_rem;
      } else {
        c.resume_phase = c.phase;
        c.resume_rem = c.rem;
      }
      c.pre_failure_work = work_[lane];
    }
    work_[lane] = committed_[lane];
    if (verify_every_ > 0) c.live_taint = c.ladder.front_taint();
    c.phase = Phase::Down;
    c.rem = geo_.downtime;
    c.overlap = 0.0;
    if (c.rem == 0.0) end_of_phase(lane);
    return true;
  }

  /// Exact port of Engine::decide_prediction (same RNG consumption: one
  /// decision per distinct pending-failure time, idempotent in between).
  void decide_prediction(std::size_t lane) {
    LaneCold& c = cold_[lane];
    const double fail_time = next_fail_[lane];
    if (fail_time == c.pred_decided_for) return;
    c.pred_decided_for = fail_time;
    c.next_fail_predicted = false;
    c.next_true_alarm = std::numeric_limits<double>::infinity();
    if (!std::isfinite(fail_time)) return;
    if (c.pred_rng.next_double_open_zero() > pred_recall_) return;
    c.next_fail_predicted = true;
    const double lead =
        pred_window_ > 0.0
            ? pred_window_ * c.pred_rng.next_double_open_zero()
            : proactive_cost_;
    c.next_true_alarm = std::max(fail_time - lead, now_[lane]);
  }

  /// Exact port of Engine::handle_alarm.
  void handle_alarm(std::size_t lane, bool true_alarm) {
    LaneCold& c = cold_[lane];
    ++c.alarms_raised;
    if (true_alarm) {
      c.next_true_alarm = std::numeric_limits<double>::infinity();
    } else {
      c.next_false_alarm = engine::next_strike_time(c.next_false_alarm,
                                                    c.false_rng, false_rate_);
    }
    const bool busy = c.phase == Phase::Down || c.phase == Phase::Recover ||
                      c.phase == Phase::Reexec || c.phase == Phase::Verify ||
                      c.phase == Phase::Proactive;
    if (busy || work_[lane] - committed_[lane] <= kWorkEpsilon) return;
    c.proactive_resume_phase = c.phase;
    c.proactive_resume_rem = c.rem;
    c.phase = Phase::Proactive;
    c.rem = proactive_cost_;
    if (c.rem == 0.0) end_of_phase(lane);
  }

  /// Exact port of Engine::run's event loop, entered from a park point.
  /// Runs until the trial finishes or a fresh period starts (re-park).
  void step_exact(std::size_t lane, BatchKernelStats& stats) {
    LaneCold& c = cold_[lane];
    for (;;) {
      ++stats.exact_steps;
      if (t_base_ - work_[lane] <= kWorkEpsilon) {
        c.done = true;
        return;
      }
      if (now_[lane] > cap_) {
        c.diverged = true;
        c.done = true;
        return;
      }
      const double rate = rate_of(c);
      double dt = c.rem;
      if (c.phase == Phase::Reexec && c.overlap > 0.0) {
        dt = std::min(dt, c.overlap);
      }
      if (rate > 0.0) {
        // The completion quotient binds only near the end of the trial;
        // skip the division whenever room > dt (safe since rate <= 1).
        const double room = t_base_ - work_[lane];
        if (!(rates_le_one_ && room > dt * kGuardMargin)) {
          dt = std::min(dt, room / rate);
        }
      }
      if (pred_recall_ > 0.0) decide_prediction(lane);
      // Event ordering on ties mirrors the scalar loop exactly:
      // alarm > strike > failure.
      const double next_alarm =
          std::min(c.next_true_alarm, c.next_false_alarm);
      const bool alarm_first = next_alarm <= next_sdc_[lane] &&
                               next_alarm <= next_fail_[lane];
      const bool strike_first =
          !alarm_first && next_sdc_[lane] <= next_fail_[lane];
      const double event_time =
          alarm_first ? next_alarm
                      : (strike_first ? next_sdc_[lane] : next_fail_[lane]);
      if (event_time < now_[lane] + dt) {
        advance(lane, rate, event_time - now_[lane]);
        if (alarm_first) {
          handle_alarm(lane, c.next_true_alarm <= c.next_false_alarm);
        } else if (strike_first) {
          ++c.sdc_injected;
          ++c.live_taint;
          next_sdc_[lane] =
              engine::next_strike_time(next_sdc_[lane], c.sdc_rng, sdc_rate_);
        } else if (!handle_failure(lane)) {
          c.done = true;
          return;
        }
        continue;
      }
      advance(lane, rate, dt);
      if (t_base_ - work_[lane] <= kWorkEpsilon) {
        c.done = true;
        return;
      }
      if (c.rem <= kPhaseEpsilon) {
        const bool parked = end_of_phase(lane);
        // A verification can end the run too (fatal-accept with
        // stop_on_fatal); mirror the scalar loop's post-transition check.
        if (c.fatal && stop_on_fatal_) {
          c.done = true;
          return;
        }
        if (parked) return;  // parked at a fresh period start
      }
    }
  }

  const Geometry geo_;
  const double t_base_;
  const double cap_;
  const bool stop_on_fatal_;
  const double mtbf_;
  const std::uint64_t nodes_;
  const std::uint64_t seed_;
  const std::uint64_t group_size_;
  const double sdc_rate_;
  const double verify_cost_;
  const std::uint64_t verify_every_;
  const std::uint64_t keep_last_;
  const double pred_recall_;
  const double pred_window_;
  const double proactive_cost_;
  const double false_rate_;

  double gain_ = 0.0;  ///< work gained per whole period
  double inv_sum_parts_ = 0.0, inv_gain_ = 0.0;  ///< set when fast_ok_
  double g1_ = 0.0, g2_ = 0.0, g3_ = 0.0;  ///< per-phase work gains
  double l1_ = 0.0, l2_ = 0.0;             ///< per-phase checkpointing losses
  double sum_parts_ = 0.0;
  double work_limit_ = 0.0;
  bool fast_ok_ = false;
  bool rates_le_one_ = false;

  // Hot per-lane state, structure-of-arrays.
  std::array<double, kBatchLanes> now_{};
  std::array<double, kBatchLanes> work_{};
  std::array<double, kBatchLanes> committed_{};
  std::array<double, kBatchLanes> pending_{};
  std::array<double, kBatchLanes> tc_{};
  std::array<double, kBatchLanes> next_fail_{};
  std::array<double, kBatchLanes> next_sdc_{};
  std::array<Source, kBatchLanes> sources_{};
  std::array<LaneCold, kBatchLanes> cold_{};
};

}  // namespace

void run_trials_batched(const SimConfig& config,
                        const MonteCarloOptions& options,
                        std::size_t begin_trial, std::size_t end_trial,
                        const std::function<void(const TrialResult&)>& sink,
                        BatchKernelStats& stats) {
  if (begin_trial >= end_trial) return;
  if (options.weibull) {
    auto runner =
        std::make_unique<WaveRunner<RenewalEventSource>>(config, options);
    runner->set_law(*options.weibull);
    runner->run(begin_trial, end_trial, sink, stats);
  } else {
    auto runner =
        std::make_unique<WaveRunner<ExpEventSource>>(config, options);
    runner->run(begin_trial, end_trial, sink, stats);
  }
}

}  // namespace dckpt::sim
