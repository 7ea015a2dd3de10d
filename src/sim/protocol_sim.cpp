#include "sim/protocol_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/risk.hpp"
#include "model/waste.hpp"
#include "sim/engine_geometry.hpp"

namespace dckpt::sim {

namespace {

using engine::Geometry;
using engine::kWorkEpsilon;

enum class Phase {
  Part1, Part2, Part3, Down, Recover, Reexec, Verify, Proactive
};

Geometry make_geometry(const SimConfig& config) {
  return engine::make_geometry(config.protocol, config.params, config.period,
                               config.dcp);
}

/// Full mutable engine state.
struct Engine {
  const SimConfig& config;
  const Geometry geo;
  FailureInjector& injector;
  RiskTracker risk_tracker;
  Trace* trace;

  double now = 0.0;
  double work = 0.0;       ///< current application state level
  double committed = 0.0;  ///< level of the last committed snapshot set
  double pending = 0.0;    ///< level captured by the in-flight snapshot

  Phase phase = Phase::Part1;
  double phase_remaining = 0.0;

  // Failure-handling context.
  double pre_failure_work = 0.0;       ///< level to restore via re-execution
  Phase resume_phase = Phase::Part1;   ///< interrupted phase to resume
  double resume_remaining = 0.0;
  double overlap_remaining = 0.0;      ///< degraded re-execution window left
  double risk_open_until = 0.0;        ///< latest risk-window expiry seen

  // Silent-error state (active when sdc.verify_every > 0 / sdc.rate > 0).
  util::Xoshiro256ss sdc_rng;
  double next_sdc = std::numeric_limits<double>::infinity();
  std::uint64_t live_taint = 0;     ///< strikes present in the live state
  std::uint64_t pending_taint = 0;  ///< live_taint when `pending` was captured
  engine::SdcLadder ladder;
  std::uint64_t periods_since_verify = 0;
  /// Set by a verified rollback: its Recover/Reexec chain ends in a fresh
  /// period, not a saved phase (resuming Part3-with-zero-remaining instead
  /// would re-enter the boundary hook and double-count the period).
  bool resume_fresh_period = false;

  // Fault-prediction state (active when predictor.recall > 0).
  util::Xoshiro256ss pred_rng;   ///< per-failure decision + lead draws
  util::Xoshiro256ss false_rng;  ///< false-alarm Poisson clock
  double false_rate = 0.0;
  double next_true_alarm = std::numeric_limits<double>::infinity();
  double next_false_alarm = std::numeric_limits<double>::infinity();
  /// Failure time the last predictor decision was drawn for (one decision
  /// per distinct pending-failure time; -inf = none yet).
  double pred_decided_for = -std::numeric_limits<double>::infinity();
  bool next_fail_predicted = false;
  Phase proactive_resume_phase = Phase::Part1;  ///< interrupted by the alarm
  double proactive_resume_remaining = 0.0;

  TrialResult result;

  Engine(const SimConfig& cfg, std::unique_ptr<FailureInjector>& inj,
         std::uint64_t stream_seed, Trace* tr)
      : config(cfg), geo(make_geometry(cfg)), injector(*inj),
        risk_tracker(cfg.params.nodes, model::group_size(cfg.protocol)),
        trace(tr), sdc_rng(stream_seed ^ engine::kSdcSeedSalt),
        pred_rng(stream_seed ^ engine::kPredSeedSalt),
        false_rng(stream_seed ^ engine::kFalseAlarmSeedSalt) {
    if (config.sdc.verify_every > 0) ladder.reset(config.keep_last);
    if (config.sdc.rate > 0.0) {
      next_sdc = engine::next_strike_time(0.0, sdc_rng, config.sdc.rate);
    }
    if (config.predictor.recall > 0.0) {
      false_rate = engine::false_alarm_rate(config.params.mtbf,
                                            config.predictor.precision,
                                            config.predictor.recall);
      if (false_rate > 0.0) {
        next_false_alarm =
            engine::next_strike_time(0.0, false_rng, false_rate);
      }
    }
  }

  void record(TraceKind kind, std::uint64_t node = 0) {
    if (trace) trace->record(now, kind, node, work);
  }

  double current_rate() const {
    switch (phase) {
      case Phase::Part1:
        return geo.rate1;
      case Phase::Part2:
        return geo.rate2;
      case Phase::Part3:
        return 1.0;
      case Phase::Down:
      case Phase::Recover:
      case Phase::Verify:
      case Phase::Proactive:
        return 0.0;
      case Phase::Reexec:
        return overlap_remaining > 0.0 ? geo.overlap_rate : 1.0;
    }
    return 0.0;
  }

  bool in_failure_handling() const {
    return phase == Phase::Down || phase == Phase::Recover ||
           phase == Phase::Reexec;
  }

  void start_period() {
    pending = work;
    pending_taint = live_taint;
    phase = Phase::Part1;
    phase_remaining = geo.part1;
    record(TraceKind::PeriodStart);
    if (geo.part1 == 0.0) end_of_phase();  // degenerate delta = 0
  }

  /// Charges `dt` of wall-clock at the current phase rate, updating work
  /// and the loss breakdown.
  void advance(double dt) {
    const double rate = current_rate();
    // Multiply-then-add through named temporaries: keeps the arithmetic a
    // plain rounded product plus a rounded sum even under -ffp-contract=fast
    // (no silent FMA fusion), so the batched kernel can reproduce it
    // bit-exactly from precomputed per-phase products.
    const double gained = rate * dt;
    work += gained;
    now += dt;
    switch (phase) {
      case Phase::Part1:
      case Phase::Part2: {
        const double lost = (1.0 - rate) * dt;
        result.time_checkpointing += lost;
        break;
      }
      case Phase::Part3:
        break;
      case Phase::Down:
        result.time_down += dt;
        break;
      case Phase::Recover:
        result.time_recovering += dt;
        break;
      case Phase::Reexec:
        result.time_reexecuting += dt;
        break;
      case Phase::Verify:
        result.time_verifying += dt;
        break;
      case Phase::Proactive:
        result.time_proactive += dt;
        break;
    }
    phase_remaining -= dt;
    if (phase == Phase::Reexec && overlap_remaining > 0.0) {
      overlap_remaining -= dt;
    }
  }

  /// Commits the in-flight snapshot and records it on the retention ladder
  /// (with the taint it captured) when verification is enabled. A proactive
  /// commit taken after this period's snapshot was captured supersedes it:
  /// committed never regresses (a no-op without prediction, where pending
  /// is always >= committed).
  void commit_snapshot() {
    if (pending < committed) return;
    committed = pending;
    if (config.sdc.verify_every > 0) ladder.push(pending, pending_taint);
  }

  /// Period-boundary hook: runs the blocking verification when one is due,
  /// otherwise starts the next period directly.
  void end_of_period() {
    if (config.sdc.verify_every > 0 &&
        ++periods_since_verify >= config.sdc.verify_every) {
      periods_since_verify = 0;
      phase = Phase::Verify;
      phase_remaining = config.sdc.verify_cost;
      if (phase_remaining == 0.0) end_of_phase();
      return;
    }
    start_period();
  }

  void end_of_phase() {
    switch (phase) {
      case Phase::Part1:
        if (geo.commit_after_part1) {
          commit_snapshot();
          record(TraceKind::PreferredCopyDone);
        } else {
          record(TraceKind::LocalCheckpointDone);
        }
        phase = Phase::Part2;
        phase_remaining = geo.part2;
        break;
      case Phase::Part2:
        if (!geo.commit_after_part1) commit_snapshot();
        record(TraceKind::RemoteExchangeDone);
        phase = Phase::Part3;
        phase_remaining = geo.part3;
        if (geo.part3 == 0.0) end_of_period();
        break;
      case Phase::Part3:
        end_of_period();
        break;
      case Phase::Down:
        record(TraceKind::DowntimeEnd);
        phase = Phase::Recover;
        phase_remaining = geo.recover;
        if (phase_remaining == 0.0) end_of_phase();
        break;
      case Phase::Recover:
        record(TraceKind::RecoveryEnd);
        if (pre_failure_work - work > kWorkEpsilon) {
          phase = Phase::Reexec;
          overlap_remaining = geo.reexec_overlap;
          // Time to re-gain the deficit: degraded window first, then full
          // speed.
          phase_remaining = reexec_duration(pre_failure_work - work);
        } else {
          resume_interrupted();
        }
        break;
      case Phase::Reexec:
        record(TraceKind::ReexecutionEnd);
        resume_interrupted();
        break;
      case Phase::Verify:
        finish_verification();
        break;
      case Phase::Proactive:
        // The proactive snapshot commits at the alarm's work level and
        // lands on the retention ladder like any other commit.
        committed = work;
        if (config.sdc.verify_every > 0) ladder.push(work, live_taint);
        ++result.proactive_ckpts;
        record(TraceKind::ProactiveCommit);
        phase = proactive_resume_phase;
        phase_remaining = proactive_resume_remaining;
        if (phase_remaining <= 0.0) end_of_phase();
        break;
    }
  }

  /// Verification decision at the end of a Verify phase. A clean live state
  /// starts the next period; detected corruption rolls back to the
  /// shallowest clean ladder rung (recovery transfer, then re-execution of
  /// the discarded work); with no clean rung left the run is fatal and the
  /// corrupt state is accepted as the new truth (mirroring the runtime's
  /// fatal-accept semantics).
  void finish_verification() {
    ++result.verifications_run;
    if (live_taint == 0) {
      start_period();
      return;
    }
    ++result.sdc_detected;
    const std::size_t depth = ladder.first_clean();
    if (depth == engine::SdcLadder::npos) {
      if (!result.fatal) {
        result.fatal = true;
        result.fatal_time = now;
      }
      live_taint = 0;
      start_period();
      return;
    }
    result.rollback_depth += depth;
    record(TraceKind::Rollback);
    pre_failure_work = work;
    work = ladder.rungs[depth].level;
    committed = work;
    live_taint = 0;  // the selected rung is clean by construction
    ladder.drop(depth);
    resume_fresh_period = true;
    overlap_remaining = 0.0;
    phase = Phase::Recover;
    phase_remaining = geo.recover;
    if (phase_remaining == 0.0) end_of_phase();
  }

  double reexec_duration(double deficit) const {
    return engine::reexec_duration(geo, deficit);
  }

  void resume_interrupted() {
    if (resume_fresh_period) {
      resume_fresh_period = false;
      start_period();
      return;
    }
    phase = resume_phase;
    phase_remaining = resume_remaining;
    if (phase_remaining <= 0.0) {
      end_of_phase();
    }
  }

  void handle_failure(const FailureEvent& event) {
    injector.pop();
    ++result.failures;
    if (config.predictor.recall > 0.0) {
      // The decision for this failure was drawn when it first became the
      // pending event; settle the prediction scoreboard.
      if (next_fail_predicted) {
        ++result.true_predictions;
      } else {
        ++result.missed_failures;
      }
    }
    record(TraceKind::Failure, event.node);
    const bool fatal =
        risk_tracker.on_failure(event.node, event.time, geo.risk);
    record(TraceKind::RiskWindowOpen, event.node);
    // Exposure accounting: windows all have length geo.risk and open in
    // time order, so the union grows by the part past the furthest expiry
    // (the full window when the previous one has already closed).
    const double window_close = event.time + geo.risk;
    result.time_at_risk += std::min(geo.risk, window_close - risk_open_until);
    risk_open_until = window_close;
    injector.on_node_replaced(event.node, event.time,
                              event.time + geo.downtime);
    if (fatal) {
      record(TraceKind::FatalFailure, event.node);
      result.fatal = true;
      result.fatal_time = event.time;
      if (config.stop_on_fatal) return;
    }
    if (!in_failure_handling()) {
      if (phase == Phase::Proactive) {
        // The failure kills the in-flight proactive checkpoint; after
        // repair the run resumes the phase the alarm had interrupted.
        resume_phase = proactive_resume_phase;
        resume_remaining = proactive_resume_remaining;
      } else {
        // Save the interrupted phase; it resumes at its offset after
        // repair.
        resume_phase = phase;
        resume_remaining = phase_remaining;
      }
      pre_failure_work = work;
    }
    // Failures inside Down/Recover/Reexec keep the saved context; the
    // rollback target and deficit are unchanged.
    record(TraceKind::Rollback, event.node);
    work = committed;
    // Restoring the newest committed snapshot re-introduces whatever silent
    // corruption it captured (and sheds strikes it predates).
    if (config.sdc.verify_every > 0) live_taint = ladder.front_taint();
    phase = Phase::Down;
    phase_remaining = geo.downtime;
    overlap_remaining = 0.0;
    if (phase_remaining == 0.0) end_of_phase();
  }

  /// A silent strike: taints the live state invisibly (no rollback, no
  /// downtime -- detection waits for the next verification).
  void handle_strike() {
    ++result.sdc_injected;
    ++live_taint;
    next_sdc = engine::next_strike_time(next_sdc, sdc_rng, config.sdc.rate);
  }

  /// One predictor decision per distinct pending-failure time: with
  /// probability r the failure is predicted and a true alarm is scheduled
  /// `lead` seconds ahead of it -- lead uniform in (0, w) when the window w
  /// is positive, exactly C_p when w == 0 (the alarm arrives just in time
  /// for the proactive checkpoint to complete as the failure lands).
  void decide_prediction(double fail_time) {
    if (fail_time == pred_decided_for) return;
    pred_decided_for = fail_time;
    next_fail_predicted = false;
    next_true_alarm = std::numeric_limits<double>::infinity();
    if (!std::isfinite(fail_time)) return;
    if (pred_rng.next_double_open_zero() > config.predictor.recall) return;
    next_fail_predicted = true;
    const double lead =
        config.predictor.window > 0.0
            ? config.predictor.window * pred_rng.next_double_open_zero()
            : config.predictor.proactive_cost;
    next_true_alarm = std::max(fail_time - lead, now);
  }

  /// An alarm (true or false): unless the run is repairing/verifying, or a
  /// proactive checkpoint is already in flight, or nothing new would be
  /// saved (skip-if-just-committed), the current work level is captured by
  /// a blocking proactive checkpoint of cost C_p.
  void handle_alarm(bool true_alarm) {
    ++result.alarms_raised;
    record(TraceKind::Alarm);
    if (true_alarm) {
      next_true_alarm = std::numeric_limits<double>::infinity();
    } else {
      next_false_alarm =
          engine::next_strike_time(next_false_alarm, false_rng, false_rate);
    }
    if (in_failure_handling() || phase == Phase::Verify ||
        phase == Phase::Proactive || work - committed <= kWorkEpsilon) {
      return;
    }
    proactive_resume_phase = phase;
    proactive_resume_remaining = phase_remaining;
    phase = Phase::Proactive;
    phase_remaining = config.predictor.proactive_cost;
    if (phase_remaining == 0.0) end_of_phase();
  }

  TrialResult run() {
    result.t_base = config.t_base;
    const double cap =
        engine::makespan_cap(config.max_makespan, config.t_base, config.period);
    start_period();
    while (config.t_base - work > kWorkEpsilon) {
      if (now > cap) {
        result.diverged = true;
        break;
      }
      const double rate = current_rate();
      double dt = phase_remaining;
      // The work rate jumps when the degraded re-execution window closes;
      // never integrate across that boundary.
      if (phase == Phase::Reexec && overlap_remaining > 0.0) {
        dt = std::min(dt, overlap_remaining);
      }
      // Stop exactly when the application completes mid-phase.
      if (rate > 0.0) {
        dt = std::min(dt, (config.t_base - work) / rate);
      }
      const FailureEvent next_failure = injector.peek();
      if (config.predictor.recall > 0.0) decide_prediction(next_failure.time);
      // Event ordering on ties: alarm > strike > failure. The alarm must
      // win its own failure's tie or a w=0 predictor could never save it; a
      // simultaneous strike + fail-stop failure taints the state first, so
      // the failure's rollback decides its fate.
      const double next_alarm = std::min(next_true_alarm, next_false_alarm);
      const bool alarm_first =
          next_alarm <= next_sdc && next_alarm <= next_failure.time;
      const bool strike_first = !alarm_first && next_sdc <= next_failure.time;
      const double event_time = alarm_first
                                    ? next_alarm
                                    : (strike_first ? next_sdc
                                                    : next_failure.time);
      if (event_time < now + dt) {
        advance(event_time - now);
        if (alarm_first) {
          handle_alarm(next_true_alarm <= next_false_alarm);
        } else if (strike_first) {
          handle_strike();
        } else {
          handle_failure(next_failure);
          if (result.fatal && config.stop_on_fatal) break;
        }
        continue;
      }
      advance(dt);
      if (config.t_base - work <= kWorkEpsilon) break;
      if (phase_remaining <= 1e-12) {
        end_of_phase();
        // A verification can end the run too: detected corruption with no
        // clean retained checkpoint left (no-op for fail-stop-only runs,
        // where fatal is only ever set inside handle_failure).
        if (result.fatal && config.stop_on_fatal) break;
      }
    }
    result.makespan = now;
    record(TraceKind::ApplicationDone);
    return result;
  }
};

}  // namespace

void SimConfig::validate() const {
  params.validate();
  if (!(t_base > 0.0) || !std::isfinite(t_base)) {
    throw std::invalid_argument("SimConfig: t_base must be > 0");
  }
  const double lo = model::min_period(protocol, params);
  if (!(period >= lo * (1.0 - 1e-12))) {
    throw std::invalid_argument("SimConfig: period below min_period");
  }
  if (params.nodes % static_cast<std::uint64_t>(model::group_size(protocol)) !=
      0) {
    throw std::invalid_argument(
        "SimConfig: nodes must be a multiple of the group size");
  }
  if (keep_last == 0) {
    throw std::invalid_argument("SimConfig: keep_last must be >= 1");
  }
  sdc.validate();
  predictor.validate();
  dcp.validate();
}

ProtocolSimulation::ProtocolSimulation(SimConfig config,
                                       std::unique_ptr<FailureInjector> injector,
                                       std::uint64_t stream_seed)
    : config_(config), injector_(std::move(injector)),
      stream_seed_(stream_seed) {
  config_.validate();
  if (!injector_) {
    throw std::invalid_argument("ProtocolSimulation: null injector");
  }
  if (injector_->node_count() != config_.params.nodes) {
    throw std::invalid_argument(
        "ProtocolSimulation: injector/params node count mismatch");
  }
}

TrialResult ProtocolSimulation::run(Trace* trace) {
  Engine engine(config_, injector_, stream_seed_, trace);
  return engine.run();
}

TrialResult simulate_exponential(const SimConfig& config, std::uint64_t seed,
                                 Trace* trace) {
  auto injector = std::make_unique<PlatformExponentialInjector>(
      config.params.mtbf, config.params.nodes, util::Xoshiro256ss(seed));
  ProtocolSimulation simulation(config, std::move(injector), seed);
  return simulation.run(trace);
}

}  // namespace dckpt::sim
