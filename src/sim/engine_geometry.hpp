// Static per-run protocol geometry shared by the scalar reference engine
// (protocol_sim.cpp) and the batched SoA kernel (batch_kernel.cpp).
//
// Both engines must advance a trial through *exactly* the same arithmetic:
// the batched kernel's contract is bit-identical TrialResults on the same
// RNG stream. Deriving the geometry once, in one translation-unit-shared
// function, guarantees the two paths agree on every derived constant
// (per-phase lengths, work rates, recovery windows) down to the last ulp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/dcp.hpp"
#include "model/parameters.hpp"
#include "model/protocol.hpp"
#include "model/risk.hpp"
#include "model/waste.hpp"
#include "util/rng.hpp"

namespace dckpt::sim::engine {

/// Per-run constants of the period state machine.
struct Geometry {
  double part1 = 0.0;
  double part2 = 0.0;
  double part3 = 0.0;
  double rate1 = 0.0;  ///< work rate during part 1
  double rate2 = 0.0;  ///< work rate during part 2
  double downtime = 0.0;
  double recover = 0.0;         ///< blocking recovery transfer time
  double reexec_overlap = 0.0;  ///< degraded window at re-execution start
  double overlap_rate = 0.0;    ///< work rate inside that window
  double risk = 0.0;            ///< exposure window length
  bool commit_after_part1 = false;  ///< triple protocols commit early
};

inline Geometry make_geometry(model::Protocol protocol,
                              const model::Parameters& params, double period,
                              const model::DcpSpec& dcp = {}) {
  using model::Protocol;
  const auto parts = model::period_parts(protocol, params, period);
  const auto transfer = model::effective_transfer(protocol, params);
  const double theta = transfer.theta;
  const double phi = transfer.phi;
  const double transfer_rate = (theta - phi) / theta;

  Geometry g;
  g.part1 = parts.part1;
  g.part2 = parts.part2;
  g.part3 = parts.part3;
  g.rate1 = model::is_triple(protocol) ? transfer_rate : 0.0;
  g.rate2 = transfer_rate;
  g.downtime = params.downtime;
  g.risk = model::risk_window(protocol, params);
  g.commit_after_part1 = model::is_triple(protocol);
  g.overlap_rate = transfer_rate;
  g.recover = model::recovery_transfers(protocol) * params.recovery();
  switch (protocol) {
    case Protocol::DoubleNbl:
      g.reexec_overlap = theta;
      break;
    case Protocol::Triple:
      g.reexec_overlap = 2.0 * theta;
      break;
    case Protocol::DoubleBof:
    case Protocol::DoubleBlocking:
    case Protocol::TripleBof:
      g.reexec_overlap = 0.0;
      break;
  }
  // Differential checkpointing: the exchange phases shrink to the
  // effective dirty fraction m of their full-image length -- the compute
  // phase absorbs the difference so the period length stays exactly P
  // (the model's P/2 lost-work term is untouched) -- and the recovery
  // transfer grows by the expected base-plus-chain replay factor g.
  if (dcp.enabled()) {
    const double m = model::checkpoint_volume_multiplier(dcp);
    const double replay = model::recovery_multiplier(dcp);
    g.part1 = parts.part1 * m;
    g.part2 = parts.part2 * m;
    g.part3 = std::max(0.0, period - g.part1 - g.part2);
    g.recover *= replay;
  }
  return g;
}

/// Work threshold below which a trial counts as complete; shared so the
/// batched kernel terminates on exactly the same comparison.
inline constexpr double kWorkEpsilon = 1e-9;

/// Phase-remaining threshold that triggers a phase transition.
inline constexpr double kPhaseEpsilon = 1e-12;

/// Time to re-gain `deficit` units of work: degraded window first, then
/// full speed. Shared between the engines (same formula, same rounding).
inline double reexec_duration(const Geometry& geo, double deficit) {
  const double window = geo.reexec_overlap;
  const double degraded_gain = window * geo.overlap_rate;
  if (deficit <= degraded_gain || window == 0.0) {
    return geo.overlap_rate > 0.0
               ? deficit / (window > 0.0 ? geo.overlap_rate : 1.0)
               : (window > 0.0 ? std::numeric_limits<double>::infinity()
                               : deficit);
  }
  return window + (deficit - degraded_gain);
}

/// Livelock guard used by both engines.
inline double makespan_cap(double max_makespan, double t_base, double period) {
  return max_makespan > 0.0 ? max_makespan
                            : 1e4 * std::max(t_base, period);
}

/// Seed salt deriving the silent-error strike stream from a trial's master
/// stream seed: strikes and fail-stop failures draw from independent
/// generators, so enabling SDC never perturbs the failure arrival sequence
/// (nor vice versa). Shared so both engines salt identically.
inline constexpr std::uint64_t kSdcSeedSalt = 0xa24baed4963ee407ULL;

/// Advances the platform-wide Poisson strike clock: same literal ops as the
/// scalar exponential injector (one open-zero uniform, one log, one divide),
/// shared so both engines round identically.
inline double next_strike_time(double current, util::Xoshiro256ss& rng,
                               double sdc_rate) {
  return current + -std::log(rng.next_double_open_zero()) / sdc_rate;
}

/// Seed salts deriving the fault-predictor streams from a trial's master
/// stream seed (same discipline as kSdcSeedSalt): the per-failure
/// predicted/missed decision stream and the false-alarm Poisson clock are
/// independent of each other and of the failure/strike streams, so enabling
/// prediction never perturbs the arrival sequences. Shared so both engines
/// salt identically.
inline constexpr std::uint64_t kPredSeedSalt = 0x6a09e667f3bcc909ULL;
inline constexpr std::uint64_t kFalseAlarmSeedSalt = 0xbb67ae8584caa73bULL;

/// Platform false-alarm rate of a (p, r) predictor: true alarms arrive at
/// rate r/M, and precision p means a fraction (1 - p) of all alarms are
/// false, so false alarms arrive at (r/M)(1 - p)/p. Shared so both engines
/// round identically.
inline double false_alarm_rate(double mtbf, double precision, double recall) {
  return recall * (1.0 - precision) / precision / mtbf;
}

/// Retained-checkpoint ladder for verified rollback, the simulator's analog
/// of the runtime's keep-last-l retention ring. Rung 0 is the newest commit;
/// the ladder is seeded with the pristine initial state {level 0, taint 0}.
/// `taint` counts the silent strikes whose corruption the rung's snapshot
/// captured (the continuous-time mirror of the runtime's per-set epoch
/// bookkeeping); a rung is restorable iff its taint is zero. Shared by the
/// scalar engine and the batched kernel so ladder decisions are identical by
/// construction.
struct SdcLadder {
  struct Rung {
    double level = 0.0;        ///< work level the snapshot captured
    std::uint64_t taint = 0;   ///< strikes baked into the snapshot
  };

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::vector<Rung> rungs;  ///< index 0 = newest
  std::size_t capacity = 1;

  void reset(std::size_t keep_last) {
    capacity = keep_last;
    rungs.clear();
    rungs.push_back(Rung{});
  }

  /// Records a committed snapshot; the oldest rung past `capacity` is
  /// evicted (after which the initial state is no longer reachable).
  void push(double level, std::uint64_t taint) {
    rungs.insert(rungs.begin(), Rung{level, taint});
    if (rungs.size() > capacity) rungs.resize(capacity);
  }

  /// Taint of the newest rung (what a fail-stop rollback restores).
  std::uint64_t front_taint() const noexcept { return rungs.front().taint; }

  /// Shallowest restorable rung, or npos when every retained snapshot
  /// captured some strike.
  std::size_t first_clean() const noexcept {
    for (std::size_t d = 0; d < rungs.size(); ++d) {
      if (rungs[d].taint == 0) return d;
    }
    return npos;
  }

  /// Discards the `depth` newest rungs (they captured the corruption being
  /// rolled back over).
  void drop(std::size_t depth) {
    rungs.erase(rungs.begin(),
                rungs.begin() + static_cast<std::ptrdiff_t>(depth));
  }
};

}  // namespace dckpt::sim::engine
