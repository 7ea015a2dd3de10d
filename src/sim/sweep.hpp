// Parameter-sweep driver: runs Monte-Carlo campaigns over a grid of
// (protocol, MTBF, phi) points with one shared thread pool, producing a
// flat result table. Benches and examples use this instead of hand-rolled
// triple loops.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "model/protocol.hpp"
#include "model/waste.hpp"
#include "sim/protocol_sim.hpp"
#include "sim/runner.hpp"

namespace dckpt::sim {

struct SweepPoint {
  model::Protocol protocol = model::Protocol::DoubleNbl;
  double mtbf = 0.0;
  double phi = 0.0;
  double period = 0.0;        ///< period actually simulated
  double model_waste = 0.0;   ///< analytic waste at that period
  MonteCarloResult result;
  double weibull_shape = 0.0;  ///< injector shape (0 = exponential)
  /// Clustered-model (nonexponential.hpp) waste at the expected-makespan
  /// horizon; equals model_waste when weibull_shape is 0.
  double model_waste_weibull = 0.0;
  /// Verified-checkpoint model (sdc.hpp) waste at the simulated period;
  /// equals model_waste when the sweep runs without verification.
  double model_waste_sdc = 0.0;
  /// Fault-prediction model (predictor.hpp) waste at the simulated period;
  /// equals model_waste when the sweep runs without prediction.
  double model_waste_pred = 0.0;
  /// Differential-checkpoint model (dcp.hpp) waste at the simulated period;
  /// equals model_waste when the sweep runs without dcp.
  double model_waste_dcp = 0.0;
};

/// Timing/throughput snapshot handed to SweepSpec::progress after every
/// grid point (completed or skipped as infeasible). All durations are wall
/// seconds measured on a steady clock.
struct SweepProgress {
  std::size_t points_done = 0;     ///< feasible points completed so far
  std::size_t points_skipped = 0;  ///< infeasible points skipped so far
  std::size_t points_total = 0;    ///< full grid size
  std::uint64_t trials_done = 0;   ///< Monte-Carlo trials completed so far
  double elapsed = 0.0;            ///< since run_sweep started
  double point_elapsed = 0.0;      ///< the grid point just finished
  double trials_per_sec = 0.0;     ///< aggregate campaign throughput
  /// Row just produced; nullptr when the point was skipped as infeasible.
  const SweepPoint* point = nullptr;
};

struct SweepSpec {
  std::vector<model::Protocol> protocols;
  std::vector<double> mtbfs;
  std::vector<double> phi_ratios;   ///< phi / R
  /// Per-point template. Each point simulates a copy with the protocol,
  /// params.mtbf / params.overhead, period and t_base of the grid point and
  /// stop_on_fatal = false. The extension axes apply to every point as
  /// given here, and each enabled one (model_axes) adds its model waste to
  /// the row. The default period stays the full-image closed form, so
  /// model_waste_dcp and the simulation read the *same* period -- pass
  /// `period` to study the dcp optimum instead.
  SimConfig config;
  double t_base_in_mtbfs = 25.0;    ///< t_base = factor * M
  std::uint64_t trials = 60;
  std::uint64_t seed = 0x5eed;
  std::size_t threads = 0;
  /// Weibull shape for failure injection (0 = exponential). When > 0 every
  /// point simulates Weibull inter-failure times of matched per-node mean
  /// and the row additionally carries the clustered-model waste.
  double weibull_shape = 0.0;
  /// Optional period override; default: closed-form optimum per point.
  std::function<double(model::Protocol, const model::Parameters&)> period;
  /// Forwarded to MonteCarloOptions::metrics for every point.
  std::optional<MetricsSpec> metrics;
  /// Invoked after each grid point; unset = zero instrumentation cost
  /// beyond one clock read per point.
  std::function<void(const SweepProgress&)> progress;
};

/// Runs the full grid (skipping infeasible points) and returns one row per
/// feasible point, in (protocol, mtbf, phi) lexicographic order.
std::vector<SweepPoint> run_sweep(const SweepSpec& spec);

/// A failure-model axis of a simulation, in the order rows and tables
/// list them.
enum class ModelAxis { kWeibull, kSdc, kPredictor, kDcp };

/// The axes a simulation of `config` turns on, in ModelAxis order; the
/// Weibull axis when `weibull_shape` > 0 (0 = exponential injection).
std::vector<ModelAxis> model_axes(const SimConfig& config,
                                  double weibull_shape);

/// `config`'s failure model with only `axis` on, for model::waste and
/// model::optimal_period_numeric. Weibull clustering runs over the
/// exponential model's expected makespan at config.period and
/// config.t_base: the startup-transient correction depends on how long the
/// mission actually runs, not on the fault-free work.
model::Extensions axis_extensions(ModelAxis axis, const SimConfig& config,
                                  double weibull_shape);

/// The SweepPoint field holding `axis`'s model waste.
double SweepPoint::*model_waste_field(ModelAxis axis);

}  // namespace dckpt::sim
