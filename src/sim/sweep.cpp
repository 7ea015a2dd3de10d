#include "sim/sweep.hpp"

#include <chrono>

#include "model/period.hpp"
#include "model/waste.hpp"
#include "util/distributions.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  util::ThreadPool pool(spec.threads);
  std::vector<SweepPoint> rows;
  SweepProgress progress;
  progress.points_total =
      spec.protocols.size() * spec.mtbfs.size() * spec.phi_ratios.size();
  const auto sweep_start = Clock::now();

  const auto report = [&](const SweepPoint* point, double point_elapsed) {
    if (!spec.progress) return;
    progress.elapsed = seconds_since(sweep_start);
    progress.point_elapsed = point_elapsed;
    progress.trials_per_sec =
        progress.elapsed > 0.0
            ? static_cast<double>(progress.trials_done) / progress.elapsed
            : 0.0;
    progress.point = point;
    spec.progress(progress);
  };

  const SimConfig& base = spec.config;  // the per-point template
  for (auto protocol : spec.protocols) {
    for (double mtbf : spec.mtbfs) {
      for (double ratio : spec.phi_ratios) {
        const auto point_start = Clock::now();
        auto params = base.params.with_mtbf(mtbf).with_overhead(
            ratio * base.params.remote_blocking);
        SweepPoint point;
        point.protocol = protocol;
        point.mtbf = mtbf;
        point.phi = params.overhead;
        if (spec.period) {
          point.period = spec.period(protocol, params);
        } else {
          const auto opt = model::optimal_period_closed_form(protocol, params);
          if (!opt.feasible) {
            ++progress.points_skipped;
            report(nullptr, seconds_since(point_start));
            continue;
          }
          point.period = opt.period;
        }
        point.model_waste =
            model::waste(protocol, params, point.period);
        if (point.model_waste >= 1.0) {
          ++progress.points_skipped;
          report(nullptr, seconds_since(point_start));
          continue;
        }
        SimConfig config = base;
        config.protocol = protocol;
        config.params = params;
        config.period = point.period;
        config.t_base = spec.t_base_in_mtbfs * mtbf;
        config.stop_on_fatal = false;
        point.weibull_shape = spec.weibull_shape;
        point.model_waste_weibull = point.model_waste_sdc =
            point.model_waste_pred = point.model_waste_dcp =
                point.model_waste;
        for (const ModelAxis axis : model_axes(config, spec.weibull_shape)) {
          point.*model_waste_field(axis) = model::waste(
              protocol, params, point.period,
              axis_extensions(axis, config, spec.weibull_shape));
        }

        MonteCarloOptions options;
        options.trials = spec.trials;
        options.seed = spec.seed;
        options.metrics = spec.metrics;
        if (spec.weibull_shape > 0.0) {
          options.weibull =
              util::Weibull::from_mean(spec.weibull_shape, params.node_mtbf());
        }
        point.result = run_monte_carlo(config, options, pool);
        rows.push_back(std::move(point));
        ++progress.points_done;
        progress.trials_done += spec.trials;
        report(&rows.back(), seconds_since(point_start));
      }
    }
  }
  return rows;
}

std::vector<ModelAxis> model_axes(const SimConfig& config,
                                  double weibull_shape) {
  std::vector<ModelAxis> axes;
  if (weibull_shape > 0.0) axes.push_back(ModelAxis::kWeibull);
  if (config.sdc.enabled()) axes.push_back(ModelAxis::kSdc);
  if (config.predictor.enabled()) axes.push_back(ModelAxis::kPredictor);
  if (config.dcp.enabled()) axes.push_back(ModelAxis::kDcp);
  return axes;
}

model::Extensions axis_extensions(ModelAxis axis, const SimConfig& config,
                                  double weibull_shape) {
  model::Extensions ext;
  switch (axis) {
    case ModelAxis::kWeibull:
      ext.weibull = {weibull_shape,
                     model::expected_makespan(config.protocol, config.params,
                                              config.period, config.t_base)};
      break;
    case ModelAxis::kSdc:
      ext.sdc = config.sdc;
      break;
    case ModelAxis::kPredictor:
      ext.predictor = config.predictor;
      break;
    case ModelAxis::kDcp:
      ext.dcp = config.dcp;
      break;
  }
  return ext;
}

double SweepPoint::*model_waste_field(ModelAxis axis) {
  switch (axis) {
    case ModelAxis::kWeibull:
      return &SweepPoint::model_waste_weibull;
    case ModelAxis::kSdc:
      return &SweepPoint::model_waste_sdc;
    case ModelAxis::kPredictor:
      return &SweepPoint::model_waste_pred;
    case ModelAxis::kDcp:
      break;
  }
  return &SweepPoint::model_waste_dcp;
}

}  // namespace dckpt::sim
