#include "sim/sweep.hpp"

#include <chrono>

#include "model/nonexponential.hpp"
#include "model/period.hpp"
#include "model/predictor.hpp"
#include "model/sdc.hpp"
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
        const double t_base = spec.t_base_in_mtbfs * mtbf;
        point.weibull_shape = spec.weibull_shape;
        point.model_waste_weibull = point.model_waste;
        if (spec.weibull_shape > 0.0) {
          // Horizon = expected makespan under the exponential model: the
          // startup-transient correction depends on how long the mission
          // actually runs, not on the fault-free work.
          const model::WeibullFailures failures{
              spec.weibull_shape,
              model::expected_makespan(protocol, params, point.period,
                                       t_base)};
          point.model_waste_weibull =
              model::waste(protocol, params, point.period, failures);
        }
        point.model_waste_sdc = point.model_waste;
        if (base.verify_every > 0) {
          const model::SdcSpec sdc{base.sdc_rate, base.verify_cost,
                                   base.verify_every};
          point.model_waste_sdc =
              model::waste_with_sdc(protocol, params, point.period, sdc);
        }
        point.model_waste_pred = point.model_waste;
        if (base.pred_recall > 0.0) {
          const model::PredictorSpec pred{base.pred_precision,
                                          base.pred_recall, base.pred_window,
                                          base.proactive_cost};
          point.model_waste_pred =
              model::waste_with_predictor(protocol, params, point.period,
                                          pred);
        }
        point.model_waste_dcp = point.model_waste;
        if (base.dcp.enabled()) {
          point.model_waste_dcp =
              model::waste_with_dcp(protocol, params, point.period, base.dcp);
        }

        SimConfig config = base;
        config.protocol = protocol;
        config.params = params;
        config.period = point.period;
        config.t_base = t_base;
        config.stop_on_fatal = false;
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

}  // namespace dckpt::sim
