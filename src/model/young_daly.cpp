#include "model/young_daly.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dckpt::model {

void CentralizedParams::validate() const {
  const bool ok = std::isfinite(checkpoint) && checkpoint > 0.0 &&
                  std::isfinite(recovery) && recovery >= 0.0 &&
                  std::isfinite(downtime) && downtime >= 0.0 &&
                  std::isfinite(mtbf) && mtbf > 0.0;
  if (!ok) throw std::invalid_argument("CentralizedParams: out of domain");
}

double daly_period(const CentralizedParams& params) {
  params.validate();
  return std::sqrt(2.0 * (params.mtbf + params.downtime + params.recovery) *
                   params.checkpoint) +
         params.checkpoint;
}

double centralized_failure_cost(const CentralizedParams& params,
                                double period) {
  params.validate();
  if (!(period > 0.0)) {
    throw std::invalid_argument("centralized_failure_cost: period <= 0");
  }
  return params.downtime + params.recovery + period / 2.0;
}

double centralized_waste(const CentralizedParams& params, double period) {
  params.validate();
  if (!(period >= params.checkpoint)) {
    throw std::invalid_argument("centralized_waste: period < checkpoint");
  }
  const double ff = params.checkpoint / period;
  const double fail = centralized_failure_cost(params, period) / params.mtbf;
  if (ff >= 1.0 || fail >= 1.0) return 1.0;
  return std::clamp(1.0 - (1.0 - fail) * (1.0 - ff), 0.0, 1.0);
}

}  // namespace dckpt::model
