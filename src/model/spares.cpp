#include "model/spares.hpp"

#include <cmath>
#include <stdexcept>

namespace dckpt::model {

void SparePoolSpec::validate() const {
  if (spares == 0) {
    throw std::invalid_argument("SparePoolSpec: need at least one spare");
  }
  if (!(repair_time > 0.0) || !std::isfinite(repair_time)) {
    throw std::invalid_argument("SparePoolSpec: repair_time must be > 0");
  }
  if (!(detection >= 0.0) || !std::isfinite(detection)) {
    throw std::invalid_argument("SparePoolSpec: detection must be >= 0");
  }
}

double erlang_c(std::uint64_t servers, double offered_load) {
  if (servers == 0) throw std::invalid_argument("erlang_c: zero servers");
  if (!(offered_load >= 0.0)) {
    throw std::invalid_argument("erlang_c: negative load");
  }
  const double c = static_cast<double>(servers);
  if (offered_load >= c) return 1.0;  // unstable: certain queueing
  if (offered_load == 0.0) return 0.0;
  // Iterative Erlang-B, then convert to Erlang-C (numerically stable for
  // large c -- no factorials).
  double b = 1.0;  // Erlang-B with 0 servers
  for (std::uint64_t k = 1; k <= servers; ++k) {
    const double kd = static_cast<double>(k);
    b = offered_load * b / (kd + offered_load * b);
  }
  const double rho = offered_load / c;
  return b / (1.0 - rho * (1.0 - b));
}

double expected_replacement_wait(const SparePoolSpec& spec,
                                 double platform_mtbf) {
  spec.validate();
  if (!(platform_mtbf > 0.0)) {
    throw std::invalid_argument("expected_replacement_wait: bad MTBF");
  }
  const double lambda = 1.0 / platform_mtbf;
  const double mu = 1.0 / spec.repair_time;
  const double offered = lambda / mu;
  const double c = static_cast<double>(spec.spares);
  if (offered >= c) {
    throw std::invalid_argument(
        "expected_replacement_wait: pool unstable (failures outpace repair)");
  }
  return erlang_c(spec.spares, offered) / (c * mu - lambda);
}

double effective_downtime(const SparePoolSpec& spec, double platform_mtbf) {
  return spec.detection + expected_replacement_wait(spec, platform_mtbf);
}

Parameters with_spare_pool(const Parameters& params,
                           const SparePoolSpec& spec) {
  Parameters out = params;
  out.downtime = effective_downtime(spec, params.mtbf);
  out.validate();
  return out;
}

}  // namespace dckpt::model
