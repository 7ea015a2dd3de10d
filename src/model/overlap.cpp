#include "model/overlap.hpp"

#include <cmath>
#include <stdexcept>

namespace dckpt::model {

OverlapModel::OverlapModel(double theta_min, double alpha)
    : theta_min_(theta_min), alpha_(alpha) {
  if (!(theta_min > 0.0) || !std::isfinite(theta_min)) {
    throw std::invalid_argument("OverlapModel: theta_min must be > 0");
  }
  if (!(alpha >= 0.0) || !std::isfinite(alpha)) {
    throw std::invalid_argument("OverlapModel: alpha must be >= 0");
  }
}

double OverlapModel::theta_of_phi(double phi) const {
  if (phi < 0.0 || phi > theta_min_) {
    throw std::invalid_argument("OverlapModel: phi outside [0, theta_min]");
  }
  return theta_min_ + alpha_ * (theta_min_ - phi);
}

}  // namespace dckpt::model
