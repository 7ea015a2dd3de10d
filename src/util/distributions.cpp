#include "util/distributions.hpp"

#include <cmath>
#include <stdexcept>

namespace dckpt::util {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

}  // namespace

// ---------------------------------------------------------------- Exponential

Exponential::Exponential(double rate) : rate_(rate) {
  require(rate > 0.0 && std::isfinite(rate), "Exponential: rate must be > 0");
}

Exponential Exponential::from_mean(double mean_value) {
  require(mean_value > 0.0, "Exponential: mean must be > 0");
  return Exponential(1.0 / mean_value);
}

double Exponential::sample(Xoshiro256ss& rng) const {
  return -std::log(rng.next_double_open_zero()) / rate_;
}

double Exponential::mean() const { return 1.0 / rate_; }

double Exponential::variance() const { return 1.0 / (rate_ * rate_); }

double Exponential::cdf(double x) const {
  return x <= 0.0 ? 0.0 : 1.0 - std::exp(-rate_ * x);
}

std::string Exponential::name() const {
  return "Exponential(rate=" + std::to_string(rate_) + ")";
}

std::unique_ptr<Distribution> Exponential::clone() const {
  return std::make_unique<Exponential>(*this);
}

// -------------------------------------------------------------------- Weibull

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  require(shape > 0.0 && std::isfinite(shape), "Weibull: shape must be > 0");
  require(scale > 0.0 && std::isfinite(scale), "Weibull: scale must be > 0");
}

Weibull Weibull::from_mean(double shape, double mean_value) {
  require(mean_value > 0.0, "Weibull: mean must be > 0");
  require(shape > 0.0, "Weibull: shape must be > 0");
  // mean = scale * Gamma(1 + 1/shape)  =>  scale = mean / Gamma(1 + 1/shape)
  const double scale = mean_value / std::tgamma(1.0 + 1.0 / shape);
  return Weibull(shape, scale);
}

double Weibull::sample(Xoshiro256ss& rng) const {
  // Inverse CDF: x = scale * (-ln U)^(1/shape).
  const double u = rng.next_double_open_zero();
  return scale_ * std::pow(-std::log(u), 1.0 / shape_);
}

double Weibull::mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}

double Weibull::variance() const {
  const double g1 = std::tgamma(1.0 + 1.0 / shape_);
  const double g2 = std::tgamma(1.0 + 2.0 / shape_);
  return scale_ * scale_ * (g2 - g1 * g1);
}

double Weibull::cdf(double x) const {
  return x <= 0.0 ? 0.0 : 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

std::string Weibull::name() const {
  return "Weibull(shape=" + std::to_string(shape_) +
         ",scale=" + std::to_string(scale_) + ")";
}

std::unique_ptr<Distribution> Weibull::clone() const {
  return std::make_unique<Weibull>(*this);
}

}  // namespace dckpt::util
