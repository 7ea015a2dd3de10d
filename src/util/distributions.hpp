// Probability distributions for failure-arrival modelling.
//
// The paper assumes exponentially distributed inter-failure times (constant
// hazard rate lambda = 1/MTBF). Field studies of HPC failure logs, cited in
// the paper's related work, favour Weibull with shape < 1; we implement both
// so the simulator can quantify how far the exponential assumption
// stretches. Each distribution exposes its analytic mean and variance so
// statistical tests can assert sampler correctness.
#pragma once

#include <memory>
#include <string>

#include "util/rng.hpp"

namespace dckpt::util {

/// Interface for positive continuous distributions (inter-arrival times).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one sample (always > 0, finite).
  virtual double sample(Xoshiro256ss& rng) const = 0;

  virtual double mean() const = 0;
  virtual double variance() const = 0;

  /// P[X <= x].
  virtual double cdf(double x) const = 0;

  virtual std::string name() const = 0;

  /// Deep copy (distributions are small immutable value objects).
  virtual std::unique_ptr<Distribution> clone() const = 0;
};

/// Exponential(rate). mean = 1/rate.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate);

  /// Convenience: exponential with the given mean (MTBF).
  static Exponential from_mean(double mean_value);

  double sample(Xoshiro256ss& rng) const override;
  double mean() const override;
  double variance() const override;
  double cdf(double x) const override;
  std::string name() const override;
  std::unique_ptr<Distribution> clone() const override;

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// Weibull(shape k, scale lambda). Sub-exponential hazard for k < 1.
class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);

  /// Weibull with the given shape whose mean equals `mean_value`.
  static Weibull from_mean(double shape, double mean_value);

  double sample(Xoshiro256ss& rng) const override;
  double mean() const override;
  double variance() const override;
  double cdf(double x) const override;
  std::string name() const override;
  std::unique_ptr<Distribution> clone() const override;

  double shape() const noexcept { return shape_; }
  double scale() const noexcept { return scale_; }

 private:
  double shape_;
  double scale_;
};

}  // namespace dckpt::util
