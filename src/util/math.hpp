// Scalar numerical routines used to cross-validate the paper's closed forms.
//
// The optimal checkpoint periods in the paper come from Maple. We re-derive
// them numerically by minimizing the exact waste function with a
// derivative-free minimizer; unit tests assert closed-form == numeric
// optimum. Nothing here is performance critical.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

namespace dckpt::util {

/// Result of a scalar optimization.
struct MinimizeResult {
  double x = 0.0;          ///< argmin
  double value = 0.0;      ///< f(argmin)
  int iterations = 0;      ///< iterations actually used
  bool converged = false;  ///< tolerance met before iteration cap
};

/// Golden-section search for a unimodal f on [lo, hi].
MinimizeResult minimize_golden_section(const std::function<double(double)>& f,
                                       double lo, double hi,
                                       double x_tolerance = 1e-9,
                                       int max_iterations = 400);

/// Brent's minimizer (parabolic interpolation + golden section) on [lo, hi].
MinimizeResult minimize_brent(const std::function<double(double)>& f,
                              double lo, double hi,
                              double x_tolerance = 1e-10,
                              int max_iterations = 200);

/// Result of a root search.
struct RootResult {
  double x = 0.0;
  double residual = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Bisection on [lo, hi]; requires f(lo) and f(hi) of opposite signs.
RootResult find_root_bisection(const std::function<double(double)>& f,
                               double lo, double hi,
                               double x_tolerance = 1e-12,
                               int max_iterations = 200);

/// Compensated (Kahan-Neumaier) accumulator for long reductions.
class KahanSum {
 public:
  void add(double value) noexcept {
    const double t = sum_ + value;
    if (std::abs(sum_) >= std::abs(value)) {
      compensation_ += (sum_ - t) + value;
    } else {
      compensation_ += (value - t) + sum_;
    }
    sum_ = t;
  }

  double value() const noexcept { return sum_ + compensation_; }

  KahanSum& operator+=(double v) noexcept {
    add(v);
    return *this;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Clamps x into [lo, hi] (asserts lo <= hi).
double clamp(double x, double lo, double hi);

/// Linear interpolation a + t*(b-a).
constexpr double lerp(double a, double b, double t) noexcept {
  return a + t * (b - a);
}

/// Log-spaced grid of `count` points covering [lo, hi], lo > 0.
/// count == 1 yields {lo}.
std::vector<double> log_space(double lo, double hi, int count);

}  // namespace dckpt::util
