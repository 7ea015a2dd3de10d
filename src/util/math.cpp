#include "util/math.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dckpt::util {

namespace {
constexpr double kGoldenRatio = 0.6180339887498949;  // (sqrt(5)-1)/2
}

MinimizeResult minimize_golden_section(const std::function<double(double)>& f,
                                       double lo, double hi,
                                       double x_tolerance,
                                       int max_iterations) {
  if (!(lo < hi)) throw std::invalid_argument("golden_section: lo >= hi");
  double a = lo, b = hi;
  double x1 = b - kGoldenRatio * (b - a);
  double x2 = a + kGoldenRatio * (b - a);
  double f1 = f(x1), f2 = f(x2);
  MinimizeResult result;
  for (int i = 0; i < max_iterations; ++i) {
    result.iterations = i + 1;
    if (b - a <= x_tolerance) {
      result.converged = true;
      break;
    }
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kGoldenRatio * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kGoldenRatio * (b - a);
      f2 = f(x2);
    }
  }
  result.x = (a + b) / 2.0;
  result.value = f(result.x);
  return result;
}

MinimizeResult minimize_brent(const std::function<double(double)>& f,
                              double lo, double hi, double x_tolerance,
                              int max_iterations) {
  // Brent (1973), "Algorithms for Minimization without Derivatives", ch. 5.
  if (!(lo < hi)) throw std::invalid_argument("brent: lo >= hi");
  constexpr double kCGold = 0.3819660112501051;
  double a = lo, b = hi;
  double x = a + kCGold * (b - a);
  double w = x, v = x;
  double fx = f(x), fw = fx, fv = fx;
  double d = 0.0, e = 0.0;
  MinimizeResult result;
  for (int i = 0; i < max_iterations; ++i) {
    result.iterations = i + 1;
    const double mid = (a + b) / 2.0;
    const double tol1 = x_tolerance * std::abs(x) + 1e-15;
    const double tol2 = 2.0 * tol1;
    if (std::abs(x - mid) <= tol2 - (b - a) / 2.0) {
      result.converged = true;
      break;
    }
    bool use_golden = true;
    if (std::abs(e) > tol1) {
      // Fit a parabola through (v, fv), (w, fw), (x, fx).
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      const double e_prev = e;
      e = d;
      if (std::abs(p) < std::abs(0.5 * q * e_prev) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        const double u_trial = x + d;
        if (u_trial - a < tol2 || b - u_trial < tol2) {
          d = (mid - x >= 0.0) ? tol1 : -tol1;
        }
        use_golden = false;
      }
    }
    if (use_golden) {
      e = (x >= mid) ? a - x : b - x;
      d = kCGold * e;
    }
    const double u =
        (std::abs(d) >= tol1) ? x + d : x + ((d >= 0.0) ? tol1 : -tol1);
    const double fu = f(u);
    if (fu <= fx) {
      if (u >= x) {
        a = x;
      } else {
        b = x;
      }
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  result.x = x;
  result.value = fx;
  return result;
}

RootResult find_root_bisection(const std::function<double(double)>& f,
                               double lo, double hi, double x_tolerance,
                               int max_iterations) {
  if (!(lo < hi)) throw std::invalid_argument("bisection: lo >= hi");
  double fa = f(lo), fb = f(hi);
  RootResult result;
  if (fa == 0.0) {
    result = {lo, 0.0, 0, true};
    return result;
  }
  if (fb == 0.0) {
    result = {hi, 0.0, 0, true};
    return result;
  }
  if ((fa > 0.0) == (fb > 0.0)) {
    throw std::invalid_argument("bisection: f(lo) and f(hi) have same sign");
  }
  double a = lo, b = hi;
  double mid = (a + b) / 2.0, fm = f(mid);
  for (int i = 0; i < max_iterations; ++i) {
    result.iterations = i + 1;
    mid = (a + b) / 2.0;
    fm = f(mid);
    if (fm == 0.0 || b - a <= x_tolerance) {
      result.converged = true;
      break;
    }
    if ((fm > 0.0) == (fa > 0.0)) {
      a = mid;
      fa = fm;
    } else {
      b = mid;
    }
  }
  result.x = mid;
  result.residual = fm;
  return result;
}

double clamp(double x, double lo, double hi) {
  assert(lo <= hi);
  return std::min(std::max(x, lo), hi);
}

std::vector<double> log_space(double lo, double hi, int count) {
  if (lo <= 0.0 || hi < lo) throw std::invalid_argument("log_space: bad range");
  if (count <= 0) throw std::invalid_argument("log_space: count <= 0");
  std::vector<double> grid;
  grid.reserve(static_cast<std::size_t>(count));
  if (count == 1) {
    grid.push_back(lo);
    return grid;
  }
  const double llo = std::log(lo), lhi = std::log(hi);
  for (int i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / (count - 1);
    grid.push_back(std::exp(lerp(llo, lhi, t)));
  }
  return grid;
}

}  // namespace dckpt::util
