// The paper's overlap model (Sec. II).
//
// A remote checkpoint transfer can be stretched: sending at full network
// speed takes theta_min seconds and blocks computation entirely
// (overhead phi = theta_min); slowing the transfer down frees cycles for the
// application. The paper posits a linear law
//
//     theta(phi) = theta_min + alpha * (theta_min - phi),   phi in [0, theta_min]
//
// so full overlap (phi = 0) is reached at theta_max = (1 + alpha) * theta_min.
// alpha measures how fast overhead decays as the transfer is stretched; the
// paper uses alpha = 10 ("conservative" communication-to-computation ratio).
#pragma once

namespace dckpt::model {

class OverlapModel {
 public:
  /// theta_min: blocking transfer duration (the paper's R). alpha >= 0.
  OverlapModel(double theta_min, double alpha);

  double theta_min() const noexcept { return theta_min_; }
  double alpha() const noexcept { return alpha_; }

  /// Longest useful transfer duration: theta at which phi reaches 0.
  double theta_max() const noexcept { return (1.0 + alpha_) * theta_min_; }

  /// Transfer duration that achieves computation overhead `phi`.
  /// Requires phi in [0, theta_min].
  double theta_of_phi(double phi) const;

 private:
  double theta_min_;
  double alpha_;
};

}  // namespace dckpt::model
