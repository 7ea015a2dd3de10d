#include "model/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dckpt::model {

void PredictorSpec::validate() const {
  if (!std::isfinite(recall) || recall < 0.0 || recall > 1.0) {
    throw std::invalid_argument(
        "PredictorSpec: recall must be finite and in [0, 1]");
  }
  if (!std::isfinite(precision) || precision < 0.0 || precision > 1.0) {
    throw std::invalid_argument(
        "PredictorSpec: precision must be finite and in [0, 1]");
  }
  if (recall > 0.0 && !(precision > 0.0)) {
    throw std::invalid_argument(
        "PredictorSpec: prediction requires precision > 0");
  }
  if (!std::isfinite(window) || window < 0.0) {
    throw std::invalid_argument(
        "PredictorSpec: window must be finite and >= 0");
  }
  if (!std::isfinite(proactive_cost) || proactive_cost < 0.0) {
    throw std::invalid_argument(
        "PredictorSpec: proactive_cost must be finite and >= 0");
  }
}

double effective_recall(const PredictorSpec& spec) {
  if (spec.recall <= 0.0) return 0.0;
  if (spec.window <= 0.0) return spec.recall;  // just-in-time limit
  const double usable =
      std::max(0.0, spec.window - spec.proactive_cost) / spec.window;
  return spec.recall * usable;
}

}  // namespace dckpt::model
