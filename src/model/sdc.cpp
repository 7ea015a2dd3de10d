#include "model/sdc.hpp"

#include <cmath>
#include <stdexcept>

namespace dckpt::model {

void SdcSpec::validate() const {
  if (!std::isfinite(rate) || rate < 0.0) {
    throw std::invalid_argument("SdcSpec: rate must be finite and >= 0");
  }
  if (!std::isfinite(verify_cost) || verify_cost < 0.0) {
    throw std::invalid_argument(
        "SdcSpec: verify_cost must be finite and >= 0");
  }
  if (rate > 0.0 && verify_every == 0) {
    throw std::invalid_argument(
        "SdcSpec: silent errors require verification enabled "
        "(verify_every > 0)");
  }
}

}  // namespace dckpt::model
