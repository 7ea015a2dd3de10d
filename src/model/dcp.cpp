#include "model/dcp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dckpt::model {

void DcpSpec::validate() const {
  if (!std::isfinite(dirty_fraction) || dirty_fraction < 0.0 ||
      dirty_fraction > 1.0) {
    throw std::invalid_argument("DcpSpec: dirty_fraction must be in [0, 1]");
  }
  if (block_size == 0) {
    throw std::invalid_argument("DcpSpec: block_size must be > 0");
  }
  if (page_size == 0) {
    throw std::invalid_argument("DcpSpec: page_size must be > 0");
  }
  if (!std::isfinite(hash_overhead) || hash_overhead < 0.0) {
    throw std::invalid_argument(
        "DcpSpec: hash_overhead must be finite and >= 0");
  }
}

double block_dirty_fraction(const DcpSpec& spec) {
  spec.validate();
  // A block spanning c pages is dirty when any page changed; a sub-page
  // block inherits its page's dirtiness (c clamps to 1).
  const double c = std::max(1.0, static_cast<double>(spec.block_size) /
                                     static_cast<double>(spec.page_size));
  return 1.0 - std::pow(1.0 - spec.dirty_fraction, c);
}

double checkpoint_volume_multiplier(const DcpSpec& spec) {
  spec.validate();
  if (!spec.enabled()) return 1.0;
  const double k = static_cast<double>(spec.stack_size);
  const double db = block_dirty_fraction(spec);
  const double h = spec.hash_overhead;
  return (1.0 / k) * (1.0 + h) + (1.0 - 1.0 / k) * (db + h);
}

double recovery_multiplier(const DcpSpec& spec) {
  spec.validate();
  if (!spec.enabled()) return 1.0;
  const double k = static_cast<double>(spec.stack_size);
  return 1.0 + block_dirty_fraction(spec) * (k - 1.0) / 2.0;
}

}  // namespace dckpt::model
