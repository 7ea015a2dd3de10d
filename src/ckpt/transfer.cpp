#include "ckpt/transfer.hpp"

#include <stdexcept>

namespace dckpt::ckpt {

void RetryPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  }
}

std::uint64_t RetryPolicy::backoff_steps(std::uint64_t retry_index) const {
  if (retry_index == 0) {
    throw std::invalid_argument("RetryPolicy: retry_index is 1-based");
  }
  const std::uint64_t shift = retry_index - 1;
  if (shift >= 64 ||
      (base_delay_steps != 0 &&
       base_delay_steps > (~std::uint64_t{0} >> shift))) {
    return ~std::uint64_t{0};  // saturate: effectively "wait forever"
  }
  const std::uint64_t delay = base_delay_steps << shift;
  return delay == 0 ? 1 : delay;
}

}  // namespace dckpt::ckpt
