// Bounded retry for checkpoint transfers: the policy the checkpoint driver
// applies when a re-replication delivery fails or arrives torn.
#pragma once

#include <cstdint>

namespace dckpt::ckpt {

/// Bounded retry with exponential backoff for checkpoint transfers.
///
/// A re-replication transfer can fail outright or deliver a torn
/// (prefix-only) image that the content-hash check rejects. Either way the
/// runtime re-issues it: retry i (1-based) waits base_delay_steps * 2^(i-1)
/// executed steps before the next attempt, and after `max_attempts` total
/// delivery attempts the refill is abandoned until the next committed
/// exchange re-creates every replica. Every waiting step extends the risk
/// window, so the waste accounting stays honest.
struct RetryPolicy {
  std::uint64_t max_attempts = 3;      ///< total delivery attempts (>= 1)
  std::uint64_t base_delay_steps = 1;  ///< backoff base, in executed steps

  void validate() const;  ///< throws std::invalid_argument

  /// Steps to wait before retry `retry_index` (1-based: the first retry is
  /// index 1). Always at least 1 -- a re-issued transfer cannot complete
  /// within the step that saw it fail. Saturates instead of overflowing.
  std::uint64_t backoff_steps(std::uint64_t retry_index) const;
};

}  // namespace dckpt::ckpt
