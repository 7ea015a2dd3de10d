// Fatal-failure detection over buddy groups (pairs/triples).
//
// Semantics (paper Sec. III-C / V-C): a failure of node p at time t opens an
// exposure window of length `risk_window` during which p's checkpoint data
// exists on fewer replicas than the protocol guarantees. In a *pair*, a
// failure of p's buddy inside the window is fatal. In a *triple*, a failure
// of either remaining member inside the window opens a second window, and a
// failure of the last member inside both is fatal.
//
// Implementation: per group we keep the expiry times of currently-open
// windows, keyed by the member that failed; windows are pruned lazily.
// Nodes are grouped contiguously: group g = node / group_size.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dckpt::sim {

class RiskTracker {
 public:
  /// `nodes` must be divisible by `group_size` (2 or 3).
  RiskTracker(std::uint64_t nodes, int group_size);

  /// Registers a failure of `node` at `time` with exposure `risk_window`.
  /// Returns true when this failure is fatal (all group copies endangered).
  bool on_failure(std::uint64_t node, double time, double risk_window);

  std::uint64_t group_of(std::uint64_t node) const noexcept {
    return node / static_cast<std::uint64_t>(group_size_);
  }
  int group_size() const noexcept { return group_size_; }

 private:
  struct Window {
    std::uint64_t member;  ///< local index of the failed member in the group
    double expiry;
  };

  std::uint64_t nodes_;
  int group_size_;
  /// Sparse: only groups with open windows are present.
  std::unordered_map<std::uint64_t, std::vector<Window>> open_;
};

}  // namespace dckpt::sim
