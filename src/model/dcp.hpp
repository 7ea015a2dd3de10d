// Differential-checkpoint (dcp) axis of the waste model.
//
// With a dcp stack of size K, only every K-th commit exchanges full images;
// the K - 1 commits in between move content-hash block deltas. For a
// per-page dirty fraction d per period, a block spanning c >= 1 pages is
// dirty when any of its pages changed:
//
//   d_b = 1 - (1 - d)^max(1, B / page)        (block dirty fraction)
//
// Every commit additionally pays the hash scan h (a fraction of the full
// image volume), so the average per-commit volume relative to a full
// exchange is the effective dirty fraction
//
//   m = (1/K)(1 + h) + (1 - 1/K)(d_b + h)     (delta_eff = delta * m)
//
// which scales the checkpoint parts of the period (part 1 and part 2 both
// shrink to m times their full-image length). Recovery pays for the chain:
// a failure lands uniformly between full exchanges, so the expected replay
// walks (K - 1)/2 delta layers of relative volume d_b on top of the base:
//
//   g = 1 + d_b (K - 1) / 2                   (recovery multiplier)
//
// model::waste (waste.hpp) composes it the way the simulator geometry
// does: the theta/phi/delta terms of WASTE_ff and of the F closed forms
// scale by m, the protocol's recovery transfers (R, 2R, 3R) scale by g, and
// the downtime and P/2 terms are untouched. stack_size == 0 disables the
// axis and reduces everything to the fail-stop model verbatim.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dckpt::model {

/// Differential-checkpoint configuration, shared by the waste model and the
/// simulator (sim::SimConfig::dcp): the analytic mirror of the runtime's
/// dcp_stack_size/dcp_block_size knobs plus the workload's dirty fraction
/// and the hash-scan overhead.
struct DcpSpec {
  double dirty_fraction = 1.0;    ///< d: per-page dirty probability / period
  std::size_t block_size = 4096;  ///< B: differential block size, bytes
  std::size_t page_size = 4096;   ///< memory page granularity, bytes
  std::uint64_t stack_size = 0;   ///< K: commits per full exchange; 0 = off
  double hash_overhead = 0.0;     ///< h: hash scan, fraction of full volume

  bool enabled() const noexcept { return stack_size > 0; }

  /// Throws std::invalid_argument when d is outside [0, 1], a size is 0,
  /// or h is negative/non-finite.
  void validate() const;
};

/// d_b: probability that a block is dirty, given the per-page dirty
/// fraction and the block/page size ratio.
double block_dirty_fraction(const DcpSpec& spec);

/// m: average per-commit exchange volume relative to a full image
/// (including the hash scan). 1 when the axis is disabled.
double checkpoint_volume_multiplier(const DcpSpec& spec);

/// g: expected recovery-transfer multiplier for replaying base + chain.
/// 1 when the axis is disabled.
double recovery_multiplier(const DcpSpec& spec);

}  // namespace dckpt::model
