// The 1-D chain runtime: the runtime counterpart of the protocols the model
// analyses, on a 1-D domain-decomposed iterative kernel.
//
// RuntimeConfig is the chain's full configuration: the protocol settings
// (the CheckpointPolicy it converts to) plus the chain geometry and the
// stepping pool. Coordinator is a thin topology adapter over the
// CheckpointDriver (runtime/checkpoint_driver.hpp), which owns the run
// loop, the buddy stores, staging, verification, dcp and recovery: it
// supplies each node's initial condition and the 1-D Jacobi step. The chain
// is the runtime that exercises semi-blocking staging (`staging_steps`).
// End-to-end correctness is checked by comparing the final state hash
// against a failure-free run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "runtime/checkpoint_driver.hpp"
#include "runtime/kernel.hpp"

namespace dckpt::runtime {

struct RuntimeConfig {
  std::uint64_t nodes = 4;
  ckpt::Topology topology = ckpt::Topology::Pairs;
  std::size_t cells_per_node = 512;
  std::uint64_t checkpoint_interval = 16;  ///< steps between checkpoints
  std::uint64_t total_steps = 128;
  std::size_t threads = 0;  ///< stepping pool; 0 = hardware concurrency
  /// Semi-blocking staging (the paper's non-blocking exchange): the set
  /// snapshotted at step s commits only at step s + staging_steps; a
  /// failure in between discards it and rolls back to the *previous*
  /// committed set -- the real-system analogue of losing the whole
  /// preceding period when a failure hits parts 1/2. 0 = commit
  /// immediately (blocking exchange). Must be <= checkpoint_interval.
  std::uint64_t staging_steps = 0;
  /// Re-replication delay: executed steps between a rollback and the refill
  /// of the replacement node's buddy storage (detection + spare allocation +
  /// image transfer). While the refill is pending the victim's group cannot
  /// survive another member loss -- the runtime realization of the model's
  /// risk window (paper Sec. III/IV). A committed checkpoint also closes
  /// the window (it re-creates every replica). 0 = refill immediately.
  std::uint64_t rereplication_delay_steps = 0;
  /// Retry-with-backoff policy for re-replication transfers (failed or torn
  /// deliveries are re-issued; each waiting step extends the risk window).
  ckpt::RetryPolicy transfer_retry;
  /// Silent-error verification cadence: every `verify_every` checkpoint
  /// periods the run pays a verification (a full state audit) that detects
  /// latent corruption captured into committed sets. 0 = verification off
  /// (silent errors, if injected, stay silent). A final verification always
  /// runs at the end of the run when enabled.
  std::uint64_t verify_every = 0;
  /// Keep-last-l checkpoint retention: how many committed sets each buddy
  /// store retains (>= 1). Detected silent corruption rolls back through
  /// this ladder to the newest set whose capture predates every live
  /// corruption epoch.
  std::size_t keep_last = 1;
  /// Differential-checkpoint (dcp) stack size K: when > 0, only every K-th
  /// commit exchanges full images; the K - 1 commits in between send
  /// content-hash block deltas chained on the committed base, and a restore
  /// replays base + <= K - 1 layers. 0 = every commit is full (dcp off).
  /// Requires staging_steps == 0, verify_every == 0 and keep_last == 1
  /// (chains hang off the committed set, not the retention ring).
  std::uint64_t dcp_stack_size = 0;
  /// Differential block size in bytes (per-block FNV hash granularity).
  std::size_t dcp_block_size = ckpt::kDefaultDcpBlockSize;

  /// Validates the CheckpointPolicy this converts to, then the geometry.
  void validate() const;
};

/// The 1-D chain adapter: node i owns cells [i * cells_per_node,
/// (i + 1) * cells_per_node) of the global domain and exchanges one halo
/// cell with each neighbour per step.
class Coordinator : public CheckpointDriver {
 public:
  Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel);

  const RuntimeConfig& config() const noexcept { return config_; }

 private:
  void initialize(std::uint64_t node,
                  std::span<double> state) const override;
  void exchange_halos() override;
  void update(std::uint64_t node, std::span<const double> previous,
              std::span<double> next) const override;

  RuntimeConfig config_;
  std::unique_ptr<Kernel> kernel_;
  std::vector<double> left_ghost_, right_ghost_;  ///< per node
};

}  // namespace dckpt::runtime
