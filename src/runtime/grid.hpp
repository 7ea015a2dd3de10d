// 2-D domain-decomposed fault-tolerant runtime.
//
// The standard 2-D HPC decomposition: a grid of workers, each owning a
// block of a global field and exchanging one halo row/column with each of
// its four neighbours per step (Jacobi-style). GridCoordinator is a thin
// topology adapter over the CheckpointDriver (runtime/checkpoint_driver.hpp)
// -- the same driver the 1-D Coordinator runs on -- so checkpointing,
// failure injection, coordinated rollback-recovery, the re-replication risk
// window, verification, proactive and dcp commits are the chain's, line for
// line. It supplies each block's initial condition and the 2-D Jacobi step.
// One difference stays: the grid commits each checkpoint set immediately
// (its CheckpointPolicy has staging_steps == 0; GridConfig has no staging).
//
// Workers are numbered row-major; the buddy topology (pairs/triples over
// consecutive ids) is orthogonal to the grid geometry -- as in real
// deployments, where buddy assignment follows racks, not the domain. The
// chaos shadow oracle exploits exactly that: the same step/commit/refill
// machine predicts this coordinator's accounting (recoveries,
// rereplications, risk_steps) counter-for-counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "runtime/checkpoint_driver.hpp"

namespace dckpt::runtime {

/// Kernel over a 2-D block (row-major), with four pre-captured halo edges.
class GridKernel {
 public:
  virtual ~GridKernel() = default;

  /// Fills a block whose top-left cell is global (row0, col0).
  virtual void initialize(std::size_t row0, std::size_t col0,
                          std::size_t rows, std::size_t cols,
                          std::span<double> state) const = 0;

  /// One step. Halos hold the neighbouring edge values (cols entries for
  /// north/south, rows entries for west/east); domain boundary = 0.
  virtual void step(std::span<const double> previous, std::span<double> next,
                    std::size_t rows, std::size_t cols,
                    std::span<const double> north,
                    std::span<const double> south,
                    std::span<const double> west,
                    std::span<const double> east) const = 0;

  virtual std::string name() const = 0;
};

/// 5-point explicit heat diffusion; stable for c <= 0.25.
class HeatKernel2D final : public GridKernel {
 public:
  explicit HeatKernel2D(double coefficient = 0.2);

  void initialize(std::size_t row0, std::size_t col0, std::size_t rows,
                  std::size_t cols, std::span<double> state) const override;
  void step(std::span<const double> previous, std::span<double> next,
            std::size_t rows, std::size_t cols,
            std::span<const double> north, std::span<const double> south,
            std::span<const double> west,
            std::span<const double> east) const override;
  std::string name() const override;

 private:
  double coefficient_;
};

struct GridConfig {
  std::size_t grid_rows = 2;
  std::size_t grid_cols = 2;
  ckpt::Topology topology = ckpt::Topology::Pairs;
  std::size_t block_rows = 32;
  std::size_t block_cols = 32;
  std::uint64_t checkpoint_interval = 16;
  std::uint64_t total_steps = 64;
  std::size_t threads = 0;
  /// Re-replication delay: executed steps between a rollback and the refill
  /// of the replacement node's buddy storage. Same semantics as
  /// RuntimeConfig::rereplication_delay_steps -- while the refill is
  /// pending the victim's group cannot survive another member loss, and a
  /// committed checkpoint closes the window. 0 = refill immediately.
  std::uint64_t rereplication_delay_steps = 0;
  /// Retry-with-backoff policy for re-replication transfers (same semantics
  /// as RuntimeConfig::transfer_retry).
  ckpt::RetryPolicy transfer_retry;
  /// Silent-error verification cadence (same semantics as
  /// RuntimeConfig::verify_every). 0 = off.
  std::uint64_t verify_every = 0;
  /// Keep-last-l checkpoint retention (same semantics as
  /// RuntimeConfig::keep_last). Must be >= 1.
  std::size_t keep_last = 1;
  /// Differential-checkpoint stack size K (same semantics as
  /// RuntimeConfig::dcp_stack_size). 0 = every commit is full. Requires
  /// verify_every == 0 and keep_last == 1.
  std::uint64_t dcp_stack_size = 0;
  /// Differential block size in bytes (same semantics as
  /// RuntimeConfig::dcp_block_size).
  std::size_t dcp_block_size = ckpt::kDefaultDcpBlockSize;

  std::uint64_t nodes() const noexcept {
    return static_cast<std::uint64_t>(grid_rows) * grid_cols;
  }
  /// Validates the geometry, then the CheckpointPolicy this converts to.
  void validate() const;
};

class GridCoordinator : public CheckpointDriver {
 public:
  GridCoordinator(GridConfig config, std::unique_ptr<GridKernel> kernel);

  // run() and global_state() (blocks concatenated, row-major per block,
  // block order row-major) come from the driver.

  const GridConfig& config() const noexcept { return config_; }

 private:
  void initialize(std::uint64_t node,
                  std::span<double> state) const override;
  void exchange_halos() override;
  void update(std::uint64_t node, std::span<const double> previous,
              std::span<double> next) const override;

  GridConfig config_;
  std::unique_ptr<GridKernel> kernel_;
  // Halo edges per node, block_cols values each for north/south and
  // block_rows for west/east; the domain boundary stays 0.
  std::vector<double> north_, south_, west_, east_;
};

}  // namespace dckpt::runtime
