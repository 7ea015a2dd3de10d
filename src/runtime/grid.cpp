#include "runtime/grid.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace dckpt::runtime {

// ---------------------------------------------------------------- kernel

HeatKernel2D::HeatKernel2D(double coefficient) : coefficient_(coefficient) {
  if (!(coefficient > 0.0) || coefficient > 0.25) {
    throw std::invalid_argument(
        "HeatKernel2D: need 0 < c <= 0.25 for stability");
  }
}

void HeatKernel2D::initialize(std::size_t row0, std::size_t col0,
                              std::size_t rows, std::size_t cols,
                              std::span<double> state) const {
  if (state.size() != rows * cols) {
    throw std::invalid_argument("HeatKernel2D: state/block size mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double x = static_cast<double>(col0 + c);
      const double y = static_cast<double>(row0 + r);
      state[r * cols + c] =
          std::sin(0.05 * x) * std::cos(0.07 * y) +
          0.2 * std::sin(0.31 * (x + y));
    }
  }
}

void HeatKernel2D::step(std::span<const double> previous,
                        std::span<double> next, std::size_t rows,
                        std::size_t cols, std::span<const double> north,
                        std::span<const double> south,
                        std::span<const double> west,
                        std::span<const double> east) const {
  if (previous.size() != rows * cols || next.size() != rows * cols ||
      north.size() != cols || south.size() != cols || west.size() != rows ||
      east.size() != rows) {
    throw std::invalid_argument("HeatKernel2D: halo/block size mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double up = (r == 0) ? north[c] : previous[(r - 1) * cols + c];
      const double down =
          (r + 1 == rows) ? south[c] : previous[(r + 1) * cols + c];
      const double left = (c == 0) ? west[r] : previous[r * cols + c - 1];
      const double right =
          (c + 1 == cols) ? east[r] : previous[r * cols + c + 1];
      const double centre = previous[r * cols + c];
      next[r * cols + c] =
          centre + coefficient_ * (up + down + left + right - 4.0 * centre);
    }
  }
}

std::string HeatKernel2D::name() const { return "heat-diffusion-2d"; }

// ---------------------------------------------------------------- config

CheckpointPolicy::CheckpointPolicy(const GridConfig& config)
    : nodes(config.nodes()), topology(config.topology),
      checkpoint_interval(config.checkpoint_interval),
      total_steps(config.total_steps), staging_steps(0),
      rereplication_delay_steps(config.rereplication_delay_steps),
      transfer_retry(config.transfer_retry),
      verify_every(config.verify_every), keep_last(config.keep_last),
      dcp_stack_size(config.dcp_stack_size),
      dcp_block_size(config.dcp_block_size) {}

void GridConfig::validate() const {
  if (grid_rows == 0 || grid_cols == 0) {
    throw std::invalid_argument("GridConfig: empty worker grid");
  }
  if (block_rows == 0 || block_cols == 0) {
    throw std::invalid_argument("GridConfig: empty block");
  }
  CheckpointPolicy(*this).validate();
}

// ----------------------------------------------------------- coordinator

namespace {

const GridConfig& validated(const GridConfig& config) {
  config.validate();
  return config;
}

}  // namespace

GridCoordinator::GridCoordinator(GridConfig config,
                                 std::unique_ptr<GridKernel> kernel)
    : CheckpointDriver(validated(config),
                       config.block_rows * config.block_cols, config.threads),
      config_(config), kernel_(std::move(kernel)),
      north_(config.nodes() * config.block_cols, 0.0),
      south_(north_.size(), 0.0),
      west_(config.nodes() * config.block_rows, 0.0),
      east_(west_.size(), 0.0) {
  if (!kernel_) throw std::invalid_argument("GridCoordinator: null kernel");
  initialize_all();
}

void GridCoordinator::initialize(std::uint64_t node,
                                 std::span<double> state) const {
  const std::size_t grid_r = node / config_.grid_cols;
  const std::size_t grid_c = node % config_.grid_cols;
  kernel_->initialize(grid_r * config_.block_rows,
                      grid_c * config_.block_cols, config_.block_rows,
                      config_.block_cols, state);
}

void GridCoordinator::exchange_halos() {
  // Edges on the domain boundary are never written: they stay 0.
  const std::size_t rows = config_.grid_rows, cols = config_.grid_cols;
  const std::size_t br = config_.block_rows, bc = config_.block_cols;
  for (std::size_t node = 0; node < node_count(); ++node) {
    const std::size_t gr = node / cols, gc = node % cols;
    if (gr > 0) {
      read_cells(node - cols, (br - 1) * bc,
                 std::span(north_).subspan(node * bc, bc));
    }
    if (gr + 1 < rows) {
      read_cells(node + cols, 0, std::span(south_).subspan(node * bc, bc));
    }
    for (std::size_t r = 0; r < br; ++r) {
      if (gc > 0) {
        read_cells(node - 1, r * bc + bc - 1,
                   std::span(west_).subspan(node * br + r, 1));
      }
      if (gc + 1 < cols) {
        read_cells(node + 1, r * bc,
                   std::span(east_).subspan(node * br + r, 1));
      }
    }
  }
}

void GridCoordinator::update(std::uint64_t node,
                             std::span<const double> previous,
                             std::span<double> next) const {
  const std::size_t br = config_.block_rows, bc = config_.block_cols;
  kernel_->step(previous, next, br, bc,
                std::span(north_).subspan(node * bc, bc),
                std::span(south_).subspan(node * bc, bc),
                std::span(west_).subspan(node * br, br),
                std::span(east_).subspan(node * br, br));
}

}  // namespace dckpt::runtime
