#include "runtime/coordinator.hpp"

#include <stdexcept>
#include <utility>

namespace dckpt::runtime {

CheckpointPolicy::CheckpointPolicy(const RuntimeConfig& config)
    : nodes(config.nodes), topology(config.topology),
      checkpoint_interval(config.checkpoint_interval),
      total_steps(config.total_steps), staging_steps(config.staging_steps),
      rereplication_delay_steps(config.rereplication_delay_steps),
      transfer_retry(config.transfer_retry),
      verify_every(config.verify_every), keep_last(config.keep_last),
      dcp_stack_size(config.dcp_stack_size),
      dcp_block_size(config.dcp_block_size) {}

void RuntimeConfig::validate() const {
  CheckpointPolicy(*this).validate();
  if (cells_per_node == 0) {
    throw std::invalid_argument("RuntimeConfig: cells_per_node must be > 0");
  }
}

namespace {

const RuntimeConfig& validated(const RuntimeConfig& config) {
  config.validate();
  return config;
}

}  // namespace

Coordinator::Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel)
    : CheckpointDriver(validated(config), config.cells_per_node,
                       config.threads),
      config_(config), kernel_(std::move(kernel)),
      left_ghost_(config.nodes, 0.0), right_ghost_(config.nodes, 0.0) {
  if (!kernel_) throw std::invalid_argument("Coordinator: null kernel");
  initialize_all();
}

void Coordinator::initialize(std::uint64_t node,
                             std::span<double> state) const {
  kernel_->initialize(node * config_.cells_per_node, state);
}

void Coordinator::exchange_halos() {
  // The chain's ends see the fixed boundary value 0.
  const std::size_t n = config_.nodes;
  const std::size_t right_idx =
      kernel_->right_halo_index(config_.cells_per_node);
  const std::size_t left_idx =
      kernel_->left_halo_index(config_.cells_per_node);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      read_cells(i - 1, right_idx, std::span(&left_ghost_[i], 1));
    }
    if (i + 1 < n) {
      read_cells(i + 1, left_idx, std::span(&right_ghost_[i], 1));
    }
  }
}

void Coordinator::update(std::uint64_t node, std::span<const double> previous,
                         std::span<double> next) const {
  kernel_->step(previous, next, left_ghost_[node], right_ghost_[node]);
}

}  // namespace dckpt::runtime
