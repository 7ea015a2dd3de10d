#include "runtime/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "runtime/commit_hashing.hpp"

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

void GridConfig::validate() const {
  if (grid_rows == 0 || grid_cols == 0) {
    throw std::invalid_argument("GridConfig: empty worker grid");
  }
  const auto gs =
      static_cast<std::uint64_t>(topology == ckpt::Topology::Pairs ? 2 : 3);
  if (nodes() % gs != 0) {
    throw std::invalid_argument(
        "GridConfig: worker count must be a multiple of the group size");
  }
  if (block_rows == 0 || block_cols == 0) {
    throw std::invalid_argument("GridConfig: empty block");
  }
  if (checkpoint_interval == 0 || total_steps == 0) {
    throw std::invalid_argument("GridConfig: zero interval or steps");
  }
  if (keep_last == 0) {
    throw std::invalid_argument("GridConfig: keep_last must be >= 1");
  }
  if (dcp_stack_size > 0) {
    if (dcp_block_size == 0) {
      throw std::invalid_argument(
          "GridConfig: dcp_block_size must be > 0 when dcp is enabled");
    }
    // Same substrate constraint as RuntimeConfig: chains hang off the
    // single committed set.
    if (verify_every != 0 || keep_last != 1) {
      throw std::invalid_argument(
          "GridConfig: dcp requires verify_every == 0 and keep_last == 1");
    }
  }
  transfer_retry.validate();
}

// ----------------------------------------------------------------- block

struct GridCoordinator::Block {
  std::uint64_t id;
  std::size_t rows, cols;
  std::size_t retain;
  ckpt::PageStore memory;
  ckpt::BuddyStore store;
  std::vector<double> prev, next;

  Block(std::uint64_t node, std::size_t block_rows, std::size_t block_cols,
        std::size_t retain_sets)
      : id(node), rows(block_rows), cols(block_cols), retain(retain_sets),
        memory(block_rows * block_cols * sizeof(double)),
        store(node, 2, retain_sets), prev(block_rows * block_cols),
        next(block_rows * block_cols) {}

  void load(std::span<double> out) const {
    memory.read(0, std::as_writable_bytes(out));
  }
  void save(std::span<const double> data) {
    memory.write(0, std::as_bytes(data));
  }
  double cell(std::size_t r, std::size_t c) const {
    double value = 0.0;
    memory.read((r * cols + c) * sizeof(double),
                std::as_writable_bytes(std::span(&value, 1)));
    return value;
  }
  std::vector<double> row(std::size_t r) const {
    std::vector<double> out(cols);
    memory.read(r * cols * sizeof(double), std::as_writable_bytes(
                                               std::span(out)));
    return out;
  }
  std::vector<double> column(std::size_t c) const {
    std::vector<double> out(rows);
    for (std::size_t r = 0; r < rows; ++r) out[r] = cell(r, c);
    return out;
  }
  void destroy() {
    std::vector<double> poison(rows * cols,
                               std::numeric_limits<double>::quiet_NaN());
    save(poison);
    store = ckpt::BuddyStore(id, 2, retain);
  }
  void inject_sdc() {
    // Same latent damage as the 1-D worker: flip the low mantissa byte of
    // cell 0 through the COW write path.
    std::byte low{};
    memory.read(0, std::span(&low, 1));
    low ^= std::byte{0x5a};
    memory.write(0, std::span<const std::byte>(&low, 1));
  }
};

// ----------------------------------------------------------- coordinator

GridCoordinator::GridCoordinator(GridConfig config,
                                 std::unique_ptr<GridKernel> kernel)
    : config_(config), kernel_(std::move(kernel)),
      groups_(config.nodes(), config.topology), pool_(config.threads),
      committed_hashes_(config.nodes(), 0),
      engine_(groups_, config.rereplication_delay_steps,
              config.transfer_retry, config.keep_last) {
  config_.validate();
  if (!kernel_) throw std::invalid_argument("GridCoordinator: null kernel");
  blocks_.reserve(config_.nodes());
  for (std::uint64_t node = 0; node < config_.nodes(); ++node) {
    auto block = std::make_unique<Block>(node, config_.block_rows,
                                         config_.block_cols,
                                         config_.keep_last);
    const std::size_t grid_r = node / config_.grid_cols;
    const std::size_t grid_c = node % config_.grid_cols;
    kernel_->initialize(grid_r * config_.block_rows,
                        grid_c * config_.block_cols, config_.block_rows,
                        config_.block_cols, block->next);
    block->save(block->next);
    blocks_.push_back(std::move(block));
  }
}

GridCoordinator::~GridCoordinator() = default;

std::vector<ckpt::BuddyStore*> GridCoordinator::store_directory() {
  std::vector<ckpt::BuddyStore*> stores;
  stores.reserve(blocks_.size());
  for (auto& block : blocks_) stores.push_back(&block->store);
  return stores;
}

void GridCoordinator::execute_step() {
  // Jacobi halo capture: all four edges of every block read before any
  // block updates, so results are independent of scheduling.
  const std::size_t rows = config_.grid_rows, cols = config_.grid_cols;
  const std::size_t br = config_.block_rows, bc = config_.block_cols;
  struct Halos {
    std::vector<double> north, south, west, east;
  };
  std::vector<Halos> halos(blocks_.size());
  for (std::size_t node = 0; node < blocks_.size(); ++node) {
    const std::size_t gr = node / cols, gc = node % cols;
    Halos& h = halos[node];
    h.north = gr > 0 ? blocks_[node - cols]->row(br - 1)
                     : std::vector<double>(bc, 0.0);
    h.south = gr + 1 < rows ? blocks_[node + cols]->row(0)
                            : std::vector<double>(bc, 0.0);
    h.west = gc > 0 ? blocks_[node - 1]->column(bc - 1)
                    : std::vector<double>(br, 0.0);
    h.east = gc + 1 < cols ? blocks_[node + 1]->column(0)
                           : std::vector<double>(br, 0.0);
  }
  util::parallel_for_chunked(
      pool_, blocks_.size(), pool_.thread_count(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t node = begin; node < end; ++node) {
          Block& block = *blocks_[node];
          block.load(block.prev);
          kernel_->step(block.prev, block.next, br, bc, halos[node].north,
                        halos[node].south, halos[node].west,
                        halos[node].east);
          block.save(block.next);
        }
      });
}

void GridCoordinator::checkpoint_all(RunReport& report) {
  std::vector<ckpt::Snapshot> images;
  images.reserve(blocks_.size());
  for (auto& block : blocks_) images.push_back(block->memory.snapshot(block->id));
  const std::uint64_t version = images.front().version();
  // Hash before staging, so every filed copy carries the cached digest the
  // restore paths verify against (and, with dcp on, refresh the hash arrays
  // in the same walk).
  committed_hashes_ = hash_full_commit(
      pool_, images, config_.dcp_stack_size > 0 ? config_.dcp_block_size : 0,
      hash_arrays_);
  for (std::uint64_t node = 0; node < blocks_.size(); ++node) {
    const ckpt::Snapshot& image = images[node];
    if (config_.topology == ckpt::Topology::Pairs) {
      blocks_[node]->store.stage(image);
      blocks_[groups_.preferred_buddy(node)]->store.stage(image);
      report.bytes_replicated += image.size_bytes();
    } else {
      blocks_[groups_.preferred_buddy(node)]->store.stage(image);
      blocks_[groups_.secondary_buddy(node)]->store.stage(image);
      report.bytes_replicated += 2 * image.size_bytes();
    }
  }
  for (auto& block : blocks_) block->store.promote(version);
  has_commit_ = true;
  ++report.checkpoints;
  ++report.full_commits;
  // A full exchange restarts every dcp lineage (see Coordinator).
  dcp_layers_ = 0;
  dcp_tip_version_ = version;
  // A committed exchange re-creates every replica: pending refills are
  // subsumed, the risk window closes, lost nodes rejoin, and the set joins
  // the rollback ladder. The grid commits at snapshot time, so the live
  // epochs are exactly what the images carry.
  engine_.on_commit(committed_step_, committed_hashes_,
                    engine_.current_epochs());
}

void GridCoordinator::delta_checkpoint_all(RunReport& report) {
  // Differential commit, mirroring Coordinator::commit_delta_checkpoint:
  // diff every block against the cached hash array of the last committed
  // image and append the layer on the holders a full image would go to.
  // committed_step_ was already advanced by the caller (the grid commits at
  // snapshot time).
  std::vector<ckpt::Snapshot> images;
  images.reserve(blocks_.size());
  for (auto& block : blocks_) {
    images.push_back(block->memory.snapshot(block->id));
  }
  std::vector<ckpt::BlockDelta> layers =
      diff_delta_commit(pool_, images, dcp_tip_version_, committed_hashes_,
                        config_.dcp_block_size, hash_arrays_);
  for (std::uint64_t node = 0; node < blocks_.size(); ++node) {
    // The second holder takes the layer itself rather than a copy, so the
    // commit peaks at the layers the stores keep.
    ckpt::BlockDelta& layer = layers[node];
    committed_hashes_[node] = layer.result_hash();
    if (config_.topology == ckpt::Topology::Pairs) {
      report.bytes_replicated += layer.delta_bytes();
      blocks_[node]->store.append_delta(layer);  // local copy
      blocks_[groups_.preferred_buddy(node)]->store.append_delta(
          std::move(layer));
    } else {
      report.bytes_replicated += 2 * layer.delta_bytes();
      blocks_[groups_.preferred_buddy(node)]->store.append_delta(layer);
      blocks_[groups_.secondary_buddy(node)]->store.append_delta(
          std::move(layer));
    }
  }
  dcp_tip_version_ = images.front().version();
  ++dcp_layers_;
  ++report.checkpoints;
  ++report.delta_commits;
  // No engine_.on_commit(): a delta exchange neither closes a pending risk
  // window, clears pending refills, nor readmits lost nodes.
}

void GridCoordinator::proactive_checkpoint(RunReport& report,
                                           std::uint64_t step) {
  // Skip-if-just-committed, mirroring the 1-D coordinator: nothing new to
  // save when the committed set (or the implicit initial checkpoint at
  // step 0) already captures this state. The grid commits at snapshot time,
  // so the proactive commit is a plain checkpoint_all at this step.
  if (step == 0 || (has_commit_ && committed_step_ == step)) return;
  committed_step_ = step;
  checkpoint_all(report);
  ++report.proactive_ckpts;
}

void GridCoordinator::blank_restart(std::uint64_t node) {
  Block& block = *blocks_[node];
  const std::size_t gr = node / config_.grid_cols;
  const std::size_t gc = node % config_.grid_cols;
  kernel_->initialize(gr * config_.block_rows, gc * config_.block_cols,
                      config_.block_rows, config_.block_cols, block.next);
  block.save(block.next);
}

void GridCoordinator::rollback_all(RunReport& report, std::uint64_t step) {
  ++report.rollbacks;
  if (!has_commit_) {
    for (std::uint64_t node = 0; node < blocks_.size(); ++node) {
      blocks_[node]->store.discard_staged();
      blank_restart(node);
    }
    // Re-initializing clears any latent corruption too.
    engine_.reset_to_initial();
    return;
  }
  const auto stores = store_directory();
  engine_.rollback_and_refill(
      step, stores, committed_hashes_,
      [&](std::uint64_t node, const ckpt::Snapshot& image) {
        blocks_[node]->memory.restore(image);
      },
      [&](std::uint64_t node) { blank_restart(node); }, report);
}

RunReport GridCoordinator::run(std::span<const FailureInjection> failures) {
  validate_injections(failures, config_.nodes(), config_.total_steps,
                      config_.topology, config_.verify_every,
                      config_.dcp_stack_size);
  RunReport report;
  std::vector<FailureInjection> pending(failures.begin(), failures.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const FailureInjection& a, const FailureInjection& b) {
                     return a.step < b.step;
                   });
  score_predictions(failures, report);
  const auto stores = store_directory();
  std::uint64_t step = 0;
  while (step < config_.total_steps) {
    // Predictor alarms fire first, exactly as in the 1-D coordinator: the
    // proactive commit precedes this step's loss (if any).
    const std::uint64_t alarms = consume_alarms(pending, step);
    if (alarms > 0) {
      report.alarms_raised += alarms;
      proactive_checkpoint(report, step);
    }
    // Fire this step's injections (corruption, then transfer-fault arming,
    // then losses). A loss triggers the coordinated rollback: every node
    // restores through its replica ladder, corrupt images are skipped, and
    // an exhausted ladder blank-restarts the node in degraded mode.
    const bool failed = engine_.fire_injections(
        pending, step, stores,
        [&](std::uint64_t node) { blocks_[node]->destroy(); },
        [&](std::uint64_t node) { blocks_[node]->inject_sdc(); }, report);
    if (failed) {
      rollback_all(report, step);
      const std::uint64_t resume = has_commit_ ? committed_step_ : 0;
      report.replayed_steps += step - resume;
      step = resume;
      continue;
    }
    execute_step();
    ++step;
    ++report.steps_executed;
    // Risk-window / refill / degraded-mode bookkeeping (same clock as the
    // 1-D coordinator: executed steps, replay included).
    engine_.tick(stores, committed_hashes_, report);
    const bool boundary = step % config_.checkpoint_interval == 0 &&
                          step < config_.total_steps;
    if (config_.verify_every > 0) {
      // Same cadence and ordering as the 1-D coordinator: verification
      // runs at the boundary *before* the boundary's own set commits (so
      // both topologies see the same rollback ladder for the same
      // schedule), plus a final audit at the end of the run.
      if (boundary) ++periods_since_verify_;
      const bool due =
          (boundary && periods_since_verify_ >= config_.verify_every) ||
          step == config_.total_steps;
      if (due) {
        periods_since_verify_ = 0;
        const auto action = engine_.verify_checkpoints(
            step, stores, committed_hashes_,
            [&](std::uint64_t node, const ckpt::Snapshot& image) {
              blocks_[node]->memory.restore(image);
            },
            [&](std::uint64_t node) { blank_restart(node); }, report);
        if (action.rolled_back) {
          committed_step_ = action.resume_step;
          if (action.to_initial) {
            has_commit_ = false;
            std::fill(committed_hashes_.begin(), committed_hashes_.end(),
                      std::uint64_t{0});
          }
          report.replayed_steps += step - action.resume_step;
          step = action.resume_step;
          continue;
        }
      }
    }
    if (boundary) {
      // dcp cadence, same predicate as the 1-D coordinator: deltas between
      // full exchanges while the chain has room and the platform is whole.
      const bool delta_commit =
          config_.dcp_stack_size > 0 && has_commit_ &&
          dcp_layers_ + 1 < config_.dcp_stack_size && !engine_.any_lost() &&
          !engine_.refill_pending();
      committed_step_ = step;
      if (delta_commit) {
        delta_checkpoint_all(report);
      } else {
        checkpoint_all(report);
      }
    }
  }
  for (const auto& block : blocks_) {
    report.cow_copies += block->memory.cow_copies();
  }
  report.final_hash = state_hash(global_state());
  return report;
}

std::vector<double> GridCoordinator::global_state() const {
  std::vector<double> state;
  state.reserve(blocks_.size() * config_.block_rows * config_.block_cols);
  for (const auto& block : blocks_) {
    std::vector<double> data(block->rows * block->cols);
    block->load(data);
    state.insert(state.end(), data.begin(), data.end());
  }
  return state;
}

}  // namespace dckpt::runtime
