#include "runtime/coordinator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ckpt/dcp.hpp"
#include "runtime/commit_hashing.hpp"

namespace dckpt::runtime {

void RuntimeConfig::validate() const {
  const auto gs =
      static_cast<std::uint64_t>(topology == ckpt::Topology::Pairs ? 2 : 3);
  if (nodes == 0 || nodes % gs != 0) {
    throw std::invalid_argument(
        "RuntimeConfig: nodes must be a positive multiple of the group size");
  }
  if (cells_per_node == 0) {
    throw std::invalid_argument("RuntimeConfig: cells_per_node must be > 0");
  }
  if (checkpoint_interval == 0) {
    throw std::invalid_argument(
        "RuntimeConfig: checkpoint_interval must be > 0");
  }
  if (total_steps == 0) {
    throw std::invalid_argument("RuntimeConfig: total_steps must be > 0");
  }
  if (staging_steps > checkpoint_interval) {
    throw std::invalid_argument(
        "RuntimeConfig: staging_steps must be <= checkpoint_interval");
  }
  if (keep_last == 0) {
    throw std::invalid_argument("RuntimeConfig: keep_last must be >= 1");
  }
  if (dcp_stack_size > 0) {
    if (dcp_block_size == 0) {
      throw std::invalid_argument(
          "RuntimeConfig: dcp_block_size must be > 0 when dcp is enabled");
    }
    // Chains hang off the single committed set: a staged exchange, a
    // rollback ladder deeper than 1, or a verification-triggered rollback
    // would all need per-set chains the substrate does not model.
    if (staging_steps != 0 || verify_every != 0 || keep_last != 1) {
      throw std::invalid_argument(
          "RuntimeConfig: dcp requires staging_steps == 0, verify_every == 0 "
          "and keep_last == 1");
    }
  }
  transfer_retry.validate();
}

std::uint64_t state_hash(std::span<const double> state) {
  return ckpt::fnv1a(std::as_bytes(state));
}

void validate_injections(std::span<const FailureInjection> failures,
                         std::uint64_t nodes, std::uint64_t total_steps,
                         ckpt::Topology topology,
                         std::uint64_t verify_every,
                         std::uint64_t dcp_stack_size) {
  const ckpt::GroupAssignment groups(nodes, topology);
  for (const auto& failure : failures) {
    if (failure.node >= nodes) {
      throw std::invalid_argument("FailureInjection: node out of range");
    }
    if (failure.step >= total_steps) {
      throw std::invalid_argument("FailureInjection: step out of range");
    }
    if (failure.kind == InjectionKind::SilentError && verify_every == 0) {
      // With verification off, a silent error can never be observed and
      // the schedule would pass vacuously.
      throw std::invalid_argument(
          "FailureInjection: silent error requires verification enabled "
          "(verify_every > 0)");
    }
    if (failure.kind == InjectionKind::TornDelta) {
      // A chain never grows past K - 1 layers, so a depth outside
      // [1, K - 1] (or any TornDelta with dcp off) could never tear
      // anything and the schedule would pass vacuously.
      if (dcp_stack_size == 0) {
        throw std::invalid_argument(
            "FailureInjection: torn delta requires dcp enabled "
            "(dcp_stack_size > 0)");
      }
      if (failure.window == 0 || failure.window >= dcp_stack_size) {
        throw std::invalid_argument(
            "FailureInjection: torn-delta depth must be in [1, "
            "dcp_stack_size - 1]");
      }
    }
    if (failure.kind == InjectionKind::CorruptReplica) {
      if (failure.owner >= nodes) {
        throw std::invalid_argument("FailureInjection: owner out of range");
      }
      // The holder must be a node that actually stores the owner's
      // committed image under this topology, or the injection could never
      // damage anything and the schedule would pass vacuously.
      const bool holds =
          topology == ckpt::Topology::Pairs
              ? (failure.node == failure.owner ||
                 failure.node == groups.preferred_buddy(failure.owner))
              : (failure.node == groups.preferred_buddy(failure.owner) ||
                 failure.node == groups.secondary_buddy(failure.owner));
      if (!holds) {
        throw std::invalid_argument(
            "FailureInjection: corrupt target does not hold the owner's "
            "replica");
      }
    }
  }
}

std::uint64_t consume_alarms(std::vector<FailureInjection>& pending,
                             std::uint64_t step) {
  std::uint64_t fired = 0;
  for (auto it = pending.begin(); it != pending.end();) {
    if (it->kind == InjectionKind::Alarm && it->step == step) {
      ++fired;
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
  return fired;
}

void score_predictions(std::span<const FailureInjection> failures,
                       RunReport& report) {
  std::vector<const FailureInjection*> losses;
  std::vector<const FailureInjection*> alarms;
  for (const auto& failure : failures) {
    if (failure.kind == InjectionKind::NodeLoss) losses.push_back(&failure);
    if (failure.kind == InjectionKind::Alarm) alarms.push_back(&failure);
  }
  const auto by_step = [](const FailureInjection* a,
                          const FailureInjection* b) {
    return a->step < b->step;
  };
  std::stable_sort(losses.begin(), losses.end(), by_step);
  std::stable_sort(alarms.begin(), alarms.end(), by_step);
  std::vector<bool> consumed(losses.size(), false);
  for (const FailureInjection* alarm : alarms) {
    for (std::size_t i = 0; i < losses.size(); ++i) {
      if (consumed[i] || losses[i]->node != alarm->node) continue;
      if (losses[i]->step < alarm->step) continue;
      if (losses[i]->step > alarm->step + alarm->window) continue;
      consumed[i] = true;
      ++report.true_predictions;
      break;
    }
  }
  for (std::size_t i = 0; i < losses.size(); ++i) {
    if (!consumed[i]) ++report.missed_failures;
  }
}

Coordinator::Coordinator(RuntimeConfig config, std::unique_ptr<Kernel> kernel)
    : config_(config), kernel_(std::move(kernel)),
      groups_(config.nodes, config.topology), pool_(config.threads),
      committed_hashes_(config.nodes, 0),
      engine_(groups_, config.rereplication_delay_steps,
              config.transfer_retry, config.keep_last) {
  config_.validate();
  if (!kernel_) throw std::invalid_argument("Coordinator: null kernel");
  workers_.reserve(config_.nodes);
  for (std::uint64_t node = 0; node < config_.nodes; ++node) {
    workers_.emplace_back(node, config_.cells_per_node,
                          node * config_.cells_per_node, *kernel_,
                          config_.keep_last);
  }
}

std::vector<ckpt::BuddyStore*> Coordinator::store_directory() {
  std::vector<ckpt::BuddyStore*> stores;
  stores.reserve(workers_.size());
  for (Worker& worker : workers_) stores.push_back(&worker.store());
  return stores;
}

void Coordinator::execute_step() {
  // Jacobi halo capture: all ghosts read before any worker is updated, so
  // the result is independent of stepping order (and thread count).
  const std::size_t n = workers_.size();
  const std::size_t right_idx =
      kernel_->right_halo_index(config_.cells_per_node);
  const std::size_t left_idx =
      kernel_->left_halo_index(config_.cells_per_node);
  std::vector<double> left_ghost(n, 0.0), right_ghost(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    left_ghost[i] = (i == 0) ? 0.0 : workers_[i - 1].value_at(right_idx);
    right_ghost[i] = (i + 1 == n) ? 0.0 : workers_[i + 1].value_at(left_idx);
  }
  util::parallel_for_chunked(
      pool_, n, pool_.thread_count(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          workers_[i].step(*kernel_, left_ghost[i], right_ghost[i]);
        }
      });
}

void Coordinator::begin_checkpoint(std::uint64_t step) {
  // Every worker snapshots and stages its image on its buddies (and
  // locally, for pairs). Snapshots are cheap COW captures; the bytes "sent"
  // over the (virtual) interconnect are the remote stagings.
  std::vector<ckpt::Snapshot> images;
  images.reserve(workers_.size());
  for (Worker& worker : workers_) images.push_back(worker.take_snapshot());

  staging_version_ = images.front().version();
  staging_snapshot_step_ = step;
  staged_bytes_ = 0;
  const auto epochs = engine_.current_epochs();
  staging_epochs_.assign(epochs.begin(), epochs.end());
  // Hash before staging, so every filed copy carries the cached digest the
  // restore paths verify against. With dcp on, the same walk refreshes the
  // per-node hash arrays for the full base the next deltas chain on. Safe
  // to overwrite here: dcp forbids staging, so this snapshot set commits
  // before anything can roll back past it.
  staging_hashes_ = hash_full_commit(
      pool_, images, config_.dcp_stack_size > 0 ? config_.dcp_block_size : 0,
      hash_arrays_);
  for (std::uint64_t node = 0; node < workers_.size(); ++node) {
    const ckpt::Snapshot& image = images[node];
    if (config_.topology == ckpt::Topology::Pairs) {
      workers_[node].store().stage(image);  // local copy
      workers_[groups_.preferred_buddy(node)].store().stage(image);
      staged_bytes_ += image.size_bytes();
    } else {
      workers_[groups_.preferred_buddy(node)].store().stage(image);
      workers_[groups_.secondary_buddy(node)].store().stage(image);
      staged_bytes_ += 2 * image.size_bytes();
    }
  }
  staging_ = true;
}

void Coordinator::commit_checkpoint(RunReport& report) {
  // Integrity gate before promotion: every node's staged image on its
  // preferred buddy must still hash to its snapshot-time digest. Staging is
  // process-local here, so a mismatch is a broken invariant, not a chaos
  // outcome the run could survive.
  for (std::uint64_t node = 0; node < workers_.size(); ++node) {
    const auto staged =
        workers_[groups_.preferred_buddy(node)].store().staged_for(node);
    if (!staged || !staged->verify(staging_hashes_[node])) {
      throw std::logic_error(
          "commit_checkpoint: staged image failed verification");
    }
  }
  // Atomic promotion of the completed set on every node.
  for (Worker& worker : workers_) worker.store().promote(staging_version_);
  committed_hashes_ = staging_hashes_;
  committed_step_ = staging_snapshot_step_;
  has_commit_ = true;
  staging_ = false;
  report.bytes_replicated += staged_bytes_;
  ++report.checkpoints;
  ++report.full_commits;
  // A full exchange restarts every dcp lineage: promote() dropped the old
  // chains, and the hash arrays captured at begin_checkpoint() describe the
  // new base the next deltas diff against.
  dcp_layers_ = 0;
  dcp_tip_version_ = staging_version_;
  // A committed exchange re-creates every replica: pending refills are
  // subsumed, the risk window closes, lost nodes rejoin, and the set joins
  // the rollback ladder with its snapshot-time corruption epochs.
  engine_.on_commit(committed_step_, committed_hashes_, staging_epochs_);
}

void Coordinator::commit_delta_checkpoint(RunReport& report,
                                          std::uint64_t step) {
  // Differential commit: every worker snapshots, diffs against the cached
  // hash array of the last committed image, and appends the resulting layer
  // on the same replica holders a full image would go to. Blocking (like
  // staging_steps == 0) and atomic from the run's point of view: the commit
  // markers advance to the new tip.
  std::vector<ckpt::Snapshot> images;
  images.reserve(workers_.size());
  for (Worker& worker : workers_) images.push_back(worker.take_snapshot());

  std::vector<ckpt::BlockDelta> layers =
      diff_delta_commit(pool_, images, dcp_tip_version_, committed_hashes_,
                        config_.dcp_block_size, hash_arrays_);
  for (std::uint64_t node = 0; node < workers_.size(); ++node) {
    // The second holder takes the layer itself rather than a copy, so the
    // commit peaks at the layers the stores keep.
    ckpt::BlockDelta& layer = layers[node];
    committed_hashes_[node] = layer.result_hash();
    if (config_.topology == ckpt::Topology::Pairs) {
      report.bytes_replicated += layer.delta_bytes();
      workers_[node].store().append_delta(layer);  // local copy
      workers_[groups_.preferred_buddy(node)].store().append_delta(
          std::move(layer));
    } else {
      report.bytes_replicated += 2 * layer.delta_bytes();
      workers_[groups_.preferred_buddy(node)].store().append_delta(layer);
      workers_[groups_.secondary_buddy(node)].store().append_delta(
          std::move(layer));
    }
  }
  committed_step_ = step;
  dcp_tip_version_ = images.front().version();
  ++dcp_layers_;
  ++report.checkpoints;
  ++report.delta_commits;
  // Deliberately *not* engine_.on_commit(): a delta exchange moves only
  // dirty blocks, so it does not re-create every replica -- it neither
  // closes a pending risk window, clears pending refills, nor readmits
  // lost nodes. Only a full exchange does.
}

void Coordinator::proactive_checkpoint(RunReport& report, std::uint64_t step) {
  // Skip-if-just-committed: nothing new to save when the committed set (or
  // the implicit initial checkpoint at step 0) already captures this state.
  if (step == 0 || (has_commit_ && committed_step_ == step)) return;
  // The proactive commit captures a strictly newer state than any staged
  // set, superseding it; drop the in-flight exchange and run a blocking
  // snapshot-and-promote, exactly the staging_steps == 0 path.
  staging_ = false;
  for (Worker& worker : workers_) worker.store().discard_staged();
  begin_checkpoint(step);
  commit_checkpoint(report);
  ++report.proactive_ckpts;
}

void Coordinator::rollback_all(RunReport& report, std::uint64_t step) {
  ++report.rollbacks;
  // Any in-flight staging set is lost with its victims; abandon it and fall
  // back to the last committed set (it will be retaken on replay).
  staging_ = false;
  if (!has_commit_) {
    // The starting configuration is the implicit first checkpoint set.
    for (Worker& worker : workers_) {
      worker.store().discard_staged();
      worker.initialize(*kernel_);
    }
    // Re-initializing clears any latent corruption too.
    engine_.reset_to_initial();
    return;
  }
  const auto stores = store_directory();
  engine_.rollback_and_refill(
      step, stores, committed_hashes_,
      [&](std::uint64_t node, const ckpt::Snapshot& image) {
        workers_[node].restore(image);
      },
      [&](std::uint64_t node) { workers_[node].initialize(*kernel_); },
      report);
}

RunReport Coordinator::run(std::span<const FailureInjection> failures) {
  validate_injections(failures, config_.nodes, config_.total_steps,
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
    // Predictor alarms fire first: the proactive checkpoint they trigger
    // commits before this step's loss (if any) lands, which is exactly how
    // a same-step true prediction saves the work since the last commit.
    const std::uint64_t alarms = consume_alarms(pending, step);
    if (alarms > 0) {
      report.alarms_raised += alarms;
      proactive_checkpoint(report, step);
    }
    // Fire the injections scheduled for this step (each at most once).
    // NodeLoss wipes the victim's memory and buddy storage; the rollback
    // then restores every node through its replica ladder -- skipping
    // corrupt images, failing over to later candidates, and
    // blank-restarting (degraded mode) any node whose ladder is exhausted.
    const bool failed = engine_.fire_injections(
        pending, step, stores,
        [&](std::uint64_t node) { workers_[node].destroy(); },
        [&](std::uint64_t node) { workers_[node].inject_sdc(); }, report);
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
    // Risk-window / refill / degraded-mode bookkeeping: due refills deliver
    // (consuming any armed transfer faults, retrying with backoff), and
    // every step some node runs blank-restarted counts as degraded.
    engine_.tick(stores, committed_hashes_, report);
    // Commit an in-flight set before possibly starting the next one (the
    // two coincide when staging_steps == checkpoint_interval).
    if (staging_ && step == staging_commit_at_) {
      commit_checkpoint(report);
    }
    const bool boundary = step % config_.checkpoint_interval == 0 &&
                          step < config_.total_steps;
    if (config_.verify_every > 0) {
      // Verification runs every `verify_every` checkpoint periods, after
      // the period's commit and before the next set stages -- plus one
      // final audit at the end of the run, so a late silent error cannot
      // escape into the final answer undetected.
      if (boundary) ++periods_since_verify_;
      const bool due =
          (boundary && periods_since_verify_ >= config_.verify_every) ||
          step == config_.total_steps;
      if (due) {
        periods_since_verify_ = 0;
        const auto action = engine_.verify_checkpoints(
            step, stores, committed_hashes_,
            [&](std::uint64_t node, const ckpt::Snapshot& image) {
              workers_[node].restore(image);
            },
            [&](std::uint64_t node) { workers_[node].initialize(*kernel_); },
            report);
        if (action.rolled_back) {
          staging_ = false;
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
    if (boundary && !staging_) {
      // dcp cadence: between full exchanges, commit block deltas -- but
      // only while the chain has room (K - 1 layers) and the platform is
      // whole. A lost node or a pending refill forces a full exchange,
      // because only a full commit re-creates every replica and closes the
      // risk window (deltas skip engine_.on_commit()).
      const bool delta_commit =
          config_.dcp_stack_size > 0 && has_commit_ &&
          dcp_layers_ + 1 < config_.dcp_stack_size && !engine_.any_lost() &&
          !engine_.refill_pending();
      if (delta_commit) {
        commit_delta_checkpoint(report, step);
      } else {
        begin_checkpoint(step);
        staging_commit_at_ = step + config_.staging_steps;
        if (config_.staging_steps == 0) commit_checkpoint(report);
      }
    }
  }

  for (const Worker& worker : workers_) {
    report.cow_copies += worker.cow_copies();
  }
  report.final_hash = state_hash(global_state());
  return report;
}

std::vector<double> Coordinator::global_state() const {
  std::vector<double> state;
  state.reserve(config_.nodes * config_.cells_per_node);
  for (const Worker& worker : workers_) {
    const auto block = worker.state();
    state.insert(state.end(), block.begin(), block.end());
  }
  return state;
}

}  // namespace dckpt::runtime
