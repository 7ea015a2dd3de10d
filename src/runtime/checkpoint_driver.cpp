#include "runtime/checkpoint_driver.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace dckpt::runtime {

void CheckpointPolicy::validate() const {
  const auto gs =
      static_cast<std::uint64_t>(topology == ckpt::Topology::Pairs ? 2 : 3);
  if (nodes == 0 || nodes % gs != 0) {
    throw std::invalid_argument(
        "CheckpointPolicy: nodes must be a positive multiple of the group "
        "size");
  }
  if (checkpoint_interval == 0) {
    throw std::invalid_argument(
        "CheckpointPolicy: checkpoint_interval must be > 0");
  }
  if (total_steps == 0) {
    throw std::invalid_argument("CheckpointPolicy: total_steps must be > 0");
  }
  if (staging_steps > checkpoint_interval) {
    throw std::invalid_argument(
        "CheckpointPolicy: staging_steps must be <= checkpoint_interval");
  }
  if (keep_last == 0) {
    throw std::invalid_argument("CheckpointPolicy: keep_last must be >= 1");
  }
  if (dcp_stack_size > 0) {
    if (dcp_block_size == 0) {
      throw std::invalid_argument(
          "CheckpointPolicy: dcp_block_size must be > 0 when dcp is enabled");
    }
    // Chains hang off the single committed set: a staged exchange, a
    // rollback ladder deeper than 1, or a verification-triggered rollback
    // would all need per-set chains the substrate does not model.
    if (staging_steps != 0 || verify_every != 0 || keep_last != 1) {
      throw std::invalid_argument(
          "CheckpointPolicy: dcp requires staging_steps == 0, verify_every "
          "== 0 and keep_last == 1");
    }
  }
  transfer_retry.validate();
}

std::uint64_t state_hash(std::span<const double> state) {
  return ckpt::fnv1a(std::as_bytes(state));
}

void validate_injections(std::span<const FailureInjection> failures,
                         const CheckpointPolicy& policy) {
  const ckpt::GroupAssignment groups(policy.nodes, policy.topology);
  for (const auto& failure : failures) {
    if (failure.node >= policy.nodes) {
      throw std::invalid_argument("FailureInjection: node out of range");
    }
    if (failure.step >= policy.total_steps) {
      throw std::invalid_argument("FailureInjection: step out of range");
    }
    if (failure.kind == InjectionKind::SilentError &&
        policy.verify_every == 0) {
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
      if (policy.dcp_stack_size == 0) {
        throw std::invalid_argument(
            "FailureInjection: torn delta requires dcp enabled "
            "(dcp_stack_size > 0)");
      }
      if (failure.window == 0 || failure.window >= policy.dcp_stack_size) {
        throw std::invalid_argument(
            "FailureInjection: torn-delta depth must be in [1, "
            "dcp_stack_size - 1]");
      }
    }
    if (failure.kind == InjectionKind::CorruptReplica) {
      if (failure.owner >= policy.nodes) {
        throw std::invalid_argument("FailureInjection: owner out of range");
      }
      // The holder must be a node that actually stores the owner's
      // committed image under this topology, or the injection could never
      // damage anything and the schedule would pass vacuously.
      const auto holders = groups.holders(failure.owner);
      if (failure.node != holders[0] && failure.node != holders[1]) {
        throw std::invalid_argument(
            "FailureInjection: corrupt target does not hold the owner's "
            "replica");
      }
    }
  }
}

namespace {

/// Runs act(f) on every injection of `kind` scheduled for `step`, erasing
/// each from `pending`: every injection fires exactly once, even across
/// replays.
template <typename Act>
void fire(std::vector<FailureInjection>& pending, std::uint64_t step,
          InjectionKind kind, Act&& act) {
  for (auto it = pending.begin(); it != pending.end();) {
    if (it->step == step && it->kind == kind) {
      act(*it);
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
}

/// Static alarm <-> loss matching for the prediction scoreboard: each alarm
/// (step s, node v, window w) consumes the earliest unconsumed NodeLoss of
/// node v with s <= step <= s + w; every unconsumed loss counts as missed.
/// Valid as an upfront computation because injections fire exactly once --
/// replays never re-deliver either side. Adds to report.true_predictions
/// and report.missed_failures (the chaos shadow oracle mirrors it
/// independently).
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

// Per-node work of a commit or a rollback, run on the stepping pool.
//
// What a commit costs is reading every node's image: the content hash on a
// full commit (plus the dcp block hash array when dcp is on), the block
// diff on a delta commit. What a rollback costs is every node's ladder
// walk: rung selection, chain replay, the hash checks and the restore. The
// pool that runs the steps sits idle through both. Node i's task reads
// only node i's image or the stores' copies of it and writes only node i's
// memory or slot i of the outputs, so the result is the same at any thread
// count; staging, appends, promotion, counters, blank restarts and refills
// stay with the caller, serial and in node order.

/// Runs work(i) for every node on `pool`, one task per node: nodes with
/// more dirty blocks or longer chains take longer, and the pool's queue
/// evens that out.
void for_each_node(util::ThreadPool& pool, std::size_t nodes,
                   const std::function<void(std::size_t)>& work) {
  util::parallel_for_chunked(
      pool, nodes, nodes,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t node = begin; node < end; ++node) work(node);
      });
}

/// Full commit: returns every image's content hash, now cached in the
/// snapshot so each staged copy carries it. With `block_size` > 0 (dcp on)
/// the same walk also fills hash_arrays[i] with image i's block hashes;
/// with 0, hash_arrays is left alone.
std::vector<std::uint64_t> hash_full_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays) {
  std::vector<std::uint64_t> digests(images.size());
  if (block_size > 0) hash_arrays.assign(images.size(), {});
  for_each_node(pool, images.size(), [&](std::size_t node) {
    // At the default 4 KiB dcp block (ckpt::kDigestBlockSize) block_hashes
    // caches the content hash in its own walk, so the content_hash() after
    // it reads the cache; any other block size costs a second, 4 KiB walk.
    if (block_size > 0) {
      hash_arrays[node] = ckpt::block_hashes(images[node], block_size);
    }
    digests[node] = images[node].content_hash();
  });
  return digests;
}

/// Delta commit: diffs images[i] against hash_arrays[i], the cached array
/// of node i's committed image (snapshot version `base_version`, content
/// hash base_hashes[i]), and replaces the array with image i's own -- one
/// walk per image. Blocks still on the pages of full_images[i] take their
/// hash from full_hashes[i] unread. Returns the layers in node order.
std::vector<ckpt::BlockDelta> diff_delta_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::uint64_t base_version, std::span<const std::uint64_t> base_hashes,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays,
    std::span<const ckpt::Snapshot> full_images,
    std::span<const std::vector<std::uint64_t>> full_hashes) {
  std::vector<ckpt::BlockDelta> layers(images.size());
  for_each_node(pool, images.size(), [&](std::size_t node) {
    ckpt::BlockDiff diff = ckpt::diff_blocks(
        hash_arrays[node], base_version, base_hashes[node], images[node],
        block_size, {&full_images[node], full_hashes[node]});
    layers[node] = std::move(diff.layer);
    hash_arrays[node] = std::move(diff.hashes);
  });
  return layers;
}

}  // namespace

CheckpointDriver::CheckpointDriver(const CheckpointPolicy& policy,
                                   std::size_t cells, std::size_t threads)
    : policy_(policy), cells_(cells), groups_(policy.nodes, policy.topology),
      pool_(threads), next_(pool_.thread_count(), std::vector<double>(cells)),
      live_(policy.nodes, std::vector<double>(cells)),
      committed_hashes_(policy.nodes, 0), armed_(policy.nodes),
      lost_(policy.nodes, 0), sdc_epoch_(policy.nodes, 0) {
  policy_.validate();
  memory_.reserve(policy_.nodes);
  stores_.reserve(policy_.nodes);
  for (std::uint64_t node = 0; node < policy_.nodes; ++node) {
    memory_.emplace_back(cells_ * sizeof(double));
    stores_.emplace_back(node, 2, policy_.keep_last);
  }
  for (ckpt::BuddyStore& store : stores_) directory_.push_back(&store);
}

void CheckpointDriver::initialize_all() {
  for (std::uint64_t node = 0; node < node_count(); ++node) {
    stores_[node].discard_staged();
    reinitialize(node);
  }
  // Re-initializing clears any latent corruption and re-creates every
  // node's state, so the ladder is back to its virtual initial entry.
  std::fill(sdc_epoch_.begin(), sdc_epoch_.end(), std::uint64_t{0});
  RetainedSet initial;
  initial.epochs = sdc_epoch_;
  initial.initial = true;
  sets_.assign(1, std::move(initial));
  readmit_lost();
  refill_.clear();
  std::fill(committed_hashes_.begin(), committed_hashes_.end(),
            std::uint64_t{0});
  committed_step_ = 0;
  has_commit_ = false;
  staging_ = false;
}

void CheckpointDriver::read_cells(std::uint64_t node, std::size_t first,
                                  std::span<double> out) const {
  const std::span<const double> cells = live_[node];
  if (first > cells.size() || out.size() > cells.size() - first) {
    throw std::out_of_range("CheckpointDriver::read_cells past end");
  }
  std::copy_n(cells.subspan(first).begin(), out.size(), out.begin());
}

void CheckpointDriver::write_back(std::uint64_t node) {
  memory_[node].write(0, std::as_bytes(std::span(live_[node])));
}

void CheckpointDriver::restore(std::uint64_t node,
                               const ckpt::Snapshot& image) {
  memory_[node].restore(image);
  memory_[node].read(0, std::as_writable_bytes(std::span(live_[node])));
}

void CheckpointDriver::reinitialize(std::uint64_t node) {
  std::fill(live_[node].begin(), live_[node].end(), 0.0);
  initialize(node, live_[node]);
  write_back(node);
}

void CheckpointDriver::destroy(std::uint64_t node) {
  // Poison the memory so any missed recovery is loudly wrong, and hand the
  // replacement node empty buddy storage.
  std::fill(live_[node].begin(), live_[node].end(),
            std::numeric_limits<double>::quiet_NaN());
  write_back(node);
  stores_[node] = ckpt::BuddyStore(node, 2, policy_.keep_last);
}

void CheckpointDriver::inject_sdc(std::uint64_t node) {
  // Low mantissa byte of cell 0, through the COW write path: the value
  // changes (never to inf/NaN), so the corruption flows through later steps
  // and content hashes, and rides into every snapshot until a restore.
  const auto low = std::as_writable_bytes(std::span(live_[node])).first(1);
  low[0] ^= std::byte{0x5a};
  memory_[node].write(0, low);
}

void CheckpointDriver::execute_step() {
  exchange_halos();
  util::parallel_for_chunked(
      pool_, live_.size(), next_.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<double>& next = next_[chunk];
        for (std::size_t node = begin; node < end; ++node) {
          update(node, live_[node], next);
          live_[node].swap(next);
          write_back(node);
        }
      });
}

std::vector<ckpt::Snapshot> CheckpointDriver::snapshot_all() {
  std::vector<ckpt::Snapshot> images;
  images.reserve(memory_.size());
  for (std::uint64_t node = 0; node < memory_.size(); ++node) {
    images.push_back(memory_[node].snapshot(node));
  }
  return images;
}

void CheckpointDriver::begin_checkpoint(std::uint64_t step) {
  // Every node snapshots and stages its image on its two holders.
  // Snapshots are cheap COW captures; the bytes "sent" over the (virtual)
  // interconnect are the remote stagings -- a pair's local copy is free.
  std::vector<ckpt::Snapshot> images = snapshot_all();
  staging_version_ = images.front().version();
  staging_snapshot_step_ = step;
  staged_bytes_ = 0;
  staging_epochs_ = sdc_epoch_;
  // Hash before staging, so every filed copy carries the cached digest the
  // restore paths verify against. With dcp on, the same walk refreshes the
  // per-node hash arrays for the full base the next deltas chain on. Safe
  // to overwrite here: dcp forbids staging, so this snapshot set commits
  // before anything can roll back past it.
  staging_hashes_ = hash_full_commit(
      pool_, images, policy_.dcp_stack_size > 0 ? policy_.dcp_block_size : 0,
      hash_arrays_);
  const std::uint64_t sent =
      policy_.topology == ckpt::Topology::Pairs ? 1 : 2;
  for (std::uint64_t node = 0; node < images.size(); ++node) {
    for (const std::uint64_t holder : groups_.holders(node)) {
      stores_[holder].stage(images[node]);
    }
    staged_bytes_ += sent * images[node].size_bytes();
  }
  staging_ = true;
  if (policy_.dcp_stack_size > 0) {
    full_hashes_ = hash_arrays_;
    full_images_ = std::move(images);
  }
}

void CheckpointDriver::commit_checkpoint(RunReport& report) {
  // Integrity gate before promotion: every node's staged image on its
  // preferred buddy must still hash to its snapshot-time digest. Staging is
  // process-local here, so a mismatch is a broken invariant, not a chaos
  // outcome the run could survive.
  for (std::uint64_t node = 0; node < node_count(); ++node) {
    const auto staged =
        stores_[groups_.preferred_buddy(node)].staged_for(node);
    if (!staged || !staged->verify(staging_hashes_[node])) {
      throw std::logic_error(
          "commit_checkpoint: staged image failed verification");
    }
  }
  // Atomic promotion of the completed set on every node.
  for (ckpt::BuddyStore& store : stores_) store.promote(staging_version_);
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
  // A committed exchange re-creates every replica: pending and abandoned
  // refills are subsumed, the risk window closes, and lost nodes rejoin
  // (their blank-restarted state is now the committed truth). The set
  // becomes ladder depth 0 with the corruption epochs its images captured
  // (a staged commit may have absorbed corruption the live epochs no longer
  // show); older sets age one rung, and the ladder trims to the retention
  // (the virtual initial entry ages out like any other set).
  refill_.clear();
  readmit_lost();
  sets_.push_front({committed_step_, committed_hashes_, staging_epochs_});
  while (sets_.size() > policy_.keep_last) sets_.pop_back();
}

void CheckpointDriver::commit_delta_checkpoint(RunReport& report,
                                               std::uint64_t step) {
  // Differential commit: every node snapshots, diffs against the cached
  // hash array of the last committed image, and appends the resulting layer
  // on the same holders a full image would go to. Blocking (like
  // staging_steps == 0) and atomic from the run's point of view: the commit
  // markers advance to the new tip.
  const std::vector<ckpt::Snapshot> images = snapshot_all();
  std::vector<ckpt::BlockDelta> layers =
      diff_delta_commit(pool_, images, dcp_tip_version_, committed_hashes_,
                        policy_.dcp_block_size, hash_arrays_, full_images_,
                        full_hashes_);
  const std::uint64_t sent =
      policy_.topology == ckpt::Topology::Pairs ? 1 : 2;
  for (std::uint64_t node = 0; node < layers.size(); ++node) {
    // Both holders share the layer's blocks: a copy moves no bytes.
    const ckpt::BlockDelta& layer = layers[node];
    committed_hashes_[node] = layer.result_hash();
    report.bytes_replicated += sent * layer.delta_bytes();
    for (const std::uint64_t holder : groups_.holders(node)) {
      stores_[holder].append_delta(layer);
    }
  }
  committed_step_ = step;
  dcp_tip_version_ = images.front().version();
  ++dcp_layers_;
  ++report.checkpoints;
  ++report.delta_commits;
  // Deliberately not what commit_checkpoint() does after promotion: a
  // delta exchange moves only dirty blocks, so it does not re-create every
  // replica -- it neither closes a pending risk window, clears pending
  // refills, readmits lost nodes nor joins the rollback ladder (dcp keeps
  // one retained set). Only a full exchange does.
}

void CheckpointDriver::proactive_checkpoint(RunReport& report,
                                            std::uint64_t step) {
  // Skip-if-just-committed: nothing new to save when the committed set (or
  // the implicit initial checkpoint at step 0) already captures this state.
  if (step == 0 || (has_commit_ && committed_step_ == step)) return;
  // The proactive commit captures a strictly newer state than any staged
  // set, superseding it; drop the in-flight exchange and run a blocking
  // snapshot-and-promote, exactly the staging_steps == 0 path.
  staging_ = false;
  for (ckpt::BuddyStore& store : stores_) store.discard_staged();
  begin_checkpoint(step);
  commit_checkpoint(report);
  ++report.proactive_ckpts;
}

bool CheckpointDriver::fire_injections(std::vector<FailureInjection>& pending,
                                       std::uint64_t step, RunReport& report) {
  // Kind order within a step: silent corruption exists at rest before the
  // crash that exposes it, and a transfer fault arms before the loss whose
  // refill it will sabotage.
  fire(pending, step, InjectionKind::SilentError,
       [&](const FailureInjection& f) {
         // Latent in-memory damage: the node keeps computing on the
         // corrupted state and every snapshot from now on carries the epoch.
         inject_sdc(f.node);
         ++sdc_epoch_[f.node];
         ++report.sdc_injected;
       });
  fire(pending, step, InjectionKind::CorruptReplica,
       [&](const FailureInjection& f) {
         // No-op when the holder has no committed image of the owner yet
         // (e.g. before the first commit): nothing at rest to damage.
         stores_[f.node].corrupt_committed(f.owner);
       });
  fire(pending, step, InjectionKind::TornDelta, [&](const FailureInjection& f) {
    // Tears the layer at 1-based depth f.window in the victim's chain on its
    // *first* ladder rung (pairs: the local copy; triples: the preferred
    // buddy) -- the copy a restore consults first. No-op when the chain is
    // shorter (e.g. right after a full commit).
    stores_[groups_.holders(f.node)[0]].corrupt_delta(f.node, f.window);
  });
  const auto arm = [&](const FailureInjection& f) {
    armed_[f.node].push_back(f.kind);
  };
  fire(pending, step, InjectionKind::TornTransfer, arm);
  fire(pending, step, InjectionKind::FailTransfer, arm);
  bool any_loss = false;
  fire(pending, step, InjectionKind::NodeLoss, [&](const FailureInjection& f) {
    destroy(f.node);
    ++report.failures;
    any_loss = true;
  });
  return any_loss;
}

void CheckpointDriver::rollback_all(RunReport& report, std::uint64_t step) {
  ++report.rollbacks;
  if (!has_commit_) {
    // The starting configuration is the implicit first checkpoint set.
    initialize_all();
    return;
  }
  // Any in-flight staging set is lost with its victims, and in-flight
  // refills die with the rollback: the set is re-derived below from
  // whichever stores the failure left empty.
  staging_ = false;
  refill_.clear();
  for (ckpt::BuddyStore& store : stores_) store.discard_staged();
  // A node already running degraded has no committed image anywhere, so
  // there is no ladder to walk until the next commit readmits it.
  const std::vector<ckpt::RecoveryOutcome> outcomes =
      restore_all(committed_hashes_);
  for (std::uint64_t node = 0; node < node_count(); ++node) {
    if (lost_[node]) {
      reinitialize(node);
      sdc_epoch_[node] = 0;
      continue;
    }
    const ckpt::RecoveryOutcome& outcome = outcomes[node];
    report.corrupt_images_detected += outcome.corrupt_skipped;
    report.torn_chain_failovers += outcome.torn_skipped;
    if (outcome.ok()) {
      if (outcome.report.source != node) {
        ++report.recoveries;
        ++report.hash_verified_recoveries;
      }
      if (outcome.status == ckpt::RecoveryStatus::FailedOver) {
        ++report.failovers;
      }
      if (outcome.replayed_layers > 0) {
        ++report.chain_replays;
        report.chain_replay_depth += outcome.replayed_layers;
      }
      // The restored image carries whatever corruption the committed set
      // captured -- the live epoch snaps back to the set's record.
      sdc_epoch_[node] = sets_.front().epochs[node];
      continue;
    }
    // Ladder exhausted: unrecoverable data loss. Mark the node lost, record
    // the first loss as the fatal event, blank-restart it from the kernel's
    // initial condition, and let the run continue in degraded mode.
    ++report.recoveries;
    lost_[node] = 1;
    ++lost_count_;
    if (!report.fatal) {
      report.fatal = true;
      report.degraded = true;
      report.fatal_node = node;
      report.fatal_step = step;
      report.fatal_reason = "fatal failure: no surviving replica of node " +
                            std::to_string(node);
    }
    reinitialize(node);
    sdc_epoch_[node] = 0;  // a fresh initial condition carries no corruption
  }
  schedule_refills(report);
}

std::optional<std::uint64_t> CheckpointDriver::verify_checkpoints(
    RunReport& report, std::uint64_t step) {
  ++report.verifications_run;
  const auto tainted = std::find_if(sdc_epoch_.begin(), sdc_epoch_.end(),
                                    [](std::uint64_t e) { return e != 0; });
  if (tainted == sdc_epoch_.end()) return std::nullopt;
  ++report.sdc_detected;

  // Walk the ladder newest -> oldest for a set captured before every live
  // corruption epoch *and* fully restorable through the replica ladders.
  // The virtual initial entry is always usable: re-initializing is a
  // restore point that needs no stored images. `depth` is the number of
  // newer sets to drop; it runs off the ladder when no set qualifies.
  const auto usable = [&](std::size_t depth) {
    const RetainedSet& set = sets_[depth];
    if (set.initial) return true;
    const bool untainted = std::all_of(set.epochs.begin(), set.epochs.end(),
                                       [](std::uint64_t e) { return e == 0; });
    return untainted &&
           ckpt::set_restorable(depth, groups_, directory_, set.hashes);
  };
  std::size_t depth = 0;
  while (depth < sets_.size() && !usable(depth)) ++depth;
  if (depth == sets_.size()) {
    // Detected but unrecoverable: accept the corrupted state as the new
    // truth and run on degraded -- exactly the fail-stop data-loss policy,
    // with the *detection* recorded instead of a silent wrong answer.
    if (!report.fatal) {
      const auto culprit =
          static_cast<std::uint64_t>(tainted - sdc_epoch_.begin());
      report.fatal = true;
      report.degraded = true;
      report.fatal_node = culprit;
      report.fatal_step = step;
      report.fatal_reason =
          "silent corruption detected on node " + std::to_string(culprit) +
          ": no clean retained checkpoint set";
    }
    std::fill(sdc_epoch_.begin(), sdc_epoch_.end(), std::uint64_t{0});
    return std::nullopt;
  }

  ++report.rollbacks;
  report.rollback_depth += depth;
  // Any in-flight staging set was captured after the corruption (or is
  // about to be replayed); it dies with the rollback.
  for (ckpt::BuddyStore& store : stores_) {
    store.discard_staged();
    store.drop_newest(depth);
  }
  for (std::size_t i = 0; i < depth; ++i) sets_.pop_front();
  if (sets_.front().initial) {
    // Rolled all the way back to the starting configuration: every store
    // is empty now and every node re-initializes.
    initialize_all();
    return 0;
  }

  // Install the selected set: set_restorable() already proved every node
  // has a clean hash-verified image, so these walks cannot exhaust. Only
  // the rollback counters move -- this is time travel, not peer recovery.
  // In-flight refills die with the rollback and are re-derived below.
  staging_ = false;
  refill_.clear();
  const RetainedSet& target = sets_.front();
  // Every node runs verified committed data again; nobody is blank.
  readmit_lost();
  restore_all(target.hashes);
  sdc_epoch_ = target.epochs;
  committed_hashes_ = target.hashes;
  committed_step_ = target.step;
  // A store whose ring ran out of sets is empty after the drop (e.g. a
  // replacement node refilled only at depth 0) and is refilled like any
  // other.
  schedule_refills(report);
  return target.step;
}

std::vector<ckpt::RecoveryOutcome> CheckpointDriver::restore_all(
    std::span<const std::uint64_t> expected) {
  std::vector<ckpt::RecoveryOutcome> outcomes(node_count());
  for_each_node(pool_, node_count(), [&](std::size_t node) {
    if (lost_[node]) return;
    ckpt::RecoveryOutcome& outcome = outcomes[node];
    outcome = ckpt::select_replica(node, groups_, directory_, expected[node]);
    if (!outcome.ok()) return;
    restore(node, *outcome.image);
    outcome.image.reset();  // the memory holds it now
  });
  return outcomes;
}

void CheckpointDriver::schedule_refills(RunReport& report) {
  for (std::uint64_t node = 0; node < node_count(); ++node) {
    if (stores_[node].committed_count() == 0) {
      refill_.push_back({node, policy_.rereplication_delay_steps});
    }
  }
  if (policy_.rereplication_delay_steps == 0) deliver_due(report);
}

void CheckpointDriver::deliver_due(RunReport& report) {
  for (auto it = refill_.begin(); it != refill_.end();) {
    if (!it->abandoned && it->due == 0 && attempt_delivery(*it, report)) {
      it = refill_.erase(it);
    } else {
      ++it;
    }
  }
}

bool CheckpointDriver::attempt_delivery(RefillEntry& entry,
                                        RunReport& report) {
  // An armed transfer fault consumes exactly one delivery attempt.
  auto& faults = armed_[entry.node];
  if (!faults.empty()) {
    const InjectionKind fault = faults.front();
    faults.erase(faults.begin());
    if (fault == InjectionKind::TornTransfer) {
      // The bundle arrived prefix-only; the receiver's hash check rejects
      // the whole delivery rather than filing a silently damaged image.
      ++report.corrupt_images_detected;
    }
    if (entry.attempt >= policy_.transfer_retry.max_attempts) {
      // Out of retries: the store stays empty (and the risk window stays
      // open) until the next committed exchange re-creates every replica.
      entry.abandoned = true;
      return false;
    }
    entry.due = policy_.transfer_retry.backoff_steps(entry.attempt);
    ++entry.attempt;
    ++report.transfer_retries;
    return false;
  }
  const auto outcome = ckpt::restore_replicas(entry.node, groups_, directory_,
                                              committed_hashes_);
  report.corrupt_images_detected += outcome.corrupt_skipped;
  if (outcome.restored > 0) ++report.rereplications;
  report.chain_replays += outcome.chains_replayed;
  report.chain_replay_depth += outcome.layers_replayed;
  return true;
}

void CheckpointDriver::readmit_lost() {
  std::fill(lost_.begin(), lost_.end(), char{0});
  lost_count_ = 0;
}

RunReport CheckpointDriver::run(std::span<const FailureInjection> failures) {
  validate_injections(failures, policy_);
  RunReport report;
  std::vector<FailureInjection> pending(failures.begin(), failures.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const FailureInjection& a, const FailureInjection& b) {
                     return a.step < b.step;
                   });

  score_predictions(failures, report);

  std::uint64_t step = 0;
  while (step < policy_.total_steps) {
    // Predictor alarms fire first: the proactive checkpoint they trigger
    // commits before this step's loss (if any) lands, which is exactly how
    // a same-step true prediction saves the work since the last commit.
    std::uint64_t alarms = 0;
    fire(pending, step, InjectionKind::Alarm,
         [&](const FailureInjection&) { ++alarms; });
    if (alarms > 0) {
      report.alarms_raised += alarms;
      proactive_checkpoint(report, step);
    }
    // Fire the injections scheduled for this step (each at most once).
    // NodeLoss wipes the victim's memory and buddy storage; the rollback
    // then restores every node through its replica ladder -- skipping
    // corrupt images, failing over to later candidates, and
    // blank-restarting (degraded mode) any node whose ladder is exhausted.
    if (fire_injections(pending, step, report)) {
      rollback_all(report, step);
      report.replayed_steps += step - committed_step_;
      step = committed_step_;
      continue;
    }

    execute_step();
    ++step;
    ++report.steps_executed;
    // Risk-window / refill / degraded-mode bookkeeping: every step with a
    // refill pending is at risk, due refills deliver (consuming any armed
    // transfer faults, retrying with backoff), and every step some node
    // runs blank-restarted counts as degraded.
    if (!refill_.empty()) {
      ++report.risk_steps;
      for (RefillEntry& entry : refill_) {
        if (!entry.abandoned && entry.due > 0) --entry.due;
      }
      deliver_due(report);
    }
    if (lost_count_ > 0) ++report.degraded_steps;
    // Commit an in-flight set before possibly starting the next one (the
    // two coincide when staging_steps == checkpoint_interval).
    if (staging_ && step == staging_commit_at_) {
      commit_checkpoint(report);
    }
    const bool boundary = step % policy_.checkpoint_interval == 0 &&
                          step < policy_.total_steps;
    if (policy_.verify_every > 0) {
      // Verification runs every `verify_every` checkpoint periods, after
      // the period's commit and before the next set stages -- plus one
      // final audit at the end of the run, so a late silent error cannot
      // escape into the final answer undetected.
      if (boundary) ++periods_since_verify_;
      const bool due =
          (boundary && periods_since_verify_ >= policy_.verify_every) ||
          step == policy_.total_steps;
      if (due) {
        periods_since_verify_ = 0;
        if (const auto resume = verify_checkpoints(report, step)) {
          report.replayed_steps += step - *resume;
          step = *resume;
          continue;
        }
      }
    }
    if (boundary && !staging_) {
      // dcp cadence: between full exchanges, commit block deltas -- but
      // only while the chain has room (K - 1 layers) and the platform is
      // whole. A lost node or a pending refill forces a full exchange,
      // because only a full commit re-creates every replica and closes the
      // risk window.
      const bool delta_commit =
          policy_.dcp_stack_size > 0 && has_commit_ &&
          dcp_layers_ + 1 < policy_.dcp_stack_size && lost_count_ == 0 &&
          refill_.empty();
      if (delta_commit) {
        commit_delta_checkpoint(report, step);
      } else {
        begin_checkpoint(step);
        staging_commit_at_ = step + policy_.staging_steps;
        if (policy_.staging_steps == 0) commit_checkpoint(report);
      }
    }
  }

  for (const ckpt::PageStore& memory : memory_) {
    report.cow_copies += memory.cow_copies();
  }
  // state_hash(global_state()), one node after the other: FNV-1a chains
  // across the node boundaries, so no concatenated copy is needed.
  report.final_hash = ckpt::kFnvOffsetBasis;
  for (const std::vector<double>& cells : live_) {
    report.final_hash =
        ckpt::fnv1a(std::as_bytes(std::span(cells)), report.final_hash);
  }
  return report;
}

std::vector<double> CheckpointDriver::global_state() const {
  std::vector<double> state;
  state.reserve(live_.size() * cells_);
  for (const std::vector<double>& cells : live_) {
    state.insert(state.end(), cells.begin(), cells.end());
  }
  return state;
}

}  // namespace dckpt::runtime
