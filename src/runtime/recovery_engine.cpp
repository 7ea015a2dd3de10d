#include "runtime/recovery_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ckpt/recovery.hpp"
#include "runtime/checkpoint_driver.hpp"

namespace dckpt::runtime {

RecoveryEngine::RecoveryEngine(ckpt::GroupAssignment groups,
                               std::uint64_t rereplication_delay_steps,
                               ckpt::RetryPolicy retry, std::size_t keep_last)
    : groups_(std::move(groups)), delay_steps_(rereplication_delay_steps),
      retry_(retry), keep_last_(keep_last), armed_(groups_.nodes()),
      lost_(groups_.nodes(), 0), sdc_epoch_(groups_.nodes(), 0) {
  retry_.validate();
  if (keep_last_ == 0) {
    throw std::invalid_argument("RecoveryEngine: zero retention");
  }
  // The starting configuration is the implicit first restore point.
  RetainedSet initial;
  initial.epochs.assign(groups_.nodes(), 0);
  initial.initial = true;
  sets_.push_back(std::move(initial));
}

bool RecoveryEngine::fire_injections(
    std::vector<FailureInjection>& pending, std::uint64_t step,
    std::span<ckpt::BuddyStore* const> stores,
    const std::function<void(std::uint64_t)>& destroy,
    const std::function<void(std::uint64_t)>& silent_corrupt,
    RunReport& report) {
  // Kind order within a step: silent corruption exists at rest before the
  // crash that exposes it, and a transfer fault arms before the loss whose
  // refill it will sabotage.
  const auto fire_kind = [&](InjectionKind kind, auto&& act) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->step == step && it->kind == kind) {
        act(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };
  fire_kind(InjectionKind::SilentError, [&](const FailureInjection& f) {
    // Latent in-memory damage: the node keeps computing on the corrupted
    // state and every snapshot taken from now on carries the epoch.
    silent_corrupt(f.node);
    ++sdc_epoch_[f.node];
    ++report.sdc_injected;
  });
  fire_kind(InjectionKind::CorruptReplica, [&](const FailureInjection& f) {
    // No-op when the holder has no committed image of the owner yet (e.g.
    // before the first commit): there is nothing at rest to damage.
    stores[f.node]->corrupt_committed(f.owner);
  });
  fire_kind(InjectionKind::TornDelta, [&](const FailureInjection& f) {
    // Tears the layer at 1-based depth f.window in the victim's chain on
    // its *first* ladder rung (pairs: the local copy; triples: the
    // preferred buddy) -- the copy a restore consults first. No-op when
    // the chain is shorter (e.g. right after a full commit).
    stores[groups_.holders(f.node)[0]]->corrupt_delta(f.node, f.window);
  });
  fire_kind(InjectionKind::TornTransfer, [&](const FailureInjection& f) {
    armed_[f.node].push_back(InjectionKind::TornTransfer);
  });
  fire_kind(InjectionKind::FailTransfer, [&](const FailureInjection& f) {
    armed_[f.node].push_back(InjectionKind::FailTransfer);
  });
  bool any_loss = false;
  fire_kind(InjectionKind::NodeLoss, [&](const FailureInjection& f) {
    destroy(f.node);
    ++report.failures;
    any_loss = true;
  });
  return any_loss;
}

void RecoveryEngine::rollback_and_refill(
    std::uint64_t step, std::span<ckpt::BuddyStore* const> stores,
    std::span<const std::uint64_t> committed_hashes, const RestoreFn& restore,
    const BlankRestartFn& blank_restart, RunReport& report) {
  // In-flight refills die with the rollback; the set is re-derived below
  // from whichever stores the failure left empty.
  refill_.clear();
  const std::uint64_t nodes = groups_.nodes();
  for (std::uint64_t node = 0; node < nodes; ++node) {
    stores[node]->discard_staged();
    if (lost_[node]) {
      // Already running degraded: the node has no committed image anywhere,
      // so there is no ladder to walk until the next commit readmits it.
      blank_restart(node);
      sdc_epoch_[node] = 0;
      continue;
    }
    auto outcome =
        ckpt::select_replica(node, groups_, stores, committed_hashes[node]);
    report.corrupt_images_detected += outcome.corrupt_skipped;
    if (outcome.torn_skipped > 0) {
      report.torn_chain_failovers += outcome.torn_skipped;
    }
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
      restore(node, *outcome.image);
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
    blank_restart(node);
    sdc_epoch_[node] = 0;  // fresh initial condition carries no corruption
  }
  // Re-replication: every store the failure emptied must be refilled before
  // its group can take another hit (the model's risk window). A zero delay
  // delivers inside the rollback, exactly like the blocking protocol.
  for (std::uint64_t node = 0; node < nodes; ++node) {
    if (stores[node]->committed_count() == 0) {
      refill_.push_back(RefillEntry{node, delay_steps_, 1, false});
    }
  }
  if (delay_steps_ == 0) deliver_due(stores, committed_hashes, report);
}

void RecoveryEngine::tick(std::span<ckpt::BuddyStore* const> stores,
                          std::span<const std::uint64_t> committed_hashes,
                          RunReport& report) {
  if (!refill_.empty()) {
    ++report.risk_steps;
    for (RefillEntry& entry : refill_) {
      if (!entry.abandoned && entry.due > 0) --entry.due;
    }
    deliver_due(stores, committed_hashes, report);
  }
  if (lost_count_ > 0) ++report.degraded_steps;
}

void RecoveryEngine::deliver_due(std::span<ckpt::BuddyStore* const> stores,
                                 std::span<const std::uint64_t> committed_hashes,
                                 RunReport& report) {
  for (auto it = refill_.begin(); it != refill_.end();) {
    if (!it->abandoned && it->due == 0 &&
        attempt_delivery(*it, stores, committed_hashes, report)) {
      it = refill_.erase(it);
    } else {
      ++it;
    }
  }
}

bool RecoveryEngine::attempt_delivery(
    RefillEntry& entry, std::span<ckpt::BuddyStore* const> stores,
    std::span<const std::uint64_t> committed_hashes, RunReport& report) {
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
    if (entry.attempt >= retry_.max_attempts) {
      // Out of retries: the store stays empty (and the risk window stays
      // open) until the next committed exchange re-creates every replica.
      entry.abandoned = true;
      return false;
    }
    entry.due = retry_.backoff_steps(entry.attempt);
    ++entry.attempt;
    ++report.transfer_retries;
    return false;
  }
  const auto outcome =
      ckpt::restore_replicas(entry.node, groups_, stores, committed_hashes);
  report.corrupt_images_detected += outcome.corrupt_skipped;
  if (outcome.restored > 0) ++report.rereplications;
  report.chain_replays += outcome.chains_replayed;
  report.chain_replay_depth += outcome.layers_replayed;
  return true;
}

void RecoveryEngine::on_commit(std::uint64_t snapshot_step,
                               std::span<const std::uint64_t> hashes,
                               std::span<const std::uint64_t> epochs) {
  refill_.clear();
  if (lost_count_ > 0) {
    std::fill(lost_.begin(), lost_.end(), char{0});
    lost_count_ = 0;
  }
  // The new committed set becomes ladder depth 0; older sets age one rung
  // and the ring trims to the configured retention (the virtual initial
  // entry ages out like any other set).
  RetainedSet set;
  set.step = snapshot_step;
  set.hashes.assign(hashes.begin(), hashes.end());
  set.epochs.assign(epochs.begin(), epochs.end());
  sets_.push_front(std::move(set));
  while (sets_.size() > keep_last_) sets_.pop_back();
}

void RecoveryEngine::reset_to_initial() {
  std::fill(sdc_epoch_.begin(), sdc_epoch_.end(), std::uint64_t{0});
  sets_.clear();
  RetainedSet initial;
  initial.epochs.assign(groups_.nodes(), 0);
  initial.initial = true;
  sets_.push_back(std::move(initial));
}

RecoveryEngine::VerifyAction RecoveryEngine::verify_checkpoints(
    std::uint64_t step, std::span<ckpt::BuddyStore* const> stores,
    std::vector<std::uint64_t>& committed_hashes, const RestoreFn& restore,
    const BlankRestartFn& blank_restart, RunReport& report) {
  ++report.verifications_run;
  VerifyAction action;
  const bool clean = std::all_of(sdc_epoch_.begin(), sdc_epoch_.end(),
                                 [](std::uint64_t e) { return e == 0; });
  if (clean) return action;
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
           ckpt::set_restorable(depth, groups_, stores, set.hashes);
  };
  std::size_t depth = 0;
  while (depth < sets_.size() && !usable(depth)) ++depth;
  if (depth == sets_.size()) {
    // Detected but unrecoverable: accept the corrupted state as the new
    // truth and run on degraded -- exactly the fail-stop data-loss policy,
    // with the *detection* recorded instead of a silent wrong answer.
    if (!report.fatal) {
      std::uint64_t culprit = 0;
      for (std::uint64_t node = 0; node < sdc_epoch_.size(); ++node) {
        if (sdc_epoch_[node] != 0) {
          culprit = node;
          break;
        }
      }
      report.fatal = true;
      report.degraded = true;
      report.fatal_node = culprit;
      report.fatal_step = step;
      report.fatal_reason =
          "silent corruption detected on node " + std::to_string(culprit) +
          ": no clean retained checkpoint set";
    }
    std::fill(sdc_epoch_.begin(), sdc_epoch_.end(), std::uint64_t{0});
    return action;
  }

  ++report.rollbacks;
  report.rollback_depth += depth;
  action.rolled_back = true;
  // Any in-flight staging set was captured after the corruption (or is
  // about to be replayed); it dies with the rollback, as do in-flight
  // refills -- re-derived below against the installed set.
  refill_.clear();
  for (ckpt::BuddyStore* store : stores) store->discard_staged();
  for (ckpt::BuddyStore* store : stores) store->drop_newest(depth);
  for (std::size_t i = 0; i < depth; ++i) sets_.pop_front();

  if (sets_.front().initial) {
    // Rolled all the way back to the starting configuration: every store
    // empties and every node re-initializes.
    for (std::uint64_t node = 0; node < groups_.nodes(); ++node) {
      blank_restart(node);
    }
    reset_to_initial();
    if (lost_count_ > 0) {
      std::fill(lost_.begin(), lost_.end(), char{0});
      lost_count_ = 0;
    }
    action.to_initial = true;
    action.resume_step = 0;
    return action;
  }

  // Install the selected set: set_restorable() already proved every node
  // has a clean hash-verified image, so these walks cannot exhaust. Only
  // the rollback counters move -- this is time travel, not peer recovery.
  const RetainedSet& target = sets_.front();
  for (std::uint64_t node = 0; node < groups_.nodes(); ++node) {
    auto selected =
        ckpt::select_replica(node, groups_, stores, target.hashes[node]);
    restore(node, *selected.image);
    sdc_epoch_[node] = target.epochs[node];
  }
  committed_hashes.assign(target.hashes.begin(), target.hashes.end());
  if (lost_count_ > 0) {
    // Every node now runs verified committed data; nobody is blank.
    std::fill(lost_.begin(), lost_.end(), char{0});
    lost_count_ = 0;
  }
  // A store whose depth ring ran out of sets is empty after the drop (e.g.
  // a replacement node refilled only at depth 0): schedule its refill like
  // any post-rollback re-replication.
  for (std::uint64_t node = 0; node < groups_.nodes(); ++node) {
    if (stores[node]->committed_count() == 0) {
      refill_.push_back(RefillEntry{node, delay_steps_, 1, false});
    }
  }
  if (delay_steps_ == 0 && !refill_.empty()) {
    deliver_due(stores, committed_hashes, report);
  }
  action.resume_step = target.step;
  return action;
}

}  // namespace dckpt::runtime
