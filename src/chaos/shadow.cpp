#include "chaos/shadow.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "ckpt/ring.hpp"

namespace dckpt::chaos {

namespace {

/// Abstract state of one committed image slot on one holder.
enum class Image : unsigned char { Absent, Clean, Corrupt };

}  // namespace

runtime::RunReport predict_outcome(
    const ShadowConfig& config,
    std::span<const runtime::FailureInjection> failures) {
  config.validate();
  const ckpt::GroupAssignment groups(config.nodes, config.topology);
  const bool pairs = config.topology == ckpt::Topology::Pairs;
  const std::uint64_t n = config.nodes;

  // Same upfront validation as the runtimes (shared helper, so error
  // behaviour cannot drift).
  runtime::validate_injections(failures, config);

  std::vector<runtime::FailureInjection> pending(failures.begin(),
                                                 failures.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const runtime::FailureInjection& a,
                      const runtime::FailureInjection& b) {
                     return a.step < b.step;
                   });

  runtime::RunReport out;
  // img[holder * n + owner]: only designated slots ever leave Absent.
  std::vector<Image> img(n * n, Image::Absent);
  const auto slot = [&](std::uint64_t holder,
                        std::uint64_t owner) -> Image& {
    return img[holder * n + owner];
  };
  // dcp chains hanging off the committed slots: chain[holder * n + owner]
  // is one entry per delta layer, 0 = intact, 1 = torn. Empty everywhere
  // when the axis is off. Mirrors BuddyStore's chains_: a full commit
  // (promote) clears every chain, destroy drops the holder's row, a refill
  // files the flattened tip (receiver chain cleared).
  std::vector<std::vector<char>> chain(n * n);
  const auto chain_at = [&](std::uint64_t holder,
                            std::uint64_t owner) -> std::vector<char>& {
    return chain[holder * n + owner];
  };
  const auto chain_torn = [](const std::vector<char>& layers) {
    return std::any_of(layers.begin(), layers.end(),
                       [](char torn) { return torn != 0; });
  };
  std::uint64_t dcp_layers = 0;
  std::vector<char> lost(n, 0);
  std::uint64_t lost_count = 0;
  bool has_commit = false;
  std::uint64_t committed_step = 0;
  bool staging = false;
  std::uint64_t snapshot_step = 0;
  std::uint64_t commit_at = 0;

  // Silent-error mirror of the CheckpointDriver: live per-node corruption
  // epochs, the epochs the in-flight staged set captured, the retained-set
  // metadata ladder (front = committed, seeded with the virtual initial
  // entry), and -- mirroring the stores' keep-last ring -- the aged image
  // matrices at depth >= 1 (history[d-1] is depth d; corrupt slots age into
  // history when a corrupted committed image survives to the next commit).
  std::vector<std::uint64_t> sdc_epoch(n, 0);
  std::vector<std::uint64_t> staging_epochs(n, 0);
  struct RetainedSet {
    std::uint64_t step = 0;
    std::vector<std::uint64_t> epochs;
    bool initial = false;
  };
  std::deque<RetainedSet> sets;
  sets.push_back(RetainedSet{0, std::vector<std::uint64_t>(n, 0), true});
  std::deque<std::vector<Image>> history;
  std::uint64_t periods_since_verify = 0;
  const auto reset_to_initial = [&] {
    std::fill(sdc_epoch.begin(), sdc_epoch.end(), std::uint64_t{0});
    sets.clear();
    sets.push_back(RetainedSet{0, std::vector<std::uint64_t>(n, 0), true});
    history.clear();
  };

  struct RefillEntry {
    std::uint64_t node = 0;
    std::uint64_t due = 0;
    std::uint64_t attempt = 1;
    bool abandoned = false;
  };
  std::vector<RefillEntry> refill;
  std::vector<std::vector<runtime::InjectionKind>> armed(n);

  const auto committed_count = [&](std::uint64_t holder) {
    std::size_t count = 0;
    for (std::uint64_t owner = 0; owner < n; ++owner) {
      if (slot(holder, owner) != Image::Absent) ++count;  // corrupt occupies
    }
    return count;
  };

  // The owners `holder` is designated to store: what it keeps for its
  // peers, plus (pairs) its own local copy -- restore_replicas order.
  const auto designated_owners = [&](std::uint64_t holder) {
    std::vector<std::uint64_t> owners = groups.stored_for(holder);
    if (pairs) owners.push_back(holder);
    return owners;
  };

  // One refill delivery attempt; mirrors CheckpointDriver::attempt_delivery.
  const auto attempt_delivery = [&](RefillEntry& entry) {
    auto& faults = armed[entry.node];
    if (!faults.empty()) {
      const runtime::InjectionKind fault = faults.front();
      faults.erase(faults.begin());
      if (fault == runtime::InjectionKind::TornTransfer) {
        ++out.corrupt_images_detected;  // receiver rejects the torn bundle
      }
      if (entry.attempt >= config.transfer_retry.max_attempts) {
        entry.abandoned = true;
        return false;
      }
      entry.due = config.transfer_retry.backoff_steps(entry.attempt);
      ++entry.attempt;
      ++out.transfer_retries;
      return false;
    }
    // Real delivery: for each designated owner, scan the owner's group in
    // id order (skipping the receiver) for a clean surviving source.
    std::size_t restored = 0;
    for (const std::uint64_t owner : designated_owners(entry.node)) {
      // Owners with no clean source anywhere stay absent (unavailable).
      for (const std::uint64_t member :
           groups.members(groups.group_of(owner))) {
        if (member == entry.node) continue;
        const Image source = slot(member, owner);
        if (source == Image::Absent) continue;
        if (source == Image::Corrupt) {
          ++out.corrupt_images_detected;
          continue;
        }
        const std::vector<char>& src_chain = chain_at(member, owner);
        if (chain_torn(src_chain)) {
          // flatten_rung rejects a torn layer; the refill path counts the
          // rung as a corrupt source and keeps scanning.
          ++out.corrupt_images_detected;
          continue;
        }
        // Refills deliver the flattened tip: the receiver's slot restarts
        // its dcp lineage from a full image.
        slot(entry.node, owner) = Image::Clean;
        chain_at(entry.node, owner).clear();
        if (!src_chain.empty()) {
          ++out.chain_replays;
          out.chain_replay_depth += src_chain.size();
        }
        ++restored;
        break;
      }
    }
    if (restored > 0) ++out.rereplications;
    return true;
  };

  const auto deliver_due = [&] {
    for (auto it = refill.begin(); it != refill.end();) {
      if (!it->abandoned && it->due == 0 && attempt_delivery(*it)) {
        it = refill.erase(it);
      } else {
        ++it;
      }
    }
  };

  const auto commit = [&] {
    committed_step = snapshot_step;
    has_commit = true;
    staging = false;
    ++out.checkpoints;
    ++out.full_commits;
    // promote() drops every chain on every store; the new full set
    // restarts all dcp lineages.
    for (auto& layers : chain) layers.clear();
    dcp_layers = 0;
    // The outgoing committed matrix ages to depth 1 (every store pushes its
    // ring on every commit, even when empty) and the new set joins the
    // metadata ladder with its snapshot-time epochs.
    if (config.keep_last > 1) {
      history.push_front(img);
      while (history.size() > config.keep_last - 1) history.pop_back();
    }
    sets.push_front(RetainedSet{snapshot_step, staging_epochs, false});
    while (sets.size() > config.keep_last) sets.pop_back();
    // Promotion replaces every committed set: designated slots clean.
    for (std::uint64_t owner = 0; owner < n; ++owner) {
      if (pairs) {
        slot(owner, owner) = Image::Clean;
        slot(groups.preferred_buddy(owner), owner) = Image::Clean;
      } else {
        slot(groups.preferred_buddy(owner), owner) = Image::Clean;
        slot(groups.secondary_buddy(owner), owner) = Image::Clean;
      }
    }
    refill.clear();
    std::fill(lost.begin(), lost.end(), char{0});
    lost_count = 0;
  };

  // Prediction scoreboard, recomputed independently of the runtimes'
  // score_predictions: each alarm (step s, node v, window w) greedily
  // consumes the earliest unconsumed loss of node v with s <= step <= s + w;
  // every unconsumed loss is a missed failure. Static upfront computation is
  // valid because injections fire exactly once even across replays.
  {
    std::vector<runtime::FailureInjection> losses;
    std::vector<runtime::FailureInjection> alarms;
    for (const auto& failure : pending) {
      if (failure.kind == runtime::InjectionKind::NodeLoss) {
        losses.push_back(failure);
      } else if (failure.kind == runtime::InjectionKind::Alarm) {
        alarms.push_back(failure);
      }
    }
    std::vector<char> consumed(losses.size(), 0);
    for (const auto& alarm : alarms) {
      for (std::size_t i = 0; i < losses.size(); ++i) {
        if (consumed[i] || losses[i].node != alarm.node) continue;
        if (losses[i].step < alarm.step ||
            losses[i].step > alarm.step + alarm.window) {
          continue;
        }
        consumed[i] = 1;
        ++out.true_predictions;
        break;
      }
    }
    for (const char hit : consumed) {
      if (!hit) ++out.missed_failures;
    }
  }

  std::uint64_t step = 0;
  while (step < config.total_steps) {
    // Fault-predictor alarms fire at the top of the loop, before the
    // step's other injections, exactly as in both runtimes: the proactive
    // checkpoint they trigger commits ahead of the loss it predicts. The
    // skip rule (nothing committed yet at step 0, or a commit already
    // landed at exactly this step) and the supersession of any in-flight
    // staged exchange mirror Coordinator::proactive_checkpoint.
    {
      std::uint64_t fired = 0;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->step == step && it->kind == runtime::InjectionKind::Alarm) {
          ++fired;
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      if (fired > 0) {
        out.alarms_raised += fired;
        if (step != 0 && !(has_commit && committed_step == step)) {
          snapshot_step = step;
          staging_epochs = sdc_epoch;
          commit();
          ++out.proactive_ckpts;
        }
      }
    }

    // Fire this step's injections in the runtime's kind order.
    bool failed = false;
    const auto fire_kind = [&](runtime::InjectionKind kind, auto&& act) {
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->step == step && it->kind == kind) {
          act(*it);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    };
    fire_kind(runtime::InjectionKind::SilentError,
              [&](const runtime::FailureInjection& f) {
                ++sdc_epoch[f.node];
                ++out.sdc_injected;
              });
    fire_kind(runtime::InjectionKind::CorruptReplica,
              [&](const runtime::FailureInjection& f) {
                Image& target = slot(f.node, f.owner);
                if (target != Image::Absent) target = Image::Corrupt;
              });
    fire_kind(runtime::InjectionKind::TornDelta,
              [&](const runtime::FailureInjection& f) {
                // Tears the layer at 1-based depth f.window on the victim's
                // first ladder rung; no-op when the chain is shorter.
                const std::uint64_t holder =
                    pairs ? f.node : groups.preferred_buddy(f.node);
                std::vector<char>& layers = chain_at(holder, f.node);
                if (f.window > 0 && layers.size() >= f.window) {
                  layers[f.window - 1] = 1;
                }
              });
    fire_kind(runtime::InjectionKind::TornTransfer,
              [&](const runtime::FailureInjection& f) {
                armed[f.node].push_back(runtime::InjectionKind::TornTransfer);
              });
    fire_kind(runtime::InjectionKind::FailTransfer,
              [&](const runtime::FailureInjection& f) {
                armed[f.node].push_back(runtime::InjectionKind::FailTransfer);
              });
    fire_kind(runtime::InjectionKind::NodeLoss,
              [&](const runtime::FailureInjection& f) {
                // destroy() replaces the victim's buddy store wholesale --
                // every retained depth goes with it.
                for (std::uint64_t owner = 0; owner < n; ++owner) {
                  slot(f.node, owner) = Image::Absent;
                  chain_at(f.node, owner).clear();
                  for (auto& depth : history) {
                    depth[f.node * n + owner] = Image::Absent;
                  }
                }
                ++out.failures;
                failed = true;
              });

    if (failed) {
      staging = false;
      ++out.rollbacks;
      if (has_commit) {
        refill.clear();
        // Rollback in node-id order: each node walks its replica ladder
        // (pairs: local then preferred buddy; triples: preferred then
        // secondary), skipping corrupt images. Exhausted = lost, degraded.
        for (std::uint64_t node = 0; node < n; ++node) {
          if (lost[node]) {
            sdc_epoch[node] = 0;  // blank-restarts again, no ladder
            continue;
          }
          const std::uint64_t first =
              pairs ? node : groups.preferred_buddy(node);
          const std::uint64_t second = pairs
                                           ? groups.preferred_buddy(node)
                                           : groups.secondary_buddy(node);
          bool recovered = false;
          std::size_t corrupt_skipped = 0;
          std::size_t torn_skipped = 0;
          std::size_t replayed_layers = 0;
          std::uint64_t source = 0;
          for (const std::uint64_t holder : {first, second}) {
            const Image candidate = slot(holder, node);
            if (candidate == Image::Absent) continue;
            if (candidate == Image::Corrupt) {
              // A corrupt base fails the oldest layer's base_hash before
              // any torn check, so the rung counts exactly one skip.
              ++corrupt_skipped;
              continue;
            }
            const std::vector<char>& layers = chain_at(holder, node);
            if (chain_torn(layers)) {
              ++corrupt_skipped;
              ++torn_skipped;
              continue;
            }
            recovered = true;
            source = holder;
            replayed_layers = layers.size();
            break;
          }
          out.corrupt_images_detected += corrupt_skipped;
          out.torn_chain_failovers += torn_skipped;
          if (recovered) {
            if (source != node) {
              ++out.recoveries;
              ++out.hash_verified_recoveries;
            }
            if (corrupt_skipped > 0) ++out.failovers;
            if (replayed_layers > 0) {
              ++out.chain_replays;
              out.chain_replay_depth += replayed_layers;
            }
            // The live epoch snaps back to what the committed set captured.
            sdc_epoch[node] = sets.front().epochs[node];
            continue;
          }
          ++out.recoveries;
          lost[node] = 1;
          ++lost_count;
          if (!out.fatal) {
            out.fatal = true;
            out.fatal_step = step;
            out.fatal_node = node;
          }
          sdc_epoch[node] = 0;  // fresh initial condition, no corruption
        }
        for (std::uint64_t node = 0; node < n; ++node) {
          if (committed_count(node) == 0) {
            refill.push_back(RefillEntry{
                node, config.rereplication_delay_steps, 1, false});
          }
        }
        if (config.rereplication_delay_steps == 0) deliver_due();
      } else {
        // Pre-first-commit rollback: everything re-initializes, so latent
        // corruption clears with it.
        reset_to_initial();
      }
      const std::uint64_t resume = has_commit ? committed_step : 0;
      out.replayed_steps += step - resume;
      step = resume;
      continue;
    }

    ++step;
    ++out.steps_executed;
    if (!refill.empty()) {
      ++out.risk_steps;
      for (RefillEntry& entry : refill) {
        if (!entry.abandoned && entry.due > 0) --entry.due;
      }
      deliver_due();
    }
    if (lost_count > 0) ++out.degraded_steps;
    if (staging && step == commit_at) commit();
    const bool boundary = step % config.checkpoint_interval == 0 &&
                          step < config.total_steps;
    if (config.verify_every > 0) {
      // Mirror of CheckpointDriver::verify_checkpoints and its cadence:
      // every verify_every periods, after the period's commit and before
      // the next set stages, plus a final audit at step == total.
      if (boundary) ++periods_since_verify;
      const bool due =
          (boundary && periods_since_verify >= config.verify_every) ||
          step == config.total_steps;
      if (due) {
        periods_since_verify = 0;
        ++out.verifications_run;
        const bool dirty = std::any_of(
            sdc_epoch.begin(), sdc_epoch.end(),
            [](std::uint64_t e) { return e != 0; });
        if (dirty) {
          ++out.sdc_detected;
          // Ladder walk: shallowest retained set captured before every
          // live epoch and restorable by every node (a Clean ladder image
          // at that depth). The virtual initial entry is always usable.
          const auto matrix_at =
              [&](std::size_t depth) -> const std::vector<Image>& {
            return depth == 0 ? img : history[depth - 1];
          };
          const auto usable = [&](std::size_t depth) {
            const RetainedSet& set = sets[depth];
            if (set.initial) return true;
            if (std::any_of(set.epochs.begin(), set.epochs.end(),
                            [](std::uint64_t e) { return e != 0; })) {
              return false;
            }
            const std::vector<Image>& m = matrix_at(depth);
            for (std::uint64_t node = 0; node < n; ++node) {
              const std::uint64_t first =
                  pairs ? node : groups.preferred_buddy(node);
              const std::uint64_t second =
                  pairs ? groups.preferred_buddy(node)
                        : groups.secondary_buddy(node);
              if (m[first * n + node] != Image::Clean &&
                  m[second * n + node] != Image::Clean) {
                return false;
              }
            }
            return true;
          };
          std::size_t depth = 0;
          bool found = false;
          for (; depth < sets.size(); ++depth) {
            if (usable(depth)) {
              found = true;
              break;
            }
          }
          if (!found) {
            // Detected but unrecoverable: accept the corruption as the new
            // truth (fatal fields, run continues) -- fatal-accept.
            if (!out.fatal) {
              std::uint64_t culprit = 0;
              for (std::uint64_t node = 0; node < n; ++node) {
                if (sdc_epoch[node] != 0) {
                  culprit = node;
                  break;
                }
              }
              out.fatal = true;
              out.fatal_step = step;
              out.fatal_node = culprit;
            }
            std::fill(sdc_epoch.begin(), sdc_epoch.end(), std::uint64_t{0});
          } else {
            ++out.rollbacks;
            out.rollback_depth += depth;
            staging = false;
            refill.clear();
            for (std::size_t i = 0; i < depth; ++i) {
              // drop_newest: the next-oldest matrix becomes committed.
              if (history.empty()) {
                std::fill(img.begin(), img.end(), Image::Absent);
              } else {
                img = std::move(history.front());
                history.pop_front();
              }
              sets.pop_front();
            }
            if (sets.front().initial) {
              reset_to_initial();
              std::fill(img.begin(), img.end(), Image::Absent);
              std::fill(lost.begin(), lost.end(), char{0});
              lost_count = 0;
              has_commit = false;
              committed_step = 0;
              out.replayed_steps += step;
              step = 0;
              continue;
            }
            // Install the selected set: restores are hash-verified time
            // travel, not peer recovery -- only rollback counters moved.
            for (std::uint64_t node = 0; node < n; ++node) {
              sdc_epoch[node] = sets.front().epochs[node];
            }
            committed_step = sets.front().step;
            std::fill(lost.begin(), lost.end(), char{0});
            lost_count = 0;
            for (std::uint64_t node = 0; node < n; ++node) {
              if (committed_count(node) == 0) {
                refill.push_back(RefillEntry{
                    node, config.rereplication_delay_steps, 1, false});
              }
            }
            if (config.rereplication_delay_steps == 0 && !refill.empty()) {
              deliver_due();
            }
            out.replayed_steps += step - committed_step;
            step = committed_step;
            continue;
          }
        }
      }
    }
    if (boundary && !staging) {
      // dcp cadence, same predicate as both coordinators: deltas between
      // full exchanges while the chain has room and the platform is whole
      // (no lost node, no pending refill -- only a full commit re-creates
      // every replica and closes the risk window).
      const bool delta_commit =
          config.dcp_stack_size > 0 && has_commit &&
          dcp_layers + 1 < config.dcp_stack_size && lost_count == 0 &&
          refill.empty();
      if (delta_commit) {
        committed_step = step;
        ++out.checkpoints;
        ++out.delta_commits;
        ++dcp_layers;
        // append_delta files the layer on every designated holder that
        // still has a committed base (even a corrupt one -- the store
        // cannot know); a destroyed store has nothing to chain on.
        for (std::uint64_t owner = 0; owner < n; ++owner) {
          const std::uint64_t h1 =
              pairs ? owner : groups.preferred_buddy(owner);
          const std::uint64_t h2 = pairs ? groups.preferred_buddy(owner)
                                         : groups.secondary_buddy(owner);
          for (const std::uint64_t holder : {h1, h2}) {
            if (slot(holder, owner) != Image::Absent) {
              chain_at(holder, owner).push_back(0);
            }
          }
        }
      } else {
        snapshot_step = step;
        staging = true;
        staging_epochs = sdc_epoch;
        commit_at = step + config.staging_steps;
        if (config.staging_steps == 0) commit();
      }
    }
  }
  return out;
}

}  // namespace dckpt::chaos
