#include "ckpt/recovery.hpp"

#include <stdexcept>

namespace dckpt::ckpt {

namespace {

void check_directory(const GroupAssignment& groups,
                     std::span<BuddyStore* const> stores) {
  if (stores.size() != groups.nodes()) {
    throw std::invalid_argument("recovery: store/topology size mismatch");
  }
  for (const BuddyStore* store : stores) {
    if (!store) throw std::invalid_argument("recovery: null store");
  }
}

/// Outcome of flattening one rung: the base image plus its differential
/// chain, or the typed reason the rung must be skipped.
enum class RungState { Clean, CorruptBase, TornLayer, BadTip };

struct RungImage {
  RungState state = RungState::BadTip;
  std::optional<Snapshot> tip;
  std::size_t layers = 0;
};

/// Replays `holder`'s chain for `owner` onto the committed base and
/// verifies the tip against `expected_hash`. An empty chain degenerates to
/// the plain full-image hash check. nullopt when the holder has no base.
std::optional<RungImage> flatten_rung(const BuddyStore& holder,
                                      std::uint64_t owner,
                                      std::uint64_t expected_hash) {
  auto base = holder.committed_for(owner);
  if (!base) return std::nullopt;
  RungImage rung;
  const std::vector<BlockDelta>& chain = holder.chain_for(owner);
  if (!chain.empty() && !base->verify(chain.front().base_hash())) {
    rung.state = RungState::CorruptBase;
    return rung;
  }
  for (const BlockDelta& layer : chain) {
    if (!layer.verify_self()) {
      rung.state = RungState::TornLayer;
      return rung;
    }
  }
  Snapshot tip = std::move(*base);
  for (const BlockDelta& layer : chain) {
    tip = apply_block_delta(tip, layer);
  }
  if (!tip.verify(expected_hash)) {
    rung.state = RungState::BadTip;
    return rung;
  }
  rung.state = RungState::Clean;
  rung.tip = std::move(tip);
  rung.layers = chain.size();
  return rung;
}

}  // namespace

RecoveryOutcome select_replica(std::uint64_t node,
                               const GroupAssignment& groups,
                               std::span<BuddyStore* const> stores,
                               std::uint64_t expected_hash) {
  check_directory(groups, stores);
  RecoveryOutcome outcome;
  for (const std::uint64_t holder : groups.holders(node)) {
    auto rung = flatten_rung(*stores[holder], node, expected_hash);
    if (!rung) continue;
    ++outcome.candidates_tried;
    if (rung->state != RungState::Clean) {
      ++outcome.corrupt_skipped;
      if (rung->state == RungState::TornLayer) ++outcome.torn_skipped;
      continue;
    }
    outcome.status = outcome.corrupt_skipped > 0 ? RecoveryStatus::FailedOver
                                                 : RecoveryStatus::Ok;
    outcome.report.node = node;
    outcome.report.source = holder;
    outcome.report.version = rung->tip->version();
    outcome.report.hash_verified = true;
    outcome.replayed_layers = rung->layers;
    outcome.image = std::move(rung->tip);
    return outcome;
  }
  outcome.status = RecoveryStatus::Exhausted;
  outcome.report.node = node;
  return outcome;
}

RecoveryOutcome recover_node(std::uint64_t node, const GroupAssignment& groups,
                             std::span<BuddyStore* const> stores,
                             PageStore& memory, std::uint64_t expected_hash) {
  RecoveryOutcome outcome = select_replica(node, groups, stores,
                                           expected_hash);
  if (outcome.ok()) memory.restore(*outcome.image);
  return outcome;
}

ReplicationOutcome restore_replicas(
    std::uint64_t node, const GroupAssignment& groups,
    std::span<BuddyStore* const> stores,
    std::span<const std::uint64_t> expected_hashes) {
  check_directory(groups, stores);
  if (expected_hashes.size() != groups.nodes()) {
    throw std::invalid_argument("recovery: expected-hash directory size");
  }
  ReplicationOutcome outcome;
  // For each image the node should hold, scan its group peers in id order
  // (the same order the oracle mirrors) for a clean surviving copy.
  const auto refill_one = [&](std::uint64_t owner) {
    for (std::uint64_t member : groups.members(groups.group_of(owner))) {
      if (member == node) continue;
      auto rung = flatten_rung(*stores[member], owner,
                               expected_hashes[owner]);
      if (!rung) continue;
      if (rung->state != RungState::Clean) {
        ++outcome.corrupt_skipped;
        continue;
      }
      // Refills always deliver the flattened tip, never the raw chain: the
      // receiver restarts its dcp lineage from a full image.
      stores[node]->restore_committed(*rung->tip);
      ++outcome.restored;
      if (rung->layers > 0) {
        ++outcome.chains_replayed;
        outcome.layers_replayed += rung->layers;
      }
      return;
    }
    ++outcome.unavailable;
  };
  for (std::uint64_t owner : groups.stored_for(node)) refill_one(owner);
  // Pair topology keeps a local copy of the node's own image too.
  if (groups.topology() == Topology::Pairs) refill_one(node);
  return outcome;
}

bool set_restorable(std::size_t depth, const GroupAssignment& groups,
                    std::span<BuddyStore* const> stores,
                    std::span<const std::uint64_t> expected_hashes) {
  check_directory(groups, stores);
  if (expected_hashes.size() != groups.nodes()) {
    throw std::invalid_argument("recovery: expected-hash directory size");
  }
  for (std::uint64_t node = 0; node < groups.nodes(); ++node) {
    bool found = false;
    for (const std::uint64_t holder : groups.holders(node)) {
      auto image = stores[holder]->committed_at(depth, node);
      if (!image) continue;
      if (!image->verify(expected_hashes[node])) continue;
      found = true;
      break;
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace dckpt::ckpt
