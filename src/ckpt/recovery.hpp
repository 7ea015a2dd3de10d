// Recovery paths: rebuild a failed node's state from the surviving replicas.
//
// After node p fails, its replacement must (paper Sec. II/IV):
//   1. fetch p's own committed image from a surviving replica and restore
//      it -- select_replica()/recover_node();
//   2. re-replicate the images p was storing for its buddies, so a later
//      buddy failure stays survivable -- restore_replicas().
// Step 2 is exactly what the risk window measures: until it completes, the
// group cannot take another hit.
//
// Every restore point verifies the image's content hash: a corrupt or torn
// replica is *skipped*, not restored, and the ladder falls through to the
// next surviving copy in GroupAssignment::holders() order -- the local copy
// first for pairs, then the preferred buddy, then (triples) the secondary.
// Outcomes are typed, never thrown: exhausting the ladder is a normal
// (degraded-mode) result the runtimes account for, not an exception a
// campaign has to string-match.
//
// Stores are addressed through a span of pointers indexed by node id, so
// callers can keep BuddyStores wherever they live (test vectors, runtime
// workers).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/buddy_store.hpp"
#include "ckpt/page_store.hpp"
#include "ckpt/ring.hpp"

namespace dckpt::ckpt {

/// How a replica lookup ended.
enum class RecoveryStatus {
  Ok,         ///< first surviving candidate verified and was used
  FailedOver, ///< a corrupt/torn copy was skipped; a later candidate served
  Exhausted,  ///< no surviving clean replica -- data loss (degraded mode)
};

struct RecoveryReport {
  std::uint64_t node = 0;      ///< recovered node
  std::uint64_t source = 0;    ///< node that supplied the image
  std::uint64_t version = 0;   ///< committed version restored
  bool hash_verified = false;  ///< content hash matched (always, on success)
};

/// Result of walking the replica ladder for one node.
struct RecoveryOutcome {
  RecoveryStatus status = RecoveryStatus::Exhausted;
  RecoveryReport report;            ///< meaningful unless Exhausted
  std::optional<Snapshot> image;    ///< the verified image, unless Exhausted
  std::size_t corrupt_skipped = 0;  ///< replicas rejected by the hash check
  std::size_t candidates_tried = 0; ///< replicas examined (present images)
  std::size_t torn_skipped = 0;     ///< rungs rejected for a torn dcp layer
  std::size_t replayed_layers = 0;  ///< dcp layers replayed on success

  bool ok() const noexcept { return status != RecoveryStatus::Exhausted; }
};

/// Walks `node`'s replica ladder, GroupAssignment::holders(node), verifying
/// each present image against `expected_hash` and returning the first clean
/// one. Corrupt or torn images are counted and skipped. Never throws on data
/// loss; throws std::invalid_argument only on a malformed directory.
///
/// When a rung carries a differential chain (dcp), the rung's image is the
/// replay base + every chained layer, and the rung is rejected -- one
/// corrupt_skipped, like a damaged full image -- when the base no longer
/// hashes to the oldest layer's recorded base_hash (corrupt base), any
/// layer fails its self hash (torn layer; additionally counted in
/// torn_skipped), or the replayed tip misses `expected_hash`.
RecoveryOutcome select_replica(std::uint64_t node,
                               const GroupAssignment& groups,
                               std::span<BuddyStore* const> stores,
                               std::uint64_t expected_hash);

/// select_replica() plus the restore into `memory` on success.
RecoveryOutcome recover_node(std::uint64_t node, const GroupAssignment& groups,
                             std::span<BuddyStore* const> stores,
                             PageStore& memory, std::uint64_t expected_hash);

/// Result of re-filling a replacement node's buddy storage.
struct ReplicationOutcome {
  std::size_t restored = 0;         ///< images re-filed into the store
  std::size_t corrupt_skipped = 0;  ///< source copies rejected by the hash
  std::size_t unavailable = 0;      ///< owners with no clean surviving copy
  std::size_t chains_replayed = 0;  ///< sources flattened from a dcp chain
  std::size_t layers_replayed = 0;  ///< total dcp layers those replays walked
};

/// Step 2: re-files into `node`'s (replacement) storage the committed images
/// it was holding for its peers -- and, for pair topologies, the node's own
/// local copy -- fetched from the peers' surviving copies. Each candidate
/// source is verified against `expected_hashes[owner]` (indexed by node id);
/// corrupt sources are skipped, and an owner with no clean copy anywhere is
/// counted `unavailable` instead of aborting the whole refill.
ReplicationOutcome restore_replicas(
    std::uint64_t node, const GroupAssignment& groups,
    std::span<BuddyStore* const> stores,
    std::span<const std::uint64_t> expected_hashes);

/// True when every node of the platform can restore a hash-verified image
/// of itself from retained set `depth` through its replica ladder
/// (GroupAssignment::holders). `expected_hashes[node]` is the content hash
/// recorded for that set.
bool set_restorable(std::size_t depth, const GroupAssignment& groups,
                    std::span<BuddyStore* const> stores,
                    std::span<const std::uint64_t> expected_hashes);

}  // namespace dckpt::ckpt
