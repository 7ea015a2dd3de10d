// Versioned in-memory checkpoint storage with atomic set promotion.
//
// Coordinated protocols must switch between *global* snapshot sets
// atomically (paper Sec. IV): at any instant a node holds the last
// successful set and possibly an unfinished current set. A failure discards
// the unfinished set; only a completed global exchange promotes it.
//
// BuddyStore is the per-node container: it files images by (owner, version)
// into the staging area, and `promote(version)` moves the staged set into
// the committed slot. `drop_node(node)` models the loss of a node's memory
// (its own staged and committed images vanish with it -- callers then
// recover from the surviving replicas on other nodes).
//
// Keep-last-l retention: with `retain_sets` > 1 every promotion pushes the
// outgoing committed set onto a bounded history ring, so recovery can walk
// back past a committed image that a later verification proved silently
// corrupted. Depth 0 is always the committed set, depth d > 0 the set
// promoted d commits ago. `drop_newest(count)` rolls the ring back, making
// an older set the committed one again.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"

namespace dckpt::ckpt {

class BuddyStore {
 public:
  /// Storage belonging to `node`; `capacity_images` bounds how many images
  /// the node may hold per slot set (2 for double/triple protocols).
  /// `retain_sets` is the keep-last-l retention depth: the committed set
  /// plus up to retain_sets - 1 older sets stay resident.
  explicit BuddyStore(std::uint64_t node, std::size_t capacity_images = 2,
                      std::size_t retain_sets = 1);

  std::uint64_t node() const noexcept { return node_; }

  /// Files an image into the staging set. Throws when the staging set is
  /// full with images of other versions or capacity would be exceeded.
  void stage(const Snapshot& image);

  /// Promotes the staged images of `version` into the committed set. The
  /// outgoing committed set moves into the retention history (bounded by
  /// retain_sets); with the default retain_sets = 1 it is simply replaced.
  /// Throws when nothing of that version is staged.
  void promote(std::uint64_t version);

  /// Discards any staged images (failure before completion).
  void discard_staged();

  /// Recovery path: files an image straight into the committed set,
  /// bypassing staging (used when re-replicating after a failure).
  /// Capacity-checked like stage().
  void restore_committed(const Snapshot& image);

  /// Fault injection (chaos harness): replaces the committed image of
  /// `owner` with a damaged copy -- a silent bit-flip, or a torn
  /// (prefix-only) image when `torn` is set. Returns false when this node
  /// holds no committed image of `owner` (nothing to damage). The slot
  /// stays occupied: corruption is only discovered when a restore path
  /// verifies the content hash.
  bool corrupt_committed(std::uint64_t owner, bool torn = false);

  /// Committed image of `owner`, if this node stores one.
  std::optional<Snapshot> committed_for(std::uint64_t owner) const;

  /// Retained image of `owner` at `depth` sets back: depth 0 is the
  /// committed set, depth d the set promoted d commits ago. nullopt when
  /// the store holds no such set or no image of `owner` in it.
  std::optional<Snapshot> committed_at(std::size_t depth,
                                       std::uint64_t owner) const;

  /// Staged image of `owner`, if present.
  std::optional<Snapshot> staged_for(std::uint64_t owner) const;

  // -- Differential chains (content-hash dcp) --------------------------
  //
  // Between full exchanges a dcp-enabled coordinator commits BlockDelta
  // layers on the same designated holders. The chain hangs off the
  // committed base image: promote() (a new full set) clears every chain,
  // restore_committed() files a *flattened* image so the receiver's chain
  // resets, and losing the node drops chains with the rest of the store.

  /// Appends a differential layer to `owner`'s chain. Returns false (and
  /// files nothing) when this node holds no committed base for `owner` --
  /// a chain cannot grow on a missing base. Taken by value, so the last
  /// holder of a layer can take it without a copy.
  bool append_delta(BlockDelta layer);

  /// Differential layers currently chained on `owner`'s committed base,
  /// oldest first (empty when none).
  const std::vector<BlockDelta>& chain_for(std::uint64_t owner) const;

  /// Fault injection (chaos harness): tears the chain layer at 1-based
  /// `depth` counted from the base (depth 1 = oldest layer). Returns false
  /// when `owner`'s chain is shorter than `depth`.
  bool corrupt_delta(std::uint64_t owner, std::size_t depth);

  /// Rolls the retention ring back `count` sets: the committed set is
  /// discarded and the next-oldest retained set becomes committed. Rolling
  /// past the oldest retained set leaves the store empty.
  void drop_newest(std::size_t count);

  std::size_t committed_count() const noexcept { return committed_.size(); }
  std::size_t staged_count() const noexcept { return staged_.size(); }

  /// Older sets currently retained behind the committed one.
  std::size_t history_depth() const noexcept { return history_.size(); }

  /// Version of the committed set (0 when empty).
  std::uint64_t committed_version() const noexcept {
    return committed_version_;
  }

  /// Total bytes resident (committed + staged + retained history) -- the
  /// paper's "constant memory" claim is asserted against this in tests.
  std::size_t resident_bytes() const;

 private:
  struct RetainedSet {
    std::map<std::uint64_t, Snapshot> images;  ///< keyed by owner
    std::uint64_t version = 0;
  };

  std::uint64_t node_;
  std::size_t capacity_;
  std::size_t retain_;
  std::map<std::uint64_t, Snapshot> committed_;  ///< keyed by owner
  std::map<std::uint64_t, Snapshot> staged_;
  std::deque<RetainedSet> history_;  ///< front = next-newest after committed
  std::map<std::uint64_t, std::vector<BlockDelta>> chains_;  ///< keyed by owner
  std::uint64_t committed_version_ = 0;
};

}  // namespace dckpt::ckpt
