// Content-hash differential checkpoints (dcpScalable-style).
//
// A full checkpoint moves the whole image; a differential checkpoint moves
// only the blocks whose content changed since the last commit. Dirty blocks
// are detected by comparing per-block FNV-1a hashes against the hash array
// recorded at the previous commit -- no caller-supplied dirty set, so a
// block rewritten with identical bytes does *not* count as dirty. The block
// size is independent of the page size: coarser blocks cut hash-array
// memory at the cost of amplifying small writes.
//
// COW page identity enters only as a shortcut to a block's *hash*, never to
// its dirtiness: a diff given a reference image (the last full commit) and
// its hash array reuses the hash of every block whose pages are all still
// that image's, and reads only the pages written since. Replaying a layer
// shares every base page no dirty block touches, so a replayed tip keeps
// page identity with its base.
//
// Restores replay a chain: one full base image plus up to K - 1 differential
// layers, where K is the dcp stack size (a full checkpoint every K commits
// bounds the chain). Each layer carries
//   * base_hash    -- digest (Snapshot::content_hash) of the exact image it
//                     was diffed against, so a corrupt base is detected
//                     before replay even when a later layer would happen to
//                     overwrite the damage;
//   * result_hash  -- digest of the image the replay must produce;
//   * a self hash folding the layer's own metadata and each payload's
//     FNV-1a, so a torn layer (truncated transfer) is detected without
//     replaying anything.
//
// A layer's blocks are immutable once built and shared by every copy of the
// layer, the way a Snapshot shares its pages: both holders of a delta keep
// the same bytes, and fault injection tears a private copy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/page_store.hpp"

namespace dckpt::ckpt {

/// Default differential block size (one OS page, like dcpBlockSize's
/// default granularity).
inline constexpr std::size_t kDefaultDcpBlockSize = kDefaultPageSize;

/// One dirty block: `index * block_size` is its byte offset; the tail block
/// may be shorter than block_size.
struct DcpBlock {
  std::size_t index = 0;
  std::vector<std::byte> payload;
};

/// One differential layer of a dcp chain. Copies share the blocks.
class BlockDelta {
 public:
  BlockDelta() = default;
  /// Records the self hash from `payload_hashes`, the FNV-1a of each
  /// block's payload in order, without reading a payload (the diff walk
  /// has hashed every block already). Throws std::invalid_argument when
  /// block_size == 0 or there is not one hash per block.
  BlockDelta(std::uint64_t owner, std::uint64_t base_version,
             std::uint64_t version, std::size_t size_bytes,
             std::size_t block_size, std::uint64_t base_hash,
             std::uint64_t result_hash, std::vector<DcpBlock> blocks,
             std::span<const std::uint64_t> payload_hashes);

  std::uint64_t owner() const noexcept { return owner_; }
  std::uint64_t base_version() const noexcept { return base_version_; }
  std::uint64_t version() const noexcept { return version_; }
  std::size_t size_bytes() const noexcept { return size_bytes_; }
  std::size_t block_size() const noexcept { return block_size_; }

  /// Content hash of the image this layer was diffed against.
  std::uint64_t base_hash() const noexcept { return base_hash_; }
  /// Content hash of the image replaying this layer must produce.
  std::uint64_t result_hash() const noexcept { return result_hash_; }

  std::size_t dirty_blocks() const noexcept { return blocks().size(); }
  /// The dirty blocks in index order: the same object for every copy.
  const std::vector<DcpBlock>& blocks() const noexcept;

  /// Bytes a buddy transfer must actually move for this layer.
  std::size_t delta_bytes() const;

  /// Dirty fraction: dirty blocks / total blocks of the image.
  double dirty_ratio() const noexcept;

  /// Per-layer integrity: recomputes the self hash over the layer's
  /// metadata and payloads, reading every payload byte, and compares it to
  /// the value recorded at construction. A torn layer fails this without
  /// any replay.
  bool verify_self() const;

 private:
  friend BlockDelta torn_layer_copy(const BlockDelta& layer);

  std::uint64_t owner_ = 0;
  std::uint64_t base_version_ = 0;
  std::uint64_t version_ = 0;
  std::size_t size_bytes_ = 0;
  std::size_t block_size_ = kDefaultDcpBlockSize;
  std::uint64_t base_hash_ = 0;
  std::uint64_t result_hash_ = 0;
  std::shared_ptr<const std::vector<DcpBlock>> blocks_;  ///< null: none
  std::uint64_t stored_self_hash_ = 0;
};

/// Per-block FNV-1a hash array of `image` (the dcpScalable hashArray): one
/// hash per block_size-sized block, tail block over the remaining bytes.
/// One walk over the pages (Snapshot::walk_blocks), which at
/// kDigestBlockSize also caches the image's digest. Throws
/// std::invalid_argument when block_size == 0.
std::vector<std::uint64_t> block_hashes(const Snapshot& image,
                                        std::size_t block_size);

/// A differential layer plus the hash array its walk left behind.
struct BlockDiff {
  BlockDelta layer;
  /// block_hashes(current, block_size): what the next diff compares against.
  std::vector<std::uint64_t> hashes;
};

/// Diffs `current` against a base known only by its cached hash array --
/// the coordinator commit path, where the previous image itself is gone but
/// its block_hashes(), version and digest were recorded at commit time.
/// `base_version` must predate current.version() and `base_hashes` must
/// cover current's layout exactly. One walk over current's pages compares
/// every block hash, copies the dirty blocks straight from the pages and
/// returns current's hash array; the layer's self hash folds the walk's
/// hashes of the dirty blocks, so no payload is read twice. At
/// kDigestBlockSize the walk also caches current's digest, which becomes
/// the layer's result_hash. Throws std::invalid_argument (naming
/// diff_blocks) on a zero block size, a base that does not predate
/// current, or a hash array of the wrong length. With a
/// `reference` (an image of current's layout and its block_hashes() at
/// `block_size`), blocks whose pages are all the reference's take their
/// hash from it unread (Snapshot::walk_blocks); dirtiness is still decided
/// against base_hashes.
BlockDiff diff_blocks(const std::vector<std::uint64_t>& base_hashes,
                      std::uint64_t base_version, std::uint64_t base_hash,
                      const Snapshot& current, std::size_t block_size,
                      HashReference reference = {});

/// diff_blocks() without the next hash array.
BlockDelta make_block_delta(const std::vector<std::uint64_t>& base_hashes,
                            std::uint64_t base_version,
                            std::uint64_t base_hash, const Snapshot& current,
                            std::size_t block_size);

/// Replays one layer: base + delta = the image `delta` was diffed from.
/// The result shares every base page no dirty block touches; a touched page
/// is a fresh copy. Verifies owner, layout and version chaining
/// (base.version() must equal delta.base_version()); content verification
/// against base_hash() / result_hash() is the *caller's* job (the recovery
/// ladder decides how to react), and the result carries no cached digest,
/// so that check reads every byte. Throws std::invalid_argument on a
/// structural mismatch.
Snapshot apply_block_delta(const Snapshot& base, const BlockDelta& delta);

/// Fault injection (chaos harness): a copy of `layer` whose last dirty
/// block lost the tail half of its payload while the recorded self hash is
/// kept -- a torn (truncated) layer transfer. verify_self() on the copy
/// fails. The copy tears blocks of its own, so `layer` and every other
/// copy of it keep their bytes and still verify. A layer with no dirty
/// blocks gets its recorded self hash flipped instead (still detected,
/// nothing to truncate).
BlockDelta torn_layer_copy(const BlockDelta& layer);

}  // namespace dckpt::ckpt
