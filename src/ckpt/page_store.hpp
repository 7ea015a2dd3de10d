// Page-granular application memory with copy-on-write snapshots.
//
// The paper's triple algorithm leans on fork(): a checkpoint is a COW image
// of the process, and pages are physically copied only when the application
// writes them before the upload finishes (Sec. IV). PageStore reproduces
// that mechanism in-process: memory is a vector of shared, immutable pages;
// snapshot() is O(#pages) pointer copies; writing new bytes into a page that
// a live snapshot still references clones just that page, and writing the
// bytes a page already holds touches nothing. So two images that hold the
// same page pointer hold the same bytes.
//
// The copied-page count is exposed so benches can measure the COW pressure
// that the paper's phi parameter abstracts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace dckpt::ckpt {

/// Default page size: 4 KiB, like the OS pages fork() shares.
inline constexpr std::size_t kDefaultPageSize = 4096;

/// The image digest folds the hashes of blocks this size (see
/// Snapshot::content_hash).
inline constexpr std::size_t kDigestBlockSize = 4096;

/// FNV-1a 64-bit offset basis: the seed of every chain.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

class Snapshot;

/// An image whose block hashes at one block size are known: a walk at that
/// size over an image of the same layout takes the hash of every block
/// whose pages are all `image`'s own from `hashes` instead of reading it
/// (see Snapshot::walk_blocks). A null image means hash every block.
struct HashReference {
  const Snapshot* image = nullptr;
  std::span<const std::uint64_t> hashes;  ///< image's block hashes
};

/// Immutable checkpoint image: shared pages + integrity metadata.
class Snapshot {
 public:
  using Page = std::shared_ptr<const std::vector<std::byte>>;

  Snapshot() = default;
  Snapshot(std::vector<Page> pages, std::size_t size_bytes,
           std::uint64_t version, std::uint64_t owner);

  std::size_t size_bytes() const noexcept { return size_bytes_; }
  std::size_t page_count() const noexcept { return pages_.size(); }
  std::uint64_t version() const noexcept { return version_; }
  std::uint64_t owner() const noexcept { return owner_; }
  bool empty() const noexcept { return pages_.empty(); }

  /// The image digest: the FNV-1a fold (fnv1a_u64, in block order) of the
  /// FNV-1a hashes of the content's kDigestBlockSize-byte blocks. Cached
  /// by the first call or the first walk_blocks() at that block size; an
  /// uncached call runs that walk.
  std::uint64_t content_hash() const;

  /// Integrity check at a restore point: does the content still hash to
  /// what the producer recorded at snapshot time? A single changed byte
  /// always changes its block's hash, so a damaged or torn image fails
  /// this unless a 64-bit hash collides.
  bool verify(std::uint64_t expected_hash) const {
    return content_hash() == expected_hash;
  }

  /// Copies the image into a flat buffer: how benches and tests compare an
  /// image's bytes. No restore path calls it (restores share pages).
  std::vector<std::byte> to_bytes() const;

  /// The page slices holding one block's bytes, in order.
  using BlockPieces = std::span<const std::span<const std::byte>>;
  /// Called at the end of every block with its index and FNV-1a hash.
  using BlockVisitor =
      std::function<void(std::size_t index, std::uint64_t hash,
                         BlockPieces pieces)>;

  /// One walk over the pages, with no flat copy: cuts the content into
  /// `block_size`-byte blocks (the tail block may be shorter; a block may
  /// span pages) and hands each block's FNV-1a hash and page slices to
  /// `on_block`, in block order. Blocks are hashed four at a time, on four
  /// independent chains. A walk at kDigestBlockSize also caches the digest
  /// unless it is cached already; no walk rewrites a cached digest.
  ///
  /// With a `reference` -- an image of the same layout and its hashes at
  /// `block_size` -- a block whose pages are all pointer-identical to the
  /// reference's pages at the same positions takes its hash from
  /// reference.hashes unread: a shared page is never written again (the
  /// PageStore clones it first), so the same page holds the same bytes.
  /// Throws std::invalid_argument when block_size == 0 or the reference's
  /// page layout or hash count does not match.
  void walk_blocks(std::size_t block_size, const BlockVisitor& on_block,
                   HashReference reference = {}) const;

  const std::vector<Page>& pages() const noexcept { return pages_; }

 private:
  std::vector<Page> pages_;
  std::size_t size_bytes_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t owner_ = 0;
  mutable std::uint64_t cached_hash_ = 0;
  mutable bool hash_valid_ = false;
};

class PageStore {
 public:
  explicit PageStore(std::size_t size_bytes,
                     std::size_t page_size = kDefaultPageSize);

  std::size_t size_bytes() const noexcept { return size_bytes_; }
  std::size_t page_size() const noexcept { return page_size_; }
  std::size_t page_count() const noexcept { return pages_.size(); }

  /// Reads `out.size()` bytes starting at `offset`.
  void read(std::size_t offset, std::span<std::byte> out) const;

  /// Writes `data` at `offset`. A page slice whose bytes already match is
  /// skipped, so the page keeps its identity; a changed page still shared
  /// with a snapshot is replaced by a private copy (copy-on-write), built
  /// straight from `data` when the write covers the whole page.
  void write(std::size_t offset, std::span<const std::byte> data);

  /// Captures the current content as an immutable snapshot (cheap: shares
  /// all pages). `owner` tags the image with the producing node.
  Snapshot snapshot(std::uint64_t owner) ;

  /// Replaces the whole content from a snapshot (rollback/restore).
  void restore(const Snapshot& snapshot_image);

  /// Pages physically duplicated by COW since construction.
  std::uint64_t cow_copies() const noexcept { return cow_copies_; }

  /// Monotone version stamp incremented per snapshot.
  std::uint64_t version() const noexcept { return version_; }

 private:
  using MutablePage = std::shared_ptr<std::vector<std::byte>>;

  std::size_t size_bytes_;
  std::size_t page_size_;
  std::vector<MutablePage> pages_;
  std::uint64_t cow_copies_ = 0;
  std::uint64_t version_ = 0;
};

/// FNV-1a 64-bit over a byte range (exposed for tests and recovery checks).
std::uint64_t fnv1a(std::span<const std::byte> data,
                    std::uint64_t seed = kFnvOffsetBasis);

/// FNV-1a over the 8 little-endian bytes of `value`, so a fold of 64-bit
/// words is the same on every platform: the image digest's fold step and
/// the dcp layer self hash's.
std::uint64_t fnv1a_u64(std::uint64_t value,
                        std::uint64_t seed = kFnvOffsetBasis);

/// fnv1a(data[k], seeds[k]) for k = 0..3. The four chains advance together
/// over the ranges' common length, then each finishes alone; their
/// multiplies are independent, so the CPU overlaps them and four
/// equal-length ranges cost little more than one.
std::array<std::uint64_t, 4> fnv1a_x4(
    const std::array<std::span<const std::byte>, 4>& data,
    std::array<std::uint64_t, 4> seeds = {kFnvOffsetBasis, kFnvOffsetBasis,
                                          kFnvOffsetBasis, kFnvOffsetBasis});

/// Fault-injection helpers (chaos harness): both return a *fresh* Snapshot
/// with its own pages and an unset hash cache, so verify() recomputes over
/// the damaged content instead of trusting the original's cached value.
///
/// corrupt_copy flips one byte of the first page -- a silent bit-flip in a
/// stored replica. torn_copy models a transfer that delivered only a
/// prefix: the first half of the pages survive, the rest read as zeros
/// (the layout stays restorable; the content does not verify).
Snapshot corrupt_copy(const Snapshot& image);
Snapshot torn_copy(const Snapshot& image);

}  // namespace dckpt::ckpt
