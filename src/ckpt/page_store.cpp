#include "ckpt/page_store.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dckpt::ckpt {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a of up to four blocks, each given as its page slices, on four
/// chains that advance together up to the nearest slice end of any lane
/// still holding bytes. A lane with no block hashes nothing.
std::array<std::uint64_t, 4> hash_blocks_x4(
    const std::array<Snapshot::BlockPieces, 4>& blocks) {
  std::array<std::uint64_t, 4> hashes{kFnvOffsetBasis, kFnvOffsetBasis,
                                      kFnvOffsetBasis, kFnvOffsetBasis};
  std::array<std::size_t, 4> next{};
  std::array<std::span<const std::byte>, 4> unread;
  while (true) {
    std::size_t step = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = 0; k < 4; ++k) {
      while (unread[k].empty() && next[k] < blocks[k].size()) {
        unread[k] = blocks[k][next[k]++];
      }
      if (!unread[k].empty()) step = std::min(step, unread[k].size());
    }
    if (step == std::numeric_limits<std::size_t>::max()) return hashes;
    std::array<std::span<const std::byte>, 4> chunk;
    for (std::size_t k = 0; k < 4; ++k) {
      chunk[k] = unread[k].first(std::min(step, unread[k].size()));
      unread[k] = unread[k].subspan(chunk[k].size());
    }
    hashes = fnv1a_x4(chunk, hashes);
  }
}

/// Same byte count, page count and page sizes: every page starts at the
/// same offset in both images.
bool same_layout(const Snapshot& a, const Snapshot& b) {
  if (a.size_bytes() != b.size_bytes() || a.page_count() != b.page_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.page_count(); ++i) {
    if (a.pages()[i]->size() != b.pages()[i]->size()) return false;
  }
  return true;
}

}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (std::byte b : data) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t seed) {
  std::byte bytes[8]{};
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::byte>((value >> (8 * i)) & 0xffU);
  }
  return fnv1a({bytes, 8}, seed);
}

std::array<std::uint64_t, 4> fnv1a_x4(
    const std::array<std::span<const std::byte>, 4>& data,
    std::array<std::uint64_t, 4> seeds) {
  const std::size_t common = std::min(
      {data[0].size(), data[1].size(), data[2].size(), data[3].size()});
  const std::byte* p0 = data[0].data();
  const std::byte* p1 = data[1].data();
  const std::byte* p2 = data[2].data();
  const std::byte* p3 = data[3].data();
  std::uint64_t h0 = seeds[0];
  std::uint64_t h1 = seeds[1];
  std::uint64_t h2 = seeds[2];
  std::uint64_t h3 = seeds[3];
  for (std::size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ static_cast<std::uint64_t>(p0[i])) * kFnvPrime;
    h1 = (h1 ^ static_cast<std::uint64_t>(p1[i])) * kFnvPrime;
    h2 = (h2 ^ static_cast<std::uint64_t>(p2[i])) * kFnvPrime;
    h3 = (h3 ^ static_cast<std::uint64_t>(p3[i])) * kFnvPrime;
  }
  return {fnv1a(data[0].subspan(common), h0),
          fnv1a(data[1].subspan(common), h1),
          fnv1a(data[2].subspan(common), h2),
          fnv1a(data[3].subspan(common), h3)};
}

// ------------------------------------------------------------------ Snapshot

Snapshot::Snapshot(std::vector<Page> pages, std::size_t size_bytes,
                   std::uint64_t version, std::uint64_t owner)
    : pages_(std::move(pages)), size_bytes_(size_bytes), version_(version),
      owner_(owner) {}

std::uint64_t Snapshot::content_hash() const {
  if (!hash_valid_) {  // the walk at the digest's block size caches it
    walk_blocks(kDigestBlockSize,
                [](std::size_t, std::uint64_t, BlockPieces) {});
  }
  return cached_hash_;
}

std::vector<std::byte> Snapshot::to_bytes() const {
  std::vector<std::byte> out;
  out.reserve(size_bytes_);
  std::size_t remaining = size_bytes_;
  for (const auto& page : pages_) {
    const std::size_t take = std::min(remaining, page->size());
    out.insert(out.end(), page->begin(), page->begin() + take);
    remaining -= take;
  }
  return out;
}

void Snapshot::walk_blocks(std::size_t block_size,
                           const BlockVisitor& on_block,
                           HashReference reference) const {
  if (block_size == 0) {
    throw std::invalid_argument(
        "Snapshot::walk_blocks: block_size must be > 0");
  }
  const Snapshot* known = reference.image;
  // Counted as (size - 1) / block + 1: size + block - 1 wraps near 2^64.
  const std::size_t count =
      size_bytes_ == 0 ? 0 : (size_bytes_ - 1) / block_size + 1;
  if (known != nullptr &&
      (!same_layout(*this, *known) || reference.hashes.size() != count)) {
    throw std::invalid_argument(
        "Snapshot::walk_blocks: reference layout or hash count differs");
  }
  // Cut the content into blocks: block b's page slices are
  // pieces[starts[b] .. starts[b + 1]). A block whose pages are all the
  // reference's takes its known hash; the others queue for hashing.
  std::vector<std::span<const std::byte>> pieces;
  std::vector<std::size_t> starts{0};
  std::vector<std::uint64_t> hashes;
  std::vector<std::size_t> unknown;
  pieces.reserve(pages_.size() + 1);
  hashes.reserve(count);
  bool same = known != nullptr;
  std::size_t left = block_size;
  const auto close_block = [&] {
    if (same) {
      hashes.push_back(reference.hashes[hashes.size()]);
    } else {
      unknown.push_back(hashes.size());
      hashes.push_back(0);
    }
    starts.push_back(pieces.size());
    same = known != nullptr;
    left = block_size;
  };
  std::size_t remaining = size_bytes_;
  for (std::size_t k = 0; k < pages_.size() && remaining > 0; ++k) {
    std::span<const std::byte> page(pages_[k]->data(),
                                    std::min(remaining, pages_[k]->size()));
    remaining -= page.size();
    const bool identical = known != nullptr && known->pages_[k] == pages_[k];
    while (!page.empty()) {
      const std::size_t take = std::min(left, page.size());
      pieces.push_back(page.first(take));
      page = page.subspan(take);
      same = same && identical;
      left -= take;
      if (left == 0) close_block();
    }
  }
  if (pieces.size() > starts.back()) close_block();  // the short tail
  const auto block = [&](std::size_t b) {
    return BlockPieces(pieces.data() + starts[b], starts[b + 1] - starts[b]);
  };
  for (std::size_t i = 0; i < unknown.size(); i += 4) {
    std::array<BlockPieces, 4> group;
    for (std::size_t k = 0; k < 4 && i + k < unknown.size(); ++k) {
      group[k] = block(unknown[i + k]);
    }
    const auto group_hashes = hash_blocks_x4(group);
    for (std::size_t k = 0; k < 4 && i + k < unknown.size(); ++k) {
      hashes[unknown[i + k]] = group_hashes[k];
    }
  }
  const bool fold = block_size == kDigestBlockSize && !hash_valid_;
  std::uint64_t digest = kFnvOffsetBasis;
  for (std::size_t b = 0; b < hashes.size(); ++b) {
    if (fold) digest = fnv1a_u64(hashes[b], digest);
    on_block(b, hashes[b], block(b));
  }
  if (fold) {  // a cached digest is kept, never rewritten
    cached_hash_ = digest;
    hash_valid_ = true;
  }
}

Snapshot corrupt_copy(const Snapshot& image) {
  if (image.empty()) {
    throw std::invalid_argument("corrupt_copy: empty image");
  }
  std::vector<Snapshot::Page> pages = image.pages();
  auto damaged = std::make_shared<std::vector<std::byte>>(*pages.front());
  if (damaged->empty()) {
    throw std::invalid_argument("corrupt_copy: zero-sized page");
  }
  (*damaged)[0] ^= std::byte{0x5a};
  pages.front() = std::move(damaged);
  return Snapshot(std::move(pages), image.size_bytes(), image.version(),
                  image.owner());
}

Snapshot torn_copy(const Snapshot& image) {
  if (image.empty()) {
    throw std::invalid_argument("torn_copy: empty image");
  }
  std::vector<Snapshot::Page> pages = image.pages();
  // Prefix-only delivery: pages past the halfway point never arrived and
  // read back as zeros. Keeping the page count intact keeps the image
  // structurally restorable -- detection must come from the content hash.
  for (std::size_t i = std::max<std::size_t>(pages.size() / 2, 1);
       i < pages.size(); ++i) {
    pages[i] =
        std::make_shared<std::vector<std::byte>>(pages[i]->size(),
                                                 std::byte{0});
  }
  // Mangle the first byte too (a torn stream header), so the tear is
  // detectable even when the lost tail happened to be all zeros already.
  auto head = std::make_shared<std::vector<std::byte>>(*pages.front());
  if (head->empty()) {
    throw std::invalid_argument("torn_copy: zero-sized page");
  }
  if (pages.size() == 1) {  // single page: the tear hits its second half
    std::fill(head->begin() + static_cast<std::ptrdiff_t>(head->size() / 2),
              head->end(), std::byte{0});
  }
  (*head)[0] ^= std::byte{0xa5};
  pages.front() = std::move(head);
  return Snapshot(std::move(pages), image.size_bytes(), image.version(),
                  image.owner());
}

// ----------------------------------------------------------------- PageStore

PageStore::PageStore(std::size_t size_bytes, std::size_t page_size)
    : size_bytes_(size_bytes), page_size_(page_size) {
  if (size_bytes == 0) throw std::invalid_argument("PageStore: zero size");
  if (page_size == 0) throw std::invalid_argument("PageStore: zero page size");
  const std::size_t count = (size_bytes + page_size - 1) / page_size;
  pages_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pages_.push_back(
        std::make_shared<std::vector<std::byte>>(page_size, std::byte{0}));
  }
}

void PageStore::read(std::size_t offset, std::span<std::byte> out) const {
  // Subtraction-safe: `offset + out.size()` can wrap for huge offsets,
  // passing the naive guard and running an out-of-bounds memcpy.
  if (offset > size_bytes_ || out.size() > size_bytes_ - offset) {
    throw std::out_of_range("PageStore::read past end");
  }
  std::size_t cursor = 0;
  while (cursor < out.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t page = pos / page_size_;
    const std::size_t in_page = pos % page_size_;
    const std::size_t take =
        std::min(out.size() - cursor, page_size_ - in_page);
    std::memcpy(out.data() + cursor, pages_[page]->data() + in_page, take);
    cursor += take;
  }
}

void PageStore::write(std::size_t offset, std::span<const std::byte> data) {
  // Subtraction-safe for the same wrap hazard as read().
  if (offset > size_bytes_ || data.size() > size_bytes_ - offset) {
    throw std::out_of_range("PageStore::write past end");
  }
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t in_page = pos % page_size_;
    const auto piece =
        data.subspan(cursor, std::min(data.size() - cursor,
                                      page_size_ - in_page));
    cursor += piece.size();
    MutablePage& page = pages_[pos / page_size_];
    std::byte* const at = page->data() + in_page;
    if (std::memcmp(at, piece.data(), piece.size()) == 0) continue;
    if (page.use_count() == 1) {
      std::memcpy(at, piece.data(), piece.size());
      continue;
    }
    // A snapshot still shares this page: replace it with a private copy.
    if (piece.size() == page->size()) {
      page = std::make_shared<std::vector<std::byte>>(piece.begin(),
                                                      piece.end());
    } else {
      auto copy = std::make_shared<std::vector<std::byte>>(*page);
      std::memcpy(copy->data() + in_page, piece.data(), piece.size());
      page = std::move(copy);
    }
    ++cow_copies_;
  }
}

Snapshot PageStore::snapshot(std::uint64_t owner) {
  std::vector<Snapshot::Page> shared;
  shared.reserve(pages_.size());
  for (const auto& page : pages_) shared.push_back(page);
  return Snapshot(std::move(shared), size_bytes_, ++version_, owner);
}

void PageStore::restore(const Snapshot& snapshot_image) {
  if (snapshot_image.size_bytes() != size_bytes_ ||
      snapshot_image.page_count() != pages_.size()) {
    throw std::invalid_argument("PageStore::restore: layout mismatch");
  }
  // Re-share the snapshot's pages: restore is O(#pages), not O(bytes).
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    pages_[i] = std::const_pointer_cast<std::vector<std::byte>>(
        snapshot_image.pages()[i]);
  }
  // A snapshot taken after restoring a higher-versioned image must still
  // order after it, or diff_blocks rejects a legitimate post-failover delta
  // with "base must predate current".
  version_ = std::max(version_, snapshot_image.version());
}

}  // namespace dckpt::ckpt
