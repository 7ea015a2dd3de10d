#include "ckpt/page_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dckpt::ckpt {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Reads an image's meaningful bytes front to back, one page slice at a
/// time: each page holds min(its size, bytes not yet read) of them.
class PageCursor {
 public:
  PageCursor(const std::vector<Snapshot::Page>& pages, std::size_t size_bytes)
      : page_(pages.data()),
        end_(pages.data() + pages.size()),
        remaining_(size_bytes) {}

  /// The next at most `limit` unread bytes, all from one page; empty at
  /// the end of the image or when `limit` is 0.
  std::span<const std::byte> next(std::size_t limit) {
    while (rest_.empty() && page_ != end_) {
      const std::size_t take = std::min(remaining_, (*page_)->size());
      rest_ = {(*page_)->data(), take};
      remaining_ -= take;
      ++page_;
    }
    const auto piece = rest_.first(std::min(rest_.size(), limit));
    rest_ = rest_.subspan(piece.size());
    return piece;
  }

  /// Moves past `count` bytes without reading them.
  void skip(std::size_t count) {
    while (count > 0) {
      const std::size_t moved = next(count).size();
      if (moved == 0) return;
      count -= moved;
    }
  }

  /// Bytes left to read.
  std::size_t unread() const {
    std::size_t total = rest_.size();
    std::size_t remaining = remaining_;
    for (const Snapshot::Page* page = page_; page != end_; ++page) {
      const std::size_t take = std::min(remaining, (*page)->size());
      total += take;
      remaining -= take;
    }
    return total;
  }

 private:
  const Snapshot::Page* page_;
  const Snapshot::Page* end_;
  std::span<const std::byte> rest_;  ///< unread bytes of the last page read
  std::size_t remaining_;            ///< bytes the pages from page_ on hold
};

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
                           const BlockVisitor& on_block) const {
  if (block_size == 0) {
    throw std::invalid_argument(
        "Snapshot::walk_blocks: block_size must be > 0");
  }
  const bool fold = block_size == kDigestBlockSize && !hash_valid_;
  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t index = 0;
  const auto visit = [&](std::uint64_t hash, BlockPieces pieces) {
    if (fold) digest = fnv1a_u64(hash, digest);
    on_block(index++, hash, pieces);
  };
  std::array<std::vector<std::span<const std::byte>>, 4> pieces;
  PageCursor cursor(pages_, size_bytes_);
  // Four full blocks at a time, one chain each. A lane cursor per block
  // reads its block's page slices; the chains advance together up to the
  // nearest page boundary of any lane.
  for (std::size_t full = cursor.unread() / block_size; full >= 4;
       full -= 4) {
    std::array<PageCursor, 4> lanes{cursor, cursor, cursor, cursor};
    for (std::size_t k = 1; k < 4; ++k) {
      lanes[k] = lanes[k - 1];
      lanes[k].skip(block_size);
    }
    std::array<std::uint64_t, 4> hashes{kFnvOffsetBasis, kFnvOffsetBasis,
                                        kFnvOffsetBasis, kFnvOffsetBasis};
    std::array<std::span<const std::byte>, 4> unread;
    for (std::size_t left = block_size; left > 0;) {
      for (std::size_t k = 0; k < 4; ++k) {
        if (!unread[k].empty()) continue;
        unread[k] = lanes[k].next(left);
        pieces[k].push_back(unread[k]);
      }
      const std::size_t step =
          std::min({unread[0].size(), unread[1].size(), unread[2].size(),
                    unread[3].size()});
      hashes = fnv1a_x4({unread[0].first(step), unread[1].first(step),
                         unread[2].first(step), unread[3].first(step)},
                        hashes);
      for (auto& span : unread) span = span.subspan(step);
      left -= step;
    }
    for (std::size_t k = 0; k < 4; ++k) {
      visit(hashes[k], pieces[k]);
      pieces[k].clear();
    }
    cursor = lanes[3];
  }
  // The rest -- up to three full blocks and the short tail -- one chain.
  // Counted down, so a block size near 2^64 cannot wrap an end offset.
  auto& rest = pieces[0];
  while (true) {
    std::uint64_t hash = kFnvOffsetBasis;
    std::size_t left = block_size;
    for (auto piece = cursor.next(left); !piece.empty();
         piece = cursor.next(left)) {
      hash = fnv1a(piece, hash);
      rest.push_back(piece);
      left -= piece.size();
    }
    if (rest.empty()) break;
    visit(hash, rest);
    rest.clear();
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

std::vector<std::byte>& PageStore::writable_page(std::size_t index) {
  MutablePage& page = pages_[index];
  if (page.use_count() > 1) {
    // A snapshot still references this page: clone before mutating.
    page = std::make_shared<std::vector<std::byte>>(*page);
    ++cow_copies_;
  }
  return *page;
}

void PageStore::write(std::size_t offset, std::span<const std::byte> data) {
  // Subtraction-safe for the same wrap hazard as read().
  if (offset > size_bytes_ || data.size() > size_bytes_ - offset) {
    throw std::out_of_range("PageStore::write past end");
  }
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t page = pos / page_size_;
    const std::size_t in_page = pos % page_size_;
    const std::size_t take =
        std::min(data.size() - cursor, page_size_ - in_page);
    std::memcpy(writable_page(page).data() + in_page, data.data() + cursor,
                take);
    cursor += take;
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
  // order after it, or make_delta rejects a legitimate post-failover delta
  // with "base must precede current".
  version_ = std::max(version_, snapshot_image.version());
}

}  // namespace dckpt::ckpt
