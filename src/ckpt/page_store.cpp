#include "ckpt/page_store.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dckpt::ckpt {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Advances two FNV-1a chains over the same bytes in one loop. The chains'
/// multiplies are independent, so the CPU overlaps them and the pair costs
/// about as much as one chain.
void fnv1a_pair(std::span<const std::byte> data, std::uint64_t& first,
                std::uint64_t& second) {
  std::uint64_t a = first;
  std::uint64_t b = second;
  for (std::byte byte : data) {
    const auto value = static_cast<std::uint64_t>(byte);
    a = (a ^ value) * kFnvPrime;
    b = (b ^ value) * kFnvPrime;
  }
  first = a;
  second = b;
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

// ------------------------------------------------------------------ Snapshot

Snapshot::Snapshot(std::vector<Page> pages, std::size_t size_bytes,
                   std::uint64_t version, std::uint64_t owner)
    : pages_(std::move(pages)), size_bytes_(size_bytes), version_(version),
      owner_(owner) {}

std::uint64_t Snapshot::content_hash() const {
  if (!hash_valid_) {  // the walk computes and caches the digest
    walk_blocks(std::numeric_limits<std::size_t>::max(),
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
  std::uint64_t whole = kFnvOffset;
  std::uint64_t block_hash = kFnvOffset;
  std::size_t index = 0;
  // Counted down, so a block size near 2^64 cannot wrap an end offset.
  std::size_t block_left = block_size;
  std::vector<std::span<const std::byte>> pieces;
  std::size_t remaining = size_bytes_;
  for (const auto& page : pages_) {
    const std::size_t take = std::min(remaining, page->size());
    remaining -= take;
    std::span<const std::byte> rest(page->data(), take);
    while (!rest.empty()) {
      const auto piece = rest.first(std::min(rest.size(), block_left));
      rest = rest.subspan(piece.size());
      fnv1a_pair(piece, block_hash, whole);
      pieces.push_back(piece);
      block_left -= piece.size();
      if (block_left == 0) {
        on_block(index++, block_hash, pieces);
        pieces.clear();
        block_hash = kFnvOffset;
        block_left = block_size;
      }
    }
  }
  if (!pieces.empty()) on_block(index, block_hash, pieces);  // short tail
  if (!hash_valid_) {  // a cached digest is kept, never rewritten
    cached_hash_ = whole;
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
