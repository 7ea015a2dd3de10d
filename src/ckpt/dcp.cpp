#include "ckpt/dcp.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace dckpt::ckpt {

namespace {

std::size_t block_count(std::size_t size_bytes, std::size_t block_size) {
  // Not (size + block_size - 1) / block_size: that wraps to 0 blocks for
  // block sizes near 2^64.
  return size_bytes == 0 ? 0 : (size_bytes - 1) / block_size + 1;
}

/// FNV-1a of the payloads of blocks[first .. first + 3], on four chains;
/// a lane past the end hashes nothing.
std::array<std::uint64_t, 4> four_payload_hashes(
    const std::vector<DcpBlock>& blocks, std::size_t first) {
  std::array<std::span<const std::byte>, 4> payloads;
  for (std::size_t k = 0; k < 4 && first + k < blocks.size(); ++k) {
    payloads[k] = blocks[first + k].payload;
  }
  return fnv1a_x4(payloads);
}

/// The self hash of `layer`: its metadata, then each block's index, size
/// and payload_hash(i), the FNV-1a of block i's payload, folded in order.
template <typename PayloadHash>
std::uint64_t fold_self_hash(const BlockDelta& layer,
                             PayloadHash&& payload_hash) {
  const std::vector<DcpBlock>& blocks = layer.blocks();
  std::uint64_t h = fnv1a_u64(layer.owner());
  h = fnv1a_u64(layer.base_version(), h);
  h = fnv1a_u64(layer.version(), h);
  h = fnv1a_u64(layer.size_bytes(), h);
  h = fnv1a_u64(layer.block_size(), h);
  h = fnv1a_u64(layer.base_hash(), h);
  h = fnv1a_u64(layer.result_hash(), h);
  h = fnv1a_u64(blocks.size(), h);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    h = fnv1a_u64(blocks[i].index, h);
    h = fnv1a_u64(blocks[i].payload.size(), h);
    h = fnv1a_u64(payload_hash(i), h);
  }
  return h;
}

}  // namespace

BlockDelta::BlockDelta(std::uint64_t owner, std::uint64_t base_version,
                       std::uint64_t version, std::size_t size_bytes,
                       std::size_t block_size, std::uint64_t base_hash,
                       std::uint64_t result_hash, std::vector<DcpBlock> blocks,
                       std::span<const std::uint64_t> payload_hashes)
    : owner_(owner),
      base_version_(base_version),
      version_(version),
      size_bytes_(size_bytes),
      block_size_(block_size),
      base_hash_(base_hash),
      result_hash_(result_hash) {
  if (block_size_ == 0) {
    throw std::invalid_argument("BlockDelta: block_size must be > 0");
  }
  if (payload_hashes.size() != blocks.size()) {
    throw std::invalid_argument("BlockDelta: want one payload hash per block");
  }
  blocks_ = std::make_shared<const std::vector<DcpBlock>>(std::move(blocks));
  stored_self_hash_ = fold_self_hash(
      *this, [&](std::size_t i) { return payload_hashes[i]; });
}

const std::vector<DcpBlock>& BlockDelta::blocks() const noexcept {
  static const std::vector<DcpBlock> kNone;
  return blocks_ ? *blocks_ : kNone;
}

std::size_t BlockDelta::delta_bytes() const {
  std::size_t total = 0;
  for (const DcpBlock& block : blocks()) total += block.payload.size();
  return total;
}

double BlockDelta::dirty_ratio() const noexcept {
  const std::size_t count = block_count(size_bytes_, block_size_);
  return count ? static_cast<double>(dirty_blocks()) /
                     static_cast<double>(count)
               : 0.0;
}

bool BlockDelta::verify_self() const {
  // Each payload's own FNV-1a, read four payloads at a time.
  std::array<std::uint64_t, 4> four{};
  const std::uint64_t read = fold_self_hash(*this, [&](std::size_t i) {
    if (i % 4 == 0) four = four_payload_hashes(blocks(), i);
    return four[i % 4];
  });
  return read == stored_self_hash_;
}

std::vector<std::uint64_t> block_hashes(const Snapshot& image,
                                        std::size_t block_size) {
  if (block_size == 0) {
    throw std::invalid_argument("block_hashes: block_size must be > 0");
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(block_count(image.size_bytes(), block_size));
  image.walk_blocks(
      block_size, [&](std::size_t, std::uint64_t hash, Snapshot::BlockPieces) {
        hashes.push_back(hash);
      });
  return hashes;
}

BlockDiff diff_blocks(const std::vector<std::uint64_t>& base_hashes,
                      std::uint64_t base_version, std::uint64_t base_hash,
                      const Snapshot& current, std::size_t block_size,
                      HashReference reference) {
  if (block_size == 0) {
    throw std::invalid_argument("diff_blocks: block_size must be > 0");
  }
  if (base_version >= current.version()) {
    throw std::invalid_argument(
        "diff_blocks: base must predate current (base v" +
        std::to_string(base_version) + ", current v" +
        std::to_string(current.version()) + ")");
  }
  const std::size_t count = block_count(current.size_bytes(), block_size);
  if (base_hashes.size() != count) {
    throw std::invalid_argument(
        "diff_blocks: base hash array has " +
        std::to_string(base_hashes.size()) + " entries, want " +
        std::to_string(count));
  }
  std::vector<std::uint64_t> hashes;
  hashes.reserve(count);
  std::vector<DcpBlock> blocks;
  std::vector<std::uint64_t> dirty_hashes;  // the self hash folds these
  current.walk_blocks(
      block_size, [&](std::size_t index, std::uint64_t hash,
                      Snapshot::BlockPieces pieces) {
        hashes.push_back(hash);
        if (hash == base_hashes[index]) return;
        dirty_hashes.push_back(hash);
        DcpBlock& block = blocks.emplace_back();
        block.index = index;
        for (const auto piece : pieces) {
          block.payload.insert(block.payload.end(), piece.begin(),
                               piece.end());
        }
      },
      reference);
  return {BlockDelta(current.owner(), base_version, current.version(),
                     current.size_bytes(), block_size, base_hash,
                     current.content_hash(), std::move(blocks), dirty_hashes),
          std::move(hashes)};
}

BlockDelta make_block_delta(const std::vector<std::uint64_t>& base_hashes,
                            std::uint64_t base_version,
                            std::uint64_t base_hash, const Snapshot& current,
                            std::size_t block_size) {
  return diff_blocks(base_hashes, base_version, base_hash, current,
                     block_size)
      .layer;
}

Snapshot apply_block_delta(const Snapshot& base, const BlockDelta& delta) {
  if (base.owner() != delta.owner()) {
    throw std::invalid_argument("apply_block_delta: owner mismatch");
  }
  if (base.size_bytes() != delta.size_bytes()) {
    throw std::invalid_argument("apply_block_delta: layout mismatch");
  }
  if (base.version() != delta.base_version()) {
    throw std::invalid_argument(
        "apply_block_delta: delta diffed against v" +
        std::to_string(delta.base_version()) + ", base is v" +
        std::to_string(base.version()));
  }
  // Byte offset of every page's first meaningful byte, plus the end.
  const std::vector<Snapshot::Page>& originals = base.pages();
  std::vector<std::size_t> page_start{0};
  for (const Snapshot::Page& page : originals) {
    page_start.push_back(page_start.back() +
                         std::min(page->size(),
                                  base.size_bytes() - page_start.back()));
  }
  const std::size_t size = page_start.back();
  std::vector<Snapshot::Page> pages = originals;
  std::vector<std::shared_ptr<std::vector<std::byte>>> fresh(pages.size());
  for (const DcpBlock& block : delta.blocks()) {
    // index <= size / block_size keeps index * block_size from wrapping.
    if (block.index > size / delta.block_size() ||
        block.payload.size() > size - block.index * delta.block_size()) {
      throw std::invalid_argument(
          "apply_block_delta: block " + std::to_string(block.index) +
          " exceeds the image");
    }
    // Copy the payload into each page it covers. A page's first touch
    // makes it fresh: built from the payload when that covers all of it,
    // else a copy of the base page.
    std::size_t at = block.index * delta.block_size();
    std::span<const std::byte> rest = block.payload;
    for (auto k = static_cast<std::size_t>(
             std::upper_bound(page_start.begin(), page_start.end(), at) -
             page_start.begin() - 1);
         !rest.empty(); ++k) {
      const std::size_t in_page = at - page_start[k];
      const auto piece = rest.first(
          std::min(rest.size(), page_start[k + 1] - page_start[k] - in_page));
      if (piece.empty()) continue;
      if (!fresh[k] && piece.size() == originals[k]->size()) {
        fresh[k] = std::make_shared<std::vector<std::byte>>(piece.begin(),
                                                            piece.end());
      } else {
        if (!fresh[k]) {
          fresh[k] = std::make_shared<std::vector<std::byte>>(*originals[k]);
        }
        std::memcpy(fresh[k]->data() + in_page, piece.data(), piece.size());
      }
      pages[k] = fresh[k];
      rest = rest.subspan(piece.size());
      at += piece.size();
    }
  }
  return Snapshot(std::move(pages), base.size_bytes(), delta.version(),
                  delta.owner());
}

BlockDelta torn_layer_copy(const BlockDelta& layer) {
  BlockDelta torn = layer;
  if (layer.blocks().empty()) {
    torn.stored_self_hash_ ^= 1;  // nothing to truncate; still detectable
    return torn;
  }
  // The blocks are shared with `layer` and its other copies: tear a private
  // copy of them.
  auto blocks = std::make_shared<std::vector<DcpBlock>>(layer.blocks());
  std::vector<std::byte>& payload = blocks->back().payload;
  payload.resize(payload.size() / 2);  // prefix-only delivery
  torn.blocks_ = std::move(blocks);
  return torn;
}

}  // namespace dckpt::ckpt
