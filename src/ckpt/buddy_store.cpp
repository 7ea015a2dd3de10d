#include "ckpt/buddy_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dckpt::ckpt {

BuddyStore::BuddyStore(std::uint64_t node, std::size_t capacity_images,
                       std::size_t retain_sets)
    : node_(node), capacity_(capacity_images), retain_(retain_sets) {
  if (capacity_images == 0) {
    throw std::invalid_argument("BuddyStore: zero capacity");
  }
  if (retain_sets == 0) {
    throw std::invalid_argument("BuddyStore: zero retention");
  }
}

void BuddyStore::stage(const Snapshot& image) {
  if (image.empty()) throw std::invalid_argument("BuddyStore: empty image");
  if (!staged_.empty()) {
    const std::uint64_t current = staged_.begin()->second.version();
    if (image.version() != current) {
      throw std::logic_error(
          "BuddyStore: staging set already holds a different version");
    }
  }
  auto it = staged_.find(image.owner());
  if (it == staged_.end() && staged_.size() >= capacity_) {
    throw std::logic_error("BuddyStore: staging capacity exceeded");
  }
  staged_.insert_or_assign(image.owner(), image);
}

void BuddyStore::promote(std::uint64_t version) {
  if (staged_.empty() || staged_.begin()->second.version() != version) {
    throw std::logic_error("BuddyStore: no staged set of that version");
  }
  if (retain_ > 1) {
    // Outgoing committed set becomes history depth 1. The push happens even
    // for an empty set (a freshly replaced node): every store advances its
    // ring on every commit, so a given depth means the same commit on all
    // stores.
    history_.push_front(RetainedSet{std::move(committed_), committed_version_});
    while (history_.size() > retain_ - 1) history_.pop_back();
  }
  committed_ = std::move(staged_);
  staged_.clear();
  chains_.clear();  // a fresh full set supersedes every differential chain
  committed_version_ = version;
}

void BuddyStore::discard_staged() { staged_.clear(); }

void BuddyStore::restore_committed(const Snapshot& image) {
  if (image.empty()) throw std::invalid_argument("BuddyStore: empty image");
  auto it = committed_.find(image.owner());
  if (it == committed_.end() && committed_.size() >= capacity_) {
    throw std::logic_error("BuddyStore: committed capacity exceeded");
  }
  committed_.insert_or_assign(image.owner(), image);
  chains_.erase(image.owner());  // refills deliver flattened images
  committed_version_ = std::max(committed_version_, image.version());
}

bool BuddyStore::corrupt_committed(std::uint64_t owner, bool torn) {
  auto it = committed_.find(owner);
  if (it == committed_.end()) return false;
  it->second = torn ? torn_copy(it->second) : corrupt_copy(it->second);
  return true;
}

std::optional<Snapshot> BuddyStore::committed_for(std::uint64_t owner) const {
  auto it = committed_.find(owner);
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

std::optional<Snapshot> BuddyStore::committed_at(std::size_t depth,
                                                 std::uint64_t owner) const {
  if (depth == 0) return committed_for(owner);
  if (depth - 1 >= history_.size()) return std::nullopt;
  const auto& images = history_[depth - 1].images;
  auto it = images.find(owner);
  if (it == images.end()) return std::nullopt;
  return it->second;
}

bool BuddyStore::append_delta(BlockDelta layer) {
  if (committed_.find(layer.owner()) == committed_.end()) return false;
  chains_[layer.owner()].push_back(std::move(layer));
  return true;
}

const std::vector<BlockDelta>& BuddyStore::chain_for(
    std::uint64_t owner) const {
  static const std::vector<BlockDelta> kEmpty;
  auto it = chains_.find(owner);
  return it == chains_.end() ? kEmpty : it->second;
}

bool BuddyStore::corrupt_delta(std::uint64_t owner, std::size_t depth) {
  auto it = chains_.find(owner);
  if (it == chains_.end() || depth == 0 || it->second.size() < depth) {
    return false;
  }
  BlockDelta& layer = it->second[depth - 1];
  layer = torn_layer_copy(layer);
  return true;
}

std::optional<Snapshot> BuddyStore::staged_for(std::uint64_t owner) const {
  auto it = staged_.find(owner);
  if (it == staged_.end()) return std::nullopt;
  return it->second;
}

void BuddyStore::drop_newest(std::size_t count) {
  if (count > 0) chains_.clear();  // chains belong to the discarded set
  for (std::size_t i = 0; i < count; ++i) {
    if (history_.empty()) {
      committed_.clear();
      committed_version_ = 0;
    } else {
      committed_ = std::move(history_.front().images);
      committed_version_ = history_.front().version;
      history_.pop_front();
    }
  }
}

std::size_t BuddyStore::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& [owner, image] : committed_) total += image.size_bytes();
  for (const auto& [owner, image] : staged_) total += image.size_bytes();
  for (const auto& set : history_) {
    for (const auto& [owner, image] : set.images) total += image.size_bytes();
  }
  for (const auto& [owner, chain] : chains_) {
    for (const BlockDelta& layer : chain) total += layer.delta_bytes();
  }
  return total;
}

}  // namespace dckpt::ckpt
