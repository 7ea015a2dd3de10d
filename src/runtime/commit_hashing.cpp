#include "runtime/commit_hashing.hpp"

#include <functional>
#include <utility>

namespace dckpt::runtime {

namespace {

/// Runs work(i) for every node on `pool`, one task per node: nodes with
/// more dirty blocks take longer, and the pool's queue evens that out.
void for_each_node(util::ThreadPool& pool, std::size_t nodes,
                   const std::function<void(std::size_t)>& work) {
  util::parallel_for_chunked(
      pool, nodes, nodes,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t node = begin; node < end; ++node) work(node);
      });
}

}  // namespace

std::vector<std::uint64_t> hash_full_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays) {
  std::vector<std::uint64_t> digests(images.size());
  if (block_size > 0) hash_arrays.assign(images.size(), {});
  for_each_node(pool, images.size(), [&](std::size_t node) {
    // block_hashes caches the content hash in its own walk, so the
    // content_hash() after it reads the cache.
    if (block_size > 0) {
      hash_arrays[node] = ckpt::block_hashes(images[node], block_size);
    }
    digests[node] = images[node].content_hash();
  });
  return digests;
}

std::vector<ckpt::BlockDelta> diff_delta_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::uint64_t base_version, std::span<const std::uint64_t> base_hashes,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays) {
  std::vector<ckpt::BlockDelta> layers(images.size());
  for_each_node(pool, images.size(), [&](std::size_t node) {
    ckpt::BlockDiff diff =
        ckpt::diff_blocks(hash_arrays[node], base_version, base_hashes[node],
                          images[node], block_size);
    layers[node] = std::move(diff.layer);
    hash_arrays[node] = std::move(diff.hashes);
  });
  return layers;
}

}  // namespace dckpt::runtime
