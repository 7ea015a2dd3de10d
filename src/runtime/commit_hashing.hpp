// Per-node hashing of a checkpoint commit, run on the stepping pool.
//
// What a commit costs is reading every node's image: the content hash on a
// full commit (plus the dcp block hash array when dcp is on), the block
// diff on a delta commit. Both coordinators call these two functions with
// the pool that runs their steps, which sits idle during a commit. Node
// i's task reads only images[i] and writes only slot i of the outputs, so
// the result is the same at any thread count; staging, appends, promotion
// and counters stay with the caller, serial and in node order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/dcp.hpp"
#include "ckpt/page_store.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::runtime {

/// Full commit: returns every image's content hash, now cached in the
/// snapshot so each staged copy carries it. With `block_size` > 0 (dcp on)
/// the same walk also fills hash_arrays[i] with image i's block hashes;
/// with 0, hash_arrays is left alone.
std::vector<std::uint64_t> hash_full_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays);

/// Delta commit: diffs images[i] against hash_arrays[i], the cached array
/// of node i's committed image (snapshot version `base_version`, content
/// hash base_hashes[i]), and replaces the array with image i's own -- one
/// walk per image. Returns the layers in node order.
std::vector<ckpt::BlockDelta> diff_delta_commit(
    util::ThreadPool& pool, std::span<const ckpt::Snapshot> images,
    std::uint64_t base_version, std::span<const std::uint64_t> base_hashes,
    std::size_t block_size,
    std::vector<std::vector<std::uint64_t>>& hash_arrays);

}  // namespace dckpt::runtime
