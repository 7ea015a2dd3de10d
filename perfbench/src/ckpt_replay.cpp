// Traced replay of the checkpoint layer for the runtime workloads.
//
// Coordinator::run is opaque from outside, so the traced run replays what
// it does to `ckpt` through the public calls, in the coordinators' order:
// a full commit (begin_checkpoint + commit_checkpoint: snapshot every node,
// then per node content_hash, block_hashes and a stage on each holder, then
// promote), K - 1 delta commits (commit_delta_checkpoint: snapshot, then
// make_block_delta, append_delta on each holder, content_hash,
// block_hashes), and one loss-and-recovery per node at chain depth 0 and at
// depth K - 1 (recover_node, then restore_replicas). Images have the
// workload's size, block size and dirty pattern.
#include "bench.hpp"
#include "ckpt/dcp.hpp"
#include "ckpt/recovery.hpp"

namespace perfbench {

namespace ck = dckpt::ckpt;

namespace {

// Full K-commit cycles replayed; per-call metrics are means over all of them.
constexpr int kCycles = 3;

std::span<const std::byte> bytes_of(std::span<const double> v) {
  return std::as_bytes(v);
}

std::vector<std::uint64_t> holders_of(const ck::GroupAssignment& groups,
                                      std::uint64_t node) {
  if (groups.topology() == ck::Topology::Pairs) {
    return {node, groups.preferred_buddy(node)};
  }
  return {groups.preferred_buddy(node), groups.secondary_buddy(node)};
}

double mean_us(const Tracer& tracer, std::string_view name) {
  return mean(tracer.durations_s(name)) * 1e6;
}

}  // namespace

void ckpt_layers(Tracer& tracer, const ReplayGeometry& g, Outcome& out) {
  const std::size_t cells = g.image_bytes / sizeof(double);
  const ck::GroupAssignment groups(g.nodes, g.topology);
  std::vector<ck::PageStore> memory;
  std::vector<ck::BuddyStore> stores;
  std::vector<double> prev(cells);
  std::vector<double> next(cells);
  for (std::uint64_t node = 0; node < g.nodes; ++node) {
    memory.emplace_back(g.image_bytes);
    stores.emplace_back(node, 2, 1);
    g.init(node, next);
    memory.back().write(0, bytes_of(next));
  }
  std::vector<std::uint64_t> committed_hash(g.nodes);
  std::vector<std::uint64_t> tip_version(g.nodes);
  std::vector<std::vector<std::uint64_t>> hash_arrays(g.nodes);
  std::vector<double> dirty_ratio;
  std::vector<double> delta_bytes;
  std::vector<std::uint64_t> full_commits;  // span ids

  // Loses `victim`'s storage in a copy of the platform, then recovers the
  // node's image and refills what it held for its peers.
  const auto loss_and_recovery = [&](std::uint64_t victim, const char* span,
                                     std::size_t depth) {
    std::vector<ck::BuddyStore> platform = stores;
    platform[victim] = ck::BuddyStore(victim, 2, 1);
    std::vector<ck::BuddyStore*> directory;
    for (auto& s : platform) directory.push_back(&s);
    ck::PageStore spare(g.image_bytes);
    ck::RecoveryOutcome recovered;
    {
      Scope scope(&tracer, span);
      recovered = ck::recover_node(victim, groups, directory, spare,
                                   committed_hash[victim]);
    }
    out.check(recovered.ok() && recovered.replayed_layers == depth,
              "replay: node " + std::to_string(victim) + " did not recover");
    ck::ReplicationOutcome refill;
    {
      Scope scope(&tracer, "ckpt.recovery.restore_replicas");
      refill = ck::restore_replicas(victim, groups, directory, committed_hash);
    }
    out.check(refill.unavailable == 0 && refill.corrupt_skipped == 0,
              "replay: refill of node " + std::to_string(victim) + " incomplete");
  };

  const auto advance = [&](std::uint64_t node) {
    for (std::uint64_t s = 0; s < g.interval; ++s) {
      memory[node].read(0, std::as_writable_bytes(std::span(prev)));
      g.step(node, prev, next);
      memory[node].write(0, bytes_of(next));
    }
  };

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    {
      Scope full(&tracer, "ckpt.full_commit");
      full_commits.push_back(full.id());
      std::vector<ck::Snapshot> images;
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        Scope s(&tracer, "ckpt.page_store.snapshot", full.id());
        images.push_back(memory[node].snapshot(node));
      }
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        const ck::Snapshot& image = images[node];
        {
          Scope s(&tracer, "ckpt.page_store.content_hash", full.id());
          committed_hash[node] = image.content_hash();
        }
        {
          Scope s(&tracer, "ckpt.dcp.block_hashes", full.id());
          hash_arrays[node] = ck::block_hashes(image, g.block_size);
        }
        for (const std::uint64_t holder : holders_of(groups, node)) {
          Scope s(&tracer, "ckpt.buddy_store.stage", full.id());
          stores[holder].stage(image);
        }
        tip_version[node] = image.version();
      }
      // commit_checkpoint's integrity gate, then the promotion everywhere.
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        Scope s(&tracer, "ckpt.buddy_store.verify_staged", full.id());
        const auto staged =
            stores[groups.preferred_buddy(node)].staged_for(node);
        out.check(staged && staged->verify(committed_hash[node]),
                  "replay: staged image failed verification");
      }
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        Scope s(&tracer, "ckpt.buddy_store.promote", full.id());
        stores[node].promote(images.front().version());
      }
    }
    for (std::uint64_t node = 0; node < g.nodes; ++node) {
      loss_and_recovery(node, "ckpt.recovery.recover_node.d0", 0);
    }

    for (std::uint64_t layer = 1; layer < g.stack_size; ++layer) {
      for (std::uint64_t node = 0; node < g.nodes; ++node) advance(node);
      Scope delta(&tracer, "ckpt.delta_commit");
      std::vector<ck::Snapshot> images;
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        Scope s(&tracer, "ckpt.page_store.snapshot", delta.id());
        images.push_back(memory[node].snapshot(node));
      }
      for (std::uint64_t node = 0; node < g.nodes; ++node) {
        const ck::Snapshot& image = images[node];
        ck::BlockDelta diff;
        {
          Scope s(&tracer, "ckpt.dcp.make_block_delta", delta.id());
          diff = ck::make_block_delta(hash_arrays[node], tip_version[node],
                                      committed_hash[node], image, g.block_size);
        }
        for (const std::uint64_t holder : holders_of(groups, node)) {
          bool appended = false;
          {
            Scope s(&tracer, "ckpt.buddy_store.append_delta", delta.id());
            appended = stores[holder].append_delta(diff);
          }
          out.check(appended, "replay: append_delta refused");
        }
        {
          Scope s(&tracer, "ckpt.page_store.content_hash", delta.id());
          committed_hash[node] = image.content_hash();
        }
        {
          Scope s(&tracer, "ckpt.dcp.block_hashes", delta.id());
          hash_arrays[node] = ck::block_hashes(image, g.block_size);
        }
        tip_version[node] = image.version();
        dirty_ratio.push_back(diff.dirty_ratio());
        delta_bytes.push_back(static_cast<double>(diff.delta_bytes()));
      }
    }
    const std::size_t depth = g.stack_size - 1;
    for (std::uint64_t node = 0; node < g.nodes; ++node) {
      loss_and_recovery(node, "ckpt.recovery.recover_node.dmax", depth);
    }
    // Chain replay layer by layer, from a holder's committed base.
    for (std::uint64_t node = 0; node < g.nodes; ++node) {
      const ck::BuddyStore& holder = stores[holders_of(groups, node).back()];
      auto image = holder.committed_for(node);
      out.check(image.has_value(), "replay: holder lost its base");
      if (!image) continue;
      for (const ck::BlockDelta& layer : holder.chain_for(node)) {
        Scope s(&tracer, "ckpt.dcp.apply_block_delta");
        image = ck::apply_block_delta(*image, layer);
      }
      out.check(image->content_hash() == committed_hash[node],
                "replay: chain tip of node " + std::to_string(node) +
                    " does not hash to the committed digest");
    }
    for (std::uint64_t node = 0; node < g.nodes; ++node) advance(node);
  }

  const double per_node = static_cast<double>(g.nodes * kCycles);
  // Only the full commit's content_hash hashes the image: on the delta path
  // make_block_delta has already computed (and cached) it.
  std::vector<double> hashing;
  for (const std::uint64_t parent : full_commits) {
    const auto d = tracer.durations_under("ckpt.page_store.content_hash", parent);
    hashing.insert(hashing.end(), d.begin(), d.end());
  }
  const double content_hash_s = mean(hashing);
  out.metric("ckpt.page_store.snapshot_us",
             mean_us(tracer, "ckpt.page_store.snapshot"), "us");
  out.metric("ckpt.page_store.content_hash_us", content_hash_s * 1e6, "us");
  out.metric("ckpt.page_store.hash_gb_per_s",
             static_cast<double>(g.image_bytes) / content_hash_s * 1e-9,
             "GB/s");
  out.metric("ckpt.dcp.block_hashes_us",
             mean_us(tracer, "ckpt.dcp.block_hashes"), "us");
  out.metric("ckpt.dcp.make_block_delta_us",
             mean_us(tracer, "ckpt.dcp.make_block_delta"), "us");
  out.metric("ckpt.buddy_store.append_delta_us",
             mean_us(tracer, "ckpt.buddy_store.append_delta"), "us");
  out.metric("ckpt.buddy_store.stage_promote_us",
             (tracer.total_s("ckpt.buddy_store.stage") +
              tracer.total_s("ckpt.buddy_store.promote")) /
                 per_node * 1e6,
             "us");
  out.metric("ckpt.full_commit_us",
             tracer.total_s("ckpt.full_commit") / per_node * 1e6, "us");
  out.metric("ckpt.delta_commit_us",
             tracer.total_s("ckpt.delta_commit") /
                 (per_node * static_cast<double>(g.stack_size - 1)) * 1e6,
             "us");
  out.metric("ckpt.dcp.dirty_ratio", mean(dirty_ratio), "ratio");
  out.metric("ckpt.dcp.delta_bytes", mean(delta_bytes), "bytes");
  out.metric("ckpt.recovery.recover_node_us.d0",
             mean_us(tracer, "ckpt.recovery.recover_node.d0"), "us");
  out.metric("ckpt.recovery.recover_node_us.dmax",
             mean_us(tracer, "ckpt.recovery.recover_node.dmax"), "us");
  out.metric("ckpt.dcp.apply_block_delta_us",
             mean_us(tracer, "ckpt.dcp.apply_block_delta"), "us");
  out.metric("ckpt.recovery.restore_replicas_us",
             mean_us(tracer, "ckpt.recovery.restore_replicas"), "us");
}

}  // namespace perfbench
