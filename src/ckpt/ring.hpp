// Buddy-group topology: partitions node ids into pairs or triples and
// answers "who stores whose checkpoint".
//
// Pairs (double protocols): nodes (2k, 2k+1) exchange images.
// Triples: within (3k, 3k+1, 3k+2) buddies rotate as in the paper (Sec. IV):
// p's preferred buddy is p', p's secondary is p''; p' prefers p'' and keeps
// p as secondary; p'' prefers p and keeps p' as secondary.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dckpt::ckpt {

enum class Topology { Pairs, Triples };

/// The topology a --topology value names: "pairs" or "triples". Throws
/// std::invalid_argument on any other name (a CliParser::get_parsed
/// converter).
Topology parse_topology(std::string_view name);

class GroupAssignment {
 public:
  /// `nodes` must be a positive multiple of the group size.
  GroupAssignment(std::uint64_t nodes, Topology topology);

  std::uint64_t nodes() const noexcept { return nodes_; }
  Topology topology() const noexcept { return topology_; }
  int group_size() const noexcept {
    return topology_ == Topology::Pairs ? 2 : 3;
  }
  std::uint64_t group_count() const noexcept {
    return nodes_ / static_cast<std::uint64_t>(group_size());
  }

  std::uint64_t group_of(std::uint64_t node) const;

  /// Members of a group, in node-id order.
  std::vector<std::uint64_t> members(std::uint64_t group) const;

  /// The node that receives `node`'s checkpoint first. For pairs: the buddy.
  /// For triples: the preferred buddy (next in the rotation).
  std::uint64_t preferred_buddy(std::uint64_t node) const;

  /// Triples only: the second receiver of `node`'s checkpoint.
  std::uint64_t secondary_buddy(std::uint64_t node) const;

  /// Nodes whose checkpoints `node` stores (inverse of the buddy maps).
  std::vector<std::uint64_t> stored_for(std::uint64_t node) const;

  /// The placement rule: the two nodes that store `owner`'s checkpoint, in
  /// the order a restore tries them. Pairs keep a local copy, then one on
  /// the buddy; triples keep it on the preferred, then the secondary buddy.
  std::array<std::uint64_t, 2> holders(std::uint64_t owner) const;

 private:
  void check_node(std::uint64_t node) const;

  std::uint64_t nodes_;
  Topology topology_;
};

}  // namespace dckpt::ckpt
