#include "ckpt/ring.hpp"

#include <stdexcept>

#include "util/parse.hpp"

namespace dckpt::ckpt {

Topology parse_topology(std::string_view name) {
  return util::NamedValues<Topology>{{"pairs", Topology::Pairs},
                                     {"triples", Topology::Triples}}(name);
}

GroupAssignment::GroupAssignment(std::uint64_t nodes, Topology topology)
    : nodes_(nodes), topology_(topology) {
  const auto gs = static_cast<std::uint64_t>(group_size());
  if (nodes == 0 || nodes % gs != 0) {
    throw std::invalid_argument(
        "GroupAssignment: nodes must be a positive multiple of group size");
  }
}

void GroupAssignment::check_node(std::uint64_t node) const {
  if (node >= nodes_) throw std::out_of_range("GroupAssignment: node id");
}

std::uint64_t GroupAssignment::group_of(std::uint64_t node) const {
  check_node(node);
  return node / static_cast<std::uint64_t>(group_size());
}

std::vector<std::uint64_t> GroupAssignment::members(std::uint64_t group) const {
  if (group >= group_count()) {
    throw std::out_of_range("GroupAssignment: group id");
  }
  const auto gs = static_cast<std::uint64_t>(group_size());
  std::vector<std::uint64_t> out;
  out.reserve(gs);
  for (std::uint64_t i = 0; i < gs; ++i) out.push_back(group * gs + i);
  return out;
}

std::uint64_t GroupAssignment::preferred_buddy(std::uint64_t node) const {
  check_node(node);
  const auto gs = static_cast<std::uint64_t>(group_size());
  const std::uint64_t base = (node / gs) * gs;
  return base + (node - base + 1) % gs;
}

std::uint64_t GroupAssignment::secondary_buddy(std::uint64_t node) const {
  check_node(node);
  if (topology_ != Topology::Triples) {
    throw std::logic_error("secondary_buddy: pairs have a single buddy");
  }
  const std::uint64_t base = (node / 3) * 3;
  return base + (node - base + 2) % 3;
}

std::vector<std::uint64_t> GroupAssignment::stored_for(
    std::uint64_t node) const {
  check_node(node);
  if (topology_ == Topology::Pairs) {
    return {preferred_buddy(node)};
  }
  // node is preferred buddy of its predecessor and secondary of the other.
  const std::uint64_t base = (node / 3) * 3;
  const std::uint64_t pred = base + (node - base + 2) % 3;
  const std::uint64_t other = base + (node - base + 1) % 3;
  return {pred, other};
}

std::array<std::uint64_t, 2> GroupAssignment::holders(
    std::uint64_t owner) const {
  if (topology_ == Topology::Pairs) return {owner, preferred_buddy(owner)};
  return {preferred_buddy(owner), secondary_buddy(owner)};
}

}  // namespace dckpt::ckpt
