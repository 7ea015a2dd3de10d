#include "ckpt/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace {

using dckpt::ckpt::GroupAssignment;
using dckpt::ckpt::Topology;

TEST(GroupAssignmentTest, PairTopology) {
  GroupAssignment groups(8, Topology::Pairs);
  EXPECT_EQ(groups.group_size(), 2);
  EXPECT_EQ(groups.group_count(), 4u);
  EXPECT_EQ(groups.group_of(0), 0u);
  EXPECT_EQ(groups.group_of(5), 2u);
  EXPECT_EQ(groups.preferred_buddy(0), 1u);
  EXPECT_EQ(groups.preferred_buddy(1), 0u);
  EXPECT_EQ(groups.preferred_buddy(6), 7u);
  EXPECT_EQ(groups.preferred_buddy(7), 6u);
}

TEST(GroupAssignmentTest, PairsHaveNoSecondaryBuddy) {
  GroupAssignment groups(4, Topology::Pairs);
  EXPECT_THROW(groups.secondary_buddy(0), std::logic_error);
}

TEST(GroupAssignmentTest, TripleRotationMatchesPaper) {
  // Paper Sec. IV: p -> p' preferred, p'' secondary; p' -> p'' preferred,
  // p secondary; p'' -> p preferred, p' secondary.
  GroupAssignment groups(9, Topology::Triples);
  const std::uint64_t p = 3, p1 = 4, p2 = 5;
  EXPECT_EQ(groups.preferred_buddy(p), p1);
  EXPECT_EQ(groups.secondary_buddy(p), p2);
  EXPECT_EQ(groups.preferred_buddy(p1), p2);
  EXPECT_EQ(groups.secondary_buddy(p1), p);
  EXPECT_EQ(groups.preferred_buddy(p2), p);
  EXPECT_EQ(groups.secondary_buddy(p2), p1);
}

TEST(GroupAssignmentTest, MembersAreContiguous) {
  GroupAssignment groups(9, Topology::Triples);
  EXPECT_EQ(groups.members(1), (std::vector<std::uint64_t>{3, 4, 5}));
  GroupAssignment pairs(6, Topology::Pairs);
  EXPECT_EQ(pairs.members(2), (std::vector<std::uint64_t>{4, 5}));
}

TEST(GroupAssignmentTest, StoredForIsInverseOfBuddyMaps) {
  GroupAssignment triples(9, Topology::Triples);
  for (std::uint64_t node = 0; node < 9; ++node) {
    // `node` appears in stored_for(x) exactly when x receives node's image.
    for (std::uint64_t holder : {triples.preferred_buddy(node),
                                 triples.secondary_buddy(node)}) {
      const auto held = triples.stored_for(holder);
      EXPECT_NE(std::find(held.begin(), held.end(), node), held.end())
          << "node " << node << " holder " << holder;
    }
  }
}

TEST(GroupAssignmentTest, EveryTripleNodeStoresExactlyTwo) {
  GroupAssignment triples(6, Topology::Triples);
  for (std::uint64_t node = 0; node < 6; ++node) {
    EXPECT_EQ(triples.stored_for(node).size(), 2u);
  }
}

TEST(GroupAssignmentTest, EveryPairNodeStoresExactlyOne) {
  GroupAssignment pairs(6, Topology::Pairs);
  for (std::uint64_t node = 0; node < 6; ++node) {
    const auto held = pairs.stored_for(node);
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0], pairs.preferred_buddy(node));
  }
}

TEST(GroupAssignmentTest, BuddiesStayInGroup) {
  GroupAssignment triples(12, Topology::Triples);
  for (std::uint64_t node = 0; node < 12; ++node) {
    EXPECT_EQ(triples.group_of(triples.preferred_buddy(node)),
              triples.group_of(node));
    EXPECT_EQ(triples.group_of(triples.secondary_buddy(node)),
              triples.group_of(node));
    EXPECT_NE(triples.preferred_buddy(node), node);
    EXPECT_NE(triples.secondary_buddy(node), node);
    EXPECT_NE(triples.preferred_buddy(node), triples.secondary_buddy(node));
  }
}

TEST(GroupAssignmentTest, HoldersFollowThePlacementRule) {
  // Pairs keep an image locally and on the buddy; triples keep it on the
  // preferred, then the secondary buddy (paper Sec. IV).
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    const GroupAssignment groups(12, topology);
    for (std::uint64_t owner = 0; owner < 12; ++owner) {
      const auto holders = groups.holders(owner);
      if (topology == Topology::Pairs) {
        EXPECT_EQ(holders[0], owner);
        EXPECT_EQ(holders[1], groups.preferred_buddy(owner));
      } else {
        EXPECT_EQ(holders[0], groups.preferred_buddy(owner));
        EXPECT_EQ(holders[1], groups.secondary_buddy(owner));
      }
      for (const std::uint64_t holder : holders) {
        if (holder == owner) continue;
        const auto held = groups.stored_for(holder);
        EXPECT_NE(std::find(held.begin(), held.end(), owner), held.end())
            << "owner " << owner << " holder " << holder;
      }
    }
  }
}

TEST(GroupAssignmentTest, EveryNodeHoldsExactlyTwoImages) {
  // The memory cost of both protocols: pairs hold their own image and the
  // buddy's, triples the images of their two group peers.
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    const GroupAssignment groups(12, topology);
    std::vector<int> held(12, 0);
    for (std::uint64_t owner = 0; owner < 12; ++owner) {
      for (const std::uint64_t holder : groups.holders(owner)) ++held[holder];
    }
    for (std::uint64_t node = 0; node < 12; ++node) {
      EXPECT_EQ(held[node], 2) << "node " << node;
    }
  }
}

TEST(GroupAssignmentTest, HoldersRejectAnUnknownOwner) {
  EXPECT_THROW(GroupAssignment(4, Topology::Pairs).holders(4),
               std::out_of_range);
  EXPECT_THROW(GroupAssignment(6, Topology::Triples).holders(6),
               std::out_of_range);
}

TEST(GroupAssignmentTest, Validation) {
  EXPECT_THROW(GroupAssignment(7, Topology::Pairs), std::invalid_argument);
  EXPECT_THROW(GroupAssignment(8, Topology::Triples), std::invalid_argument);
  EXPECT_THROW(GroupAssignment(0, Topology::Pairs), std::invalid_argument);
  GroupAssignment groups(4, Topology::Pairs);
  EXPECT_THROW(groups.group_of(4), std::out_of_range);
  EXPECT_THROW(groups.preferred_buddy(9), std::out_of_range);
  EXPECT_THROW(groups.members(2), std::out_of_range);
}

}  // namespace
