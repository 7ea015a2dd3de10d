#include "ckpt/recovery.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

namespace {

using namespace dckpt::ckpt;

/// A little cluster fixture: n nodes with memory + buddy stores, a helper
/// to run one full checkpoint round per the topology.
class Cluster {
 public:
  Cluster(std::uint64_t nodes, Topology topology)
      : groups_(nodes, topology), hashes_(nodes, 0) {
    for (std::uint64_t node = 0; node < nodes; ++node) {
      memories_.push_back(std::make_unique<PageStore>(1024, 256));
      stores_.push_back(std::make_unique<BuddyStore>(node));
      // Distinct content per node.
      std::vector<std::byte> fill(1024, static_cast<std::byte>(node + 1));
      memories_[node]->write(0, fill);
    }
  }

  void checkpoint_round() {
    std::vector<Snapshot> images;
    for (std::uint64_t node = 0; node < groups_.nodes(); ++node) {
      images.push_back(memories_[node]->snapshot(node));
    }
    const std::uint64_t version = images.front().version();
    for (std::uint64_t node = 0; node < groups_.nodes(); ++node) {
      if (groups_.topology() == Topology::Pairs) {
        stores_[node]->stage(images[node]);
        stores_[groups_.preferred_buddy(node)]->stage(images[node]);
      } else {
        stores_[groups_.preferred_buddy(node)]->stage(images[node]);
        stores_[groups_.secondary_buddy(node)]->stage(images[node]);
      }
      hashes_[node] = images[node].content_hash();
    }
    for (auto& store : stores_) store->promote(version);
  }

  std::vector<BuddyStore*> directory() {
    std::vector<BuddyStore*> out;
    for (auto& store : stores_) out.push_back(store.get());
    return out;
  }

  void fail_node(std::uint64_t node) {
    std::vector<std::byte> junk(1024, std::byte{0xFF});
    memories_[node]->write(0, junk);
    *stores_[node] = BuddyStore(node);
  }

  const GroupAssignment& groups() const { return groups_; }
  PageStore& memory(std::uint64_t node) { return *memories_[node]; }
  BuddyStore& store(std::uint64_t node) { return *stores_[node]; }
  std::uint64_t hash(std::uint64_t node) const { return hashes_[node]; }
  std::span<const std::uint64_t> hashes() const { return hashes_; }

 private:
  GroupAssignment groups_;
  std::vector<std::unique_ptr<PageStore>> memories_;
  std::vector<std::unique_ptr<BuddyStore>> stores_;
  std::vector<std::uint64_t> hashes_;
};

TEST(SelectReplicaTest, PairsPreferTheLocalCopy) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  const auto dir = cluster.directory();
  const auto outcome = select_replica(0, cluster.groups(), dir,
                                      cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::Ok);
  EXPECT_EQ(outcome.report.source, 0u);
  EXPECT_EQ(outcome.corrupt_skipped, 0u);
  EXPECT_EQ(outcome.candidates_tried, 1u);
}

TEST(SelectReplicaTest, PairsFallBackToTheBuddyAfterLoss) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  const auto dir = cluster.directory();
  const auto outcome = select_replica(0, cluster.groups(), dir,
                                      cluster.hash(0));
  // An *absent* first rung is not a failover -- only a corrupt one is.
  EXPECT_EQ(outcome.status, RecoveryStatus::Ok);
  EXPECT_EQ(outcome.report.source, 1u);
  EXPECT_TRUE(outcome.report.hash_verified);
  EXPECT_EQ(outcome.corrupt_skipped, 0u);
}

TEST(SelectReplicaTest, CorruptLocalCopyFailsOverToTheBuddy) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  ASSERT_TRUE(cluster.store(0).corrupt_committed(0));
  const auto dir = cluster.directory();
  const auto outcome = select_replica(0, cluster.groups(), dir,
                                      cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::FailedOver);
  EXPECT_EQ(outcome.report.source, 1u);
  EXPECT_EQ(outcome.corrupt_skipped, 1u);
  EXPECT_EQ(outcome.candidates_tried, 2u);
}

TEST(SelectReplicaTest, TornImageIsSkippedLikeCorruption) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  ASSERT_TRUE(cluster.store(0).corrupt_committed(0, /*torn=*/true));
  const auto dir = cluster.directory();
  const auto outcome = select_replica(0, cluster.groups(), dir,
                                      cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::FailedOver);
  EXPECT_EQ(outcome.report.source, 1u);
}

TEST(SelectReplicaTest, ExhaustedWhenEveryCopyIsCorrupt) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  ASSERT_TRUE(cluster.store(0).corrupt_committed(0));
  ASSERT_TRUE(cluster.store(1).corrupt_committed(0));
  const auto dir = cluster.directory();
  const auto outcome = select_replica(0, cluster.groups(), dir,
                                      cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::Exhausted);
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.image.has_value());
  EXPECT_EQ(outcome.corrupt_skipped, 2u);
}

TEST(SelectReplicaTest, TriplesWalkPreferredThenSecondary) {
  Cluster cluster(6, Topology::Triples);
  cluster.checkpoint_round();
  const auto dir = cluster.directory();
  // Intact: the preferred buddy serves.
  auto outcome = select_replica(0, cluster.groups(), dir, cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::Ok);
  EXPECT_EQ(outcome.report.source, cluster.groups().preferred_buddy(0));
  // Corrupt preferred copy: the secondary serves, counted as a failover.
  ASSERT_TRUE(
      cluster.store(cluster.groups().preferred_buddy(0)).corrupt_committed(0));
  outcome = select_replica(0, cluster.groups(), dir, cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::FailedOver);
  EXPECT_EQ(outcome.report.source, cluster.groups().secondary_buddy(0));
  EXPECT_EQ(outcome.corrupt_skipped, 1u);
}

TEST(RecoverNodeTest, RestoresContentAndVerifiesHash) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(2);
  const auto dir = cluster.directory();
  const auto outcome = recover_node(2, cluster.groups(), dir,
                                    cluster.memory(2), cluster.hash(2));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.report.node, 2u);
  EXPECT_EQ(outcome.report.source, 3u);
  EXPECT_TRUE(outcome.report.hash_verified);
  // Memory content is back.
  std::vector<std::byte> probe(4);
  cluster.memory(2).read(0, probe);
  EXPECT_EQ(probe[0], static_cast<std::byte>(3));
}

TEST(RecoverNodeTest, WrongExpectedHashExhaustsWithoutRestoring) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  const auto dir = cluster.directory();
  const auto outcome = recover_node(0, cluster.groups(), dir,
                                    cluster.memory(0), 0xdeadbeef);
  EXPECT_EQ(outcome.status, RecoveryStatus::Exhausted);
  // Only the buddy's copy was present -- and it failed the check.
  EXPECT_EQ(outcome.corrupt_skipped, 1u);
  // Memory keeps the junk the failure left: nothing was restored.
  std::vector<std::byte> probe(4);
  cluster.memory(0).read(0, probe);
  EXPECT_EQ(probe[0], std::byte{0xFF});
}

TEST(RecoverNodeTest, TripleRecoversFromEitherBuddy) {
  Cluster cluster(6, Topology::Triples);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  const auto dir = cluster.directory();
  const auto outcome = recover_node(0, cluster.groups(), dir,
                                    cluster.memory(0), cluster.hash(0));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.report.hash_verified);
  EXPECT_TRUE(outcome.report.source == 1 || outcome.report.source == 2);
}

TEST(RecoverNodeTest, TripleSurvivesTwoFailures) {
  Cluster cluster(3, Topology::Triples);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  cluster.fail_node(1);
  const auto dir = cluster.directory();
  // Node 2 still holds copies for both victims (it stores images of its
  // peers per the rotation).
  EXPECT_TRUE(recover_node(0, cluster.groups(), dir, cluster.memory(0),
                           cluster.hash(0))
                  .ok());
  EXPECT_TRUE(recover_node(1, cluster.groups(), dir, cluster.memory(1),
                           cluster.hash(1))
                  .ok());
}

TEST(RecoverNodeTest, TripleExhaustedOnThreeFailuresWithoutThrowing) {
  Cluster cluster(3, Topology::Triples);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  cluster.fail_node(1);
  cluster.fail_node(2);
  const auto dir = cluster.directory();
  const auto outcome = recover_node(0, cluster.groups(), dir,
                                    cluster.memory(0), cluster.hash(0));
  EXPECT_EQ(outcome.status, RecoveryStatus::Exhausted);
  EXPECT_EQ(outcome.candidates_tried, 0u);
}

TEST(RestoreReplicasTest, PairRefillsBuddyImageAndLocalCopy) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  auto dir = cluster.directory();
  const auto outcome =
      restore_replicas(0, cluster.groups(), dir, cluster.hashes());
  EXPECT_EQ(outcome.restored, 2u);  // buddy's image + own local copy
  EXPECT_EQ(outcome.unavailable, 0u);
  EXPECT_TRUE(cluster.store(0).committed_for(1));
  EXPECT_TRUE(cluster.store(0).committed_for(0));
}

TEST(RestoreReplicasTest, TripleRefillsBothHeldImages) {
  Cluster cluster(3, Topology::Triples);
  cluster.checkpoint_round();
  cluster.fail_node(1);
  auto dir = cluster.directory();
  const auto outcome =
      restore_replicas(1, cluster.groups(), dir, cluster.hashes());
  EXPECT_EQ(outcome.restored, 2u);
  // Node 1 stores images of the nodes listed by stored_for(1).
  for (std::uint64_t owner : cluster.groups().stored_for(1)) {
    EXPECT_TRUE(cluster.store(1).committed_for(owner)) << owner;
  }
}

TEST(RestoreReplicasTest, CorruptSourceIsSkippedAndCountedUnavailable) {
  Cluster cluster(3, Topology::Triples);
  cluster.checkpoint_round();
  cluster.fail_node(1);
  // The only other copy of one owner held by node 1 is corrupt: that owner
  // stays unavailable, the other still refills -- a partial refill, not an
  // abort.
  const std::uint64_t owner = cluster.groups().stored_for(1).front();
  const std::uint64_t survivor =
      cluster.groups().preferred_buddy(owner) == 1
          ? cluster.groups().secondary_buddy(owner)
          : cluster.groups().preferred_buddy(owner);
  ASSERT_TRUE(cluster.store(survivor).corrupt_committed(owner));
  auto dir = cluster.directory();
  const auto outcome =
      restore_replicas(1, cluster.groups(), dir, cluster.hashes());
  EXPECT_EQ(outcome.restored, 1u);
  EXPECT_EQ(outcome.corrupt_skipped, 1u);
  EXPECT_EQ(outcome.unavailable, 1u);
  EXPECT_FALSE(cluster.store(1).committed_for(owner));
}

TEST(RestoreReplicasTest, ClosesTheRiskWindow) {
  // After recovery + re-replication, the *other* member of the pair can fail
  // and the cluster still recovers -- the exact property the risk window
  // protects.
  Cluster cluster(2, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  auto dir = cluster.directory();
  ASSERT_TRUE(recover_node(0, cluster.groups(), dir, cluster.memory(0),
                           cluster.hash(0))
                  .ok());
  restore_replicas(0, cluster.groups(), dir, cluster.hashes());
  // Now the buddy dies.
  cluster.fail_node(1);
  EXPECT_TRUE(recover_node(1, cluster.groups(), dir, cluster.memory(1),
                           cluster.hash(1))
                  .ok());
}

TEST(RecoveryTest, DirectoryValidation) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  auto dir = cluster.directory();
  dir.pop_back();
  EXPECT_THROW(select_replica(0, cluster.groups(), dir, cluster.hash(0)),
               std::invalid_argument);
  dir = cluster.directory();
  dir[1] = nullptr;
  EXPECT_THROW(select_replica(0, cluster.groups(), dir, cluster.hash(0)),
               std::invalid_argument);
}

TEST(RecoveryTest, ExpectedHashDirectoryMustCoverEveryNode) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  auto dir = cluster.directory();
  const auto all = cluster.hashes();
  const auto short_hashes = all.first(all.size() - 1);
  EXPECT_THROW(restore_replicas(0, cluster.groups(), dir, short_hashes),
               std::invalid_argument);
  EXPECT_THROW(set_restorable(0, cluster.groups(), dir, short_hashes),
               std::invalid_argument);
}

// set_restorable: may the run roll back to retained set `depth`?

TEST(SetRestorableTest, CommittedRoundIsRestorable) {
  for (const auto topology : {Topology::Pairs, Topology::Triples}) {
    Cluster cluster(6, topology);
    cluster.checkpoint_round();
    auto dir = cluster.directory();
    EXPECT_TRUE(set_restorable(0, cluster.groups(), dir, cluster.hashes()))
        << static_cast<int>(topology);
  }
}

TEST(SetRestorableTest, NothingCommittedIsNotRestorable) {
  Cluster cluster(4, Topology::Pairs);
  auto dir = cluster.directory();
  EXPECT_FALSE(set_restorable(0, cluster.groups(), dir, cluster.hashes()));
}

TEST(SetRestorableTest, OneCleanHolderPerNodeIsEnough) {
  // Node 0's store is gone, but every image it held has a copy on node 1.
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(0);
  auto dir = cluster.directory();
  EXPECT_TRUE(set_restorable(0, cluster.groups(), dir, cluster.hashes()));
}

TEST(SetRestorableTest, LosingEveryHolderOfOneNodeIsNotRestorable) {
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(2);
  cluster.fail_node(3);
  auto dir = cluster.directory();
  EXPECT_FALSE(set_restorable(0, cluster.groups(), dir, cluster.hashes()));
}

TEST(SetRestorableTest, CorruptCopiesDoNotCount) {
  // Node 1's two holders are itself and node 0: with its own copy lost and
  // the buddy's corrupted, no verified image of node 1 is left.
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  cluster.fail_node(1);
  ASSERT_TRUE(cluster.store(0).corrupt_committed(1));
  auto dir = cluster.directory();
  EXPECT_FALSE(set_restorable(0, cluster.groups(), dir, cluster.hashes()));
}

TEST(SetRestorableTest, DepthBeyondTheRetainedSetsIsNotRestorable) {
  // Default stores retain only the committed set.
  Cluster cluster(4, Topology::Pairs);
  cluster.checkpoint_round();
  auto dir = cluster.directory();
  EXPECT_TRUE(set_restorable(0, cluster.groups(), dir, cluster.hashes()));
  EXPECT_FALSE(set_restorable(1, cluster.groups(), dir, cluster.hashes()));
}

}  // namespace
