#include "ckpt/buddy_store.hpp"

#include <gtest/gtest.h>

#include "ckpt/page_store.hpp"

namespace {

using dckpt::ckpt::BuddyStore;
using dckpt::ckpt::PageStore;
using dckpt::ckpt::Snapshot;

Snapshot image_of(PageStore& store, std::uint64_t owner) {
  return store.snapshot(owner);
}

TEST(BuddyStoreTest, StagePromoteLifecycle) {
  PageStore mem_a(512), mem_b(512);
  BuddyStore store(0);
  const Snapshot a = image_of(mem_a, 0);  // version 1
  const Snapshot b = image_of(mem_b, 1);  // version 1
  store.stage(a);
  store.stage(b);
  EXPECT_EQ(store.staged_count(), 2u);
  EXPECT_EQ(store.committed_count(), 0u);
  store.promote(1);
  EXPECT_EQ(store.staged_count(), 0u);
  EXPECT_EQ(store.committed_count(), 2u);
  EXPECT_EQ(store.committed_version(), 1u);
  EXPECT_TRUE(store.committed_for(0));
  EXPECT_TRUE(store.committed_for(1));
  EXPECT_FALSE(store.committed_for(9));
}

TEST(BuddyStoreTest, DiscardStagedKeepsCommitted) {
  PageStore mem(512);
  BuddyStore store(0);
  store.stage(image_of(mem, 0));  // v1
  store.promote(1);
  store.stage(image_of(mem, 0));  // v2 staged
  store.discard_staged();
  EXPECT_EQ(store.staged_count(), 0u);
  EXPECT_EQ(store.committed_count(), 1u);
  EXPECT_EQ(store.committed_version(), 1u);
}

TEST(BuddyStoreTest, PromotionReplacesCommittedSetAtomically) {
  PageStore mem(512);
  BuddyStore store(0);
  store.stage(image_of(mem, 0));  // v1
  store.promote(1);
  const auto v1 = store.committed_for(0)->version();
  store.stage(image_of(mem, 0));  // v2
  store.promote(2);
  EXPECT_EQ(store.committed_count(), 1u);
  EXPECT_GT(store.committed_for(0)->version(), v1);
}

TEST(BuddyStoreTest, RejectsMixedVersionsInStaging) {
  PageStore mem(512);
  BuddyStore store(0);
  const Snapshot v1 = image_of(mem, 0);
  const Snapshot v2 = image_of(mem, 1);  // version 2 (same store advanced)
  store.stage(v1);
  EXPECT_THROW(store.stage(v2), std::logic_error);
}

TEST(BuddyStoreTest, ReStagingSameOwnerReplaces) {
  PageStore mem_a(512), mem_b(512);
  BuddyStore store(0);
  store.stage(image_of(mem_a, 0));
  store.stage(image_of(mem_b, 0));  // same owner & version: refresh
  EXPECT_EQ(store.staged_count(), 1u);
}

TEST(BuddyStoreTest, CapacityEnforced) {
  PageStore m0(512), m1(512), m2(512);
  BuddyStore store(0, 2);
  store.stage(image_of(m0, 0));
  store.stage(image_of(m1, 1));
  EXPECT_THROW(store.stage(image_of(m2, 2)), std::logic_error);
}

TEST(BuddyStoreTest, PromoteWithoutStagingThrows) {
  BuddyStore store(0);
  EXPECT_THROW(store.promote(1), std::logic_error);
  PageStore mem(512);
  store.stage(image_of(mem, 0));  // v1
  EXPECT_THROW(store.promote(2), std::logic_error);
}

TEST(BuddyStoreTest, EmptyImageRejected) {
  BuddyStore store(0);
  EXPECT_THROW(store.stage(Snapshot()), std::invalid_argument);
  EXPECT_THROW(store.restore_committed(Snapshot()), std::invalid_argument);
}

TEST(BuddyStoreTest, RestoreCommittedBypassesStaging) {
  PageStore mem(512);
  BuddyStore store(0);
  store.restore_committed(image_of(mem, 3));
  EXPECT_EQ(store.committed_count(), 1u);
  EXPECT_TRUE(store.committed_for(3));
  EXPECT_EQ(store.committed_version(), 1u);
}

TEST(BuddyStoreTest, RestoreCommittedRespectsCapacity) {
  PageStore m0(512), m1(512), m2(512);
  BuddyStore store(0, 2);
  store.restore_committed(image_of(m0, 0));
  store.restore_committed(image_of(m1, 1));
  EXPECT_THROW(store.restore_committed(image_of(m2, 2)), std::logic_error);
  // Overwriting an existing owner is fine at capacity.
  EXPECT_NO_THROW(store.restore_committed(image_of(m0, 0)));
}

TEST(BuddyStoreTest, ResidentBytesTracksBothSets) {
  PageStore mem_a(1000), mem_b(2000);
  BuddyStore store(0);
  EXPECT_EQ(store.resident_bytes(), 0u);
  store.stage(image_of(mem_a, 0));
  EXPECT_EQ(store.resident_bytes(), 1000u);
  store.promote(1);
  store.stage(image_of(mem_b, 1));
  EXPECT_EQ(store.resident_bytes(), 3000u);
}

TEST(BuddyStoreTest, ZeroCapacityRejected) {
  EXPECT_THROW(BuddyStore(0, 0), std::invalid_argument);
}

TEST(BuddyStoreTest, ZeroRetentionRejected) {
  // keep-last-0 would retain no committed set at all.
  EXPECT_THROW(BuddyStore(0, 2, 0), std::invalid_argument);
  EXPECT_NO_THROW(BuddyStore(0, 2, 1));
}

TEST(BuddyStoreTest, DiscardAfterPartialStageLeavesNoResidue) {
  // A node that fails mid-exchange leaves a half-filled staging set; the
  // rollback's discard must drop it entirely while the committed set (and
  // its version) stay live for the restore.
  PageStore mem_a(512), mem_b(512);
  BuddyStore store(0);
  store.stage(image_of(mem_a, 0));  // v1
  store.stage(image_of(mem_b, 1));  // v1
  store.promote(1);
  store.stage(image_of(mem_a, 0));  // v2: only one of two owners staged
  EXPECT_EQ(store.staged_count(), 1u);
  store.discard_staged();
  EXPECT_EQ(store.staged_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), 1024u);  // just the committed pair
  EXPECT_EQ(store.committed_version(), 1u);
  EXPECT_TRUE(store.committed_for(0));
  EXPECT_TRUE(store.committed_for(1));
  // The next full round still promotes cleanly.
  (void)mem_b.snapshot(1);          // line mem_b's version counter up (v2)
  store.stage(image_of(mem_a, 0));  // v3
  store.stage(image_of(mem_b, 1));  // v3
  store.promote(3);
  EXPECT_EQ(store.committed_count(), 2u);
}

TEST(BuddyStoreTest, FailedPromoteLeavesCommittedSetIntact) {
  // promote() of a version nothing was staged under must throw *without*
  // touching either set -- the committed images are what every recovery
  // ladder walks, so a failed promotion must be side-effect free.
  PageStore mem(512);
  BuddyStore store(0);
  store.stage(image_of(mem, 0));  // v1
  store.promote(1);
  const std::uint64_t hash = store.committed_for(0)->content_hash();
  store.stage(image_of(mem, 0));  // v2 staged
  EXPECT_THROW(store.promote(7), std::logic_error);
  EXPECT_EQ(store.committed_count(), 1u);
  EXPECT_EQ(store.committed_version(), 1u);
  EXPECT_EQ(store.committed_for(0)->content_hash(), hash);
  EXPECT_EQ(store.staged_count(), 1u);  // staging also untouched
  EXPECT_NO_THROW(store.promote(2));    // and still promotable
}

TEST(BuddyStoreTest, CorruptCommittedFlipsContentNotOccupancy) {
  PageStore mem(512);
  BuddyStore store(0);
  store.stage(image_of(mem, 0));
  store.promote(1);
  const std::uint64_t hash = store.committed_for(0)->content_hash();
  EXPECT_TRUE(store.corrupt_committed(0));
  ASSERT_TRUE(store.committed_for(0));  // slot still occupied: silent damage
  EXPECT_FALSE(store.committed_for(0)->verify(hash));
  // Nothing committed for owner 5: nothing to damage.
  EXPECT_FALSE(store.corrupt_committed(5));
}

TEST(BuddyStoreTest, TornCorruptionShortensTheImage) {
  PageStore mem(512);
  BuddyStore store(0);
  store.stage(image_of(mem, 0));
  store.promote(1);
  const std::uint64_t hash = store.committed_for(0)->content_hash();
  EXPECT_TRUE(store.corrupt_committed(0, /*torn=*/true));
  EXPECT_FALSE(store.committed_for(0)->verify(hash));
}

}  // namespace
