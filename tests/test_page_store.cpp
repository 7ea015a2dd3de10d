#include "ckpt/page_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/dcp.hpp"
#include "proptest.hpp"

namespace {

using dckpt::ckpt::block_hashes;
using dckpt::ckpt::fnv1a;
using dckpt::ckpt::fnv1a_u64;
using dckpt::ckpt::fnv1a_x4;
using dckpt::ckpt::kDigestBlockSize;
using dckpt::ckpt::PageStore;
using dckpt::ckpt::Snapshot;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

TEST(Fnv1aTest, KnownProperties) {
  const auto a = bytes_of("hello");
  const auto b = bytes_of("hellp");
  EXPECT_NE(fnv1a(a), fnv1a(b));
  EXPECT_EQ(fnv1a(a), fnv1a(a));
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);  // seed passes through
}

TEST(Fnv1aTest, WordFoldIsLittleEndianBytes) {
  const std::uint64_t value = 0x0807060504030201ULL;
  const std::vector<std::byte> bytes{
      std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},
      std::byte{5}, std::byte{6}, std::byte{7}, std::byte{8}};
  EXPECT_EQ(fnv1a_u64(value), fnv1a(bytes));
  EXPECT_EQ(fnv1a_u64(value, 42), fnv1a(bytes, 42));
}

TEST(Fnv1aTest, FourChainsMatchOneChainEach) {
  // Unequal lengths (one empty) and distinct seeds: every lane must equal
  // its own single-chain hash, past the common length too.
  const auto a = bytes_of("the quick brown fox");
  const auto b = bytes_of("jumps");
  const auto c = bytes_of("over the lazy dog, twice over");
  const std::array<std::uint64_t, 4> seeds{1, 2, 3, 0xcbf29ce484222325ULL};
  const auto lanes = fnv1a_x4({a, b, c, {}}, seeds);
  EXPECT_EQ(lanes[0], fnv1a(a, 1));
  EXPECT_EQ(lanes[1], fnv1a(b, 2));
  EXPECT_EQ(lanes[2], fnv1a(c, 3));
  EXPECT_EQ(lanes[3], 0xcbf29ce484222325ULL);
}

TEST(PageStoreTest, ZeroInitialized) {
  PageStore store(1000, 256);
  std::vector<std::byte> out(1000);
  store.read(0, out);
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(PageStoreTest, WriteReadRoundTrip) {
  PageStore store(4096, 512);
  const auto data = bytes_of("the quick brown fox");
  store.write(700, data);  // crosses the 512/1024 page boundary
  std::vector<std::byte> out(data.size());
  store.read(700, out);
  EXPECT_EQ(out, data);
}

TEST(PageStoreTest, PageGeometry) {
  PageStore store(1000, 256);
  EXPECT_EQ(store.page_count(), 4u);  // ceil(1000/256)
  EXPECT_EQ(store.size_bytes(), 1000u);
  EXPECT_EQ(store.page_size(), 256u);
}

TEST(PageStoreTest, OutOfRangeAccessesThrow) {
  PageStore store(100, 64);
  std::vector<std::byte> buf(10);
  EXPECT_THROW(store.read(95, buf), std::out_of_range);
  EXPECT_THROW(store.write(95, buf), std::out_of_range);
  EXPECT_THROW(PageStore(0, 64), std::invalid_argument);
  EXPECT_THROW(PageStore(10, 0), std::invalid_argument);
}

TEST(PageStoreTest, HugeOffsetWrapIsRejected) {
  // Regression: `offset + len` wraps past SIZE_MAX back into range, so the
  // naive guard accepted the access and memcpy'd out of bounds.
  PageStore store(100, 64);
  std::vector<std::byte> buf(16);
  const std::size_t wrap = std::numeric_limits<std::size_t>::max() - 8;
  EXPECT_THROW(store.read(wrap, buf), std::out_of_range);
  EXPECT_THROW(store.write(wrap, buf), std::out_of_range);
  // An offset just past the end with a tiny length must also be rejected.
  std::vector<std::byte> one(1);
  EXPECT_THROW(store.read(101, one), std::out_of_range);
  EXPECT_THROW(store.write(101, one), std::out_of_range);
}

TEST(PageStoreTest, RestoreAdvancesVersionPastRestoredImage) {
  // Regression: restoring a higher-versioned image (the failover path: a
  // replacement node adopts a buddy's snapshot) left version_ behind, so
  // the next snapshot ordered *before* the restored one and a diff against
  // the restored image rejected a legitimate post-failover delta.
  PageStore source(512, 256);
  Snapshot committed;
  for (int i = 0; i < 5; ++i) committed = source.snapshot(9);
  ASSERT_EQ(committed.version(), 5u);
  PageStore replacement(512, 256);
  replacement.restore(committed);
  const Snapshot after = replacement.snapshot(9);
  EXPECT_GT(after.version(), committed.version());
}

TEST(PageStoreTest, SnapshotIsImmutableUnderLaterWrites) {
  PageStore store(1024, 256);
  store.write(0, bytes_of("before"));
  const Snapshot snap = store.snapshot(7);
  const std::uint64_t hash_before = snap.content_hash();
  store.write(0, bytes_of("AFTER!"));
  EXPECT_EQ(snap.content_hash(), hash_before);
  // The store sees the new data.
  std::vector<std::byte> out(6);
  store.read(0, out);
  EXPECT_EQ(out, bytes_of("AFTER!"));
}

TEST(PageStoreTest, CowCopiesOnlyTouchedPages) {
  PageStore store(4 * 256, 256);
  const Snapshot snap = store.snapshot(1);
  EXPECT_EQ(store.cow_copies(), 0u);
  store.write(0, bytes_of("x"));  // page 0 cloned
  EXPECT_EQ(store.cow_copies(), 1u);
  store.write(10, bytes_of("y"));  // page 0 already private
  EXPECT_EQ(store.cow_copies(), 1u);
  store.write(3 * 256, bytes_of("z"));  // page 3 cloned
  EXPECT_EQ(store.cow_copies(), 2u);
  (void)snap;
}

TEST(PageStoreTest, IdenticalRewriteOfASharedPageClonesNothing) {
  PageStore store(1000, 256);  // three whole pages and a 232-byte tail
  store.write(0, std::vector<std::byte>(1000, std::byte{3}));
  const Snapshot snap = store.snapshot(1);
  // Whole pages, a slice inside a page and a range across three pages and
  // into the tail, all holding the bytes already there.
  store.write(0, std::vector<std::byte>(512, std::byte{3}));
  store.write(300, std::vector<std::byte>(10, std::byte{3}));
  store.write(250, std::vector<std::byte>(750, std::byte{3}));
  EXPECT_EQ(store.cow_copies(), 0u);
  const Snapshot same = store.snapshot(1);
  for (std::size_t i = 0; i < snap.page_count(); ++i) {
    EXPECT_EQ(same.pages()[i], snap.pages()[i]) << "page " << i;
  }
  // One changed byte in a range of equal ones clones only its page; a
  // whole-page write of new bytes replaces its page outright.
  std::vector<std::byte> mixed(512, std::byte{3});
  mixed[300] = std::byte{4};
  store.write(0, mixed);
  store.write(512, std::vector<std::byte>(256, std::byte{5}));
  EXPECT_EQ(store.cow_copies(), 2u);
  const Snapshot after = store.snapshot(1);
  EXPECT_EQ(after.pages()[0], snap.pages()[0]);
  EXPECT_NE(after.pages()[1], snap.pages()[1]);
  EXPECT_NE(after.pages()[2], snap.pages()[2]);
  EXPECT_EQ(after.pages()[3], snap.pages()[3]);
  EXPECT_EQ(snap.to_bytes(), std::vector<std::byte>(1000, std::byte{3}));
  const auto bytes = after.to_bytes();
  EXPECT_EQ(bytes[300], std::byte{4});
  EXPECT_EQ(bytes[299], std::byte{3});
  EXPECT_EQ(bytes[600], std::byte{5});
  EXPECT_EQ(after.pages()[2]->size(), 256u);
}

TEST(PageStoreTest, NoCowAfterSnapshotDropped) {
  PageStore store(512, 256);
  { const Snapshot snap = store.snapshot(1); }
  store.write(0, bytes_of("w"));
  EXPECT_EQ(store.cow_copies(), 0u);
}

TEST(PageStoreTest, RestoreBringsContentBack) {
  PageStore store(1024, 256);
  store.write(100, bytes_of("checkpointed"));
  const Snapshot snap = store.snapshot(2);
  store.write(100, bytes_of("overwritten!"));
  store.restore(snap);
  std::vector<std::byte> out(12);
  store.read(100, out);
  EXPECT_EQ(out, bytes_of("checkpointed"));
}

TEST(PageStoreTest, WritesAfterRestoreDontCorruptSnapshot) {
  PageStore store(512, 256);
  store.write(0, bytes_of("golden"));
  const Snapshot snap = store.snapshot(3);
  store.restore(snap);
  store.write(0, bytes_of("dirty!"));  // must COW, not poison the snapshot
  EXPECT_EQ(snap.to_bytes()[0], std::byte{'g'});
}

TEST(PageStoreTest, RestoreRejectsLayoutMismatch) {
  PageStore a(512, 256), b(1024, 256);
  const Snapshot snap = b.snapshot(1);
  EXPECT_THROW(a.restore(snap), std::invalid_argument);
}

TEST(SnapshotTest, MetadataAndVersioning) {
  PageStore store(300, 128);
  const Snapshot s1 = store.snapshot(42);
  const Snapshot s2 = store.snapshot(42);
  EXPECT_EQ(s1.owner(), 42u);
  EXPECT_EQ(s1.version(), 1u);
  EXPECT_EQ(s2.version(), 2u);
  EXPECT_EQ(s1.size_bytes(), 300u);
  EXPECT_EQ(s1.page_count(), 3u);
  EXPECT_FALSE(s1.empty());
  EXPECT_TRUE(Snapshot().empty());
}

TEST(SnapshotTest, ToBytesMatchesStoreContent) {
  PageStore store(600, 256);
  const auto data = bytes_of("abcdefghij");
  store.write(590, data);
  const Snapshot snap = store.snapshot(1);
  const auto flat = snap.to_bytes();
  ASSERT_EQ(flat.size(), 600u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(flat[590 + i], data[i]);
  }
}

TEST(SnapshotTest, HashDetectsSingleByteChange) {
  PageStore store(512, 256);
  store.write(0, bytes_of("A"));
  const auto h1 = store.snapshot(1).content_hash();
  store.write(0, bytes_of("B"));
  const auto h2 = store.snapshot(1).content_hash();
  EXPECT_NE(h1, h2);
}

TEST(SnapshotTest, VerifyAcceptsIntactRejectsWrongHash) {
  PageStore store(512, 256);
  store.write(0, bytes_of("payload"));
  const Snapshot snap = store.snapshot(1);
  EXPECT_TRUE(snap.verify(snap.content_hash()));
  EXPECT_FALSE(snap.verify(snap.content_hash() ^ 1));
}

TEST(SnapshotTest, CorruptCopyFailsVerifyWithoutTouchingTheOriginal) {
  PageStore store(512, 256);
  store.write(0, bytes_of("payload"));
  const Snapshot snap = store.snapshot(1);
  const std::uint64_t hash = snap.content_hash();
  const Snapshot bad = corrupt_copy(snap);
  EXPECT_FALSE(bad.verify(hash));
  EXPECT_TRUE(snap.verify(hash));  // damage is on the copy's own pages
  // The layout survives: a corrupt image is restorable, just wrong.
  EXPECT_EQ(bad.to_bytes().size(), snap.to_bytes().size());
}

TEST(SnapshotTest, TornCopyFailsVerifyEvenOnAllZeroTail) {
  // The lost tail of an all-zero image reads back as zeros -- identical
  // bytes to the original. A torn delivery must still be detectable, so
  // torn_copy also damages the surviving prefix.
  PageStore store(1024, 256);  // zero-initialized: worst case for tearing
  const Snapshot snap = store.snapshot(1);
  const std::uint64_t hash = snap.content_hash();
  const Snapshot torn = torn_copy(snap);
  EXPECT_FALSE(torn.verify(hash));
  EXPECT_EQ(torn.to_bytes().size(), snap.to_bytes().size());
}

TEST(SnapshotTest, TornCopyKeepsOnlyThePrefix) {
  // A torn delivery keeps the first half of the pages (the first byte
  // mangled as a torn stream header) and reads the rest back as zeros; a
  // one-page image loses the second half of that page.
  for (const std::size_t pages : {std::size_t{4}, std::size_t{1}}) {
    PageStore store(pages * 256, 256);
    store.write(0, std::vector<std::byte>(pages * 256, std::byte{0x11}));
    const auto torn = torn_copy(store.snapshot(1)).to_bytes();
    ASSERT_EQ(torn.size(), pages * 256);
    const std::size_t kept = pages == 1 ? 128 : pages / 2 * 256;
    EXPECT_EQ(torn[0], std::byte{0x11} ^ std::byte{0xa5}) << pages;
    for (std::size_t i = 1; i < torn.size(); ++i) {
      ASSERT_EQ(torn[i], i < kept ? std::byte{0x11} : std::byte{0})
          << "byte " << i << " of a " << pages << "-page image";
    }
  }
}

TEST(SnapshotTest, EmptyImageCannotBeCorruptedOrTorn) {
  const Snapshot empty;
  EXPECT_THROW(corrupt_copy(empty), std::invalid_argument);
  EXPECT_THROW(torn_copy(empty), std::invalid_argument);
}

// ------------------------------------------- adversarial verification
//
// Snapshot::verify backs the verified-checkpoint machinery: a hash that can
// be fooled turns a detected SDC into a silent one. These cases target the
// classic weaknesses of additive/XOR checksums to document that FNV-1a (an
// order-sensitive multiply-xor fold) does not share them.

TEST(SnapshotVerifyTest, CancellingByteSwapIsStillDetected) {
  // Swapping the values of two bytes preserves both the byte-sum and the
  // byte-XOR of the image -- a parity checksum would accept it.
  PageStore store(1024, 256);
  store.write(0, bytes_of("abcdefgh"));
  const std::uint64_t hash = store.snapshot(1).content_hash();
  store.write(1, bytes_of("c"));  // 'b' and 'c' trade places
  store.write(2, bytes_of("b"));
  EXPECT_FALSE(store.snapshot(1).verify(hash));
}

TEST(SnapshotVerifyTest, CancellingXorFlipsAcrossPagesAreDetected) {
  // The same bit pattern XORed into two different pages: XOR-fold checksums
  // cancel, position-sensitive ones must not.
  PageStore store(1024, 256);
  store.write(0, bytes_of("base"));
  const std::uint64_t hash = store.snapshot(1).content_hash();
  std::vector<std::byte> flipped(1);
  store.read(10, flipped);
  flipped[0] ^= std::byte{0x5a};
  store.write(10, flipped);  // page 0
  store.read(522, flipped);
  flipped[0] ^= std::byte{0x5a};
  store.write(522, flipped);  // page 2, same mask
  EXPECT_FALSE(store.snapshot(1).verify(hash));
}

TEST(SnapshotVerifyTest, FinalPartialPageCorruptionIsDetected) {
  // 1000 bytes over 256-byte pages: the last page is partial; its tail must
  // still be covered by the hash.
  PageStore store(1000, 256);
  store.write(0, bytes_of("head"));
  const std::uint64_t hash = store.snapshot(1).content_hash();
  std::vector<std::byte> last(1);
  store.read(999, last);
  last[0] ^= std::byte{0x01};
  store.write(999, last);
  EXPECT_FALSE(store.snapshot(1).verify(hash));
}

/// A store of `blocks` digest blocks of pseudo-random bytes on 1000-byte
/// pages, so blocks straddle pages.
PageStore random_store(std::size_t blocks, std::uint64_t seed) {
  PageStore store(blocks * kDigestBlockSize, 1000);
  std::vector<std::byte> content(store.size_bytes());
  std::uint64_t state = seed;
  for (auto& b : content) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<std::byte>(state >> 56);
  }
  store.write(0, content);
  return store;
}

TEST(SnapshotVerifyTest, SwappedDigestBlocksAreDetected) {
  // Trading two whole 4 KiB blocks keeps the set of block hashes: a sum or
  // XOR of them would accept it. The digest folds them in order.
  PageStore store = random_store(5, 7);
  const Snapshot before = store.snapshot(1);
  const std::uint64_t hash = before.content_hash();
  std::vector<std::byte> first(kDigestBlockSize);
  std::vector<std::byte> third(kDigestBlockSize);
  store.read(0, first);
  store.read(2 * kDigestBlockSize, third);
  store.write(0, third);
  store.write(2 * kDigestBlockSize, first);
  const Snapshot after = store.snapshot(1);
  auto hashes_before = block_hashes(before, kDigestBlockSize);
  auto hashes_after = block_hashes(after, kDigestBlockSize);
  ASSERT_NE(hashes_before, hashes_after);
  std::sort(hashes_before.begin(), hashes_before.end());
  std::sort(hashes_after.begin(), hashes_after.end());
  ASSERT_EQ(hashes_before, hashes_after);  // the same set of block hashes
  EXPECT_FALSE(after.verify(hash));
}

TEST(SnapshotVerifyTest, OneMaskInTwoDigestBlocksIsDetected) {
  // Blocks 1 and 3 hold the same bytes and take the same mask at the same
  // offset, so their hashes change and stay equal to each other: an XOR of
  // block hashes cancels both changes. The ordered fold does not.
  PageStore store = random_store(4, 11);
  std::vector<std::byte> block(kDigestBlockSize);
  store.read(kDigestBlockSize, block);
  store.write(3 * kDigestBlockSize, block);
  const std::uint64_t hash = store.snapshot(1).content_hash();
  for (const std::size_t at : {kDigestBlockSize, 3 * kDigestBlockSize}) {
    std::vector<std::byte> one(1);
    store.read(at + 100, one);
    one[0] ^= std::byte{0x5a};
    store.write(at + 100, one);
  }
  EXPECT_FALSE(store.snapshot(1).verify(hash));
}

TEST(SnapshotVerifyTest, EmptySnapshotVerifiesItsOwnHashOnly) {
  const Snapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.verify(empty.content_hash()));
  EXPECT_FALSE(empty.verify(empty.content_hash() ^ 1));
}

TEST(SnapshotVerifyTest, PropertyAnySingleByteFlipIsDetected) {
  struct Flip {
    std::uint64_t size = 1;
    std::uint64_t page = 64;
    std::uint64_t offset = 0;
    std::uint8_t mask = 1;
    std::uint64_t fill_seed = 0;
  };
  proptest::ForallConfig config;
  config.seed = 0xf1a9;
  config.iterations = 200;
  const std::vector<std::uint64_t> pages{64, 256, 512, 1000, 4096};
  proptest::forall<Flip>(
      config,
      [&](proptest::Gen& gen) {
        Flip f;
        f.size = gen.integer(1, 20000);  // up to five digest blocks
        f.page = gen.element(pages);
        f.offset = gen.integer(0, f.size - 1);
        f.mask = static_cast<std::uint8_t>(gen.integer(1, 255));
        f.fill_seed = gen.integer(0, 1u << 20);
        return f;
      },
      [](const Flip& f) -> std::optional<std::string> {
        PageStore store(f.size, f.page);
        // Deterministic pseudo-random content so flips hit varied bytes.
        std::vector<std::byte> content(f.size);
        std::uint64_t state = f.fill_seed * 0x9e3779b97f4a7c15ULL + 1;
        for (auto& b : content) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          b = static_cast<std::byte>(state >> 56);
        }
        store.write(0, content);
        const std::uint64_t hash = store.snapshot(1).content_hash();
        std::vector<std::byte> one(1);
        store.read(f.offset, one);
        one[0] ^= std::byte{f.mask};
        store.write(f.offset, one);
        if (store.snapshot(1).verify(hash)) {
          return "undetected single-byte flip";
        }
        return std::nullopt;
      },
      nullptr,
      [](const Flip& f) {
        std::ostringstream out;
        out << "size=" << f.size << " page=" << f.page
            << " offset=" << f.offset << " mask=" << static_cast<int>(f.mask)
            << " fill_seed=" << f.fill_seed;
        return out.str();
      });
}

}  // namespace
