// Content-hash differential checkpoints: block hash arrays, delta
// construction/replay, torn-layer detection, BuddyStore chain lifecycle,
// the recovery ladder's chain replay, and the analytic dcp model.
#include "ckpt/dcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/buddy_store.hpp"
#include "ckpt/page_store.hpp"
#include "ckpt/recovery.hpp"
#include "model/dcp.hpp"
#include "model/period.hpp"
#include "model/scenario.hpp"
#include "model/waste.hpp"
#include "proptest.hpp"

namespace {

using namespace dckpt::ckpt;

constexpr std::size_t kPage = 64;
constexpr std::size_t kBytes = kPage * 8;

std::vector<std::byte> fill(std::size_t n, unsigned value) {
  return std::vector<std::byte>(n, static_cast<std::byte>(value));
}

PageStore make_memory(unsigned value = 1) {
  PageStore memory(kBytes, kPage);
  memory.write(0, fill(kBytes, value));
  return memory;
}

/// Diffs `current` against `base`, rescanning base for its hash array.
BlockDelta delta_between(const Snapshot& base, const Snapshot& current,
                         std::size_t block_size) {
  return make_block_delta(block_hashes(base, block_size), base.version(),
                          base.content_hash(), current, block_size);
}

TEST(BlockHashesTest, OneHashPerBlockIncludingShortTail) {
  auto memory = make_memory();
  const auto image = memory.snapshot(0);
  EXPECT_EQ(block_hashes(image, kPage).size(), kBytes / kPage);
  // Coarser blocks: ceil(512 / 96) = 6, the tail block spanning 32 bytes.
  EXPECT_EQ(block_hashes(image, 96).size(), (kBytes + 95) / 96);
  EXPECT_EQ(block_hashes(image, kBytes).size(), 1u);
  EXPECT_THROW(block_hashes(image, 0), std::invalid_argument);
}

TEST(BlockHashesTest, OnlyTheTouchedBlockChangesItsHash) {
  auto memory = make_memory();
  const auto before = block_hashes(memory.snapshot(0), kPage);
  memory.write(3 * kPage + 5, fill(1, 0xEE));
  const auto after = block_hashes(memory.snapshot(0), kPage);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i == 3) {
      EXPECT_NE(before[i], after[i]);
    } else {
      EXPECT_EQ(before[i], after[i]) << "block " << i;
    }
  }
}

TEST(BlockDeltaTest, DetectsDirtyBlocksByContentNotByWrite) {
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  // Rewrite a page with identical bytes, change one byte of another.
  memory.write(2 * kPage, fill(kPage, 1));
  memory.write(5 * kPage, fill(1, 0xAB));
  const auto current = memory.snapshot(0);
  const auto delta = delta_between(base, current, kPage);
  // The identical rewrite is *not* dirty -- content hashes, not COW.
  ASSERT_EQ(delta.dirty_blocks(), 1u);
  EXPECT_EQ(delta.blocks().front().index, 5u);
  EXPECT_EQ(delta.delta_bytes(), kPage);
  EXPECT_DOUBLE_EQ(delta.dirty_ratio(), 1.0 / 8.0);
  EXPECT_EQ(delta.base_hash(), base.content_hash());
  EXPECT_EQ(delta.result_hash(), current.content_hash());
}

TEST(BlockDeltaTest, CoarseBlocksAmplifySmallWrites) {
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  memory.write(0, fill(1, 0xAB));  // one byte touched
  const auto current = memory.snapshot(0);
  const auto delta = delta_between(base, current, 2 * kPage);
  // The whole two-page block ships for a one-byte write.
  ASSERT_EQ(delta.dirty_blocks(), 1u);
  EXPECT_EQ(delta.delta_bytes(), 2 * kPage);
}

TEST(BlockDeltaTest, CachedHashArrayOverloadMatchesRescan) {
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  const auto hashes = block_hashes(base, kPage);
  memory.write(kPage, fill(kPage, 7));
  const auto current = memory.snapshot(0);
  const auto rescan = delta_between(base, current, kPage);
  const auto cached = make_block_delta(hashes, base.version(),
                                       base.content_hash(), current, kPage);
  ASSERT_EQ(cached.dirty_blocks(), rescan.dirty_blocks());
  EXPECT_EQ(cached.base_hash(), rescan.base_hash());
  EXPECT_EQ(cached.result_hash(), rescan.result_hash());
  EXPECT_EQ(cached.base_version(), rescan.base_version());
}

TEST(BlockDeltaTest, ApplyRoundTripsAcrossChainedLayers) {
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(kPage, fill(kPage, 2));
  const auto v2 = memory.snapshot(0);
  memory.write(6 * kPage, fill(10, 3));
  const auto v3 = memory.snapshot(0);
  const auto d12 = delta_between(v1, v2, kPage);
  const auto d23 = delta_between(v2, v3, kPage);
  const auto r2 = apply_block_delta(v1, d12);
  EXPECT_EQ(r2.content_hash(), v2.content_hash());
  EXPECT_TRUE(r2.verify(d12.result_hash()));
  const auto r3 = apply_block_delta(r2, d23);
  EXPECT_EQ(r3.content_hash(), v3.content_hash());
  EXPECT_EQ(r3.version(), v3.version());
}

TEST(BlockDeltaTest, ApplyRejectsStructuralMismatches) {
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(0, fill(1, 9));
  const auto v2 = memory.snapshot(0);
  memory.write(0, fill(1, 10));
  const auto v3 = memory.snapshot(0);
  const auto d23 = delta_between(v2, v3, kPage);
  // Version chaining: v1 is not d23's base.
  EXPECT_THROW(apply_block_delta(v1, d23), std::invalid_argument);
}

/// The message apply_block_delta throws for `base` + `delta` ("" if none).
std::string apply_error(const Snapshot& base, const BlockDelta& delta) {
  try {
    apply_block_delta(base, delta);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(BlockDeltaTest, ApplyRejectsAForeignOwnerOrLayout) {
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(kPage, fill(1, 9));
  const auto d12 = delta_between(v1, memory.snapshot(0), kPage);
  ASSERT_EQ(apply_error(v1, d12), "");
  PageStore other(kBytes, kPage);
  EXPECT_NE(apply_error(other.snapshot(1), d12).find("owner mismatch"),
            std::string::npos);
  PageStore wide(2 * kBytes, kPage);
  EXPECT_NE(apply_error(wide.snapshot(0), d12).find("layout mismatch"),
            std::string::npos);
}

TEST(BlockDeltaTest, ApplyRejectsABlockPastTheImage) {
  // A layer whose block lands outside the base (a damaged or forged
  // record) is refused before any byte is copied.
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  const auto layer_with = [&](std::size_t index, std::size_t payload) {
    std::vector<DcpBlock> blocks{{index, fill(payload, 2)}};
    const std::vector<std::uint64_t> hashes{fnv1a(blocks[0].payload)};
    return BlockDelta(0, base.version(), base.version() + 1, kBytes, kPage,
                      base.content_hash(), 0, std::move(blocks), hashes);
  };
  const auto refused = [&](std::size_t index, std::size_t payload) {
    const std::string error = apply_error(base, layer_with(index, payload));
    return error.find("exceeds the image") != std::string::npos;
  };
  EXPECT_EQ(apply_error(base, layer_with(7, kPage)), "");  // the last block
  EXPECT_TRUE(refused(8, kPage));      // one block past the end
  EXPECT_TRUE(refused(7, 2 * kPage));  // the last block, overrun
  // An index whose byte offset wraps around.
  EXPECT_TRUE(refused(std::numeric_limits<std::size_t>::max() / kPage + 2, 1));
}

TEST(BlockDeltaTest, ZeroBlockSizeIsRejected) {
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  memory.write(0, fill(1, 3));
  const auto current = memory.snapshot(0);
  EXPECT_THROW(block_hashes(base, 0), std::invalid_argument);
  EXPECT_THROW(make_block_delta(block_hashes(base, kPage), base.version(),
                                base.content_hash(), current, 0),
               std::invalid_argument);
  EXPECT_THROW(BlockDelta(0, base.version(), current.version(), kBytes, 0,
                          base.content_hash(), current.content_hash(), {},
                          {}),
               std::invalid_argument);
}

TEST(BlockDeltaTest, TornLayerCopyFailsSelfVerification) {
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(kPage, fill(kPage, 2));
  const auto v2 = memory.snapshot(0);
  const auto delta = delta_between(v1, v2, kPage);
  ASSERT_TRUE(delta.verify_self());
  EXPECT_FALSE(torn_layer_copy(delta).verify_self());
  // An empty delta (nothing dirty) still tears detectably.
  const auto empty = delta_between(v2, memory.snapshot(0), kPage);
  ASSERT_EQ(empty.dirty_blocks(), 0u);
  ASSERT_TRUE(empty.verify_self());
  EXPECT_FALSE(torn_layer_copy(empty).verify_self());
  // Six dirty blocks: the torn last payload is hashed after the first
  // four-payload group.
  memory.write(0, fill(6 * kPage, 4));
  const auto wide = delta_between(v2, memory.snapshot(0), kPage);
  ASSERT_EQ(wide.dirty_blocks(), 6u);
  ASSERT_TRUE(wide.verify_self());
  EXPECT_FALSE(torn_layer_copy(wide).verify_self());
}

TEST(BlockDeltaTest, CopiesShareTheBlocks) {
  // A layer's blocks are immutable: every copy holds the same ones, so a
  // second holder's copy moves no bytes.
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(kPage, fill(2 * kPage, 2));
  const auto layer = delta_between(v1, memory.snapshot(0), kPage);
  ASSERT_EQ(layer.dirty_blocks(), 2u);
  const BlockDelta copy = layer;
  EXPECT_EQ(&copy.blocks(), &layer.blocks());
}

TEST(BlockDeltaTest, TornCopyLeavesTheOriginalAndItsCopiesIntact) {
  auto memory = make_memory();
  const auto v1 = memory.snapshot(0);
  memory.write(kPage, fill(2 * kPage, 2));
  const auto layer = delta_between(v1, memory.snapshot(0), kPage);
  const BlockDelta copy = layer;
  std::vector<std::vector<std::byte>> before;
  for (const DcpBlock& block : layer.blocks()) before.push_back(block.payload);
  const BlockDelta torn = torn_layer_copy(copy);
  EXPECT_FALSE(torn.verify_self());
  EXPECT_NE(&torn.blocks(), &layer.blocks());
  for (const BlockDelta* intact : {&layer, &copy}) {
    EXPECT_TRUE(intact->verify_self());
    ASSERT_EQ(intact->dirty_blocks(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(intact->blocks()[i].payload, before[i]) << "block " << i;
    }
  }
}

TEST(BlockDeltaTest, RecordedPayloadHashesMustCoverEveryBlock) {
  std::vector<DcpBlock> blocks{{0, fill(kPage, 1)}, {1, fill(kPage, 2)}};
  const std::vector<std::uint64_t> one{fnv1a(blocks[0].payload)};
  EXPECT_THROW(BlockDelta(0, 1, 2, kBytes, kPage, 0, 0, blocks, one),
               std::invalid_argument);
  const std::vector<std::uint64_t> both{fnv1a(blocks[0].payload),
                                        fnv1a(blocks[1].payload)};
  // Hashes that match the payloads record the self hash a read records.
  const BlockDelta recorded(0, 1, 2, kBytes, kPage, 0, 0, blocks, both);
  EXPECT_TRUE(recorded.verify_self());
  const std::vector<std::uint64_t> wrong{both[1], both[0]};
  EXPECT_FALSE(
      BlockDelta(0, 1, 2, kBytes, kPage, 0, 0, blocks, wrong).verify_self());
}

TEST(BlockDeltaTest, DiffErrorsNameDiffBlocks) {
  PageStore memory(kBytes, kPage);
  const auto v1 = memory.snapshot(0);
  const auto v2 = memory.snapshot(0);
  const auto hashes = block_hashes(v1, kPage);
  const auto message = [&](std::size_t block, std::uint64_t base_version,
                           const std::vector<std::uint64_t>& base_hashes) {
    try {
      diff_blocks(base_hashes, base_version, 0, v2, block);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message(0, v1.version(), hashes).rfind("diff_blocks:", 0), 0u);
  EXPECT_EQ(message(kPage, v2.version(), hashes).rfind("diff_blocks:", 0),
            0u);
  EXPECT_EQ(message(kPage, v1.version(), {}).rfind("diff_blocks:", 0), 0u);
}

TEST(BlockDeltaTest, MaxBlockSizeIsOneBlockAndRoundTrips) {
  // --dcp-block=18446744073709551615 is SIZE_MAX. Counting blocks as
  // (size + block - 1) / block wrapped to 0 there, and every delta shipped
  // nothing.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  const auto hashes = block_hashes(base, kMax);
  ASSERT_EQ(hashes.size(), 1u);
  EXPECT_EQ(hashes.front(), fnv1a(base.to_bytes()));
  memory.write(3 * kPage + 5, fill(1, 0xEE));
  const auto current = memory.snapshot(0);
  const auto delta = delta_between(base, current, kMax);
  ASSERT_EQ(delta.dirty_blocks(), 1u);
  EXPECT_EQ(delta.blocks().front().index, 0u);
  EXPECT_EQ(delta.delta_bytes(), kBytes);
  EXPECT_DOUBLE_EQ(delta.dirty_ratio(), 1.0);
  const auto rebuilt = apply_block_delta(base, delta);
  EXPECT_EQ(rebuilt.to_bytes(), current.to_bytes());
  EXPECT_TRUE(rebuilt.verify(delta.result_hash()));
}

/// The image digest recomputed from a flat copy: FNV-1a over the 8
/// little-endian bytes of each 4 KiB slice's fnv1a, in order.
std::uint64_t flat_digest(std::span<const std::byte> bytes) {
  std::uint64_t digest = kFnvOffsetBasis;
  for (std::size_t at = 0; at < bytes.size(); at += 4096) {
    const std::uint64_t hash = fnv1a(
        bytes.subspan(at, std::min<std::size_t>(4096, bytes.size() - at)));
    std::array<std::byte, 8> word{};
    for (std::size_t i = 0; i < word.size(); ++i) {
      word[i] = static_cast<std::byte>(hash >> (8 * i));
    }
    digest = fnv1a(word, digest);
  }
  return digest;
}

TEST(BlockWalkTest, PropertyMatchesTheFlatCopyReference) {
  // forall layouts -- partial tail pages, a tail page allocated past its
  // meaningful bytes (as apply_block_delta repages them) with junk in the
  // slack -- and block sizes from one byte to SIZE_MAX: the walk over the
  // pages, four blocks at a time, must match fnv1a over slices of
  // to_bytes() bit for bit in the block hashes and the delta payloads, and
  // the digest must be flat_digest() of the bytes under every page size.
  struct Case {
    std::uint64_t size = 1;
    std::uint64_t page = 1;
    std::uint64_t slack = 0;  ///< bytes allocated past the tail's content
    std::uint64_t block = 1;
    std::uint64_t seed = 0;
  };
  using Bytes = std::vector<std::byte>;
  using Pages = std::vector<std::shared_ptr<Bytes>>;
  // Walks with at least one four-block group, by block count mod 4, and
  // those of them that end in a short tail block.
  std::array<std::size_t, 4> grouped_by_residue{};
  std::size_t grouped_short_tails = 0;
  proptest::ForallConfig config;
  config.seed = 0xb10c;
  config.iterations = 150;
  proptest::forall<Case>(
      config,
      [](proptest::Gen& gen) {
        Case c;
        // Half the images hold at least four digest blocks.
        c.size = gen.boolean() ? gen.integer(1, 5000)
                               : gen.integer(4 * kDigestBlockSize, 20000);
        c.page = gen.integer(1, 1500);
        c.slack = gen.boolean() ? gen.integer(1, 64) : 0;
        constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
        c.block = gen.element<std::uint64_t>({1, 96, c.page, 2 * c.page,
                                              kDigestBlockSize,
                                              c.size + gen.integer(0, 100),
                                              kMax});
        c.seed = gen.integer(0, 1u << 30);
        return c;
      },
      [&](const Case& c) -> std::optional<std::string> {
        proptest::Gen gen(c.seed);
        const auto random_bytes = [&](std::size_t n) {
          Bytes out(n);
          for (auto& b : out) b = static_cast<std::byte>(gen.integer(0, 255));
          return out;
        };
        // Pages over `content`, every allocated byte past it junk.
        const auto paginate = [&](const Bytes& content, std::size_t page_size) {
          Pages pages;
          for (std::size_t at = 0; at < content.size(); at += page_size) {
            const std::size_t take =
                std::min<std::size_t>(page_size, content.size() - at);
            const bool tail = at + take == content.size();
            auto page = std::make_shared<Bytes>(
                random_bytes(page_size + (tail ? c.slack : 0)));
            std::copy_n(content.begin() + static_cast<std::ptrdiff_t>(at),
                        take, page->begin());
            pages.push_back(std::move(page));
          }
          return pages;
        };
        const auto snapshot_of = [&](const Pages& pages,
                                     std::uint64_t version) {
          return Snapshot({pages.begin(), pages.end()}, c.size, version, 0);
        };
        const Bytes content = random_bytes(c.size);
        const auto pages = paginate(content, c.page);
        const Snapshot image = snapshot_of(pages, 2);
        const Bytes reference = image.to_bytes();
        if (reference != content) return "to_bytes() lost content";
        const std::uint64_t digest = flat_digest(reference);
        const std::size_t count = (c.size - 1) / c.block + 1;
        if (count >= 4) {
          ++grouped_by_residue[count % 4];
          if (c.size % c.block != 0) ++grouped_short_tails;
        }
        const auto slice = [&](std::size_t b) {
          const std::size_t offset = b * c.block;
          return std::span(reference).subspan(
              offset, std::min<std::size_t>(c.block, c.size - offset));
        };

        const auto hashes = block_hashes(image, c.block);
        if (hashes.size() != count) return "wrong block count";
        for (std::size_t b = 0; b < count; ++b) {
          if (hashes[b] != fnv1a(slice(b))) {
            return "block " + std::to_string(b) + " hash differs";
          }
        }
        if (image.content_hash() != digest) return "digest differs";
        // The same bytes on other page sizes: the same block hashes and
        // one digest for every layout.
        for (const std::size_t page_size :
             {std::size_t{kDigestBlockSize},
              static_cast<std::size_t>(gen.integer(1, 9000)),
              static_cast<std::size_t>(gen.integer(1, 9000))}) {
          const Snapshot relaid = snapshot_of(paginate(content, page_size), 2);
          if (block_hashes(relaid, c.block) != hashes) {
            return "block hashes differ at page size " +
                   std::to_string(page_size);
          }
          if (relaid.content_hash() != digest) {
            return "digest differs at page size " + std::to_string(page_size);
          }
        }

        // A 4 KiB walk or content_hash() caches the digest; later walks at
        // any block size neither recompute nor rewrite it: with a page
        // byte scribbled on, a digest that re-read the pages would differ.
        {
          const Snapshot probe = snapshot_of(pages, 2);
          if (gen.boolean()) {
            (void)block_hashes(probe, kDigestBlockSize);
          } else {
            (void)probe.content_hash();
          }
          (*pages.front())[0] ^= std::byte{0xff};
          (void)block_hashes(probe, c.block);
          (void)block_hashes(probe, kDigestBlockSize);
          const std::uint64_t cached = probe.content_hash();
          (*pages.front())[0] ^= std::byte{0xff};
          if (cached != digest) return "cached digest differs";
        }

        // A base with a random subset of blocks flipped: exactly those are
        // dirty, with the reference bytes as payload.
        Bytes base_content = content;
        std::vector<bool> flipped(count);
        for (std::size_t b = 0; b < count; ++b) {
          if (!gen.boolean()) continue;
          flipped[b] = true;
          for (std::size_t i = 0; i < slice(b).size(); ++i) {
            base_content[b * c.block + i] ^= std::byte{0x5a};
          }
        }
        const Snapshot base = snapshot_of(paginate(base_content, c.page), 1);
        const Snapshot current = snapshot_of(pages, 2);  // digest not cached
        const BlockDiff diff =
            diff_blocks(block_hashes(base, c.block), base.version(),
                        base.content_hash(), current, c.block);
        if (diff.hashes != hashes) return "next hash array differs";
        if (diff.layer.result_hash() != digest) return "result hash differs";
        std::size_t next = 0;
        for (std::size_t b = 0; b < count; ++b) {
          if (!flipped[b]) continue;
          if (next >= diff.layer.blocks().size()) return "dirty block missed";
          const DcpBlock& block = diff.layer.blocks()[next++];
          if (block.index != b) return "dirty block index differs";
          const auto want = slice(b);
          if (!std::equal(block.payload.begin(), block.payload.end(),
                          want.begin(), want.end())) {
            return "block " + std::to_string(b) + " payload differs";
          }
        }
        if (next != diff.layer.blocks().size()) return "clean block shipped";
        if (apply_block_delta(base, diff.layer).to_bytes() != reference) {
          return "replay differs";
        }
        return std::nullopt;
      },
      nullptr,
      [](const Case& c) {
        std::ostringstream out;
        out << "size=" << c.size << " page=" << c.page
            << " slack=" << c.slack << " block=" << c.block
            << " seed=" << c.seed;
        return out.str();
      });
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_GT(grouped_by_residue[r], 0u)
        << "no walk of 4n + " << r << " blocks (n >= 1) was drawn";
  }
  EXPECT_GT(grouped_short_tails, 0u)
      << "no walk past a four-block group ended in a short tail block";
}

TEST(BlockDeltaTest, DiffRejectsAForeignOwnerLayoutOrLineageOrder) {
  PageStore a(kBytes, kPage), wide(2 * kBytes, kPage);
  const auto a1 = a.snapshot(1);
  const auto a2 = a.snapshot(1);
  wide.snapshot(1);  // so that the wide image below postdates a1
  EXPECT_THROW(delta_between(a1, wide.snapshot(1), kPage),
               std::invalid_argument);  // size: a1's hash array is short
  EXPECT_THROW(delta_between(a2, a1, kPage),
               std::invalid_argument);  // base newer than current
  EXPECT_THROW(delta_between(a1, a1, kPage),
               std::invalid_argument);  // same version
}

TEST(BlockDeltaTest, DiffsOrderAfterARestore) {
  // A replacement node adopts a buddy's newer image and ships a delta
  // against it (PageStore::restore advances the version past the image);
  // a node rolled back to its base diffs only what it wrote afterwards.
  PageStore source(kBytes, kPage);
  source.write(0, fill(kBytes, 1));
  Snapshot committed;
  for (int i = 0; i < 3; ++i) committed = source.snapshot(1);
  PageStore replacement(kBytes, kPage);
  replacement.restore(committed);
  replacement.write(kPage, fill(1, 9));
  const auto next = replacement.snapshot(1);
  const auto after_failover = delta_between(committed, next, kPage);
  ASSERT_EQ(after_failover.dirty_blocks(), 1u);
  EXPECT_EQ(after_failover.blocks().front().index, 1u);
  EXPECT_TRUE(apply_block_delta(committed, after_failover)
                  .verify(next.content_hash()));

  const auto base = source.snapshot(1);
  source.write(0, fill(1, 7));  // work lost to the rollback
  source.restore(base);
  source.write(3 * kPage, fill(1, 8));
  const auto current = source.snapshot(1);
  const auto after_rollback = delta_between(base, current, kPage);
  ASSERT_EQ(after_rollback.dirty_blocks(), 1u);
  EXPECT_EQ(after_rollback.blocks().front().index, 3u);
  EXPECT_TRUE(apply_block_delta(base, after_rollback)
                  .verify(current.content_hash()));
}

TEST(BlockDeltaTest, ReplaySharesEveryUntouchedPage) {
  auto memory = make_memory();
  const auto base = memory.snapshot(0);
  memory.write(2 * kPage, fill(kPage, 5));   // a whole page
  memory.write(5 * kPage + 3, fill(2, 6));   // two bytes of another
  memory.write(7 * kPage, fill(kPage, 7));   // the last page
  const auto current = memory.snapshot(0);
  for (const std::size_t block : {kPage / 2, kPage, 2 * kPage}) {
    const auto delta = delta_between(base, current, block);
    const auto tip = apply_block_delta(base, delta);
    EXPECT_EQ(tip.to_bytes(), current.to_bytes()) << "block " << block;
    EXPECT_TRUE(tip.verify(delta.result_hash())) << "block " << block;
    for (std::size_t i = 0; i < base.page_count(); ++i) {
      // A dirty two-page block ships both its pages, so pages 3, 4 and 6
      // are rewritten (with their old bytes) too; pages 0 and 1 are not.
      const bool touched =
          block == 2 * kPage ? i >= 2 : i == 2 || i == 5 || i == 7;
      EXPECT_EQ(tip.pages()[i] == base.pages()[i], !touched)
          << "block " << block << " page " << i;
    }
  }
  EXPECT_EQ(base.to_bytes(), fill(kBytes, 1));  // the base is untouched
}

TEST(HashReuseTest, OnlyPagesStillTheReferencesReuseItsHashes) {
  auto memory = make_memory();
  const auto reference = memory.snapshot(0);
  const auto truth = block_hashes(reference, kPage);
  constexpr std::uint64_t kMarker = 0x5eed5eed5eed5eedULL;
  auto marked = truth;
  marked[1] = kMarker;
  marked[3] = kMarker;
  // Page 3 is a fresh page holding the same bytes: equal content, new
  // identity, so its block is read again.
  std::vector<Snapshot::Page> pages = reference.pages();
  pages[3] = std::make_shared<const std::vector<std::byte>>(*pages[3]);
  const Snapshot current(pages, reference.size_bytes(),
                         reference.version() + 1, reference.owner());
  const BlockDiff diff =
      diff_blocks(truth, reference.version(), reference.content_hash(),
                  current, kPage, {&reference, marked});
  EXPECT_EQ(diff.hashes[1], kMarker);  // pointer-identical: taken unread
  EXPECT_EQ(diff.hashes[3], truth[3]);
  // Dirtiness compares against the base array, so the marker reads dirty:
  // a reference must carry its own image's hashes.
  ASSERT_EQ(diff.layer.dirty_blocks(), 1u);
  EXPECT_EQ(diff.layer.blocks().front().index, 1u);
  // A reference of another layout or hash count is refused.
  PageStore coarse(kBytes, 2 * kPage);
  const auto other = coarse.snapshot(0);
  EXPECT_THROW(diff_blocks(truth, 0, 0, current, kPage,
                           {&other, block_hashes(other, kPage)}),
               std::invalid_argument);
  EXPECT_THROW(diff_blocks(truth, 0, 0, current, kPage,
                           {&reference, block_hashes(reference, 2 * kPage)}),
               std::invalid_argument);
}

TEST(HashReuseTest, PropertyReuseMatchesTheFullWalk) {
  // forall page sizes 64..4096 (dividing the image or not), block sizes
  // (part of a page, one page, spanning pages, 4 KiB, one block with no
  // tail), write patterns that include rewrites of identical bytes and a
  // rollback, and references that are the last full image or a corrupt or
  // torn copy of it (whose fresh pages must be read): the diff that reuses
  // the reference's hashes equals the full walk in every layer field (so
  // in the self hash that folds them), the next hash array, the cached
  // digest and the replay.
  struct Case {
    std::uint64_t size = 1;
    std::uint64_t page = 64;
    std::uint64_t block = 1;
    std::uint64_t seed = 0;
    std::uint64_t reference = 0;  ///< 0 the image, 1 corrupt, 2 torn copy
    bool via_restore = false;
  };
  std::array<std::size_t, 3> by_reference{};
  std::size_t reused_pages = 0;
  proptest::ForallConfig config;
  config.seed = 0x1de7;
  config.iterations = 150;
  proptest::forall<Case>(
      config,
      [](proptest::Gen& gen) {
        Case c;
        c.size = gen.integer(1, 24000);
        c.page = gen.boolean() ? gen.element<std::uint64_t>(
                                     {64, 256, 1000, 4096})
                               : gen.integer(64, 4096);
        c.block = gen.element<std::uint64_t>(
            {96, c.page / 2 + 1, c.page, 2 * c.page, 3 * c.page / 2,
             kDigestBlockSize, c.size});
        c.seed = gen.integer(0, 1u << 30);
        c.reference = gen.integer(0, 2);
        c.via_restore = gen.boolean();
        return c;
      },
      [&](const Case& c) -> std::optional<std::string> {
        proptest::Gen gen(c.seed);
        PageStore store(c.size, c.page);
        // Random writes; one in three rewrites the bytes already there.
        const auto scribble = [&](std::uint64_t count) {
          for (std::uint64_t i = 0; i < count; ++i) {
            const auto offset =
                static_cast<std::size_t>(gen.integer(0, c.size - 1));
            const auto len = static_cast<std::size_t>(gen.integer(
                1, std::min<std::uint64_t>(c.size - offset, 2 * c.page)));
            std::vector<std::byte> data(len);
            if (gen.integer(0, 2) == 0) {
              store.read(offset, data);
            } else {
              for (auto& b : data) {
                b = static_cast<std::byte>(gen.integer(0, 255));
              }
            }
            store.write(offset, data);
          }
        };
        scribble(12);
        const Snapshot full = store.snapshot(5);
        scribble(gen.integer(0, 4));
        const Snapshot tip = store.snapshot(5);  // the last delta's tip
        if (c.via_restore) {
          scribble(3);  // lost to a rollback
          store.restore(tip);
        }
        scribble(gen.integer(0, 6));
        const Snapshot current = store.snapshot(5);
        const Snapshot reference = c.reference == 0   ? full
                                   : c.reference == 1 ? corrupt_copy(full)
                                                      : torn_copy(full);
        ++by_reference[c.reference];
        for (std::size_t i = 0; i < current.page_count(); ++i) {
          if (current.pages()[i] == reference.pages()[i]) ++reused_pages;
        }
        const auto tip_hashes = block_hashes(tip, c.block);
        const auto uncached = [&] {
          return Snapshot(current.pages(), current.size_bytes(),
                          current.version(), current.owner());
        };
        const Snapshot reusing = uncached();
        const Snapshot walked = uncached();
        const BlockDiff reuse =
            diff_blocks(tip_hashes, tip.version(), tip.content_hash(),
                        reusing, c.block,
                        {&reference, block_hashes(reference, c.block)});
        const BlockDiff walk =
            diff_blocks(tip_hashes, tip.version(), tip.content_hash(),
                        walked, c.block);
        if (reuse.hashes != walk.hashes) return "next hash array differs";
        const BlockDelta& a = reuse.layer;
        const BlockDelta& b = walk.layer;
        if (a.owner() != b.owner() || a.base_version() != b.base_version() ||
            a.version() != b.version() || a.size_bytes() != b.size_bytes() ||
            a.block_size() != b.block_size() ||
            a.base_hash() != b.base_hash() ||
            a.result_hash() != b.result_hash()) {
          return "layer metadata differs";
        }
        if (a.dirty_blocks() != b.dirty_blocks()) return "dirty set differs";
        for (std::size_t i = 0; i < a.dirty_blocks(); ++i) {
          if (a.blocks()[i].index != b.blocks()[i].index ||
              a.blocks()[i].payload != b.blocks()[i].payload) {
            return "dirty block " + std::to_string(i) + " differs";
          }
        }
        if (!a.verify_self()) return "self hash does not verify";
        // A walk at 4 KiB caches the digest from the reused hashes.
        if (reusing.content_hash() != uncached().content_hash()) {
          return "cached digest differs";
        }
        const Snapshot replayed = apply_block_delta(tip, a);
        if (replayed.to_bytes() != current.to_bytes()) return "replay differs";
        if (!replayed.verify(a.result_hash())) return "replay does not verify";
        return std::nullopt;
      },
      nullptr,
      [](const Case& c) {
        std::ostringstream out;
        out << "size=" << c.size << " page=" << c.page << " block=" << c.block
            << " seed=" << c.seed << " reference=" << c.reference
            << " via_restore=" << (c.via_restore ? "yes" : "no");
        return out.str();
      });
  for (std::size_t r = 0; r < by_reference.size(); ++r) {
    EXPECT_GT(by_reference[r], 0u) << "no case drew reference kind " << r;
  }
  EXPECT_GT(reused_pages, 0u) << "no page was shared with a reference";
}

TEST(BuddyStoreChainTest, ChainNeedsABaseAndClearsOnPromote) {
  auto memory = make_memory();
  BuddyStore store(0);
  const auto v1 = memory.snapshot(0);
  memory.write(0, fill(1, 5));
  const auto v2 = memory.snapshot(0);
  const auto delta = delta_between(v1, v2, kPage);
  // No committed base yet: the layer is refused.
  EXPECT_FALSE(store.append_delta(delta));
  store.stage(v1);
  store.promote(v1.version());
  EXPECT_TRUE(store.append_delta(delta));
  EXPECT_EQ(store.chain_for(0).size(), 1u);
  // A new full set clears the chain.
  memory.write(0, fill(1, 6));
  const auto v3 = memory.snapshot(0);
  store.stage(v3);
  store.promote(v3.version());
  EXPECT_TRUE(store.chain_for(0).empty());
}

TEST(BuddyStoreChainTest, CorruptDeltaTearsExactlyTheAddressedLayer) {
  auto memory = make_memory();
  BuddyStore store(0);
  const auto v1 = memory.snapshot(0);
  store.stage(v1);
  store.promote(v1.version());
  memory.write(0, fill(1, 2));
  const auto v2 = memory.snapshot(0);
  memory.write(kPage, fill(1, 3));
  const auto v3 = memory.snapshot(0);
  ASSERT_TRUE(store.append_delta(delta_between(v1, v2, kPage)));
  ASSERT_TRUE(store.append_delta(delta_between(v2, v3, kPage)));
  // Depth past the chain: refused, nothing damaged.
  EXPECT_FALSE(store.corrupt_delta(0, 3));
  ASSERT_TRUE(store.corrupt_delta(0, 2));
  EXPECT_TRUE(store.chain_for(0)[0].verify_self());
  EXPECT_FALSE(store.chain_for(0)[1].verify_self());
}

TEST(BuddyStoreChainTest, BothHoldersCountASharedLayer) {
  // resident_bytes stays a logical count, like bytes_replicated: a layer
  // two holders share counts on each.
  auto memory = make_memory();
  BuddyStore first(0);
  BuddyStore second(1);
  const auto v1 = memory.snapshot(0);
  for (BuddyStore* store : {&first, &second}) {
    store->stage(v1);
    store->promote(v1.version());
  }
  const std::size_t base_bytes = first.resident_bytes();
  memory.write(kPage, fill(3 * kPage, 2));
  const auto layer = delta_between(v1, memory.snapshot(0), kPage);
  ASSERT_EQ(layer.delta_bytes(), 3 * kPage);
  ASSERT_TRUE(first.append_delta(layer));
  ASSERT_TRUE(second.append_delta(layer));
  EXPECT_EQ(&first.chain_for(0)[0].blocks(), &second.chain_for(0)[0].blocks());
  EXPECT_EQ(first.resident_bytes(), base_bytes + layer.delta_bytes());
  EXPECT_EQ(second.resident_bytes(), base_bytes + layer.delta_bytes());
  // Tearing one holder's copy leaves the other's chain verifying.
  ASSERT_TRUE(first.corrupt_delta(0, 1));
  EXPECT_FALSE(first.chain_for(0)[0].verify_self());
  EXPECT_TRUE(second.chain_for(0)[0].verify_self());
  EXPECT_TRUE(layer.verify_self());
}

/// Pairs cluster with a committed full set plus one chained delta layer on
/// node 0's two holders (itself and its buddy).
struct ChainedCluster {
  ChainedCluster() : groups(4, Topology::Pairs) {
    for (std::uint64_t node = 0; node < 4; ++node) {
      memories.push_back(std::make_unique<PageStore>(kBytes, kPage));
      stores.push_back(std::make_unique<BuddyStore>(node));
      memories[node]->write(0, fill(kBytes, static_cast<unsigned>(node + 1)));
    }
    std::uint64_t version = 0;
    for (std::uint64_t node = 0; node < 4; ++node) {
      const auto image = memories[node]->snapshot(node);
      version = image.version();
      stores[node]->stage(image);
      stores[groups.preferred_buddy(node)]->stage(image);
    }
    for (auto& store : stores) store->promote(version);
    const auto base = *stores[0]->committed_for(0);
    memories[0]->write(2 * kPage, fill(kPage, 0xCD));
    const auto current = memories[0]->snapshot(0);
    tip_hash = current.content_hash();
    const auto delta = delta_between(base, current, kPage);
    for (const std::uint64_t holder : {std::uint64_t{0}, std::uint64_t{1}}) {
      EXPECT_TRUE(stores[holder]->append_delta(delta)) << holder;
    }
  }

  std::vector<BuddyStore*> directory() {
    std::vector<BuddyStore*> out;
    for (auto& store : stores) out.push_back(store.get());
    return out;
  }

  GroupAssignment groups;
  std::vector<std::unique_ptr<PageStore>> memories;
  std::vector<std::unique_ptr<BuddyStore>> stores;
  std::uint64_t tip_hash = 0;
};

TEST(ChainRecoveryTest, ReplaysBasePlusChainToTheTip) {
  ChainedCluster cluster;
  const auto outcome = select_replica(0, cluster.groups, cluster.directory(),
                                      cluster.tip_hash);
  ASSERT_EQ(outcome.status, RecoveryStatus::Ok);
  EXPECT_EQ(outcome.replayed_layers, 1u);
  ASSERT_TRUE(outcome.image.has_value());
  EXPECT_EQ(outcome.image->content_hash(), cluster.tip_hash);
}

TEST(ChainRecoveryTest, TornLayerFailsOverToTheBuddyChain) {
  ChainedCluster cluster;
  ASSERT_TRUE(cluster.stores[0]->corrupt_delta(0, 1));
  const auto outcome = select_replica(0, cluster.groups, cluster.directory(),
                                      cluster.tip_hash);
  ASSERT_EQ(outcome.status, RecoveryStatus::FailedOver);
  EXPECT_EQ(outcome.report.source, 1u);
  EXPECT_EQ(outcome.torn_skipped, 1u);
  EXPECT_EQ(outcome.corrupt_skipped, 1u);  // the torn rung counts as corrupt
  EXPECT_EQ(outcome.replayed_layers, 1u);
  EXPECT_EQ(outcome.image->content_hash(), cluster.tip_hash);
}

TEST(ChainRecoveryTest, CorruptBaseIsDetectedBeforeReplay) {
  ChainedCluster cluster;
  // Damage the *base* under the chain: base_hash mismatches pre-replay.
  ASSERT_TRUE(cluster.stores[0]->corrupt_committed(0));
  const auto outcome = select_replica(0, cluster.groups, cluster.directory(),
                                      cluster.tip_hash);
  ASSERT_EQ(outcome.status, RecoveryStatus::FailedOver);
  EXPECT_EQ(outcome.report.source, 1u);
  EXPECT_GE(outcome.corrupt_skipped, 1u);
  EXPECT_EQ(outcome.torn_skipped, 0u);
}

TEST(ChainRecoveryTest, ExhaustedWhenEveryChainIsDamaged) {
  ChainedCluster cluster;
  ASSERT_TRUE(cluster.stores[0]->corrupt_delta(0, 1));
  ASSERT_TRUE(cluster.stores[1]->corrupt_committed(0));
  const auto outcome = select_replica(0, cluster.groups, cluster.directory(),
                                      cluster.tip_hash);
  EXPECT_EQ(outcome.status, RecoveryStatus::Exhausted);
  EXPECT_FALSE(outcome.image.has_value());
}

TEST(ChainRecoveryTest, RefillFlattensTheSourceChain) {
  ChainedCluster cluster;
  // Node 1 (node 0's holder) is replaced; its refill must flatten node 0's
  // chain into a full image at the tip -- the receiver starts chain-free.
  std::vector<std::uint64_t> hashes(4);
  for (std::uint64_t node = 0; node < 4; ++node) {
    hashes[node] = node == 0
                       ? cluster.tip_hash
                       : cluster.stores[node]->committed_for(node)->content_hash();
  }
  *cluster.stores[1] = BuddyStore(1);
  auto dir = cluster.directory();
  const auto outcome = restore_replicas(1, cluster.groups, dir, hashes);
  EXPECT_EQ(outcome.unavailable, 0u);
  EXPECT_EQ(outcome.chains_replayed, 1u);
  EXPECT_EQ(outcome.layers_replayed, 1u);
  const auto refilled = cluster.stores[1]->committed_for(0);
  ASSERT_TRUE(refilled.has_value());
  EXPECT_EQ(refilled->content_hash(), cluster.tip_hash);
  EXPECT_TRUE(cluster.stores[1]->chain_for(0).empty());
}

// ---- Analytic model ----------------------------------------------------

TEST(DcpModelTest, BlockDirtyFractionFollowsTheClosedForm) {
  dckpt::model::DcpSpec spec;
  spec.dirty_fraction = 0.1;
  spec.stack_size = 4;
  spec.block_size = 4096;
  spec.page_size = 4096;
  EXPECT_DOUBLE_EQ(dckpt::model::block_dirty_fraction(spec), 0.1);
  spec.block_size = 4 * 4096;  // 4 pages per block
  EXPECT_DOUBLE_EQ(dckpt::model::block_dirty_fraction(spec),
                   1.0 - std::pow(0.9, 4.0));
  // Sub-page blocks cannot be cleaner than the page granularity.
  spec.block_size = 1024;
  EXPECT_DOUBLE_EQ(dckpt::model::block_dirty_fraction(spec), 0.1);
}

TEST(DcpModelTest, VolumeAndRecoveryMultipliers) {
  dckpt::model::DcpSpec spec;
  spec.dirty_fraction = 0.2;
  spec.stack_size = 5;
  spec.hash_overhead = 0.01;
  // m = (1/K)(1 + h) + (1 - 1/K)(d + h); g = 1 + d (K - 1) / 2.
  EXPECT_NEAR(dckpt::model::checkpoint_volume_multiplier(spec),
              0.2 * 1.01 + 0.8 * 0.21, 1e-12);
  EXPECT_NEAR(dckpt::model::recovery_multiplier(spec), 1.0 + 0.2 * 2.0,
              1e-12);
  // K = 1: every commit is full, only the hash scan remains.
  spec.stack_size = 1;
  EXPECT_NEAR(dckpt::model::checkpoint_volume_multiplier(spec), 1.01, 1e-12);
  EXPECT_DOUBLE_EQ(dckpt::model::recovery_multiplier(spec), 1.0);
  // Disabled: exact identity.
  spec.stack_size = 0;
  EXPECT_DOUBLE_EQ(dckpt::model::checkpoint_volume_multiplier(spec), 1.0);
  EXPECT_DOUBLE_EQ(dckpt::model::recovery_multiplier(spec), 1.0);
}

TEST(DcpModelTest, WasteReducesToFailStopWhenDisabled) {
  const auto params = dckpt::model::base_scenario().params;
  dckpt::model::Extensions ext;
  ext.dcp = dckpt::model::DcpSpec{};
  for (const auto protocol : dckpt::model::kPaperProtocols) {
    EXPECT_EQ(dckpt::model::waste(protocol, params, 600.0, ext),
              dckpt::model::waste(protocol, params, 600.0))
        << dckpt::model::protocol_name(protocol);
  }
}

TEST(DcpModelTest, SmallDirtyFractionCutsWaste) {
  const auto params = dckpt::model::base_scenario().params;
  const auto protocol = dckpt::model::Protocol::DoubleNbl;
  const double period =
      dckpt::model::optimal_period_closed_form(protocol, params).period;
  dckpt::model::DcpSpec spec;
  spec.stack_size = 8;
  spec.dirty_fraction = 0.05;
  dckpt::model::Extensions ext;
  ext.dcp = spec;
  const double full = dckpt::model::waste(protocol, params, period);
  const double dcp = dckpt::model::waste(protocol, params, period, ext);
  EXPECT_LT(dcp, full);
  // Dirtier workloads pay more; d = 1 costs at least the full-image waste
  // (the chain replay makes recovery strictly dearer).
  ext.dcp.dirty_fraction = 1.0;
  EXPECT_GE(dckpt::model::waste(protocol, params, period, ext), full);
}

TEST(DcpModelTest, NumericOptimumBeatsTheFullImagePeriod) {
  const auto params = dckpt::model::base_scenario().params;
  const auto protocol = dckpt::model::Protocol::DoubleNbl;
  dckpt::model::DcpSpec spec;
  spec.stack_size = 8;
  spec.dirty_fraction = 0.1;
  dckpt::model::Extensions ext;
  ext.dcp = spec;
  const auto opt = dckpt::model::optimal_period_numeric(protocol, params, ext);
  ASSERT_TRUE(opt.feasible);
  const double at_opt = dckpt::model::waste(protocol, params, opt.period, ext);
  const double closed =
      dckpt::model::optimal_period_closed_form(protocol, params).period;
  EXPECT_LE(at_opt, dckpt::model::waste(protocol, params, closed, ext) + 1e-9);
  // Cheaper commits pull the optimal period below the full-image one.
  EXPECT_LT(opt.period, closed);
}

TEST(DcpModelTest, SpecValidation) {
  dckpt::model::DcpSpec spec;
  spec.stack_size = 4;
  EXPECT_NO_THROW(spec.validate());
  spec.dirty_fraction = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.dirty_fraction = 0.5;
  spec.block_size = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.block_size = 4096;
  spec.page_size = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.page_size = 4096;
  spec.hash_overhead = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
