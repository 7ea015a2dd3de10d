#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using dckpt::util::parallel_for_chunked;
using dckpt::util::ThreadPool;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto future =
      pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(101);
  parallel_for_chunked(pool, 101, 7,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           ++touched[i];
                         }
                       });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, ChunkBoundariesAreDeterministic) {
  ThreadPool pool(2);
  auto capture = [&pool](std::size_t n, std::size_t chunks) {
    std::vector<std::pair<std::size_t, std::size_t>> bounds(chunks);
    parallel_for_chunked(pool, n, chunks,
                         [&](std::size_t c, std::size_t b, std::size_t e) {
                           bounds[c] = {b, e};
                         });
    return bounds;
  };
  const auto a = capture(100, 8);
  const auto b = capture(100, 8);
  EXPECT_EQ(a, b);
  // Chunks partition [0, n) in order.
  std::size_t cursor = 0;
  for (const auto& [lo, hi] : a) {
    EXPECT_EQ(lo, cursor);
    EXPECT_GE(hi, lo);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 100u);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_chunked(pool, 0, 4,
                       [&](std::size_t, std::size_t, std::size_t) {
                         called = true;
                       });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreChunksThanItemsClamps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_chunked(pool, 3, 10,
                       [&](std::size_t, std::size_t b, std::size_t e) {
                         ++calls;
                         EXPECT_EQ(e - b, 1u);
                       });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelForTest, RethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for_chunked(pool, 10, 2,
                           [](std::size_t c, std::size_t, std::size_t) {
                             if (c == 1) throw std::logic_error("chunk boom");
                           }),
      std::logic_error);
}

TEST(ParallelForTest, WaitsForEveryChunkBeforeRethrowing) {
  // The failing chunk ends first; the call must still outlast the slow one,
  // which uses the caller's state.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      parallel_for_chunked(pool, 2, 2,
                           [&](std::size_t c, std::size_t, std::size_t) {
                             if (c == 0) throw std::logic_error("chunk boom");
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(20));
                             ++finished;
                           }),
      std::logic_error);
  EXPECT_EQ(finished.load(), 1);
}

}  // namespace
