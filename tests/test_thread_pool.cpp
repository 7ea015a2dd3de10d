#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
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

TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  // Stopping drains the queue: a task still waiting when the pool is
  // destroyed runs before the workers exit.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    const auto nap = std::chrono::milliseconds(20);
    pool.submit([nap] { std::this_thread::sleep_for(nap); });
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, WorkerOutlivesAThrowingTask) {
  ThreadPool pool(1);
  auto failing = pool.submit([] { throw std::runtime_error("task boom"); });
  std::atomic<bool> ran{false};
  auto next = pool.submit([&ran] { ran = true; });
  EXPECT_THROW(failing.get(), std::runtime_error);
  next.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;  // one worker: no concurrent access
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  std::vector<int> expected(32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, TaskMaySubmitAndAwaitAnotherTask) {
  // No lock is held while a task runs, so a task can enqueue more work and
  // wait for it while the second worker runs it.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  auto outer = pool.submit([&pool, &inner_runs] {
    pool.submit([&inner_runs] { ++inner_runs; }).get();
  });
  EXPECT_EQ(outer.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  outer.get();
  EXPECT_EQ(inner_runs.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersEachTaskRunsOnce) {
  ThreadPool pool(3);
  static constexpr int kSubmitters = 4;
  static constexpr int kTasksEach = 100;
  std::vector<std::atomic<int>> runs(kSubmitters * kTasksEach);
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int t = 0; t < kTasksEach; ++t) {
        futures[s].push_back(
            pool.submit([&runs, s, t] { ++runs[s * kTasksEach + t]; }));
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& batch : futures) {
    for (auto& f : batch) f.get();
  }
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, RunsTheRequestedNumberOfWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  // Three tasks that each wait for the other two can only finish when
  // three workers run them at once.
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(pool.submit([&arrived, &met] {
      ++arrived;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 3 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (arrived.load() == 3) ++met;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(met.load(), 3);
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
