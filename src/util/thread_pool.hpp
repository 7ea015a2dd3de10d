// Minimal fixed-size thread pool plus a static-chunking parallel_for.
//
// The Monte-Carlo runner fans independent trials across cores. Trials are
// embarrassingly parallel and coarse (milliseconds each), so a simple mutex-
// guarded queue is fully adequate; no work stealing needed. parallel_for
// deliberately uses deterministic static chunking, so results that depend on
// the chunk split stay bit-identical at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dckpt::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool stopping_ = false;
};

/// First index of range `c` (0 <= c <= chunks, chunks > 0) when [0, n) is
/// split into `chunks` contiguous ranges whose lengths differ by at most one,
/// the longer ones first: the split parallel_for_chunked makes.
std::size_t chunk_begin(std::size_t n, std::size_t chunks, std::size_t c);

/// Runs body(chunk_index, begin, end) over [0, n) split into `chunks` ranges
/// on `pool`. Chunk boundaries depend only on (n, chunks), never on thread
/// count or scheduling: the runners' reproducibility contract.
void parallel_for_chunked(
    ThreadPool& pool, std::size_t n, std::size_t chunks,
    const std::function<void(std::size_t chunk_index, std::size_t begin,
                             std::size_t end)>& body);

}  // namespace dckpt::util
