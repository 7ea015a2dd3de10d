#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace dckpt::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  task_available_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

std::size_t chunk_begin(std::size_t n, std::size_t chunks, std::size_t c) {
  return c * (n / chunks) + std::min(c, n % chunks);
}

void parallel_for_chunked(
    ThreadPool& pool, std::size_t n, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, n);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = chunk_begin(n, chunks, c);
    const std::size_t end = chunk_begin(n, chunks, c + 1);
    futures.push_back(
        pool.submit([&body, c, begin, end] { body(c, begin, end); }));
  }
  // Wait for every chunk before rethrowing the first failure: a chunk still
  // running must not outlive `body` and whatever it captured.
  std::exception_ptr failure;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dckpt::util
