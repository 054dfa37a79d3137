// A small fixed-size thread pool with a parallel_for helper.
//
// The optimization algorithms themselves are sequential (they are cheap);
// parallelism is used to run many Monte-Carlo trials and many experiment
// instances concurrently, which is an embarrassingly parallel outer loop.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"

namespace prts {

/// Fixed-size pool of worker threads consuming a shared FIFO task queue.
class ThreadPool {
 public:
  /// Starts `threads` workers (hardware concurrency when 0), each named
  /// `name` when one is given (obs::name_this_thread).
  explicit ThreadPool(std::size_t threads = 0, const char* name = nullptr);

  /// Drains outstanding tasks and joins the workers (shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Stops accepting work, drains the queued tasks and joins the
  /// workers. Idempotent; after it returns, submit() yields exceptional
  /// futures instead of undefined behavior.
  void shutdown();

  /// Enqueues a task; the returned future resolves when it has run. On
  /// a pool that has been shut down the task is NOT run — the future
  /// holds a std::runtime_error instead.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool, in contiguous chunks,
  /// and blocks until every index has been processed. fn must be safe to
  /// call concurrently for distinct indices. Exceptions thrown by fn
  /// propagate (the first one observed is rethrown).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Attaches a contention probe to the queue mutex (see
  /// obs::ProfiledMutex). The probe must outlive the pool; nullptr
  /// detaches.
  void attach_mutex_probe(const obs::ProfiledMutex::Probe* probe) noexcept {
    mutex_.attach(probe);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  obs::ProfiledMutex mutex_;
  /// _any: the queue mutex is a ProfiledMutex, not std::mutex.
  std::condition_variable_any cv_;
  bool stopping_ = false;
};

/// Convenience: runs fn(i) for i in [0, count) on a transient pool sized to
/// the hardware concurrency. Suitable for one-shot bulk work.
void parallel_for_each_index(std::size_t count,
                             const std::function<void(std::size_t)>& fn);

}  // namespace prts
