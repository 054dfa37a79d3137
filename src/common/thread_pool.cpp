#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

#include "obs/threads.hpp"

namespace prts {

ThreadPool::ThreadPool(std::size_t threads, const char* name) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, name] {
      if (name != nullptr) obs::name_this_thread(name);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    if (stopping_) return;  // idempotent (second call, or after dtor race)
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> result = packaged.get_future();
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    if (stopping_) {
      // Submit-after-shutdown used to be undefined behavior (a task
      // pushed on a drained queue with no workers); report it through
      // the future instead.
      std::promise<void> broken;
      broken.set_exception(std::make_exception_ptr(
          std::runtime_error("ThreadPool: submit after shutdown")));
      return broken.get_future();
    }
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return result;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<obs::ProfiledMutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // At least one chunk even with zero workers (shut-down pool), so the
  // submit-after-shutdown error surfaces instead of a silent no-op.
  const std::size_t chunks =
      std::min(count, std::max<std::size_t>(1, 4 * thread_count()));
  std::atomic<std::size_t> next_index{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(submit([&] {
      for (;;) {
        const std::size_t i = next_index.fetch_add(1);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    }));
  }
  for (auto& future : futures) future.get();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_each_index(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  ThreadPool pool;
  pool.parallel_for(count, fn);
}

}  // namespace prts
