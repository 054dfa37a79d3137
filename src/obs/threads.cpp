#include "obs/threads.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>

namespace prts::obs {

void name_this_thread(const char* name) noexcept {
  char truncated[16] = {};
  for (std::size_t i = 0; i + 1 < sizeof truncated && name[i] != '\0'; ++i) {
    truncated[i] = name[i];
  }
  pthread_setname_np(pthread_self(), truncated);
}

std::string this_thread_name() {
  char name[16] = {};
  if (pthread_getname_np(pthread_self(), name, sizeof name) != 0) return {};
  return name;
}

namespace hop_probe {
namespace {

std::mutex& touched_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<std::pair<std::thread::id, std::string>>& touched() {
  static std::vector<std::pair<std::thread::id, std::string>> threads;
  return threads;
}

}  // namespace

namespace detail {

std::atomic<bool> armed{false};

void record() {
  const std::thread::id id = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(touched_mutex());
  if (!armed.load(std::memory_order_relaxed)) return;
  auto& threads = touched();
  if (std::any_of(threads.begin(), threads.end(),
                  [id](const auto& entry) { return entry.first == id; })) {
    return;
  }
  threads.emplace_back(id, this_thread_name());
}

}  // namespace detail

void arm() {
  const std::lock_guard<std::mutex> lock(touched_mutex());
  touched().clear();
  detail::armed.store(true, std::memory_order_relaxed);
}

std::vector<std::string> disarm() {
  const std::lock_guard<std::mutex> lock(touched_mutex());
  detail::armed.store(false, std::memory_order_relaxed);
  std::vector<std::string> names;
  for (auto& entry : touched()) names.push_back(std::move(entry.second));
  touched().clear();
  return names;
}

}  // namespace hop_probe
}  // namespace prts::obs
