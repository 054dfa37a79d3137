#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <chrono>

#include "obs/threads.hpp"

namespace prts::obs {

FlightRecorder::FlightRecorder(Registry& registry)
    : registry_(registry), started_at_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() { stop(); }

void FlightRecorder::configure(FlightRecorderConfig config) {
  const std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  if (config_.capacity == 0) config_.capacity = 1;
  while (ring_.size() > config_.capacity) ring_.pop_front();
}

FlightRecorderConfig FlightRecorder::config() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

void FlightRecorder::start() {
  stop();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ticker_stop_ = false;
  }
  ticker_ = std::thread([this] {
    name_this_thread("flight-rec");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto interval = std::chrono::duration<double>(
          std::max(config_.interval_seconds, 1e-3));
      if (ticker_cv_.wait_for(lock, interval,
                              [this] { return ticker_stop_; })) {
        return;
      }
      lock.unlock();
      tick_now();
      lock.lock();
    }
  });
}

void FlightRecorder::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

bool FlightRecorder::running() const { return ticker_.joinable(); }

void FlightRecorder::tick_now() {
  // The registry snapshot is taken outside the recorder lock (it takes
  // the registry's own mutex; holding both invites ordering trouble).
  RegistrySnapshot current = registry_.snapshot();
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_at_)
                            .count();

  std::unique_lock<std::mutex> lock(mutex_);
  Tick tick;
  tick.seq = total_ticks_++;
  tick.uptime_seconds = uptime;
  tick.interval_seconds = uptime - previous_uptime_;
  for (const auto& [name, value] : current.counters) {
    const auto it = previous_.counters.find(name);
    const std::uint64_t before = it == previous_.counters.end() ? 0 : it->second;
    const std::uint64_t delta = value >= before ? value - before : 0;
    if (delta != 0) tick.counter_deltas.emplace(name, delta);
  }
  tick.gauges = current.gauges;
  for (const auto& [name, snap] : current.histograms) {
    const auto it = previous_.histograms.find(name);
    const Histogram::Snapshot window =
        it == previous_.histograms.end() ? snap
                                         : snap.delta_since(it->second);
    if (window.count == 0) continue;
    Tick::HistogramWindow hw;
    hw.count = window.count;
    hw.mean = window.mean();
    hw.p50 = window.quantile(0.50);
    hw.p90 = window.quantile(0.90);
    hw.p99 = window.quantile(0.99);
    hw.p999 = window.quantile(0.999);
    tick.histograms.emplace(name, hw);
  }
  previous_ = std::move(current);
  previous_uptime_ = uptime;
  Tick completed = tick;
  ring_.push_back(std::move(tick));
  while (ring_.size() > config_.capacity) ring_.pop_front();
  const auto observer = observer_;
  lock.unlock();
  // Outside the recorder lock: the observer (the alert engine) sets
  // registry gauges and must not be able to deadlock against a
  // concurrent recent()/configure().
  if (observer) observer(completed);
}

void FlightRecorder::set_observer(std::function<void(const Tick&)> observer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  observer_ = std::move(observer);
}

std::vector<FlightRecorder::Tick> FlightRecorder::recent(
    std::size_t limit) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count =
      limit == 0 ? ring_.size() : std::min(limit, ring_.size());
  return std::vector<Tick>(ring_.end() - static_cast<std::ptrdiff_t>(count),
                           ring_.end());
}

std::uint64_t FlightRecorder::total_ticks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_ticks_;
}

}  // namespace prts::obs
