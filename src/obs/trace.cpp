#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>

namespace prts::obs {
namespace {

/// splitmix64 — cheap, well-mixed; two ranks seeding from different
/// clocks/addresses will not mint colliding ids in any realistic run.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// splitmix64's finalizer with every step taken mod 2^61: a bijection
/// on 61-bit values, so distinct sequence numbers mint distinct ids.
std::uint64_t mix61(std::uint64_t x) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 61) - 1;
  x &= kMask;
  x = ((x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL) & kMask;
  x = ((x ^ (x >> 27)) * 0x94d049bb133111ebULL) & kMask;
  return x ^ (x >> 31);
}

constexpr int kShardBits = 3;
static_assert(Tracer::kShards == std::size_t{1} << kShardBits);

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(TracerConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.slow_capacity == 0) config_.slow_capacity = 1;
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  salt_ = mix64(static_cast<std::uint64_t>(now.count()) ^
                reinterpret_cast<std::uintptr_t>(this));
}

std::size_t Tracer::home_shard() noexcept {
  // Threads take shards round-robin on their first trace: one atomic
  // step per thread, none per trace. The thread_local is constant-
  // initialized, so reading it needs no guard.
  static std::atomic<std::size_t> next{0};
  constexpr std::size_t kUnassigned = ~std::size_t{0};
  thread_local std::size_t home = kUnassigned;
  if (home == kUnassigned) {
    home = next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  }
  return home;
}

std::uint64_t Tracer::mint_locked(Shard& shard, std::size_t home) {
  // The low bits name the shard; the rest is a per-shard sequence under
  // a salted bijection. 0 is the "no trace" sentinel; skip it in the
  // astronomically unlikely case shard 0's mix lands there.
  std::uint64_t id = 0;
  while (id == 0) {
    id = (mix61(salt_ ^ ++shard.sequence) << kShardBits) | home;
  }
  return id;
}

bool Tracer::may_grow(std::size_t size) {
  if (size >= config_.capacity) return false;
  // Every shard may hold its share of capacity on its own, so a thread
  // that starts tracing late still keeps its recent traces; beyond that
  // share the rings draw on one budget of `capacity` nodes. Load first:
  // once the budget is spent, a shard below capacity reads a line
  // nobody writes instead of bouncing it on every open.
  if (size < (config_.capacity + kShards - 1) / kShards) return true;
  if (budget_used_.load(std::memory_order_relaxed) >= config_.capacity) {
    return false;
  }
  return budget_used_.fetch_add(1, std::memory_order_relaxed) <
         config_.capacity;
}

Trace& Tracer::open_locked(Shard& shard, std::uint64_t id,
                           std::string_view label) {
  if (may_grow(shard.ring.size())) {
    shard.ring.emplace_back();
    shard.index[id] = std::prev(shard.ring.end());
  } else {
    auto node = shard.index.extract(shard.ring.front().trace.id);
    shard.ring.splice(shard.ring.end(), shard.ring, shard.ring.begin());
    if (node.empty()) {
      shard.index[id] = std::prev(shard.ring.end());
    } else {
      node.key() = id;
      node.mapped() = std::prev(shard.ring.end());
      shard.index.insert(std::move(node));
    }
  }
  Node& back = shard.ring.back();
  back.opened_ns = steady_ns();
  Trace& trace = back.trace;
  trace.id = id;
  trace.label.assign(label);
  trace.spans.clear();
  trace.total_seconds = 0.0;
  trace.finished = false;
  trace.slow_logged = false;
  return trace;
}

std::uint64_t Tracer::start(std::string_view label) {
  const std::size_t home = home_shard();
  Shard& shard = shards_[home];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const std::uint64_t id = mint_locked(shard, home);
  open_locked(shard, id, label);
  return id;
}

void Tracer::start_with_id(std::uint64_t id, std::string_view label) {
  if (id == 0) return;
  Shard& shard = shards_[shard_of(id)];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    if (it->second->trace.label.empty()) it->second->trace.label = label;
    return;
  }
  open_locked(shard, id, label);
}

void Tracer::record(std::uint64_t id, Span span) {
  if (id == 0) return;
  Shard& shard = shards_[shard_of(id)];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  it->second->trace.spans.push_back(std::move(span));
}

void Tracer::record(std::uint64_t id, const std::string& name, int rank,
                    double start_seconds, double duration_seconds) {
  record(id, Span{name, rank, start_seconds, duration_seconds});
}

std::uint64_t Tracer::record_single(std::string_view label, Span span,
                                    double total_seconds) {
  const std::size_t home = home_shard();
  Shard& shard = shards_[home];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const std::uint64_t id = mint_locked(shard, home);
  Trace& trace = open_locked(shard, id, label);
  trace.spans.push_back(std::move(span));
  finish_locked(trace, total_seconds);
  return id;
}

void Tracer::finish(std::uint64_t id, double total_seconds) {
  if (id == 0) return;
  Shard& shard = shards_[shard_of(id)];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return;
  finish_locked(it->second->trace, total_seconds);
}

void Tracer::finish_locked(Trace& trace, double total_seconds) {
  trace.finished = true;
  // Upsert: an amended finish (failover) extends the total.
  if (total_seconds > trace.total_seconds) trace.total_seconds = total_seconds;
  if (trace.total_seconds >= config_.slow_threshold_seconds &&
      !trace.slow_logged) {
    mark_slow_locked(trace);
  }
}

bool Tracer::find(std::uint64_t id, Trace& out) const {
  const Shard& shard = shards_[shard_of(id)];
  const std::lock_guard<ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  out = it->second->trace;
  return true;
}

std::vector<Trace> Tracer::recent(std::size_t limit) const {
  limit = std::min(limit, config_.capacity);
  // Each shard's newest `limit`, one shard lock at a time, then the
  // newest `limit` of those by opening time.
  std::vector<std::pair<std::int64_t, Trace>> merged;
  for (const Shard& shard : shards_) {
    const std::lock_guard<ProfiledMutex> lock(shard.mutex);
    std::size_t taken = 0;
    for (auto it = shard.ring.rbegin();
         it != shard.ring.rend() && taken < limit; ++it, ++taken) {
      merged.emplace_back(it->opened_ns, it->trace);
    }
  }
  std::stable_sort(
      merged.begin(), merged.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<Trace> out;
  out.reserve(std::min(limit, merged.size()));
  for (auto& entry : merged) {
    if (out.size() == limit) break;
    out.push_back(std::move(entry.second));
  }
  return out;
}

std::vector<Trace> Tracer::slow(std::size_t limit) const {
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  std::vector<Trace> out;
  out.reserve(std::min(limit, slow_ring_.size()));
  for (auto it = slow_ring_.rbegin();
       it != slow_ring_.rend() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::uint64_t Tracer::slow_count() const {
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  return slow_count_;
}

void Tracer::mark_slow_locked(Trace& trace) {
  // The trace's shard lock is held, so slow_logged flips once per
  // trace; the slow ring and log take their own lock after it.
  trace.slow_logged = true;
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  ++slow_count_;
  slow_ring_.push_back(trace);
  while (slow_ring_.size() > config_.slow_capacity) slow_ring_.pop_front();
  if (config_.slow_log != nullptr) {
    std::ostream& log = *config_.slow_log;
    log << "[slow-trace] id=" << id_to_hex(trace.id);
    if (!trace.label.empty()) log << " label=" << trace.label;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), " total_ms=%.3f",
                  trace.total_seconds * 1e3);
    log << buffer << " spans=" << trace.spans.size();
    for (const Span& span : trace.spans) {
      std::snprintf(buffer, sizeof(buffer), " %s@r%d=%.3fms",
                    span.name.c_str(), span.rank,
                    span.duration_seconds * 1e3);
      log << buffer;
    }
    log << "\n";
  }
}

std::string id_to_hex(std::uint64_t id) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(id));
  return buffer;
}

std::uint64_t id_from_hex(const std::string& text) {
  if (text.empty() || text.size() > 16) return 0;
  std::uint64_t id = 0;
  for (char c : text) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      id |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return id;
}


void Telemetry::init() {
  // Wall-clock birth time: a scraper comparing two expositions tells a
  // counter reset apart from corruption by whether this moved.
  metrics.gauge("process_start_time_seconds")
      .set(std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
               .count());
  tracer_probe_ = ProfiledMutex::make_probe(metrics, "tracer");
  tracer.attach_mutex_probe(&tracer_probe_);
  recorder.set_observer(
      [this](const FlightRecorder::Tick& tick) { alerts.evaluate(tick); });
}

}  // namespace prts::obs
