#include "service/cache.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "model/interval.hpp"

namespace prts::service {
namespace {

constexpr std::uint8_t kEntryFeasible = 1;
constexpr std::uint8_t kEntryIndexed = 2;
/// An interval's least bytes: its end and its replica count.
constexpr std::size_t kIntervalMinBytes = 8 + 4;

constexpr char kSnapshotMagic[6] = {'P', 'R', 'T', 'S', '2', '\n'};
/// A corrupted entry length must not turn into a huge read.
constexpr std::uint32_t kMaxEntryBytes = 16 * 1024 * 1024;

/// Appends `length` bytes of `in` to `out`, growing `out` only as bytes
/// arrive, so a length the stream cannot back allocates nothing more.
bool append_exactly(std::istream& in, std::string& out, std::size_t length) {
  char chunk[4096];
  while (length > 0) {
    const std::size_t want = std::min(length, sizeof(chunk));
    if (!in.read(chunk, static_cast<std::streamsize>(want))) return false;
    out.append(chunk, want);
    length -= want;
  }
  return true;
}

}  // namespace

std::size_t cached_solution_bytes(const CachedSolution& value) noexcept {
  // Fixed per-entry overhead: key, list/map nodes, metrics struct.
  std::size_t bytes = 160;
  if (value.solution) {
    const Mapping& mapping = value.solution->mapping;
    bytes += mapping.interval_count() * (sizeof(Interval) + sizeof(void*) * 3);
    bytes += mapping.processors_used() * sizeof(std::size_t);
  }
  // Near-miss metadata plus its bounds-index slot.
  if (value.indexable()) bytes += 64;
  return bytes;
}

void encode_cache_entry(ByteWriter& out, const CanonicalHash& key,
                        const CachedSolution& value) {
  out.key(key);
  out.u8((value.solution ? kEntryFeasible : 0) |
         (value.indexable() ? kEntryIndexed : 0));
  if (value.solution) {
    const Mapping& mapping = value.solution->mapping;
    out.u32(static_cast<std::uint32_t>(mapping.interval_count()));
    for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
      out.u64(mapping.partition().interval(j).last);
      const auto procs = mapping.processors(j);
      out.u32(static_cast<std::uint32_t>(procs.size()));
      for (const std::size_t proc : procs) out.u64(proc);
    }
    const MappingMetrics& metrics = value.solution->metrics;
    out.f64(metrics.reliability.log());
    out.f64(metrics.failure);
    out.f64(metrics.expected_latency);
    out.f64(metrics.worst_latency);
    out.f64(metrics.expected_period);
    out.f64(metrics.worst_period);
    out.u64(metrics.interval_count);
    out.u64(metrics.processors_used);
    out.f64(metrics.replication_level);
  }
  out.f64(value.cost_seconds);
  if (value.indexable()) {
    out.key(*value.instance_key);
    out.f64(value.bounds->period_bound);
    out.f64(value.bounds->latency_bound);
  }
}

std::string encode_cache_entry(const CanonicalHash& key,
                               const CachedSolution& value) {
  ByteWriter out;
  encode_cache_entry(out, key, value);
  return out.take();
}

bool parse_cache_entry(ByteReader& in, CanonicalHash& key,
                       CachedSolution& value, std::string& error) {
  const auto bad = [&](const char* what) {
    error = what;
    return false;
  };

  CanonicalHash parsed_key;
  std::uint8_t flags = 0;
  if (!in.key(parsed_key) || !in.u8(flags)) return bad("truncated entry");
  if ((flags & ~(kEntryFeasible | kEntryIndexed)) != 0) {
    return bad("unknown entry flags");
  }
  CachedSolution parsed;
  if ((flags & kEntryFeasible) != 0) {
    std::size_t intervals = 0;
    if (!in.count(intervals, kIntervalMinBytes) || intervals == 0) {
      return bad("malformed interval count");
    }
    std::vector<std::size_t> lasts(intervals);
    std::vector<std::vector<std::size_t>> procs(intervals);
    for (std::size_t j = 0; j < intervals; ++j) {
      std::size_t replicas = 0;
      if (!in.u64(lasts[j]) || !in.count(replicas, 8)) {
        return bad("malformed replica list");
      }
      procs[j].resize(replicas);
      for (std::size_t& proc : procs[j]) in.u64(proc);
    }
    MappingMetrics metrics;
    double log_r = 0.0;
    if (!in.f64(log_r) || !in.f64(metrics.failure) ||
        !in.f64(metrics.expected_latency) || !in.f64(metrics.worst_latency) ||
        !in.f64(metrics.expected_period) || !in.f64(metrics.worst_period) ||
        !in.u64(metrics.interval_count) || !in.u64(metrics.processors_used) ||
        !in.f64(metrics.replication_level)) {
      return bad("truncated metrics");
    }
    metrics.reliability = LogReliability::from_log(log_r);
    try {
      Mapping mapping(
          IntervalPartition::from_boundaries(lasts, lasts.back() + 1),
          std::move(procs));
      parsed.solution = solver::Solution{std::move(mapping), metrics};
    } catch (const std::exception& why) {
      error = std::string("invalid mapping: ") + why.what();
      return false;
    }
  }
  if (!in.f64(parsed.cost_seconds)) return bad("truncated cost");
  if ((flags & kEntryIndexed) != 0) {
    CanonicalHash instance_key;
    solver::Bounds bounds;
    if (!in.key(instance_key) || !in.f64(bounds.period_bound) ||
        !in.f64(bounds.latency_bound)) {
      return bad("truncated near-miss metadata");
    }
    parsed.instance_key = instance_key;
    parsed.bounds = bounds;
  }
  key = parsed_key;
  value = std::move(parsed);
  return true;
}

bool parse_cache_entry(std::string_view bytes, CanonicalHash& key,
                       CachedSolution& value, std::string& error) {
  ByteReader in(bytes);
  if (!parse_cache_entry(in, key, value, error)) return false;
  if (in.at_end()) return true;
  error = "bytes past the end of the entry";
  return false;
}

ShardedSolutionCache::ShardedSolutionCache(Config config)
    : shards_(std::max<std::size_t>(1, config.shards)),
      near_shards_(shards_.size()),
      per_shard_capacity_(
          std::max<std::size_t>(1, config.capacity_bytes / shards_.size())),
      retention_(config.retention),
      cost_window_(std::max<std::size_t>(1, config.cost_window)),
      near_index_per_instance_(
          std::max<std::size_t>(1, config.near_index_per_instance)) {}

std::optional<CachedSolution> ShardedSolutionCache::lookup(
    const CanonicalHash& key) {
  Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

std::optional<CachedSolution> ShardedSolutionCache::peek(
    const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  return it->second->value;
}

std::optional<ShardedSolutionCache::EntrySummary>
ShardedSolutionCache::peek_summary(const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  EntrySummary summary;
  summary.cost_seconds = it->second->value.cost_seconds;
  if (it->second->value.solution) {
    summary.feasible = true;
    summary.metrics = it->second->value.solution->metrics;
  }
  return summary;
}

bool ShardedSolutionCache::contains(const CanonicalHash& key) const {
  const Shard& shard = shard_of(key);
  const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
  return shard.index.count(key) > 0;
}

void ShardedSolutionCache::evict_one(Shard& shard) {
  auto victim = std::prev(shard.lru.end());
  if (retention_ == Retention::kCost) {
    // Scan a bounded tail window for the cheapest solve; ties keep the
    // least recent. The window never reaches the front entry (the one
    // just inserted or refreshed).
    auto candidate = victim;
    for (std::size_t examined = 1;
         examined < cost_window_ && candidate != shard.lru.begin();
         ++examined) {
      --candidate;
      if (candidate == shard.lru.begin()) break;
      if (candidate->value.cost_seconds < victim->value.cost_seconds) {
        victim = candidate;
      }
    }
  }
  shard.bytes -= victim->bytes;
  shard.index.erase(victim->key);
  shard.lru.erase(victim);
  ++shard.evictions;
  entries_->add(-1.0);
}

void ShardedSolutionCache::insert(const CanonicalHash& key,
                                  CachedSolution value) {
  const std::size_t bytes = cached_solution_bytes(value);
  // Remembered before `value` is moved into the shard; the index update
  // runs after the shard lock is released (shard locks are leaves: the
  // near-miss lookups hold an index mutex *while* peeking a shard).
  const bool indexable = value.indexable();
  const CanonicalHash instance_key =
      indexable ? *value.instance_key : CanonicalHash{};
  const solver::Bounds bounds = indexable ? *value.bounds : solver::Bounds{};
  {
    Shard& shard = shard_of(key);
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      shard.bytes += bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), bytes});
      shard.index.emplace(key, shard.lru.begin());
      shard.bytes += bytes;
      ++shard.insertions;
      entries_->add(1.0);
    }
    while (shard.bytes > per_shard_capacity_ && shard.lru.size() > 1) {
      evict_one(shard);
    }
  }
  if (!indexable) return;

  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  std::vector<NearEntry>& entries = near.map[instance_key];
  for (const NearEntry& entry : entries) {
    // A request key is a function of (instance, solver, bounds): the
    // same key always records the same bounds, so refreshes are no-ops.
    if (entry.request_key == key) return;
  }
  // Bounded sweep history per instance: oldest recorded bounds go
  // first (a ladder revisits recent neighborhoods, not its start).
  if (entries.size() >= near_index_per_instance_) {
    entries.erase(entries.begin());
  }
  entries.push_back(NearEntry{bounds, key});
}

std::optional<CachedSolution> ShardedSolutionCache::find_dominating(
    const CanonicalHash& instance_key, const solver::Bounds& bounds) {
  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  const auto it = near.map.find(instance_key);
  if (it == near.map.end()) return std::nullopt;
  std::vector<NearEntry>& entries = it->second;
  for (std::size_t i = 0; i < entries.size();) {
    const NearEntry& entry = entries[i];
    const bool dominates =
        entry.bounds.period_bound >= bounds.period_bound &&
        entry.bounds.latency_bound >= bounds.latency_bound;
    if (!dominates) {
      ++i;
      continue;
    }
    // Summary peek, not lookup: a dead candidate must not count a
    // main-cache miss, and rejected candidates must not pay a mapping
    // copy; near hits keep their own counter.
    const auto summary = peek_summary(entry.request_key);
    if (!summary) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;  // evicted under us; forget the reference
    }
    // Infeasible at looser bounds => infeasible here. A feasible
    // solution transfers only when it already satisfies the tighter
    // request (then, for a bounds-monotone engine, it *is* the
    // optimum here too — any qualifying entry gives the same answer).
    if (!summary->feasible ||
        solver::within_bounds(summary->metrics, bounds)) {
      auto value = peek(entry.request_key);
      if (!value) {  // lost a race with eviction between the peeks
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++near.near_hits;
      return value;
    }
    ++i;
  }
  return std::nullopt;
}

std::optional<CachedSolution> ShardedSolutionCache::find_feasible(
    const CanonicalHash& instance_key, const solver::Bounds& bounds) {
  NearShard& near = near_shard_of(instance_key);
  const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
  const auto it = near.map.find(instance_key);
  if (it == near.map.end()) return std::nullopt;
  std::vector<NearEntry>& entries = it->second;
  std::optional<CanonicalHash> best_key;
  double best_log = 0.0;
  for (std::size_t i = 0; i < entries.size();) {
    // Metrics-only walk; the single winner is copied out at the end.
    const auto summary = peek_summary(entries[i].request_key);
    if (!summary) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    // Any cached solution satisfying the request bounds is a feasible
    // incumbent for it, wherever on the bounds lattice it came from;
    // the most reliable one is the best incumbent.
    if (summary->feasible &&
        solver::within_bounds(summary->metrics, bounds) &&
        (!best_key || summary->metrics.reliability.log() > best_log)) {
      best_key = entries[i].request_key;
      best_log = summary->metrics.reliability.log();
    }
    ++i;
  }
  if (!best_key) return std::nullopt;
  auto best = peek(*best_key);
  // The winner may have been evicted between the walks; a lost
  // incumbent only leaves the caller with the answer it already has.
  if (!best || !best->solution) return std::nullopt;
  return best;
}

void ShardedSolutionCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    entries_->add(-static_cast<double>(shard.lru.size()));
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  for (NearShard& near : near_shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
    near.map.clear();
  }
}

CacheStats ShardedSolutionCache::stats() const {
  CacheStats stats;
  stats.shards = shards_.size();
  stats.capacity_bytes = per_shard_capacity_ * shards_.size();
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.entries += shard.lru.size();
    stats.bytes += shard.bytes;
  }
  for (const NearShard& near : near_shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(near.mutex);
    stats.near_hits += near.near_hits;
    for (const auto& [key, entries] : near.map) {
      stats.near_entries += entries.size();
    }
  }
  return stats;
}

std::vector<CanonicalHash> ShardedSolutionCache::keys() const {
  std::vector<CanonicalHash> keys;
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) keys.push_back(entry.key);
  }
  return keys;
}

void ShardedSolutionCache::save_binary(std::ostream& out) const {
  // Encode shard by shard (one shard lock at a time), then write: the
  // count leads the entries.
  ByteWriter body;
  std::uint64_t count = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<obs::ProfiledMutex> lock(shard.mutex);
    for (const Entry& entry : shard.lru) {
      const std::string bytes = encode_cache_entry(entry.key, entry.value);
      // The loader refuses longer entries as corrupt; never write one
      // (a pathological entry is dropped, not allowed to brick the
      // snapshot).
      if (bytes.size() > kMaxEntryBytes) continue;
      body.u32(static_cast<std::uint32_t>(bytes.size()));
      body.raw(bytes);
      ++count;
    }
  }
  ByteWriter header;
  header.raw({kSnapshotMagic, sizeof(kSnapshotMagic)});
  header.u64(count);
  out.write(header.bytes().data(),
            static_cast<std::streamsize>(header.bytes().size()));
  out.write(body.bytes().data(),
            static_cast<std::streamsize>(body.bytes().size()));
}

ShardedSolutionCache::LoadResult ShardedSolutionCache::load_binary(
    std::istream& in,
    const std::function<bool(const CanonicalHash&)>& filter) {
  LoadResult result;
  const auto bad = [&](const std::string& what) {
    result.error = what;
    return result;
  };

  char magic[sizeof(kSnapshotMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return bad("not a PRTS2 snapshot (TSV and PRTS1 cache files are "
               "refused)");
  }
  char count_bytes[8];
  std::uint64_t count = 0;
  if (!in.read(count_bytes, sizeof(count_bytes)) ||
      !ByteReader({count_bytes, sizeof(count_bytes)}).u64(count)) {
    return bad("truncated header");
  }

  std::string bytes;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bad_entry = [&](const std::string& what) {
      return bad("entry " + std::to_string(i + 1) + " of " +
                 std::to_string(count) + ": " + what);
    };
    // The length and the entry's leading key.
    char prefix[4 + 16];
    std::uint32_t length = 0;
    CanonicalHash key;
    ByteReader head({prefix, sizeof(prefix)});
    if (!in.read(prefix, sizeof(prefix)) || !head.u32(length) ||
        !head.key(key)) {
      return bad_entry("truncated");
    }
    if (length < kCacheEntryMinBytes || length > kMaxEntryBytes) {
      return bad_entry("bad length " + std::to_string(length));
    }
    const std::size_t rest = length - 16;
    if (filter && !filter(key)) {
      in.ignore(static_cast<std::streamsize>(rest));
      if (in.gcount() != static_cast<std::streamsize>(rest)) {
        return bad_entry("truncated");
      }
      ++result.skipped;
      continue;
    }
    bytes.assign(prefix + 4, 16);
    if (!append_exactly(in, bytes, rest)) return bad_entry("truncated");
    CachedSolution value;
    std::string why;
    if (!parse_cache_entry(bytes, key, value, why)) return bad_entry(why);
    insert(key, std::move(value));
    ++result.loaded;
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return bad("bytes past the last of " + std::to_string(count) +
               " entries");
  }
  return result;
}

void ShardedSolutionCache::write_stats_json(std::ostream& out,
                                            const CacheStats& stats) {
  out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"hit_rate\":" << canonical_number(stats.hit_rate())
      << ",\"insertions\":" << stats.insertions
      << ",\"evictions\":" << stats.evictions
      << ",\"near_hits\":" << stats.near_hits
      << ",\"entries\":" << stats.entries
      << ",\"near_entries\":" << stats.near_entries
      << ",\"bytes\":" << stats.bytes
      << ",\"capacity_bytes\":" << stats.capacity_bytes
      << ",\"shards\":" << stats.shards << "}";
}

void ShardedSolutionCache::attach_mutex_probe(
    const obs::ProfiledMutex::Probe* probe) noexcept {
  for (Shard& shard : shards_) shard.mutex.attach(probe);
  for (NearShard& near : near_shards_) near.mutex.attach(probe);
}

void ShardedSolutionCache::attach_entries_gauge(obs::Gauge& gauge) noexcept {
  gauge.set(entries_->value());
  entries_ = &gauge;
}

// ----------------------------------------------------------- replica tier

ReplicaCache::ReplicaCache(Config config, obs::Registry* metrics)
    : capacity_bytes_(config.capacity_bytes),
      ttl_seconds_(config.ttl_seconds),
      ttl_cost_factor_(std::max(0.0, config.ttl_cost_factor)),
      ttl_max_seconds_(config.ttl_max_seconds),
      metrics_(obs::given_or_owned(metrics, owned_metrics_)),
      hits_(metrics_.counter("prts_router_replica_hits_total")),
      misses_(metrics_.counter("replica_misses_total")),
      insertions_(metrics_.counter("replica_insertions_total")),
      evictions_(metrics_.counter("replica_evictions_total")),
      expirations_(metrics_.counter("replica_expirations_total")) {}

ReplicaCache::Clock::time_point ReplicaCache::expiry_for(
    Clock::time_point now, double cost_seconds) const noexcept {
  if (ttl_seconds_ <= 0.0) return Clock::time_point::max();
  // Adaptive TTL: entries that were expensive to produce stay
  // replicated longer (re-deriving them after expiry costs a full
  // remote solve, not just a fetch), capped so a pathological recorded
  // cost cannot pin an entry effectively forever.
  double seconds = ttl_seconds_;
  if (ttl_cost_factor_ > 0.0 && cost_seconds > 0.0) {
    // The cap bounds the *extension*, never the base TTL — a cap below
    // ttl_seconds must not make expensive entries expire sooner than
    // free ones.
    const double cap = std::max(
        ttl_seconds_,
        ttl_max_seconds_ > 0.0 ? ttl_max_seconds_ : 16.0 * ttl_seconds_);
    seconds = std::min(cap, seconds + cost_seconds * ttl_cost_factor_);
  }
  // Clamp huge TTLs instead of overflowing the time_point arithmetic.
  const std::chrono::duration<double> ttl(seconds);
  if (ttl > Clock::time_point::max() - now) return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(ttl);
}

std::optional<CachedSolution> ReplicaCache::lookup(const CanonicalHash& key,
                                                   Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.add();
    return std::nullopt;
  }
  if (now >= it->second->expires_at) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    expirations_.add();
    misses_.add();
    return std::nullopt;
  }
  hits_.add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool ReplicaCache::contains(const CanonicalHash& key,
                            Clock::time_point now) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it != index_.end() && now < it->second->expires_at;
}

void ReplicaCache::insert(const CanonicalHash& key, CachedSolution value,
                          Clock::time_point now) {
  if (capacity_bytes_ == 0) return;
  const std::size_t bytes = cached_solution_bytes(value);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto expires_at = expiry_for(now, value.cost_seconds);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    it->second->expires_at = expires_at;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(value), bytes, expires_at});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    insertions_.add();
  }
  // Never evict the entry just inserted; one oversized entry is kept
  // (and displaced by the next insertion), mirroring the engine cache.
  while (bytes_ > capacity_bytes_ && lru_.size() > 1) {
    const auto victim = std::prev(lru_.end());
    bytes_ -= victim->bytes;
    index_.erase(victim->key);
    lru_.erase(victim);
    evictions_.add();
  }
}

void ReplicaCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ReplicaStats ReplicaCache::stats() const {
  ReplicaStats stats;
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.insertions = insertions_.value();
  stats.evictions = evictions_.value();
  stats.expirations = expirations_.value();
  const std::lock_guard<std::mutex> lock(mutex_);
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  stats.capacity_bytes = capacity_bytes_;
  return stats;
}

void ReplicaCache::write_stats_json(std::ostream& out,
                                    const ReplicaStats& stats) {
  out << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
      << ",\"insertions\":" << stats.insertions
      << ",\"evictions\":" << stats.evictions
      << ",\"expirations\":" << stats.expirations
      << ",\"entries\":" << stats.entries << ",\"bytes\":" << stats.bytes
      << ",\"capacity_bytes\":" << stats.capacity_bytes << "}";
}

}  // namespace prts::service
