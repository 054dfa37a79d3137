// The solve service's solution cache (second layer of src/service/): an
// N-shard LRU keyed by 128-bit canonical request hashes.
//
// Sharding: a key lives in shard hi % shards, each shard owning its own
// mutex, map and LRU list, so concurrent lookups from the request
// engine's workers contend only when they land in one shard. Capacity
// is byte-bounded (estimated entry footprint), split evenly across
// shards; eviction is per-shard LRU, or cost-aware (Retention::kCost):
// among the least-recently-used tail the entry with the cheapest
// recorded solve time goes first, so expensive exact solves outlive
// cheap heuristic answers under pressure.
//
// Entries store solutions in *canonical* processor space (see
// service/canonical.hpp) — the engine translates to request labels on
// the way out — and negative results ("these bounds are infeasible for
// this solver") are cached too, so repeated infeasible probes of a
// design-space exploration stay cheap.
//
// Persistence, one format: save_binary/load_binary write and read the
// "PRTS2" snapshot, a count and then one length-prefixed entry per
// cached answer, each in the entry encoding below (service/codec.hpp:
// every double as its bit pattern, so a reloaded cache replays
// bit-identical solutions). A fabric node can load just the keys of its
// own shard: each entry leads with its key, and a foreign entry's bytes
// are skipped without being parsed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/profiler.hpp"
#include "service/canonical.hpp"
#include "service/codec.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// A cached answer: the canonical-space solution, or nullopt for a
/// cached "no feasible mapping under these bounds", plus the wall-clock
/// cost of the solve that produced it (the cost-aware retention
/// weight; 0 when unknown).
///
/// `instance_key` + `bounds` are the near-miss index metadata: the
/// bounds-erased (canonical instance, solver) batch key this entry's
/// request hashed under, and the bounds it was solved for. Entries
/// carrying both feed the bounds-monotone secondary index (see
/// find_dominating below); entries without them — wire replies, and
/// solves of a service with near-miss reuse off — stay plain exact-key
/// entries.
struct CachedSolution {
  CachedSolution() = default;
  // Not an aggregate: the trailing members default without tripping
  // -Wmissing-field-initializers at the many shorter call sites.
  explicit CachedSolution(std::optional<solver::Solution> solution,
                          double cost_seconds = 0.0,
                          std::optional<CanonicalHash> instance_key = {},
                          std::optional<solver::Bounds> bounds = {})
      : solution(std::move(solution)),
        cost_seconds(cost_seconds),
        instance_key(instance_key),
        bounds(bounds) {}

  std::optional<solver::Solution> solution;
  double cost_seconds = 0.0;
  std::optional<CanonicalHash> instance_key;
  std::optional<solver::Bounds> bounds;

  bool indexable() const noexcept {
    return instance_key.has_value() && bounds.has_value();
  }
};

/// Aggregated counters (summed over shards; a snapshot, not a fence).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t near_hits = 0;  ///< answers served via find_dominating
  std::size_t entries = 0;
  std::size_t near_entries = 0;  ///< live bounds-index entries
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
  std::size_t shards = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Estimated in-memory footprint of one entry (key + metrics + mapping
/// vectors); the unit the byte bound is accounted in.
std::size_t cached_solution_bytes(const CachedSolution& value) noexcept;

/// One entry in the binary encoding of service/codec.hpp, one layout:
///   key (16 B)
///   u8 flags            bit 0: feasible; bit 1: near-miss metadata
///   [feasible]          u32 m, then m x {u64 interval end,
///                       u32 r, r x u64 processor}; the nine metrics
///                       (log reliability, failure, EL, WL, EP, WP as
///                       f64, interval count and processors used as
///                       u64, replication level as f64)
///   f64 cost
///   [metadata]          instance key (16 B), f64 period bound,
///                       f64 latency bound
/// The codec shared by the snapshot file and the wire payloads of
/// service/wire.hpp (replies, replica entries, handoff chunks).
void encode_cache_entry(ByteWriter& out, const CanonicalHash& key,
                        const CachedSolution& value);
std::string encode_cache_entry(const CanonicalHash& key,
                               const CachedSolution& value);

/// The least bytes an encoded entry takes: key, flags and cost.
inline constexpr std::size_t kCacheEntryMinBytes = 16 + 1 + 8;

/// Reads one encode_cache_entry entry from `in`; false with a reason on
/// truncated, malformed or inconsistent bytes (a mapping whose
/// intervals do not tile the chain included). Never throws.
bool parse_cache_entry(ByteReader& in, CanonicalHash& key,
                       CachedSolution& value, std::string& error);
/// As above, and `bytes` must hold exactly one entry.
bool parse_cache_entry(std::string_view bytes, CanonicalHash& key,
                       CachedSolution& value, std::string& error);

class ShardedSolutionCache {
 public:
  /// Eviction order within a shard once the byte budget is exceeded.
  enum class Retention {
    kLru,   ///< strict least-recently-used
    kCost,  ///< cheapest solve among the LRU tail window goes first
  };

  struct Config {
    std::size_t shards = 16;                        ///< clamped to >= 1
    std::size_t capacity_bytes = 64 * 1024 * 1024;  ///< across all shards
    Retention retention = Retention::kLru;
    /// kCost examines this many tail entries per eviction (bounded so
    /// eviction stays O(1)-ish rather than a full shard scan).
    std::size_t cost_window = 8;
    /// Bounds-index entries kept per (instance, solver) batch key; a
    /// long bound sweep over one instance must not grow the index
    /// without limit (oldest recorded bounds are dropped first).
    std::size_t near_index_per_instance = 256;
  };

  ShardedSolutionCache() : ShardedSolutionCache(Config()) {}
  explicit ShardedSolutionCache(Config config);

  /// The entry under `key` (refreshing its LRU position), or nullopt.
  std::optional<CachedSolution> lookup(const CanonicalHash& key);

  /// lookup() without side effects: no LRU refresh, no hit/miss
  /// counting. Serves the fabric's replica-fetch frames, which must not
  /// distort the owner's recency order or hit-rate statistics.
  std::optional<CachedSolution> peek(const CanonicalHash& key) const;

  /// Feasibility + metrics + cost of an entry without copying its
  /// mapping — the near-miss index walks filter on metrics alone and
  /// must not pay a full solution copy per rejected candidate.
  struct EntrySummary {
    bool feasible = false;
    MappingMetrics metrics;  ///< meaningful only when feasible
    double cost_seconds = 0.0;
  };
  std::optional<EntrySummary> peek_summary(const CanonicalHash& key) const;

  /// peek() without the entry copy — the gossip digest's "is this key
  /// still fetchable?" filter.
  bool contains(const CanonicalHash& key) const;

  /// Inserts or refreshes `key`; evicts entries of the shard while it
  /// is over its byte budget (never the entry just inserted — a single
  /// oversized entry is kept and evicted by the next insertion).
  /// Entries carrying near-miss metadata (see CachedSolution) are also
  /// recorded in the bounds-monotone secondary index.
  void insert(const CanonicalHash& key, CachedSolution value);

  /// The bounds-monotone near-miss lookup: an entry of `instance_key`
  /// (= batch_key: canonical instance + solver, bounds erased) cached
  /// for bounds at least as loose as `bounds` in both dimensions, whose
  /// answer transfers to `bounds` — a feasible solution that already
  /// satisfies the tighter request (for a bounds-monotone engine it IS
  /// the tighter request's answer, bit-identically), or a cached
  /// infeasibility (looser-infeasible implies tighter-infeasible).
  /// Callers must gate this on Solver::bounds_monotone. Entries whose
  /// main-cache record was evicted are dropped from the index lazily.
  std::optional<CachedSolution> find_dominating(
      const CanonicalHash& instance_key, const solver::Bounds& bounds);

  /// The incumbent lookup: among every cached entry of `instance_key`
  /// (any bounds) whose solution satisfies `bounds`, the most reliable
  /// one — a feasible answer for the request from the same solver at
  /// other bounds (the deadline-downgrade path weighs it against the
  /// fallback solver's answer). nullopt when no cached solution fits.
  std::optional<CachedSolution> find_feasible(
      const CanonicalHash& instance_key, const solver::Bounds& bounds);

  /// Drops every entry (counters are kept).
  void clear();

  CacheStats stats() const;

  /// Snapshot of every resident key, shard iteration order (one shard
  /// locked at a time — concurrent insertions may or may not appear).
  /// The membership handoff scans this to find the slice a new owner
  /// takes, then streams the entries via peek().
  std::vector<CanonicalHash> keys() const;

  struct LoadResult {
    std::size_t loaded = 0;   ///< entries inserted
    std::size_t skipped = 0;  ///< entries rejected by the filter
    std::string error;        ///< first malformed input, empty when clean
  };

  /// Writes the snapshot:
  ///   "PRTS2\n"  u64 count  count x {u32 length, entry}
  /// Shard iteration order (one shard locked at a time); entries are
  /// encode_cache_entry bytes.
  void save_binary(std::ostream& out) const;

  /// Loads a save_binary snapshot, inserting entries as it goes. When
  /// `filter` is set only keys it accepts are parsed; every other entry
  /// is skipped by its length. Stops at the first malformed entry and
  /// refuses a file whose entries fall short of its count or run past
  /// it (entries loaded before the fault are kept). Any other file,
  /// TSV and PRTS1 snapshots included, is refused.
  LoadResult load_binary(
      std::istream& in,
      const std::function<bool(const CanonicalHash&)>& filter = {});

  /// Writes the stats snapshot as one JSON object.
  static void write_stats_json(std::ostream& out, const CacheStats& stats);

  /// Attaches one shared contention probe to every shard mutex (main
  /// and near-index alike): per-shard contention aggregates into a
  /// single "cache_shard" family instead of 2N histogram families. The
  /// probe must outlive the cache; nullptr detaches.
  void attach_mutex_probe(const obs::ProfiledMutex::Probe* probe) noexcept;

  /// Tracks the live entry count in `gauge` from now on (a registry's
  /// prts_cache_entries). The gauge must outlive the cache; until one
  /// is attached the cache keeps the count in a gauge of its own.
  void attach_entries_gauge(obs::Gauge& gauge) noexcept;

 private:
  struct Entry {
    CanonicalHash key;
    CachedSolution value;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable obs::ProfiledMutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<CanonicalHash, std::list<Entry>::iterator, CanonicalKeyHasher>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// One recorded (bounds, request key) pair of an instance's sweep
  /// history. The solution itself stays in the main cache — the index
  /// only remembers where to peek, so eviction needs no cross-shard
  /// coordination (dead references are dropped lazily on lookup).
  struct NearEntry {
    solver::Bounds bounds;
    CanonicalHash request_key;
  };

  /// Secondary index sharded by *instance* key (request keys of one
  /// instance scatter across the main shards, so the index cannot ride
  /// them). Lock order: an index mutex may be held while peeking a main
  /// shard, never the reverse.
  struct NearShard {
    mutable obs::ProfiledMutex mutex;
    std::unordered_map<CanonicalHash, std::vector<NearEntry>,
                       CanonicalKeyHasher>
        map;
    std::uint64_t near_hits = 0;
  };

  Shard& shard_of(const CanonicalHash& key) noexcept {
    return shards_[key.hi % shards_.size()];
  }
  const Shard& shard_of(const CanonicalHash& key) const noexcept {
    return shards_[key.hi % shards_.size()];
  }
  NearShard& near_shard_of(const CanonicalHash& instance_key) noexcept {
    return near_shards_[instance_key.hi % near_shards_.size()];
  }

  /// Drops one entry chosen by the retention policy (shard lock held;
  /// the shard has >= 2 entries).
  void evict_one(Shard& shard);

  std::vector<Shard> shards_;  // sized once in the ctor, never resized
  std::vector<NearShard> near_shards_;  // ditto
  std::size_t per_shard_capacity_;
  Retention retention_;
  std::size_t cost_window_;
  std::size_t near_index_per_instance_;
  obs::Gauge own_entries_;
  obs::Gauge* entries_ = &own_entries_;  ///< live entries, all shards
};

/// Replica-tier counters (monotonic except entries/bytes snapshots),
/// read from the registry: hits from prts_router_replica_hits_total
/// (the router's replica_hits is the same counter), the rest from
/// replica_<field>_total.
struct ReplicaStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;    ///< dropped for the byte budget
  std::uint64_t expirations = 0;  ///< dropped because the TTL lapsed
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
};

/// The fabric's replica tier: a bounded, TTL'd LRU of *remote-shard*
/// answers kept on the requesting rank, so repeat hits on a peer's keys
/// stop paying the network round trip. Entries are immutable (a
/// canonical key fully determines its solution), so there is no
/// invalidation protocol — only the TTL, which bounds how long a rank
/// serves a key after its owner forgot it (capacity-evicted it), keeping
/// the fabric's effective working set fresh.
///
/// Expiry is lazy (checked on lookup) against caller-supplied
/// timestamps, defaulting to steady_clock::now() — tests inject times
/// instead of sleeping. A zero byte capacity disables the tier; a
/// non-positive TTL means entries never expire.
class ReplicaCache {
 public:
  using Clock = std::chrono::steady_clock;

  struct Config {
    std::size_t capacity_bytes = 16 * 1024 * 1024;  ///< 0 disables
    double ttl_seconds = 300.0;                     ///< <= 0: no expiry
    /// Adaptive TTL: extra lifetime granted per second of the entry's
    /// recorded solve cost (ttl = ttl_seconds + cost * factor), so an
    /// expensive exact solve replicates longer than a cheap heuristic
    /// answer. 0 keeps the flat TTL.
    double ttl_cost_factor = 0.0;
    /// Cap on the adaptive TTL; <= 0 means 16x the base TTL (one
    /// pathological cost must not pin an entry forever).
    double ttl_max_seconds = 0.0;
  };

  ReplicaCache() : ReplicaCache(Config()) {}
  /// `metrics` (must outlive the cache) holds the counters; nullptr:
  /// the cache owns a registry of its own.
  explicit ReplicaCache(Config config, obs::Registry* metrics = nullptr);

  bool enabled() const noexcept { return capacity_bytes_ > 0; }

  /// The live entry under `key` (refreshing its LRU position), or
  /// nullopt; an expired entry is dropped and reported as a miss.
  std::optional<CachedSolution> lookup(const CanonicalHash& key,
                                       Clock::time_point now = Clock::now());

  /// True when a live entry exists; no LRU refresh, no hit/miss
  /// counting (the prefetcher's "do I already hold this?" probe).
  bool contains(const CanonicalHash& key,
                Clock::time_point now = Clock::now()) const;

  /// Inserts or refreshes `key` (the TTL restarts), then evicts LRU
  /// entries while over the byte budget. No-op when disabled.
  void insert(const CanonicalHash& key, CachedSolution value,
              Clock::time_point now = Clock::now());

  /// Drops every entry (counters are kept).
  void clear();

  ReplicaStats stats() const;
  static void write_stats_json(std::ostream& out, const ReplicaStats& stats);

 private:
  struct Entry {
    CanonicalHash key;
    CachedSolution value;
    std::size_t bytes = 0;
    Clock::time_point expires_at;  ///< max() when the TTL is disabled
  };

  Clock::time_point expiry_for(Clock::time_point now,
                               double cost_seconds) const noexcept;

  const std::size_t capacity_bytes_;
  const double ttl_seconds_;
  const double ttl_cost_factor_;
  const double ttl_max_seconds_;

  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry& metrics_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& insertions_;
  obs::Counter& evictions_;
  obs::Counter& expirations_;

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<CanonicalHash, std::list<Entry>::iterator, CanonicalKeyHasher>
      index_;
  std::size_t bytes_ = 0;
};

}  // namespace prts::service
