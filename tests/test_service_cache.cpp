// The sharded LRU solution cache: hit/miss/eviction behavior, byte
// bounds, stats, and TSV persistence replaying bit-identical solutions.
// Plus the fabric's replica tier: TTL expiry against injected clocks,
// byte-bounded LRU eviction, and side-effect-free peeks.
#include "service/cache.hpp"

#include <chrono>
#include <sstream>

#include <gtest/gtest.h>

#include "eval/evaluation.hpp"

namespace prts::service {
namespace {

CanonicalHash key_of(int i) {
  return fingerprint("key-" + std::to_string(i));
}

Instance tiny_instance() {
  std::vector<Task> tasks{{5.0, 1.0}, {7.0, 0.0}};
  std::vector<Processor> procs{{1.0, 1e-8}, {1.0, 1e-8}, {1.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// A real evaluated solution so persisted metrics have realistic values.
CachedSolution feasible_entry(const Instance& instance) {
  Mapping mapping(IntervalPartition::single(2), {{0, 2}});
  const MappingMetrics metrics =
      evaluate(instance.chain, instance.platform, mapping);
  return CachedSolution{solver::Solution{std::move(mapping), metrics}};
}

TEST(SolutionCache, MissThenHit) {
  ShardedSolutionCache cache;
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(1), CachedSolution{});
  const auto hit = cache.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->solution.has_value());  // cached infeasible

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SolutionCache, StoresAndReturnsSolutions) {
  const Instance instance = tiny_instance();
  ShardedSolutionCache cache;
  const CachedSolution entry = feasible_entry(instance);
  cache.insert(key_of(7), entry);
  const auto hit = cache.lookup(key_of(7));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->solution.has_value());
  EXPECT_EQ(hit->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(hit->solution->metrics, entry.solution->metrics);
}

TEST(SolutionCache, EvictsLeastRecentlyUsedUnderByteBound) {
  ShardedSolutionCache::Config config;
  config.shards = 1;  // single shard: LRU order is global
  // Room for two infeasible entries (~160 bytes each), not three.
  config.capacity_bytes = 2 * cached_solution_bytes(CachedSolution{});
  ShardedSolutionCache cache(config);

  cache.insert(key_of(1), CachedSolution{});
  cache.insert(key_of(2), CachedSolution{});
  ASSERT_TRUE(cache.lookup(key_of(1)).has_value());  // 1 now most recent
  cache.insert(key_of(3), CachedSolution{});         // evicts 2

  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SolutionCache, KeepsASingleOversizedEntry) {
  ShardedSolutionCache::Config config;
  config.shards = 1;
  config.capacity_bytes = 1;  // below any entry's footprint
  ShardedSolutionCache cache(config);
  cache.insert(key_of(1), CachedSolution{});
  EXPECT_TRUE(cache.lookup(key_of(1)).has_value());
  cache.insert(key_of(2), CachedSolution{});  // displaces the first
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_TRUE(cache.lookup(key_of(2)).has_value());
}

TEST(SolutionCache, ReinsertRefreshesInsteadOfDuplicating) {
  ShardedSolutionCache cache;
  cache.insert(key_of(1), CachedSolution{});
  cache.insert(key_of(1), CachedSolution{});
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(SolutionCache, ClearDropsEntriesKeepsCounters) {
  ShardedSolutionCache cache;
  cache.insert(key_of(1), CachedSolution{});
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
}

TEST(SolutionCachePersistence, TsvRoundTripIsBitIdentical) {
  const Instance instance = tiny_instance();
  ShardedSolutionCache cache;
  const CachedSolution entry = feasible_entry(instance);
  cache.insert(key_of(1), entry);
  cache.insert(key_of(2), CachedSolution{});  // negative entry

  std::stringstream file;
  cache.save_tsv(file);

  ShardedSolutionCache reloaded;
  const auto result = reloaded.load_tsv(file);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.loaded, 2u);

  const auto hit = reloaded.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->solution.has_value());
  EXPECT_EQ(hit->solution->mapping, entry.solution->mapping);
  // Exact double equality: canonical_number round-trips every field.
  EXPECT_EQ(hit->solution->metrics, entry.solution->metrics);

  const auto negative = reloaded.lookup(key_of(2));
  ASSERT_TRUE(negative.has_value());
  EXPECT_FALSE(negative->solution.has_value());
}

TEST(SolutionCachePersistence, MalformedLineIsReported) {
  ShardedSolutionCache cache;
  std::stringstream file("not-a-hash\t1\t0\t0\n");
  const auto result = cache.load_tsv(file);
  EXPECT_EQ(result.loaded, 0u);
  EXPECT_NE(result.error.find("line 1"), std::string::npos);
}

TEST(SolutionCachePersistence, TsvRoundTripPreservesSolveCost) {
  ShardedSolutionCache cache;
  CachedSolution entry = feasible_entry(tiny_instance());
  entry.cost_seconds = 0.0625;  // exactly representable
  cache.insert(key_of(1), entry);
  CachedSolution negative;
  negative.cost_seconds = 1.5;
  cache.insert(key_of(2), negative);

  std::stringstream file;
  cache.save_tsv(file);
  ShardedSolutionCache reloaded;
  ASSERT_EQ(reloaded.load_tsv(file).error, "");
  EXPECT_EQ(reloaded.lookup(key_of(1))->cost_seconds, 0.0625);
  EXPECT_EQ(reloaded.lookup(key_of(2))->cost_seconds, 1.5);
}

TEST(SolutionCachePersistence, TsvLinesWithoutCostAreRejected) {
  // A negative entry without the cost field (4 fields).
  ShardedSolutionCache cache;
  std::stringstream negative(to_hex(key_of(3)) + "\t0\t-\t-\n");
  auto result = cache.load_tsv(negative);
  EXPECT_EQ(result.error, "line 1: expected >= 5 tab-separated fields");
  EXPECT_EQ(result.loaded, 0u);

  // A feasible entry without the cost field (13 fields).
  std::string line = encode_cache_entry(
      key_of(4), CachedSolution{feasible_entry(tiny_instance()).solution});
  line.erase(line.rfind('\t'));
  std::stringstream feasible(line + "\n");
  result = cache.load_tsv(feasible);
  EXPECT_EQ(result.error, "line 1: feasible entries need 14/17 fields");
  EXPECT_EQ(result.loaded, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SolutionCachePersistence, BinaryRoundTripIsBitIdentical) {
  const Instance instance = tiny_instance();
  ShardedSolutionCache cache;
  CachedSolution entry = feasible_entry(instance);
  entry.cost_seconds = 0.25;
  cache.insert(key_of(1), entry);
  cache.insert(key_of(2), CachedSolution{});  // negative entry

  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  cache.save_binary(file);

  ShardedSolutionCache reloaded;
  const auto result = reloaded.load_binary(file);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.loaded, 2u);
  EXPECT_EQ(result.skipped, 0u);

  const auto hit = reloaded.lookup(key_of(1));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->solution.has_value());
  EXPECT_EQ(hit->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(hit->solution->metrics, entry.solution->metrics);
  EXPECT_EQ(hit->cost_seconds, 0.25);
  const auto negative = reloaded.lookup(key_of(2));
  ASSERT_TRUE(negative.has_value());
  EXPECT_FALSE(negative->solution.has_value());
}

TEST(SolutionCachePersistence, BinarySelectiveLoadReadsOnlyOwnShard) {
  ShardedSolutionCache cache;
  std::size_t mine = 0;
  for (int i = 0; i < 32; ++i) {
    cache.insert(key_of(i), CachedSolution{});
    if (key_of(i).hi % 2 == 0) ++mine;
  }
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  cache.save_binary(file);

  // A rank-0-of-2 fabric node loads only the keys it owns.
  ShardedSolutionCache shard0;
  const auto result = shard0.load_binary(
      file, [](const CanonicalHash& key) { return key.hi % 2 == 0; });
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.loaded, mine);
  EXPECT_EQ(result.skipped, 32u - mine);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(shard0.lookup(key_of(i)).has_value(), key_of(i).hi % 2 == 0);
  }
}

TEST(SolutionCachePersistence, BinaryRejectsGarbage) {
  ShardedSolutionCache cache;
  std::stringstream wrong("definitely not a PRTS1 snapshot, long enough");
  EXPECT_NE(cache.load_binary(wrong).error.find("bad magic"),
            std::string::npos);

  std::stringstream truncated(std::string("PRTS1\n"));
  EXPECT_NE(cache.load_binary(truncated).error.find("truncated"),
            std::string::npos);

  // A valid header whose index promises more entries than exist.
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cache.insert(key_of(1), CachedSolution{});
  cache.save_binary(cut);
  std::string bytes = cut.str();
  bytes.resize(bytes.size() - 4);  // chop the blob
  std::stringstream chopped(bytes);
  ShardedSolutionCache fresh;
  EXPECT_FALSE(fresh.load_binary(chopped).error.empty());
}

TEST(SolutionCacheRetention, CostAwareEvictionKeepsExpensiveSolves) {
  const Instance instance = tiny_instance();
  // Entry footprint is ~160 bytes (negative) / ~250 (feasible); a tight
  // single-shard budget forces evictions from the third insert on.
  ShardedSolutionCache::Config config;
  config.shards = 1;
  config.capacity_bytes = 1000;
  config.retention = ShardedSolutionCache::Retention::kCost;
  ShardedSolutionCache cache(config);

  CachedSolution expensive = feasible_entry(instance);
  expensive.cost_seconds = 30.0;  // an exact solve worth keeping
  cache.insert(key_of(0), expensive);
  for (int i = 1; i <= 12; ++i) {
    CachedSolution cheap = feasible_entry(instance);
    cheap.cost_seconds = 1e-4;  // heuristic answers
    cache.insert(key_of(i), cheap);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // Under strict LRU key 0 would be the first victim; cost-aware
  // retention keeps it and sheds cheap entries instead.
  EXPECT_TRUE(cache.lookup(key_of(0)).has_value());

  ShardedSolutionCache::Config lru_config = config;
  lru_config.retention = ShardedSolutionCache::Retention::kLru;
  ShardedSolutionCache lru(lru_config);
  lru.insert(key_of(0), expensive);
  for (int i = 1; i <= 12; ++i) {
    CachedSolution cheap = feasible_entry(instance);
    cheap.cost_seconds = 1e-4;
    lru.insert(key_of(i), cheap);
  }
  EXPECT_FALSE(lru.lookup(key_of(0)).has_value());
}

TEST(SolutionCacheStats, JsonSnapshotNamesEveryCounter) {
  ShardedSolutionCache cache;
  cache.insert(key_of(1), CachedSolution{});
  cache.lookup(key_of(1));
  std::ostringstream out;
  ShardedSolutionCache::write_stats_json(out, cache.stats());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"insertions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":16"), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\":1"), std::string::npos);
}

// ----------------------------------------------- bounds-monotone index

CachedSolution indexed_entry(const Instance& instance,
                             const CanonicalHash& instance_key,
                             double period_bound, double latency_bound) {
  CachedSolution entry = feasible_entry(instance);
  entry.instance_key = instance_key;
  entry.bounds = solver::Bounds{period_bound, latency_bound};
  return entry;
}

TEST(NearMissIndex, DominatingEntryServesTighterBounds) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache cache;
  // Solved at (period 50, latency 100); the solution's own metrics
  // satisfy much tighter bounds.
  CachedSolution entry = indexed_entry(instance, ikey, 50.0, 100.0);
  cache.insert(key_of(1), entry);

  const MappingMetrics& metrics = entry.solution->metrics;
  solver::Bounds tighter{metrics.worst_period + 1.0,
                         metrics.worst_latency + 1.0};
  const auto hit = cache.find_dominating(ikey, tighter);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(hit->solution->metrics, entry.solution->metrics);
  EXPECT_EQ(cache.stats().near_hits, 1u);
  EXPECT_EQ(cache.stats().near_entries, 1u);

  // Bounds looser than the recorded ones never match (the entry does
  // not dominate them), and neither does a foreign instance key.
  EXPECT_FALSE(cache.find_dominating(ikey, {60.0, 100.0}).has_value());
  EXPECT_FALSE(
      cache.find_dominating(fingerprint("instance-b"), tighter).has_value());
}

TEST(NearMissIndex, DominatingEntryWhoseSolutionDoesNotFitIsSkipped) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache cache;
  CachedSolution entry = indexed_entry(instance, ikey, 50.0, 100.0);
  cache.insert(key_of(1), entry);
  // Tighter than the solution's own period: the cached answer does not
  // transfer, so this must MISS (a fresh solve could do better).
  solver::Bounds tighter{entry.solution->metrics.worst_period * 0.5, 100.0};
  EXPECT_FALSE(cache.find_dominating(ikey, tighter).has_value());
}

TEST(NearMissIndex, LooserInfeasibilityDominates) {
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache cache;
  CachedSolution infeasible;
  infeasible.instance_key = ikey;
  infeasible.bounds = solver::Bounds{10.0, 100.0};
  cache.insert(key_of(1), infeasible);

  const auto hit = cache.find_dominating(ikey, {5.0, 50.0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->solution.has_value());
  // The infeasibility does not transfer to *looser* bounds.
  EXPECT_FALSE(cache.find_dominating(ikey, {20.0, 100.0}).has_value());
}

TEST(NearMissIndex, FindFeasibleReturnsTheMostReliableFit) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache cache;
  CachedSolution weak = indexed_entry(instance, ikey, 5.0, 100.0);
  weak.solution->metrics.reliability = LogReliability::from_log(-1.0);
  CachedSolution strong = indexed_entry(instance, ikey, 8.0, 100.0);
  strong.solution->metrics.reliability = LogReliability::from_log(-0.5);
  cache.insert(key_of(1), weak);
  cache.insert(key_of(2), strong);

  // Both solutions fit loose request bounds; the stronger floor wins.
  const auto best = cache.find_feasible(ikey, {1e9, 1e9});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->solution->metrics.reliability.log(), -0.5);

  // Bounds no cached solution satisfies yield nothing.
  EXPECT_FALSE(cache.find_feasible(ikey, {1e-6, 1e-6}).has_value());
}

TEST(NearMissIndex, EvictedEntriesAreDroppedLazily) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache::Config config;
  config.shards = 1;
  config.capacity_bytes = 2 * cached_solution_bytes(
                                  indexed_entry(instance, ikey, 50.0, 100.0));
  ShardedSolutionCache cache(config);
  for (int i = 0; i < 8; ++i) {
    cache.insert(key_of(i), indexed_entry(instance, ikey, 50.0 + i, 100.0));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // Stale index references are pruned as the lookup walks them; the
  // survivors still answer.
  const auto hit = cache.find_dominating(ikey, {1.0, 1.0});
  (void)hit;  // feasibility depends on the entry metrics; the walk ran
  EXPECT_LE(cache.stats().near_entries, cache.stats().entries);
}

TEST(NearMissIndex, PerInstanceHistoryIsBounded) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache::Config config;
  config.near_index_per_instance = 4;
  ShardedSolutionCache cache(config);
  for (int i = 0; i < 32; ++i) {
    cache.insert(key_of(i), indexed_entry(instance, ikey, 50.0 + i, 100.0));
  }
  EXPECT_LE(cache.stats().near_entries, 4u);
}

TEST(NearMissIndex, ClearDropsTheIndexToo) {
  const Instance instance = tiny_instance();
  const CanonicalHash ikey = fingerprint("instance-a");
  ShardedSolutionCache cache;
  cache.insert(key_of(1), indexed_entry(instance, ikey, 50.0, 100.0));
  cache.clear();
  EXPECT_EQ(cache.stats().near_entries, 0u);
  EXPECT_FALSE(cache.find_dominating(ikey, {1.0, 1.0}).has_value());
}

// ----------------------------------------------------- replica tier

using ReplicaClock = ReplicaCache::Clock;

TEST(ReplicaTier, PeekDoesNotDisturbLruOrStats) {
  ShardedSolutionCache cache;
  cache.insert(key_of(1), CachedSolution{});
  const auto before = cache.stats();
  ASSERT_TRUE(cache.peek(key_of(1)).has_value());
  EXPECT_FALSE(cache.peek(key_of(2)).has_value());
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ReplicaTier, TtlExpiresAgainstInjectedClock) {
  ReplicaCache::Config config;
  config.ttl_seconds = 10.0;
  ReplicaCache cache(config);
  const auto t0 = ReplicaClock::now();

  cache.insert(key_of(1), CachedSolution{}, t0);
  EXPECT_TRUE(cache.lookup(key_of(1), t0 + std::chrono::seconds(9))
                  .has_value());
  // At exactly the TTL the entry is stale: dropped and counted.
  EXPECT_FALSE(cache.lookup(key_of(1), t0 + std::chrono::seconds(10))
                   .has_value());
  const ReplicaStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(ReplicaTier, ReinsertRestartsTheTtl) {
  ReplicaCache::Config config;
  config.ttl_seconds = 10.0;
  ReplicaCache cache(config);
  const auto t0 = ReplicaClock::now();

  cache.insert(key_of(1), CachedSolution{}, t0);
  cache.insert(key_of(1), CachedSolution{}, t0 + std::chrono::seconds(8));
  EXPECT_TRUE(cache.lookup(key_of(1), t0 + std::chrono::seconds(15))
                  .has_value());
  EXPECT_EQ(cache.stats().insertions, 1u);  // refresh, not a new entry
}

TEST(ReplicaTier, AdaptiveTtlScalesWithRecordedSolveCost) {
  ReplicaCache::Config config;
  config.ttl_seconds = 10.0;
  config.ttl_cost_factor = 5.0;  // +5s of lifetime per solve second
  ReplicaCache cache(config);
  const auto t0 = ReplicaClock::now();

  CachedSolution cheap;  // cost 0: flat TTL
  cache.insert(key_of(1), cheap, t0);
  CachedSolution expensive;
  expensive.cost_seconds = 4.0;  // 10 + 4*5 = 30s lifetime
  cache.insert(key_of(2), expensive, t0);

  EXPECT_FALSE(cache.contains(key_of(1), t0 + std::chrono::seconds(15)));
  EXPECT_TRUE(cache.contains(key_of(2), t0 + std::chrono::seconds(15)));
  EXPECT_TRUE(cache.contains(key_of(2), t0 + std::chrono::seconds(29)));
  EXPECT_FALSE(cache.contains(key_of(2), t0 + std::chrono::seconds(30)));
}

TEST(ReplicaTier, AdaptiveTtlIsCapped) {
  ReplicaCache::Config config;
  config.ttl_seconds = 10.0;
  config.ttl_cost_factor = 1.0;
  config.ttl_max_seconds = 60.0;
  ReplicaCache cache(config);
  const auto t0 = ReplicaClock::now();
  CachedSolution pathological;
  pathological.cost_seconds = 1e9;
  cache.insert(key_of(1), pathological, t0);
  EXPECT_TRUE(cache.contains(key_of(1), t0 + std::chrono::seconds(59)));
  EXPECT_FALSE(cache.contains(key_of(1), t0 + std::chrono::seconds(60)));

  // Without an explicit cap, 16x the base TTL bounds the extension.
  ReplicaCache::Config uncapped = config;
  uncapped.ttl_max_seconds = 0.0;
  ReplicaCache fallback(uncapped);
  fallback.insert(key_of(2), pathological, t0);
  EXPECT_TRUE(fallback.contains(key_of(2), t0 + std::chrono::seconds(159)));
  EXPECT_FALSE(fallback.contains(key_of(2), t0 + std::chrono::seconds(161)));

  // A cap below the base TTL bounds only the extension: an expensive
  // entry must never expire before a free one would.
  ReplicaCache::Config inverted = config;
  inverted.ttl_max_seconds = 2.0;  // below ttl_seconds = 10
  ReplicaCache clamped(inverted);
  clamped.insert(key_of(3), pathological, t0);
  EXPECT_TRUE(clamped.contains(key_of(3), t0 + std::chrono::seconds(9)));
  EXPECT_FALSE(clamped.contains(key_of(3), t0 + std::chrono::seconds(10)));
}

TEST(ReplicaTier, NonPositiveTtlNeverExpires) {
  ReplicaCache::Config config;
  config.ttl_seconds = 0.0;
  ReplicaCache cache(config);
  const auto t0 = ReplicaClock::now();
  cache.insert(key_of(1), CachedSolution{}, t0);
  EXPECT_TRUE(cache.lookup(key_of(1), t0 + std::chrono::hours(24 * 365))
                  .has_value());
}

TEST(ReplicaTier, EvictsLeastRecentlyUsedUnderByteBound) {
  const Instance instance = tiny_instance();
  ReplicaCache::Config config;
  config.capacity_bytes = 3 * cached_solution_bytes(feasible_entry(instance));
  ReplicaCache cache(config);

  for (int i = 0; i < 3; ++i) cache.insert(key_of(i), feasible_entry(instance));
  ASSERT_TRUE(cache.lookup(key_of(0)).has_value());  // 0 now most recent
  cache.insert(key_of(3), feasible_entry(instance));

  // Key 1 was the least recently used; 0 survived its refresh.
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_TRUE(cache.contains(key_of(0)));
  EXPECT_TRUE(cache.contains(key_of(3)));
  const ReplicaStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

TEST(ReplicaTier, ZeroCapacityDisablesTheTier) {
  ReplicaCache::Config config;
  config.capacity_bytes = 0;
  ReplicaCache cache(config);
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), CachedSolution{});
  EXPECT_FALSE(cache.lookup(key_of(1)).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ReplicaTier, SolutionsRoundTripThroughTheTier) {
  const Instance instance = tiny_instance();
  ReplicaCache cache;
  const CachedSolution entry = feasible_entry(instance);
  cache.insert(key_of(5), entry);
  const auto hit = cache.lookup(key_of(5));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->solution.has_value());
  EXPECT_EQ(hit->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(hit->solution->metrics, entry.solution->metrics);
}

TEST(ReplicaTier, JsonSnapshotNamesEveryCounter) {
  ReplicaCache cache;
  cache.insert(key_of(1), CachedSolution{});
  cache.lookup(key_of(1));
  cache.lookup(key_of(2));
  std::ostringstream out;
  ReplicaCache::write_stats_json(out, cache.stats());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"misses\":1"), std::string::npos);
  EXPECT_NE(json.find("\"insertions\":1"), std::string::npos);
  EXPECT_NE(json.find("\"expirations\":0"), std::string::npos);
  EXPECT_NE(json.find("\"entries\":1"), std::string::npos);
}

}  // namespace
}  // namespace prts::service
