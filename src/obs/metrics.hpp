// The fabric's metrics layer (bottom of src/obs/): named monotonic
// counters, gauges, and fixed-bucket log-scale latency histograms
// behind one string-keyed registry, dependency-free and safe to record
// into from any thread.
//
// Design for the hot path: a component resolves its Counter/Histogram
// references ONCE (registration takes the registry mutex) and then
// records lock-free — every record is a relaxed atomic add into a
// fixed bucket array, so instrumenting a cache hit costs a few
// nanoseconds, not a lock. References returned by the registry are
// stable for the registry's lifetime.
//
// Histograms cover 1 microsecond .. ~100 seconds in 10 buckets per
// decade (ratio 10^0.1 ~ 1.26x), which brackets any quantile to ~26%
// relative error — tight enough to tell a 2ms p99 from a 20ms one,
// coarse enough that a histogram is 81 words. Extraction interpolates
// within the bucket. Snapshots can atomically reset (each recorded
// value lands in exactly one snapshot), the semantics a periodic
// scraper wants.
//
// Exposition: write_json emits one JSON object (counters, gauges,
// histogram quantiles); write_prometheus emits the text format
// (counter/gauge lines plus cumulative _bucket/_sum/_count series) so
// any rank can be scraped by standard tooling.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace prts::obs {

/// A monotonic counter. add() is lock-free and relaxed — counters are
/// statistics, not synchronization.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Snapshot-and-reset: returns the value and zeroes the counter in
  /// one atomic step (no increment is lost or double-counted).
  std::uint64_t exchange(std::uint64_t reset_to = 0) noexcept {
    return value_.exchange(reset_to, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  /// For a gauge that tracks a live count (entries in and out).
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-scale latency histogram with lock-free recording.
class Histogram {
 public:
  /// Finite bucket upper bounds: kFirstBound * 10^(i/kBucketsPerDecade)
  /// for i in [0, kFiniteBuckets); one overflow bucket above.
  static constexpr double kFirstBound = 1e-6;  ///< seconds
  static constexpr std::size_t kBucketsPerDecade = 10;
  static constexpr std::size_t kFiniteBuckets = 80;  ///< up to ~100 s
  static constexpr std::size_t kBucketCount = kFiniteBuckets + 1;

  /// Upper bound of bucket `index` (+inf for the overflow bucket).
  /// Bucket `index` covers (upper_bound(index-1), upper_bound(index)].
  static double upper_bound(std::size_t index) noexcept;

  /// The bucket a value lands in (values <= 0 land in bucket 0).
  static std::size_t bucket_index(double seconds) noexcept;

  /// Lock-free: one relaxed atomic add per call.
  void record(double seconds) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBucketCount> counts{};
    std::uint64_t count = 0;  ///< sum of counts
    double sum = 0.0;         ///< sum of recorded seconds

    /// Quantile estimate (q in [0,1]) by linear interpolation inside
    /// the holding bucket; 0 when empty. The overflow bucket reports
    /// the largest finite bound.
    double quantile(double q) const noexcept;
    double mean() const noexcept { return count ? sum / count : 0.0; }

    /// Adds `other`'s buckets into this snapshot. Because buckets are
    /// fixed and identical across all histograms, aggregating N ranks'
    /// snapshots yields exactly the histogram a single rank would have
    /// recorded from the union of their samples — the basis for
    /// fleet-wide quantiles.
    void merge(const Snapshot& other) noexcept;

    /// The per-window difference `this - earlier` (counts clamped at
    /// zero against torn reads): what was recorded between two
    /// cumulative snapshots. The flight recorder's per-tick view.
    Snapshot delta_since(const Snapshot& earlier) const noexcept;
  };

  /// Consistent-enough snapshot (each bucket read atomically).
  Snapshot snapshot() const noexcept;

  /// Snapshot that zeroes the histogram: every record() lands in
  /// exactly one snapshot's bucket counts, so periodic scrapes
  /// partition the traffic with nothing lost or double-counted.
  Snapshot snapshot_and_reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<double> sum_{0.0};
};

/// A point-in-time copy of every metric in a Registry — the unit the
/// flight recorder diffs tick over tick, and what a cross-rank
/// aggregator merges.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// The string-keyed registry. Registration (counter/gauge/histogram)
/// takes a mutex and returns a stable reference; resolve once, record
/// forever. Metric names should be prometheus-shaped
/// ([a-zA-Z_][a-zA-Z0-9_]*); exposition replaces offending characters
/// with '_'.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Non-destructive copy of every metric's current value (counters and
  /// histograms stay cumulative — scrapers and the flight recorder can
  /// coexist because nobody resets shared state).
  RegistrySnapshot snapshot() const;

  /// One JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"mean":..,
  ///                          "p50":..,"p90":..,"p99":..,"p999":..}}}
  void write_json(std::ostream& out) const;

  /// Prometheus text exposition: every counter/gauge as one sample,
  /// every histogram as cumulative _bucket{le="..."} series plus _sum,
  /// _count and quantile gauges (_p50/_p90/_p99/_p999).
  void write_prometheus(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  // std::map: exposition output is sorted and stable across runs.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// What a component records into: `given` when its caller passed one,
/// else a fresh one it keeps in `owned`. A component built without a
/// registry (or a Telemetry) still counts every event, and its code
/// never tests for null.
template <typename T>
T& given_or_owned(T* given, std::unique_ptr<T>& owned) {
  if (given != nullptr) return *given;
  owned = std::make_unique<T>();
  return *owned;
}

}  // namespace prts::obs
