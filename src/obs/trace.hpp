// Cross-rank request tracing (top of src/obs/): a solve gets a 64-bit
// trace id at submission, every hop it takes (enqueue, batch wait,
// solver run, cache/near-miss/replica lookup, wire round trip) records
// a named span under that id, and the id rides the frame protocol so a
// solve forwarded to a remote shard yields ONE trace whose spans name
// both ranks. Traces live in bounded in-memory rings (newest win), one
// per shard of the tracer; traces slower than a threshold are copied to
// a separate slow ring and optionally logged the moment they finish.
//
// Span times are seconds relative to the trace's submission on the
// recording rank — wall-clock offsets, not synchronized clocks. When
// the origin rank merges spans shipped back from a remote rank it
// shifts them by the wire span's start, which places them correctly
// modulo one-way network delay; that is exactly the fidelity a latency
// investigation needs and all an unsynchronized cluster can offer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/watchdog.hpp"

namespace prts::obs {

/// One named hop of a trace. `rank` is the fabric rank that recorded
/// it; `start_seconds` is the offset from the trace's submit time on
/// that rank.
struct Span {
  std::string name;
  int rank = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// Profiler attribution (src/obs/profiler.hpp), all zero when the
  /// profiler is off: thread-CPU seconds spent inside the span (so
  /// duration - cpu = time the recording thread was blocked) and the
  /// span's allocation bill.
  double cpu_seconds = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;

  /// Time the recording thread spent off-CPU inside the span.
  double blocked_seconds() const noexcept {
    return duration_seconds > cpu_seconds ? duration_seconds - cpu_seconds
                                          : 0.0;
  }
};

/// A completed or in-flight request trace.
struct Trace {
  std::uint64_t id = 0;
  std::string label;  ///< e.g. the canonical instance key
  std::vector<Span> spans;
  double total_seconds = 0.0;
  bool finished = false;
  bool slow_logged = false;  ///< slow handling already triggered once
};

struct TracerConfig {
  std::size_t capacity = 256;       ///< recent-trace ring size
  std::size_t slow_capacity = 64;   ///< slow-trace ring size
  /// Traces with total >= threshold go to the slow ring (and the slow
  /// log, if set). Default: nothing is slow.
  double slow_threshold_seconds = std::numeric_limits<double>::infinity();
  std::ostream* slow_log = nullptr;  ///< one line per slow trace
};

/// Bounded rings of recent traces with id indexes, split into kShards
/// shards. All methods are thread-safe. A minted trace lives in the
/// shard of the thread that opened it, and the shard is the id's low
/// bits, so a carried id reaches its trace without a search. Threads
/// take shards round-robin on their first trace, so a warm hit takes
/// one shard lock that up to kShards threads opening traces side by
/// side never share.
///
/// Each shard keeps up to `capacity` traces, so one thread still sees
/// `capacity` of its own; `recent()` merges the shards newest-first and
/// returns at most `capacity`. Ring nodes are allocated only while the
/// rings grow: each shard to its share, capacity / kShards (rounded
/// up), and beyond it from one budget of `capacity` nodes, so the rings
/// hold about 2 x capacity nodes at most. After that, opening a trace
/// recycles its shard's oldest node, index node, label and span
/// storage, so steady-state tracing does not allocate. The slow ring
/// has its own lock, taken only for a trace that crosses the slow
/// threshold.
class Tracer {
 public:
  static constexpr std::size_t kShards = 8;  ///< a power of two

  explicit Tracer(TracerConfig config = {});

  /// Contention-profiles every shard lock under one probe (nullptr
  /// detaches); the probe must outlive the tracer.
  void attach_mutex_probe(const ProfiledMutex::Probe* probe) noexcept {
    for (Shard& shard : shards_) shard.mutex.attach(probe);
  }

  /// Mint a process-unique, cross-rank-unlikely-to-collide trace id
  /// and open a trace for it in the calling thread's shard.
  std::uint64_t start(std::string_view label);

  /// Open (or re-open) a trace under an externally minted id — the
  /// remote side of a forwarded solve uses the id carried on the wire.
  void start_with_id(std::uint64_t id, std::string_view label);

  /// Append a span to the trace. Unknown ids are ignored (the trace
  /// may have been evicted from the ring).
  void record(std::uint64_t id, Span span);
  void record(std::uint64_t id, const std::string& name, int rank,
              double start_seconds, double duration_seconds);

  /// start(label), record(id, span) and finish(id, total_seconds) in
  /// one call under one lock: the whole trace of a request that ends
  /// in a single span (a warm cache hit). Returns the minted id.
  std::uint64_t record_single(std::string_view label, Span span,
                              double total_seconds);

  /// Mark the trace finished with the given total. Upsert-merge:
  /// finishing an already-finished trace updates the total (the router
  /// amends an engine-finished trace after failover). Crossing the
  /// slow threshold copies the trace to the slow ring and writes one
  /// line to the slow log — at most once per trace.
  void finish(std::uint64_t id, double total_seconds);

  /// Copy out a trace by id. Returns false if unknown/evicted.
  bool find(std::uint64_t id, Trace& out) const;

  /// Newest-first copies of up to min(limit, capacity) recent traces,
  /// merged across the shards by opening time.
  std::vector<Trace> recent(std::size_t limit = 32) const;

  /// Newest-first copies of up to `limit` slow traces.
  std::vector<Trace> slow(std::size_t limit = 32) const;

  std::uint64_t slow_count() const;

  double slow_threshold_seconds() const { return config_.slow_threshold_seconds; }

 private:
  struct Node {
    Trace trace;
    std::int64_t opened_ns = 0;  ///< steady clock; orders recent()
  };
  // Ring as list + index: O(1) eviction, stable iterators for the map.
  // Aligned so two shards' locks never share a cache line.
  struct alignas(64) Shard {
    mutable ProfiledMutex mutex;
    std::list<Node> ring;  ///< oldest at front
    std::unordered_map<std::uint64_t, std::list<Node>::iterator> index;
    std::uint64_t sequence = 0;  ///< ids minted here
  };

  /// The shard a trace id lives in: its low bits.
  static std::size_t shard_of(std::uint64_t id) noexcept {
    return id & (kShards - 1);
  }
  /// The calling thread's shard index (fixed per thread).
  static std::size_t home_shard() noexcept;
  std::uint64_t mint_locked(Shard& shard, std::size_t home);
  /// Appends a fresh trace (recycling the shard's oldest one when its
  /// ring may not grow) and indexes it under `id`.
  Trace& open_locked(Shard& shard, std::uint64_t id, std::string_view label);
  /// True when a shard holding `size` traces may allocate one more
  /// ring node (drawing on the shared budget beyond its share).
  bool may_grow(std::size_t size);
  void finish_locked(Trace& trace, double total_seconds);
  void mark_slow_locked(Trace& trace);

  TracerConfig config_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> budget_used_{0};  ///< nodes beyond the shares
  mutable std::mutex slow_mutex_;
  std::list<Trace> slow_ring_;  ///< oldest at front; under slow_mutex_
  std::uint64_t slow_count_ = 0;  ///< under slow_mutex_
  std::uint64_t salt_ = 0;
};

/// Trace ids travel and display as fixed-width lowercase hex.
std::string id_to_hex(std::uint64_t id);
/// Returns 0 on malformed input (0 is never a minted id).
std::uint64_t id_from_hex(const std::string& text);

/// Everything a fabric layer needs to observe itself. One per rank,
/// shared by the rank's service, router and server; a component built
/// without one owns one, so telemetry is never off.
struct Telemetry {
  int rank = 0;
  Registry metrics;
  Tracer tracer;
  /// Per-component heartbeats + stall detection, mirrored into
  /// `metrics`. Inert (no thread) until watchdog.start().
  Watchdog watchdog{metrics};
  /// Dual-clock + allocation + contention attribution, accumulated
  /// into `metrics` as profile_*/mutex_* families. On by default;
  /// instrumented call sites check profiler.enabled() per request.
  Profiler profiler{metrics};
  /// Alert rules over flight-recorder tick windows, mirrored into
  /// `metrics` (alerts_firing + per-rule families). Evaluated on every
  /// recorder tick via the observer hooked up below.
  AlertEngine alerts{metrics};
  /// Bounded ring of per-tick metric deltas (the `timeseries` protocol
  /// command). Inert until recorder.start() or a manual tick_now().
  /// Declared after `alerts`: the tick thread calls into the alert
  /// engine, so the recorder must be destroyed first.
  FlightRecorder recorder{metrics};

  Telemetry() { init(); }
  explicit Telemetry(TracerConfig tracer_config) : tracer(tracer_config) {
    init();
  }

 private:
  /// Shared constructor tail: stamps process_start_time_seconds (the
  /// restart discriminator scrape --watch keys on), attaches the
  /// "tracer" contention probe and routes recorder ticks into the
  /// alert engine.
  void init();

  ProfiledMutex::Probe tracer_probe_;
};

}  // namespace prts::obs
