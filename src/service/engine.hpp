// The request engine (third layer of src/service/): an async, batched
// front end that turns the solver library into a long-running solve
// service.
//
// A submit() call canonicalizes the request (through a bounded memo, so
// a bound sweep over one instance canonicalizes it once), then takes
// the cheapest path that answers it:
//   1. cache hit  -> the reply future is ready immediately;
//   1b. near-miss hit: no entry under the exact key, but the
//      bounds-monotone index (service/cache.hpp) holds an answer for
//      *looser* bounds of the same (instance, solver) that transfers —
//      a feasible solution already satisfying the tighter request, or a
//      looser-bounds infeasibility. For engines declaring
//      Solver::bounds_monotone this is bit-identical to a cold solve,
//      so it is served like a cache hit (and promoted under the exact
//      key);
//   2. an identical request is already in flight -> the new caller is
//      attached to it (deduplication: one solve, many futures);
//   3. otherwise the request joins the open *batch* of its
//      (canonical instance, solver) pair — requests differing only in
//      bounds share one prepared solver session (Solver::prepare), the
//      access pattern of design-space sweeps — and the batch is fanned
//      out across the shared ThreadPool. Workers pick up open batches
//      in *earliest-waiter-deadline* order, not FIFO: under backlog a
//      tight-deadline request is served before patient ones that were
//      submitted earlier, instead of expiring in the queue behind them.
//
// Admission control: a queue-depth limit rejects new work outright
// (kRejectedQueue) when the backlog is full, and a per-request deadline
// measured from submission either rejects late requests or downgrades
// them to a fast heuristic solver (config.fallback_solver) when the
// batch worker finally reaches them. Downgraded answers are *not*
// cached — they would poison the key of the solver actually requested.
//
// Every solve runs on the canonical instance, so isomorphic requests
// receive bit-identical metrics and label-translated copies of one
// mapping whether served cold, deduplicated, or from the cache.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/unique_function.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/canonical.hpp"
#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace prts::service {

/// What to do with a request whose deadline elapsed while it queued.
enum class DeadlinePolicy {
  kReject,     ///< fail with kRejectedDeadline
  kDowngrade,  ///< answer with config.fallback_solver instead
};

struct SolveRequest {
  SolveRequest() = default;
  // Not an aggregate: the trailing members default without tripping
  // -Wmissing-field-initializers at the many shorter call sites.
  explicit SolveRequest(
      Instance instance, std::string solver = "portfolio",
      solver::Bounds bounds = {},
      double deadline_seconds = std::numeric_limits<double>::infinity(),
      DeadlinePolicy deadline_policy = DeadlinePolicy::kDowngrade)
      : instance(std::move(instance)),
        solver(std::move(solver)),
        bounds(bounds),
        deadline_seconds(deadline_seconds),
        deadline_policy(deadline_policy) {}

  Instance instance;
  std::string solver = "portfolio";  ///< registry name
  solver::Bounds bounds;

  /// Seconds from submission the caller is willing to wait before the
  /// solve *starts*; <= 0 expires immediately, +inf never.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  DeadlinePolicy deadline_policy = DeadlinePolicy::kDowngrade;

  /// Externally minted trace id (the remote half of a forwarded solve
  /// records its spans under the id carried on the wire). 0 = mint one
  /// locally.
  std::uint64_t trace_id = 0;
};

enum class ReplyStatus {
  kSolved,            ///< solution present
  kInfeasible,        ///< solver found no mapping under the bounds
  kRejectedQueue,     ///< admission control: backlog full
  kRejectedDeadline,  ///< deadline elapsed, policy kReject
  kError,             ///< unknown solver or solver exception (see error)
};

/// "solved", "infeasible", ... (the line protocol's status column).
const char* reply_status_name(ReplyStatus status) noexcept;

struct EngineStats;

/// Writes an EngineStats snapshot as one JSON object (the line
/// protocol's '# engine' payload and the fabric's stats frames).
void write_engine_stats_json(std::ostream& out, const EngineStats& stats);

struct SolveReply {
  ReplyStatus status = ReplyStatus::kError;
  std::optional<solver::Solution> solution;  ///< request's own labels
  bool cache_hit = false;
  bool near_miss = false;     ///< served via the bounds-monotone index
  bool deduplicated = false;  ///< attached to an in-flight twin
  bool downgraded = false;    ///< answered by the fallback solver
  std::string solver_used;    ///< empty when nothing was solved
  CanonicalHash key;          ///< the request's cache key
  /// Recorded solve cost of the answer (0 when unknown): rides the wire
  /// so a requesting rank's replica tier can scale its TTL with it.
  double cost_seconds = 0.0;
  std::string error;          ///< set iff status == kError
  /// The trace this reply was recorded under.
  std::uint64_t trace_id = 0;
  /// Spans the *answering* rank recorded for a forwarded solve, decoded
  /// off the wire reply; the origin shifts them by the wire span's
  /// start and merges them into its own trace.
  std::vector<obs::Span> remote_spans;
};

/// A future already holding `reply` — for paths (replica hits) that
/// answer without touching a worker.
std::future<SolveReply> ready_reply_future(SolveReply reply);

/// A submit's completion: called exactly once with the reply, never
/// while the engine's lock is held. Move-only, so it can own a promise
/// or a connection's responder; up to six pointers of captures stay
/// inline. It should not throw: the engine counts what one throws in
/// prts_engine_completion_failures_total and goes on, so the other
/// waiters of its batch are still answered.
using ReplyCallback = UniqueFunction<void(SolveReply)>;

/// Engine counters (monotonic; snapshot via SolveService::stats). Every
/// field but `completed` is read from the registry counter
/// prts_engine_<field>_total; `completed` is `submitted` less the
/// waiters still unanswered, so a cache hit bumps two counters, not
/// three.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;        ///< exact-key hits
  std::uint64_t dominating_hits = 0;   ///< near-miss answers (no solve)
  std::uint64_t solver_invocations = 0;  ///< session solves executed
  std::uint64_t deduplicated = 0;
  std::uint64_t batches = 0;           ///< batch tasks executed
  std::uint64_t batched_requests = 0;  ///< requests that shared a batch
  std::uint64_t downgraded = 0;
  std::uint64_t rejected_queue = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t errors = 0;
};

/// Writes the per-tier hit breakdown as one JSON object:
///   {"exact":..,"dominating":..,"solver_invocations":..}
/// exact = exact-key cache hits, dominating = near-miss answers served
/// without a solve, solver_invocations = session solves executed.
void write_hit_tiers_json(std::ostream& out, const EngineStats& stats);

struct ServiceConfig {
  /// Solver lookup table; the built-in registry when null.
  const solver::SolverRegistry* registry = nullptr;

  std::size_t threads = 0;  ///< worker pool size, hardware when 0

  /// The cache also carries near-miss reuse: bounds-monotone dominating
  /// hits answer without a solve, and a deadline downgrade may answer
  /// with a cached incumbent that fits the request. Both are
  /// answer-preserving, so they are on whenever the cache is.
  bool cache_enabled = true;
  ShardedSolutionCache::Config cache;

  /// Maximum number of accepted-but-unfinished requests (dedup waiters
  /// and cache hits do not count); 0 rejects everything.
  std::size_t max_queue_depth = 4096;

  /// Deadline downgrade target; must answer on any platform.
  std::string fallback_solver = "heur-p";

  /// Per-rank telemetry (metrics, tracer, profiler), shared with the
  /// rank's router and server; must outlive the service. nullptr: the
  /// service builds and owns one, so it counts and traces either way.
  obs::Telemetry* telemetry = nullptr;
};

class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});

  /// Drains every accepted request, then stops the pool.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Submits a request. `done` runs inline, before submit returns, on a
  /// cache hit or a rejection, and on the worker that finishes the
  /// batch otherwise. Never throws on solver-level failures — they
  /// arrive as reply statuses.
  void submit(SolveRequest request, ReplyCallback done);

  /// submit() with a future: ready on return for a hit or a rejection.
  std::future<SolveReply> submit(SolveRequest request);

  /// submit() for callers that already canonicalized the request (the
  /// shard router does, to pick the owner shard) — skips the second
  /// canonicalization on the hot path. `canonical` MUST be
  /// canonicalize(request.instance) and `key` its request_key. The
  /// request's allocation bill (engine_request_allocs_total) starts at
  /// `entry`: a caller passes the scope it opened before its own
  /// canonicalization.
  void submit_canonicalized(SolveRequest request,
                            std::shared_ptr<const CanonicalInstance> canonical,
                            const CanonicalHash& key, ReplyCallback done,
                            const obs::AllocScope& entry = {});

  /// submit_canonicalized() with a future.
  std::future<SolveReply> submit_canonicalized(
      SolveRequest request,
      std::shared_ptr<const CanonicalInstance> canonical,
      const CanonicalHash& key, const obs::AllocScope& entry = {});

  /// canonicalize(instance) through this service's canonical-form memo
  /// (CanonicalMemo): a repeated or swept instance is canonicalized once.
  std::shared_ptr<const CanonicalInstance> canonical_form(
      const Instance& instance) {
    return memo_.canonicalize(instance);
  }

  /// Blocks until every accepted request has been answered.
  void wait_idle();

  EngineStats stats() const;
  CacheStats cache_stats() const;
  ShardedSolutionCache& cache() noexcept { return cache_; }
  const ServiceConfig& config() const noexcept { return config_; }
  obs::Telemetry& telemetry() const noexcept { return telemetry_; }

 private:
  /// One caller attached to a pending query. Each waiter keeps its own
  /// canonical form (isomorphic twins need their own label translation)
  /// and its own deadline/policy (a duplicate must not be rejected or
  /// downgraded on a stranger's options).
  struct Waiter {
    ReplyCallback done;
    std::shared_ptr<const CanonicalInstance> canonical;
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    std::chrono::steady_clock::time_point submitted;
    bool deduplicated;
    std::uint64_t trace_id = 0;  ///< this waiter's own trace
  };

  struct PendingQuery {
    std::shared_ptr<const CanonicalInstance> canonical;
    solver::Bounds bounds;
    CanonicalHash key;
    std::vector<Waiter> waiters;  ///< [0] = first submitter
  };

  struct Batch {
    std::shared_ptr<const CanonicalInstance> canonical;
    std::string solver_name;
    CanonicalHash key;  ///< batch key
    std::vector<std::unique_ptr<PendingQuery>> queries;
    /// Earliest absolute deadline over the queries' first submitters,
    /// maintained on insertion so pickup never rescans waiters. (A
    /// dedup waiter attaching to an in-flight query does not raise an
    /// open batch's urgency — pickup order is a scheduling heuristic;
    /// per-waiter deadline *semantics* are enforced in run_next_batch.)
    std::chrono::steady_clock::time_point earliest_deadline =
        std::chrono::steady_clock::time_point::max();
    /// Creation order, the tie-break: equal deadlines (the common
    /// all-infinite case) are served FIFO, not in map-iteration order.
    std::uint64_t sequence = 0;
  };

  /// What run_batch concluded for one query; finish_query renders it
  /// into per-waiter replies (statuses can differ per waiter when every
  /// waiter's deadline expired under mixed policies).
  struct QueryOutcome {
    enum class Kind {
      kError,     ///< unknown solver / solver exception
      kAnswered,  ///< solved with the requested solver
      kFallback,  ///< all deadlines expired; fallback answer available
      kRejected,  ///< all deadlines expired, every policy was kReject
    };
    Kind kind = Kind::kError;
    std::optional<solver::Solution> canonical_solution;
    std::string solver_used;
    std::string error;
    bool cache_hit = false;    ///< answered from cache at solve time
    bool near_miss = false;    ///< ... via the bounds-monotone index
    bool invoked = false;      ///< a session solve actually executed
    double cost_seconds = 0.0; ///< recorded cost of the answer

    /// Work phases recorded while the batch worker ran this query, in
    /// absolute time: finish_query converts them into per-waiter span
    /// offsets (each waiter has its own submit time and trace). The
    /// cpu/alloc attribution rides along when the profiler is on.
    struct TimedSpan {
      const char* name;
      std::chrono::steady_clock::time_point start;
      double duration_seconds;
      double cpu_seconds;
      std::uint64_t alloc_count;
      std::uint64_t alloc_bytes;
    };
    std::vector<TimedSpan> spans;
    std::chrono::steady_clock::time_point processing_started{};
  };

  /// One pool task: picks the open batch whose most urgent waiter has
  /// the earliest absolute deadline (deadline-aware pickup — FIFO would
  /// let a tight-deadline request expire behind patient backlog) and
  /// runs it to completion. Exactly one task is enqueued per batch
  /// created, so every task finds a batch to run.
  void run_next_batch();
  /// submit() after its AllocScope opened (the future overload opens it
  /// before its promise, so the promise is billed as before).
  void submit_from(SolveRequest request, ReplyCallback done,
                   const obs::AllocScope& entry);
  void finish_query(PendingQuery& query, const QueryOutcome& outcome);

  /// find_dominating + promotion under the request's own key, so the
  /// next identical request is an exact hit. nullopt when the index
  /// holds nothing transferable. Callers check the cache is on.
  std::optional<CachedSolution> dominating_answer(
      const CanonicalHash& bkey, const CanonicalHash& key,
      const solver::Bounds& bounds);

  ServiceConfig config_;
  std::unique_ptr<obs::Telemetry> owned_telemetry_;  ///< when none was given
  obs::Telemetry& telemetry_;
  ShardedSolutionCache cache_;
  CanonicalMemo memo_;

  /// The engine's central lock, contention-profiled as "engine_queue".
  mutable obs::ProfiledMutex mutex_;
  /// _any: idle_cv_ waits on the ProfiledMutex above.
  std::condition_variable_any idle_cv_;
  std::size_t outstanding_ = 0;  ///< accepted, not yet answered
  std::unordered_map<CanonicalHash, PendingQuery*, CanonicalKeyHasher> in_flight_;
  std::unordered_map<CanonicalHash, std::shared_ptr<Batch>, CanonicalKeyHasher>
      open_batches_;
  std::uint64_t next_batch_sequence_ = 0;
  /// Accepted waiters not yet answered (stats() derives `completed`).
  std::size_t waiting_ = 0;

  /// Telemetry handles resolved once at construction (registration
  /// locks the registry); every record afterward is a lock-free relaxed
  /// add. The EngineStats counters first (prts_engine_<field>_total);
  /// a hit bumps submitted_ and its tier's counter without mutex_.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* dominating_hits_ = nullptr;
  obs::Counter* solver_invocations_ = nullptr;
  obs::Counter* deduplicated_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* batched_requests_ = nullptr;
  obs::Counter* downgraded_ = nullptr;
  obs::Counter* rejected_queue_ = nullptr;
  obs::Counter* rejected_deadline_ = nullptr;
  obs::Counter* errors_ = nullptr;
  /// Completions that threw (swallowed; see ReplyCallback).
  obs::Counter* completion_failures_ = nullptr;
  /// Submit-path allocation bill: totals plus the derived
  /// engine_allocs_per_request gauge (allocs_total / submitted) — the
  /// zero-allocation rebuild's headline number.
  obs::Counter* request_allocs_counter_ = nullptr;
  obs::Counter* request_alloc_bytes_counter_ = nullptr;
  obs::Gauge* allocs_per_request_gauge_ = nullptr;
  obs::Histogram* request_latency_hist_ = nullptr;
  obs::Histogram* batch_wait_hist_ = nullptr;
  obs::Histogram* solver_run_hist_ = nullptr;
  /// Profiler component handles (profile_<name>_* counters), resolved
  /// once.
  obs::Profiler::Component* prof_canonicalize_ = nullptr;
  obs::Profiler::Component* prof_submit_ = nullptr;
  obs::Profiler::Component* prof_cache_lookup_ = nullptr;
  obs::Profiler::Component* prof_near_miss_ = nullptr;
  obs::Profiler::Component* prof_solver_run_ = nullptr;
  obs::Profiler::Component* prof_fallback_ = nullptr;
  obs::Profiler::Component* prof_batch_wait_ = nullptr;
  /// Contention probes (stable addresses the mutexes point at): the
  /// engine's own queue lock, one shared probe over every cache shard,
  /// and the worker pool's queue lock.
  obs::ProfiledMutex::Probe queue_probe_;
  obs::ProfiledMutex::Probe cache_probe_;
  obs::ProfiledMutex::Probe pool_probe_;
  /// Sampled to outstanding_ on submit and completion — the queue depth
  /// a scrape or flight-recorder tick sees is the instantaneous one.
  obs::Gauge* queue_depth_gauge_ = nullptr;
  /// "engine" liveness: load mirrors outstanding_; beats come from the
  /// batch runner so a wedged runner under continuous arrivals still
  /// ages out and trips the watchdog.
  obs::Heartbeat* heartbeat_ = nullptr;

  /// Declared last: destroyed first, so draining batch tasks still see
  /// a live mutex, cache and maps during ~SolveService.
  ThreadPool pool_;
};

}  // namespace prts::service
