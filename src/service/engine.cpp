#include "service/engine.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "obs/threads.hpp"

namespace prts::service {
namespace {

using Clock = std::chrono::steady_clock;

/// RAII profile of one submit-path exit: however submit_canonicalized
/// returns (cache hit, dedup, rejection, batch scheduled), the
/// per-request allocation counters advance exactly once. Allocation
/// accounting (two relaxed TLS loads) runs on every request so
/// engine_allocs_per_request stays exact; the dual-clock component
/// sample costs CPU-clock syscalls and is taken only when the
/// profiler's 1-in-N gate says so. Inert until start().
struct SubmitProfile {
  obs::Profiler::Component& component;
  obs::Counter& allocs_total;
  obs::Counter& alloc_bytes_total;
  obs::Counter& requests_total;
  obs::Gauge& per_request;
  std::optional<obs::AllocScope> allocs;
  std::optional<obs::ScopedSample> sample;

  /// `entry` marks where the request's allocation bill starts (the
  /// submit() entry, before canonicalization).
  void start(bool sampled, const obs::AllocScope& entry) {
    allocs.emplace(entry);
    if (sampled) sample.emplace();
  }

  /// The probes' current reading (for span attribution mid-path).
  /// Unsampled requests still report their exact allocation delta; the
  /// clock fields stay zero rather than paying the syscalls.
  obs::WorkSample snapshot() const noexcept {
    if (sample) return sample->finish();
    obs::WorkSample work;
    if (allocs) {
      const obs::AllocCounts delta = allocs->delta();
      work.alloc_count = delta.count;
      work.alloc_bytes = delta.bytes;
    }
    return work;
  }

  ~SubmitProfile() { finish(); }

  /// Closes the bill (once): called before an inline completion runs,
  /// so the caller's own work is not billed to the submit path.
  void finish() {
    if (!allocs) return;
    const obs::AllocCounts delta = allocs->delta();
    allocs_total.add(delta.count);
    alloc_bytes_total.add(delta.bytes);
    const std::uint64_t requests = requests_total.value();
    if (requests > 0) {
      per_request.set(static_cast<double>(allocs_total.value()) /
                      static_cast<double>(requests));
    }
    if (sample) obs::Profiler::record(component, sample->finish());
    allocs.reset();
    sample.reset();
  }
};

/// True when a deadline measured from `submitted` has elapsed at `now`.
bool deadline_expired(double deadline_seconds, Clock::time_point submitted,
                      Clock::time_point now) noexcept {
  if (deadline_seconds <= 0.0) return true;
  if (!std::isfinite(deadline_seconds)) return false;
  const double elapsed =
      std::chrono::duration<double>(now - submitted).count();
  return elapsed >= deadline_seconds;
}

/// The absolute time a waiter's deadline elapses; max() when it never
/// does (infinite or clock-range-exceeding deadlines must not overflow
/// the time_point arithmetic).
Clock::time_point waiter_deadline(double deadline_seconds,
                                  Clock::time_point submitted) noexcept {
  if (!std::isfinite(deadline_seconds)) return Clock::time_point::max();
  if (deadline_seconds <= 0.0) return submitted;
  const std::chrono::duration<double> wait(deadline_seconds);
  if (wait > Clock::time_point::max() - submitted) {
    return Clock::time_point::max();
  }
  return submitted + std::chrono::duration_cast<Clock::duration>(wait);
}

/// The future overloads' completion. It fits ReplyCallback's inline
/// buffer, so a future caller pays the promise's allocations and no
/// more.
struct FulfillPromise {
  std::promise<SolveReply> promise;
  void operator()(SolveReply&& reply) { promise.set_value(std::move(reply)); }
};

/// Runs a completion. An exception it throws must not unwind into the
/// engine, where the batch's other waiters are still owed their
/// answers: it is counted in `failures` and goes no further.
void deliver(ReplyCallback& done, SolveReply&& reply,
             obs::Counter& failures) noexcept {
  try {
    done(std::move(reply));
  } catch (...) {
    failures.add();
  }
}

}  // namespace

std::future<SolveReply> ready_reply_future(SolveReply reply) {
  std::promise<SolveReply> promise;
  std::future<SolveReply> future = promise.get_future();
  promise.set_value(std::move(reply));
  return future;
}

const char* reply_status_name(ReplyStatus status) noexcept {
  switch (status) {
    case ReplyStatus::kSolved:
      return "solved";
    case ReplyStatus::kInfeasible:
      return "infeasible";
    case ReplyStatus::kRejectedQueue:
      return "rejected-queue";
    case ReplyStatus::kRejectedDeadline:
      return "rejected-deadline";
    case ReplyStatus::kError:
      return "error";
  }
  return "error";
}

void write_engine_stats_json(std::ostream& out, const EngineStats& stats) {
  out << "{\"submitted\":" << stats.submitted
      << ",\"completed\":" << stats.completed
      << ",\"cache_hits\":" << stats.cache_hits
      << ",\"dominating_hits\":" << stats.dominating_hits
      << ",\"solver_invocations\":" << stats.solver_invocations
      << ",\"deduplicated\":" << stats.deduplicated
      << ",\"batches\":" << stats.batches
      << ",\"batched_requests\":" << stats.batched_requests
      << ",\"downgraded\":" << stats.downgraded
      << ",\"rejected_queue\":" << stats.rejected_queue
      << ",\"rejected_deadline\":" << stats.rejected_deadline
      << ",\"errors\":" << stats.errors << "}";
}

void write_hit_tiers_json(std::ostream& out, const EngineStats& stats) {
  out << "{\"exact\":" << stats.cache_hits
      << ",\"dominating\":" << stats.dominating_hits
      << ",\"solver_invocations\":" << stats.solver_invocations << "}";
}

/// Seconds between two steady-clock points, floored at zero (span
/// offsets are measured from a waiter's submit time, and a span that
/// began before the waiter attached must not go negative).
static double seconds_since(Clock::time_point from,
                            Clock::time_point to) noexcept {
  const double elapsed = std::chrono::duration<double>(to - from).count();
  return elapsed < 0.0 ? 0.0 : elapsed;
}

SolveService::SolveService(ServiceConfig config)
    : config_(std::move(config)),
      telemetry_(obs::given_or_owned(config_.telemetry, owned_telemetry_)),
      cache_(config_.cache),
      pool_(config_.threads, "engine") {
  obs::Registry& metrics = telemetry_.metrics;
  const auto engine_counter = [&metrics](const std::string& field) {
    return &metrics.counter("prts_engine_" + field + "_total");
  };
  submitted_ = engine_counter("submitted");
  cache_hits_ = engine_counter("cache_hits");
  dominating_hits_ = engine_counter("dominating_hits");
  solver_invocations_ = engine_counter("solver_invocations");
  deduplicated_ = engine_counter("deduplicated");
  batches_ = engine_counter("batches");
  batched_requests_ = engine_counter("batched_requests");
  downgraded_ = engine_counter("downgraded");
  rejected_queue_ = engine_counter("rejected_queue");
  rejected_deadline_ = engine_counter("rejected_deadline");
  errors_ = engine_counter("errors");
  completion_failures_ = engine_counter("completion_failures");
  request_allocs_counter_ = &metrics.counter("engine_request_allocs_total");
  request_alloc_bytes_counter_ =
      &metrics.counter("engine_request_alloc_bytes_total");
  allocs_per_request_gauge_ = &metrics.gauge("engine_allocs_per_request");
  request_latency_hist_ = &metrics.histogram("engine_request_latency_seconds");
  batch_wait_hist_ = &metrics.histogram("engine_batch_wait_seconds");
  solver_run_hist_ = &metrics.histogram("engine_solver_run_seconds");
  queue_depth_gauge_ = &metrics.gauge("engine_queue_depth");
  heartbeat_ = &telemetry_.watchdog.component("engine");
  prof_canonicalize_ = &telemetry_.profiler.component("canonicalize");
  prof_submit_ = &telemetry_.profiler.component("submit_path");
  prof_cache_lookup_ = &telemetry_.profiler.component("cache_lookup");
  prof_near_miss_ = &telemetry_.profiler.component("near_miss_lookup");
  prof_solver_run_ = &telemetry_.profiler.component("solver_run");
  prof_fallback_ = &telemetry_.profiler.component("fallback_solve");
  prof_batch_wait_ = &telemetry_.profiler.component("batch_wait");
  cache_.attach_entries_gauge(metrics.gauge("prts_cache_entries"));
  queue_probe_ = obs::ProfiledMutex::make_probe(metrics, "engine_queue");
  mutex_.attach(&queue_probe_);
  cache_probe_ = obs::ProfiledMutex::make_probe(metrics, "cache_shard");
  cache_.attach_mutex_probe(&cache_probe_);
  pool_probe_ = obs::ProfiledMutex::make_probe(metrics, "engine_pool");
  pool_.attach_mutex_probe(&pool_probe_);
}

SolveService::~SolveService() { wait_idle(); }

std::future<SolveReply> SolveService::submit(SolveRequest request) {
  const obs::AllocScope entry;
  std::promise<SolveReply> promise;
  std::future<SolveReply> future = promise.get_future();
  submit_from(std::move(request), FulfillPromise{std::move(promise)}, entry);
  return future;
}

void SolveService::submit(SolveRequest request, ReplyCallback done) {
  const obs::AllocScope entry;
  submit_from(std::move(request), std::move(done), entry);
}

void SolveService::submit_from(SolveRequest request, ReplyCallback done,
                               const obs::AllocScope& entry) {
  // Canonicalization runs on every submit, so its dual-clock sample is
  // 1-in-N — two CPU-clock syscalls per request would dominate the warm
  // path's own cost.
  const bool sampled = telemetry_.profiler.should_sample();
  std::optional<obs::ScopedSample> sample;
  if (sampled) sample.emplace();
  std::shared_ptr<const CanonicalInstance> canonical =
      canonical_form(request.instance);
  const CanonicalHash key =
      request_key(*canonical, request.solver, request.bounds);
  if (sampled) obs::Profiler::record(*prof_canonicalize_, sample->finish());
  submit_canonicalized(std::move(request), std::move(canonical), key,
                       std::move(done), entry);
}

std::future<SolveReply> SolveService::submit_canonicalized(
    SolveRequest request, std::shared_ptr<const CanonicalInstance> canonical,
    const CanonicalHash& key, const obs::AllocScope& entry) {
  std::promise<SolveReply> promise;
  std::future<SolveReply> future = promise.get_future();
  submit_canonicalized(std::move(request), std::move(canonical), key,
                       FulfillPromise{std::move(promise)}, entry);
  return future;
}

void SolveService::submit_canonicalized(
    SolveRequest request, std::shared_ptr<const CanonicalInstance> canonical,
    const CanonicalHash& key, ReplyCallback done,
    const obs::AllocScope& entry) {
  obs::hop_probe::touch();
  // Trace opening: a carried id (forwarded solve) is adopted so the
  // origin's trace id resolves on this rank too; otherwise one is
  // minted. All span offsets are measured from this arrival point. A
  // minted trace opens late: a cache hit records its whole one-span
  // trace in a single tracer call, and every other path opens it right
  // after the cache tiers missed.
  const Clock::time_point arrival = Clock::now();
  std::uint64_t trace_id = request.trace_id;
  // Submit-path attribution: one sample covering this call however it
  // exits, feeding submit_path and the allocations-per-request gauge.
  SubmitProfile submit_profile{*prof_submit_, *request_allocs_counter_,
                               *request_alloc_bytes_counter_, *submitted_,
                               *allocs_per_request_gauge_, {}, {}};
  if (telemetry_.profiler.enabled()) {
    submit_profile.start(telemetry_.profiler.should_sample(), entry);
  }
  if (trace_id != 0) {
    telemetry_.tracer.start_with_id(trace_id,
                                    trace_label(request.solver, key).view());
  }

  // One construction for both served-from-cache tiers (exact and
  // dominating) — they differ only in the near_miss flag and which
  // counter they bump. Neither takes the engine mutex; each bumps
  // submitted_ and its tier's counter, nothing else.
  const auto serve_cached = [&](const CachedSolution& cached,
                                bool near_miss) {
    SolveReply reply;
    reply.key = key;
    reply.cache_hit = true;
    reply.near_miss = near_miss;
    reply.solver_used = request.solver;
    reply.cost_seconds = cached.cost_seconds;
    if (cached.solution) {
      reply.status = ReplyStatus::kSolved;
      reply.solution = to_original_labels(*cached.solution, *canonical);
    } else {
      reply.status = ReplyStatus::kInfeasible;
    }
    const double elapsed = seconds_since(arrival, Clock::now());
    const obs::WorkSample work = submit_profile.snapshot();
    obs::Span span;
    span.name = near_miss ? "near_miss_lookup" : "cache_lookup";
    span.rank = telemetry_.rank;
    span.duration_seconds = elapsed;
    span.cpu_seconds = work.cpu_seconds < elapsed ? work.cpu_seconds : elapsed;
    span.alloc_count = work.alloc_count;
    span.alloc_bytes = work.alloc_bytes;
    if (trace_id == 0) {
      trace_id = telemetry_.tracer.record_single(
          trace_label(request.solver, key).view(), std::move(span), elapsed);
    } else {
      telemetry_.tracer.record(trace_id, std::move(span));
      telemetry_.tracer.finish(trace_id, elapsed);
    }
    request_latency_hist_->record(elapsed);
    if (submit_profile.sample) {
      obs::Profiler::record(near_miss ? *prof_near_miss_ : *prof_cache_lookup_,
                            work);
    }
    reply.trace_id = trace_id;
    submitted_->add();
    (near_miss ? dominating_hits_ : cache_hits_)->add();
    submit_profile.finish();
    deliver(done, std::move(reply), *completion_failures_);
  };

  if (config_.cache_enabled) {
    if (auto cached = cache_.lookup(key)) {
      serve_cached(*cached, /*near_miss=*/false);
      return;
    }
  }

  // Near-miss path: the exact key missed, but the bounds-monotone index
  // may hold an answer for this (instance, solver) at other bounds.
  const solver::SolverRegistry& registry =
      config_.registry ? *config_.registry : solver::SolverRegistry::builtin();
  const auto engine = registry.find(request.solver);
  const CanonicalHash bkey = batch_key(*canonical, request.solver);
  if (near_miss_enabled() && engine &&
      engine->bounds_monotone(canonical->instance)) {
    if (auto near = dominating_answer(bkey, key, request.bounds)) {
      serve_cached(*near, /*near_miss=*/true);
      return;
    }
  }

  // Not served from the cache: the minted trace opens now, before any
  // path below records under it.
  if (trace_id == 0) {
    trace_id =
        telemetry_.tracer.start(trace_label(request.solver, key).view());
  }
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  submitted_->add();

  // Deduplication: attach to an identical in-flight request. The waiter
  // carries its own canonical form and deadline options — the shared
  // solve must not leak the first submitter's labels or policy.
  if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
    deduplicated_->add();
    ++waiting_;
    it->second->waiters.push_back(
        Waiter{std::move(done), canonical, request.deadline_seconds,
               request.deadline_policy, Clock::now(), true, trace_id});
    return;
  }

  // Admission control: bounded backlog.
  if (outstanding_ >= config_.max_queue_depth) {
    rejected_queue_->add();
    lock.unlock();
    SolveReply reply;
    reply.status = ReplyStatus::kRejectedQueue;
    reply.key = key;
    reply.trace_id = trace_id;
    const double elapsed = seconds_since(arrival, Clock::now());
    telemetry_.tracer.record(trace_id, "rejected_queue", telemetry_.rank, 0.0,
                             elapsed);
    telemetry_.tracer.finish(trace_id, elapsed);
    submit_profile.finish();
    deliver(done, std::move(reply), *completion_failures_);
    return;
  }
  ++outstanding_;
  ++waiting_;
  queue_depth_gauge_->set(static_cast<double>(outstanding_));
  // The idle→busy transition beats once so the runner gets a full stall
  // threshold to pick the work up; after that only the runner's own
  // progress resets the age.
  if (outstanding_ == 1) heartbeat_->beat();
  heartbeat_->set_load(static_cast<std::int64_t>(outstanding_));

  auto query = std::make_unique<PendingQuery>();
  query->canonical = canonical;
  query->bounds = request.bounds;
  query->key = key;
  query->waiters.push_back(Waiter{std::move(done), canonical,
                                  request.deadline_seconds,
                                  request.deadline_policy, Clock::now(),
                                  false, trace_id});
  in_flight_.emplace(key, query.get());

  // Batching: requests sharing (canonical instance, solver) ride one
  // prepared session; the batch stays open until a worker picks it up.
  const Clock::time_point query_deadline = waiter_deadline(
      request.deadline_seconds, query->waiters.back().submitted);
  if (const auto it = open_batches_.find(bkey); it != open_batches_.end()) {
    batched_requests_->add();
    it->second->queries.push_back(std::move(query));
    it->second->earliest_deadline =
        std::min(it->second->earliest_deadline, query_deadline);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->canonical = std::move(canonical);
  batch->solver_name = request.solver;
  batch->key = bkey;
  batch->queries.push_back(std::move(query));
  batch->earliest_deadline = query_deadline;
  batch->sequence = next_batch_sequence_++;
  open_batches_.emplace(bkey, batch);
  lock.unlock();

  // One task per batch created; each task picks the currently most
  // urgent open batch, so pickup order is deadline-driven, not FIFO.
  pool_.submit([this] { run_next_batch(); });
}

std::optional<CachedSolution> SolveService::dominating_answer(
    const CanonicalHash& bkey, const CanonicalHash& key,
    const solver::Bounds& bounds) {
  if (!near_miss_enabled()) return std::nullopt;
  auto near = cache_.find_dominating(bkey, bounds);
  if (!near) return std::nullopt;
  // Promote under the request's own key: the next identical request is
  // an exact hit, and the entry (indexed under this request's bounds)
  // extends the instance's sweep history toward the tighter end. The
  // recorded cost is inherited — the answer is worth what its solve
  // cost, not the near-free lookup.
  CachedSolution promoted = *near;
  promoted.instance_key = bkey;
  promoted.bounds = bounds;
  cache_.insert(key, promoted);
  return near;
}

void SolveService::run_next_batch() {
  obs::hop_probe::touch();
  std::shared_ptr<Batch> batch;
  std::vector<std::unique_ptr<PendingQuery>> queries;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    if (open_batches_.empty()) return;  // defensive; see run_next_batch doc
    auto best = open_batches_.begin();
    for (auto it = std::next(best); it != open_batches_.end(); ++it) {
      const Batch& candidate = *it->second;
      const Batch& leader = *best->second;
      // Earliest deadline wins; creation order breaks ties, so the
      // all-infinite-deadline workload keeps its FIFO fairness.
      if (candidate.earliest_deadline < leader.earliest_deadline ||
          (candidate.earliest_deadline == leader.earliest_deadline &&
           candidate.sequence < leader.sequence)) {
        best = it;
      }
    }
    batch = best->second;
    open_batches_.erase(best);
    queries = std::move(batch->queries);
  }
  batches_->add();
  heartbeat_->beat();

  const solver::SolverRegistry& registry =
      config_.registry ? *config_.registry : solver::SolverRegistry::builtin();
  const auto engine = registry.find(batch->solver_name);
  const bool monotone =
      engine && engine->bounds_monotone(batch->canonical->instance);
  const bool profiled = telemetry_.profiler.enabled();
  std::unique_ptr<solver::PreparedSolver> session;

  for (auto& query : queries) {
    QueryOutcome outcome;
    try {
      // A query runs for real as long as ANY of its waiters is still
      // within deadline (waiters joined later than the first submitter
      // and may be more patient); expired waiters then simply receive
      // the answer that was computed anyway. Only when every waiter
      // expired does the query degrade: fallback if someone allows it,
      // rejection otherwise.
      const auto now = Clock::now();
      outcome.processing_started = now;
      bool any_live = false;
      bool any_downgrade = false;
      {
        // submit() may still be appending waiters to this query.
        const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
        for (const Waiter& waiter : query->waiters) {
          if (!deadline_expired(waiter.deadline_seconds, waiter.submitted,
                                now)) {
            any_live = true;
          } else if (waiter.deadline_policy == DeadlinePolicy::kDowngrade) {
            any_downgrade = true;
          }
        }
      }
      if (!engine) {
        outcome.kind = QueryOutcome::Kind::kError;
        outcome.error = "unknown solver '" + batch->solver_name + "'";
      } else if (any_live) {
        // Solve-time re-probe: earlier queries of this very batch (or a
        // concurrent batch elsewhere) may have answered this key — or a
        // dominating neighbor of it — since submission. A 20-step bound
        // ladder submitted in one burst collapses to a handful of real
        // solves this way, exactly like a paced sweep does.
        bool answered_from_cache = false;
        if (config_.cache_enabled) {
          const auto probe_start = Clock::now();
          std::optional<obs::ScopedSample> probe_sample;
          if (profiled) probe_sample.emplace();
          // peek: the submit-path lookup already counted this key's
          // miss; the re-probe must not count a second one.
          std::optional<CachedSolution> cached = cache_.peek(query->key);
          if (cached) {
            outcome.cache_hit = true;
          } else if (monotone) {
            cached = dominating_answer(batch->key, query->key, query->bounds);
            if (cached) {
              outcome.cache_hit = true;
              outcome.near_miss = true;
            }
          }
          if (cached) {
            outcome.canonical_solution = std::move(cached->solution);
            outcome.cost_seconds = cached->cost_seconds;
            outcome.kind = QueryOutcome::Kind::kAnswered;
            outcome.solver_used = batch->solver_name;
            answered_from_cache = true;
            const obs::WorkSample work =
                probe_sample ? probe_sample->finish() : obs::WorkSample{};
            if (probe_sample) {
              obs::Profiler::record(outcome.near_miss ? *prof_near_miss_
                                                      : *prof_cache_lookup_,
                                    work);
            }
            outcome.spans.push_back(QueryOutcome::TimedSpan{
                outcome.near_miss ? "near_miss_lookup" : "cache_lookup",
                probe_start, seconds_since(probe_start, Clock::now()),
                work.cpu_seconds, work.alloc_count, work.alloc_bytes});
          }
        }
        if (!answered_from_cache) {
          if (!session) session = engine->prepare(batch->canonical->instance);
          const auto solve_start = Clock::now();
          std::optional<obs::ScopedSample> solve_sample;
          if (profiled) solve_sample.emplace();
          // Recorded per entry so Retention::kCost can keep expensive
          // exact solves alive longer than cheap heuristic answers.
          double cost_seconds = 0.0;
          outcome.canonical_solution =
              solver::timed_solve(*session, query->bounds, cost_seconds);
          outcome.invoked = true;
          outcome.cost_seconds = cost_seconds;
          const obs::WorkSample solve_work =
              solve_sample ? solve_sample->finish() : obs::WorkSample{};
          if (solve_sample) {
            obs::Profiler::record(*prof_solver_run_, solve_work);
          }
          outcome.spans.push_back(QueryOutcome::TimedSpan{
              "solver_run", solve_start, cost_seconds,
              solve_work.cpu_seconds, solve_work.alloc_count,
              solve_work.alloc_bytes});
          solver_run_hist_->record(cost_seconds);
          if (config_.cache_enabled) {
            // The near-miss metadata makes this solve a reusable point
            // of the instance's sweep history; without near-miss reuse
            // nothing would read the index, so nothing fills it.
            CachedSolution entry{outcome.canonical_solution, cost_seconds};
            if (near_miss_enabled()) {
              entry.instance_key = batch->key;
              entry.bounds = query->bounds;
            }
            cache_.insert(query->key, std::move(entry));
          }
          outcome.kind = QueryOutcome::Kind::kAnswered;
          outcome.solver_used = batch->solver_name;
        }
      } else if (any_downgrade) {
        const auto fallback = registry.find(config_.fallback_solver);
        if (!fallback) {
          outcome.kind = QueryOutcome::Kind::kError;
          outcome.error =
              "unknown fallback solver '" + config_.fallback_solver + "'";
        } else {
          // Late: answer fast with the fallback engine. Not cached —
          // the key names the solver the caller asked for.
          const auto fallback_start = Clock::now();
          std::optional<obs::ScopedSample> fallback_sample;
          if (profiled) fallback_sample.emplace();
          outcome.canonical_solution =
              fallback->solve(query->canonical->instance, query->bounds);
          const obs::WorkSample fallback_work =
              fallback_sample ? fallback_sample->finish() : obs::WorkSample{};
          if (fallback_sample) {
            obs::Profiler::record(*prof_fallback_, fallback_work);
          }
          outcome.spans.push_back(QueryOutcome::TimedSpan{
              "fallback_solve", fallback_start,
              seconds_since(fallback_start, Clock::now()),
              fallback_work.cpu_seconds, fallback_work.alloc_count,
              fallback_work.alloc_bytes});
          outcome.kind = QueryOutcome::Kind::kFallback;
          outcome.solver_used = config_.fallback_solver;
          // The best cached incumbent of the *requested* solver at
          // other bounds that fits this request may beat the fallback's
          // answer; a degraded reply should still be the best answer
          // available cheaply.
          std::optional<CachedSolution> incumbent;
          if (near_miss_enabled()) {
            incumbent = cache_.find_feasible(batch->key, query->bounds);
          }
          if (incumbent &&
              (!outcome.canonical_solution ||
               solver::tri_criteria_better(
                   incumbent->solution->metrics,
                   outcome.canonical_solution->metrics))) {
            outcome.canonical_solution = std::move(incumbent->solution);
            outcome.solver_used = batch->solver_name;
          }
        }
      } else {
        outcome.kind = QueryOutcome::Kind::kRejected;
      }
    } catch (const std::exception& error) {
      outcome = QueryOutcome{};
      outcome.error = error.what();
    } catch (...) {
      outcome = QueryOutcome{};
      outcome.error = "unknown solver exception";
    }
    finish_query(*query, outcome);
  }
}

void SolveService::finish_query(PendingQuery& query,
                                const QueryOutcome& outcome) {
  std::vector<Waiter> waiters;
  bool any_rejected = false;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    in_flight_.erase(query.key);
    waiters = std::move(query.waiters);
    for (const Waiter& waiter : waiters) {
      if (outcome.kind == QueryOutcome::Kind::kRejected ||
          (outcome.kind == QueryOutcome::Kind::kFallback &&
           waiter.deadline_policy == DeadlinePolicy::kReject)) {
        any_rejected = true;
      }
    }
    waiting_ -= waiters.size();
    if (outcome.kind == QueryOutcome::Kind::kError) errors_->add();
    if (outcome.kind == QueryOutcome::Kind::kFallback) downgraded_->add();
    if (any_rejected) rejected_deadline_->add();
    if (outcome.near_miss) dominating_hits_->add();
    if (outcome.cache_hit && !outcome.near_miss) cache_hits_->add();
    if (outcome.invoked) solver_invocations_->add();
    --outstanding_;
    queue_depth_gauge_->set(static_cast<double>(outstanding_));
    heartbeat_->set_load(static_cast<std::int64_t>(outstanding_));
    heartbeat_->beat();
    if (outstanding_ == 0) idle_cv_.notify_all();
  }
  const Clock::time_point finished_at = Clock::now();
  for (Waiter& waiter : waiters) {
    SolveReply reply;
    try {
      // Per-waiter trace rendering: every attached caller (including
      // dedup twins) gets the shared work phases expressed as offsets
      // from its *own* submit time, under its *own* trace id.
      const double total = seconds_since(waiter.submitted, finished_at);
      const double wait =
          seconds_since(waiter.submitted, outcome.processing_started);
      telemetry_.tracer.record(waiter.trace_id, "batch_wait", telemetry_.rank,
                               0.0, wait);
      if (telemetry_.profiler.enabled()) {
        // Queue wait is blocked time by construction: the request was
        // owned by no thread, so the sample is wall-only.
        obs::WorkSample queued;
        queued.wall_seconds = wait;
        obs::Profiler::record(*prof_batch_wait_, queued);
      }
      for (const QueryOutcome::TimedSpan& span : outcome.spans) {
        obs::Span rendered;
        rendered.name = span.name;
        rendered.rank = telemetry_.rank;
        rendered.start_seconds = seconds_since(waiter.submitted, span.start);
        rendered.duration_seconds = span.duration_seconds;
        rendered.cpu_seconds = span.cpu_seconds;
        rendered.alloc_count = span.alloc_count;
        rendered.alloc_bytes = span.alloc_bytes;
        telemetry_.tracer.record(waiter.trace_id, std::move(rendered));
      }
      telemetry_.tracer.finish(waiter.trace_id, total);
      request_latency_hist_->record(total);
      batch_wait_hist_->record(wait);
      reply.key = query.key;
      reply.deduplicated = waiter.deduplicated;
      reply.cache_hit = outcome.cache_hit;
      reply.near_miss = outcome.near_miss;
      reply.cost_seconds = outcome.cost_seconds;
      reply.trace_id = waiter.trace_id;
      switch (outcome.kind) {
        case QueryOutcome::Kind::kError:
          reply.status = ReplyStatus::kError;
          reply.error = outcome.error;
          break;
        case QueryOutcome::Kind::kRejected:
          reply.status = ReplyStatus::kRejectedDeadline;
          break;
        case QueryOutcome::Kind::kFallback:
          if (waiter.deadline_policy == DeadlinePolicy::kReject) {
            reply.status = ReplyStatus::kRejectedDeadline;
            break;
          }
          reply.downgraded = true;
          [[fallthrough]];
        case QueryOutcome::Kind::kAnswered:
          reply.solver_used = outcome.solver_used;
          if (outcome.canonical_solution) {
            reply.status = ReplyStatus::kSolved;
            // Each waiter's own permutation: isomorphic twins get the
            // shared solve expressed in their own processor labels.
            reply.solution = to_original_labels(*outcome.canonical_solution,
                                                *waiter.canonical);
          } else {
            reply.status = ReplyStatus::kInfeasible;
          }
          break;
      }
    } catch (const std::exception& error) {
      // Rendering ran out of memory (or the like): this waiter still
      // gets an answer, and the batch's next waiters theirs.
      reply = SolveReply{};
      reply.status = ReplyStatus::kError;
      reply.key = query.key;
      reply.trace_id = waiter.trace_id;
      reply.error = error.what();
    }
    deliver(waiter.done, std::move(reply), *completion_failures_);
  }
}

void SolveService::wait_idle() {
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

EngineStats SolveService::stats() const {
  EngineStats stats;
  {
    // Under mutex_: a request past the cache tiers bumps submitted_ and
    // waiting_ in one critical section, so the difference is exact.
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    stats.submitted = submitted_->value();
    stats.completed = stats.submitted - waiting_;
  }
  stats.cache_hits = cache_hits_->value();
  stats.dominating_hits = dominating_hits_->value();
  stats.solver_invocations = solver_invocations_->value();
  stats.deduplicated = deduplicated_->value();
  stats.batches = batches_->value();
  stats.batched_requests = batched_requests_->value();
  stats.downgraded = downgraded_->value();
  stats.rejected_queue = rejected_queue_->value();
  stats.rejected_deadline = rejected_deadline_->value();
  stats.errors = errors_->value();
  return stats;
}

CacheStats SolveService::cache_stats() const { return cache_.stats(); }

}  // namespace prts::service
