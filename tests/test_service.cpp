// The request engine: cache hits replay bit-identical solutions,
// isomorphic requests share entries, in-flight twins deduplicate,
// compatible requests batch onto one prepared session, and admission
// control rejects or downgrades. Plus the distributed fabric above it:
// wire codec round trips, shard routing, forward dedup, peer-death
// degradation, and the campaign x service fusion.
#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "eval/evaluation.hpp"
#include "fabric_harness.hpp"
#include "model/generator.hpp"
#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "obs/profiler.hpp"
#include "scenario/emit.hpp"
#include "service/fusion.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/wire.hpp"
#include "solver/adapters.hpp"
#include "solver/registry.hpp"

namespace prts::service {
namespace {

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

Instance het_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 0.0}};
  std::vector<Processor> procs{{3.0, 1e-8}, {1.0, 2e-8}, {2.0, 1e-8},
                               {5.0, 4e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// het_instance with its processor list rotated: isomorphic, different
/// labels.
Instance het_instance_permuted() {
  const Instance base = het_instance();
  std::vector<Processor> procs;
  const std::size_t p = base.platform.processor_count();
  for (std::size_t u = 0; u < p; ++u) {
    procs.push_back(base.platform.processor((u + 1) % p));
  }
  return Instance{base.chain, Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// A solver that blocks until the test opens its gate — the lever for
/// deterministic dedup/batching tests. Delegates the actual answer to
/// heur-p so solutions are real.
class GatedSolver final : public solver::Solver {
 public:
  explicit GatedSolver(std::shared_future<void> gate)
      : gate_(std::move(gate)),
        inner_(solver::make_heuristic_solver(HeuristicKind::kHeurP, false)) {}

  std::string name() const override { return "gated"; }

  std::optional<solver::Solution> solve(
      const Instance& instance, const solver::Bounds& bounds) const override {
    entered_.fetch_add(1);
    gate_.wait();
    return inner_->solve(instance, bounds);
  }

  /// Blocks until a solve is waiting at the gate, i.e. the worker that
  /// runs it is occupied.
  void wait_until_entered() const {
    while (entered_.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::shared_future<void> gate_;
  mutable std::atomic<int> entered_{0};
  std::shared_ptr<const solver::Solver> inner_;
};

ServiceConfig small_config() {
  ServiceConfig config;
  config.threads = 2;
  return config;
}

TEST(SolveService, ColdSolveThenBitIdenticalCacheHit) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 1e9,
                       DeadlinePolicy::kReject};

  const SolveReply cold = service.submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.solver_used, "exact");
  ASSERT_TRUE(cold.solution.has_value());

  const SolveReply warm = service.submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  // The acceptance guarantee: a cache hit replays the cold solve
  // bit-for-bit — same mapping, exactly equal metric doubles.
  EXPECT_EQ(warm.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(warm.key, cold.key);

  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(SolveService, IsomorphicRequestsShareOneCacheEntry) {
  SolveService service(small_config());
  const SolveReply cold =
      service.submit(SolveRequest{het_instance(), "heur-p", {}}).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);

  const Instance permuted = het_instance_permuted();
  const SolveReply warm =
      service.submit(SolveRequest{permuted, "heur-p", {}}).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  // Same canonical solve, translated into each request's own labels:
  // metrics identical, mapping valid for the permuted platform.
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);
  EXPECT_EQ(warm.solution->mapping.validate(permuted.platform),
            std::nullopt);
}

// Warm-hit cost gates. They count instead of timing: lock acquisitions
// from the contention probes, allocations from the per-thread tally.

TEST(SolveService, WarmHitTakesNoEngineLockAndOneTracerLock) {
  obs::Telemetry telemetry;
  ServiceConfig config = small_config();
  config.telemetry = &telemetry;
  SolveService service(config);
  const SolveRequest request{het_instance(), "heur-p", {}};
  ASSERT_EQ(service.submit(request).get().status, ReplyStatus::kSolved);
  ASSERT_TRUE(service.submit(request).get().cache_hit);

  const auto acquisitions = [&telemetry](const std::string& lock) {
    return telemetry.metrics.counter("mutex_" + lock + "_acquisitions_total")
        .value();
  };
  const std::uint64_t engine_before = acquisitions("engine_queue");
  const std::uint64_t tracer_before = acquisitions("tracer");
  const std::uint64_t cache_before = acquisitions("cache_shard");
  constexpr std::uint64_t kHits = 64;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    const SolveReply hit = service.submit(request).get();
    ASSERT_TRUE(hit.cache_hit);
    ASSERT_NE(hit.trace_id, 0u);
  }
  EXPECT_EQ(acquisitions("engine_queue") - engine_before, 0u);
  EXPECT_EQ(acquisitions("tracer") - tracer_before, kHits);
  EXPECT_EQ(acquisitions("cache_shard") - cache_before, kHits);

  // The lock-free hit counters still add up in stats().
  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kHits + 2);
  EXPECT_EQ(stats.completed, kHits + 2);
  EXPECT_EQ(stats.cache_hits, kHits + 1);
  EXPECT_EQ(stats.solver_invocations, 1u);
}

TEST(SolveService, WarmHitAllocatesAtMostHalfOfItsFormerCount) {
  // Before the canonical-form memo, the streamed keys and the recycled
  // trace ring, a warm hit of this request made 26 allocations counted
  // from submit() entry (canonicalization included). Half of that is
  // the gate. The ring is small and pre-filled so the hits measured
  // run in its steady state.
  obs::TracerConfig tracer_config;
  tracer_config.capacity = 8;
  obs::Telemetry telemetry(tracer_config);
  ServiceConfig config = small_config();
  config.telemetry = &telemetry;
  SolveService service(config);
  const SolveRequest request{het_instance(), "heur-p", {}};
  ASSERT_EQ(service.submit(request).get().status, ReplyStatus::kSolved);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(service.submit(request).get().cache_hit);
  }

  constexpr std::uint64_t kFormerAllocsPerHit = 26;
  constexpr std::uint64_t kHits = 32;
  std::uint64_t allocations = 0;
  for (std::uint64_t i = 0; i < kHits; ++i) {
    SolveRequest hit = request;
    std::future<SolveReply> reply;
    {
      const obs::AllocScope scope;
      reply = service.submit(std::move(hit));
      allocations += scope.delta().count;
    }
    ASSERT_TRUE(reply.get().cache_hit);
  }
  EXPECT_LE(allocations, kHits * kFormerAllocsPerHit / 2)
      << static_cast<double>(allocations) / kHits << " allocations per hit";
}

TEST(SolveService, InfeasibleAnswersAreCachedToo) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}};
  request.bounds.period_bound = 1e-3;  // unreachable

  const SolveReply cold = service.submit(request).get();
  EXPECT_EQ(cold.status, ReplyStatus::kInfeasible);
  const SolveReply warm = service.submit(request).get();
  EXPECT_EQ(warm.status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(warm.cache_hit);
}

TEST(SolveService, ExactAnswersPromptlyBeyondItsEnumerationBound) {
  // 40 tasks on the paper's 10 processors: about 2.9e8 partitions. The
  // exact solver refuses to enumerate them and answers as it does on a
  // heterogeneous platform; the portfolio skips that member and answers
  // from its heuristics.
  Rng rng(40);
  ChainConfig chain_config;
  chain_config.task_count = 40;
  const Instance instance{random_chain(rng, chain_config),
                          paper::hom_platform()};
  SolveService service(small_config());
  auto exact = service.submit(SolveRequest{instance, "exact", {}});
  auto portfolio = service.submit(SolveRequest{instance, "portfolio", {}});
  ASSERT_EQ(exact.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  ASSERT_EQ(portfolio.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(exact.get().status, ReplyStatus::kInfeasible);
  const SolveReply answered = portfolio.get();
  ASSERT_EQ(answered.status, ReplyStatus::kSolved);
  EXPECT_EQ(answered.solution->mapping.validate(instance.platform),
            std::nullopt);
}

TEST(SolveService, UnknownSolverIsAnErrorReply) {
  SolveService service(small_config());
  const SolveReply reply =
      service.submit(SolveRequest{hom_instance(), "no-such-solver", {}})
          .get();
  EXPECT_EQ(reply.status, ReplyStatus::kError);
  EXPECT_NE(reply.error.find("no-such-solver"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(SolveService, QueueDepthZeroRejectsEverything) {
  ServiceConfig config = small_config();
  config.max_queue_depth = 0;
  SolveService service(config);
  const SolveReply reply =
      service.submit(SolveRequest{hom_instance(), "exact", {}}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kRejectedQueue);
  EXPECT_EQ(service.stats().rejected_queue, 1u);
}

TEST(SolveService, ExpiredDeadlineRejectsUnderRejectPolicy) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 0.0,
                       DeadlinePolicy::kReject};
  const SolveReply reply = service.submit(request).get();
  EXPECT_EQ(reply.status, ReplyStatus::kRejectedDeadline);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
}

TEST(SolveService, ExpiredDeadlineDowngradesToFallbackAndSkipsCache) {
  SolveService service(small_config());
  SolveRequest request{hom_instance(), "exact", {}, 0.0,
                       DeadlinePolicy::kDowngrade};
  const SolveReply reply = service.submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_TRUE(reply.downgraded);
  EXPECT_EQ(reply.solver_used, "heur-p");
  EXPECT_EQ(service.stats().downgraded, 1u);
  // Downgraded answers must not poison the 'exact' cache key.
  EXPECT_EQ(service.cache_stats().insertions, 0u);
  const SolveReply again = service.submit(request).get();
  EXPECT_FALSE(again.cache_hit);
  EXPECT_TRUE(again.downgraded);
}

TEST(SolveService, IdenticalInFlightRequestsDeduplicate) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  SolveRequest request{hom_instance(), "gated", {}};
  std::future<SolveReply> first = service.submit(request);
  std::future<SolveReply> second = service.submit(request);
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.solution->mapping, b.solution->mapping);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  // One solve, one cache entry.
  EXPECT_EQ(service.cache_stats().insertions, 1u);
}

TEST(SolveService, DeduplicatedIsomorphicTwinsGetTheirOwnLabels) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  const Instance original = het_instance();
  const Instance permuted = het_instance_permuted();
  std::future<SolveReply> first =
      service.submit(SolveRequest{original, "gated", {}});
  std::future<SolveReply> second =
      service.submit(SolveRequest{permuted, "gated", {}});
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  // One shared solve, but each reply speaks its own platform's labels:
  // interval replicas must name processors with the same physical
  // (speed, rate) characteristics in both label spaces.
  const Mapping& ma = a.solution->mapping;
  const Mapping& mb = b.solution->mapping;
  ASSERT_EQ(ma.interval_count(), mb.interval_count());
  for (std::size_t j = 0; j < ma.interval_count(); ++j) {
    std::vector<double> speeds_a;
    std::vector<double> speeds_b;
    for (const std::size_t u : ma.processors(j)) {
      speeds_a.push_back(original.platform.speed(u));
    }
    for (const std::size_t u : mb.processors(j)) {
      speeds_b.push_back(permuted.platform.speed(u));
    }
    std::sort(speeds_a.begin(), speeds_a.end());
    std::sort(speeds_b.begin(), speeds_b.end());
    EXPECT_EQ(speeds_a, speeds_b) << "interval " << j;
  }
}

TEST(SolveService, PatientDedupWaiterKeepsAnExpiredTwinAlive) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  const auto gated = std::make_shared<GatedSolver>(gate.get_future().share());
  registry.add(gated);

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  // Occupy the single worker so both requests below are pending when
  // their batch finally runs.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});
  gated->wait_until_entered();

  // First submitter: already-expired deadline, reject policy. Its twin
  // has no deadline — the query must be solved for real, not rejected
  // on the first submitter's options.
  SolveRequest impatient{hom_instance(), "gated", {}, 0.0,
                         DeadlinePolicy::kReject};
  SolveRequest patient{hom_instance(), "gated", {}};
  std::future<SolveReply> first = service.submit(impatient);
  std::future<SolveReply> second = service.submit(patient);
  EXPECT_EQ(service.stats().deduplicated, 1u);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  // The live waiter forced a real solve; the expired twin shares it.
  EXPECT_EQ(a.status, ReplyStatus::kSolved);
  EXPECT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.downgraded);
  EXPECT_FALSE(b.downgraded);
  EXPECT_EQ(service.stats().rejected_deadline, 0u);
}

TEST(SolveService, AllExpiredMixedPoliciesSplitPerWaiter) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  const auto gated = std::make_shared<GatedSolver>(gate.get_future().share());
  registry.add(gated);
  // The downgrade target must exist in the service's registry.
  registry.add(solver::make_heuristic_solver(HeuristicKind::kHeurP, false));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;
  SolveService service(config);

  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});
  gated->wait_until_entered();

  // Both waiters expired: the downgrade waiter gets the fallback
  // answer, the reject waiter a rejection — per-waiter statuses.
  SolveRequest wants_fallback{hom_instance(), "gated", {}, 0.0,
                              DeadlinePolicy::kDowngrade};
  SolveRequest wants_reject = wants_fallback;
  wants_reject.deadline_policy = DeadlinePolicy::kReject;
  std::future<SolveReply> first = service.submit(wants_fallback);
  std::future<SolveReply> second = service.submit(wants_reject);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  EXPECT_TRUE(a.downgraded);
  EXPECT_EQ(a.solver_used, "heur-p");
  EXPECT_EQ(b.status, ReplyStatus::kRejectedDeadline);
  EXPECT_EQ(service.stats().downgraded, 1u);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
  // The fallback answer must not be cached under the 'gated' key.
  EXPECT_EQ(service.cache_stats().insertions, 1u);  // blocker only
}

TEST(SolveService, CompatibleRequestsShareOneBatch) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  const auto gated = std::make_shared<GatedSolver>(gate.get_future().share());
  registry.add(gated);

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;  // FIFO: the blocker below owns the only worker
  SolveService service(config);

  // Occupy the worker so the next two submits stay queued in one open
  // batch (same instance + solver, different bounds).
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "gated", {}});
  gated->wait_until_entered();

  SolveRequest loose{hom_instance(), "gated", {}};
  SolveRequest tight = loose;
  tight.bounds.period_bound = 1e-3;
  std::future<SolveReply> first = service.submit(loose);
  std::future<SolveReply> second = service.submit(tight);

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(first.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(second.get().status, ReplyStatus::kInfeasible);

  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);           // blocker + the shared batch
  EXPECT_EQ(stats.batched_requests, 1u);  // `tight` joined `loose`
}

/// Delegates to heur-p but records the order in which instances reach
/// the solver — the observable for batch-pickup-order tests.
class RecordingSolver final : public solver::Solver {
 public:
  RecordingSolver(std::shared_future<void> gate,
                  std::vector<std::size_t>* order, std::mutex* order_mutex)
      : gate_(std::move(gate)),
        order_(order),
        order_mutex_(order_mutex),
        inner_(solver::make_heuristic_solver(HeuristicKind::kHeurP, false)) {}

  std::string name() const override { return "recording"; }

  std::optional<solver::Solution> solve(
      const Instance& instance, const solver::Bounds& bounds) const override {
    {
      // Recorded at *pickup* (before the gate), so the test can both
      // observe pickup order and wait until a batch is committed to.
      const std::lock_guard<std::mutex> lock(*order_mutex_);
      order_->push_back(instance.chain.size());
    }
    gate_.wait();
    return inner_->solve(instance, bounds);
  }

 private:
  std::shared_future<void> gate_;
  std::vector<std::size_t>* order_;
  std::mutex* order_mutex_;
  std::shared_ptr<const solver::Solver> inner_;
};

TEST(SolveService, TightDeadlineBatchIsPickedBeforePatientBacklog) {
  std::promise<void> gate;
  std::vector<std::size_t> order;
  std::mutex order_mutex;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<RecordingSolver>(gate.get_future().share(),
                                                 &order, &order_mutex));

  ServiceConfig config;
  config.registry = &registry;
  config.threads = 1;  // one worker: pickup order is fully observable
  SolveService service(config);

  // Occupy the worker so the next two batches queue up behind it; wait
  // until it has actually committed to the blocker's batch.
  std::future<SolveReply> blocker =
      service.submit(SolveRequest{het_instance(), "recording", {}});
  for (int spin = 0; spin < 2000; ++spin) {
    {
      const std::lock_guard<std::mutex> lock(order_mutex);
      if (!order.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // FIFO would run `patient` (4 tasks, submitted first, no deadline)
  // before `urgent` (2 tasks, submitted second, 30s deadline) — and
  // under real backlog the urgent request would expire in the queue.
  // Deadline-aware pickup must flip the order.
  std::vector<Task> two_tasks{{10.0, 1.0}, {5.0, 0.0}};
  const Instance small{TaskChain(std::move(two_tasks)),
                       Platform::homogeneous(3, 1.0, 1e-8, 1.0, 1e-5, 2)};
  std::future<SolveReply> patient =
      service.submit(SolveRequest{hom_instance(), "recording", {}});
  std::future<SolveReply> urgent = service.submit(
      SolveRequest{small, "recording", {}, 30.0, DeadlinePolicy::kReject});

  gate.set_value();
  EXPECT_EQ(blocker.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(patient.get().status, ReplyStatus::kSolved);
  EXPECT_EQ(urgent.get().status, ReplyStatus::kSolved);

  // Solve order: blocker (3 tasks), then urgent (2), then patient (4).
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 4u);
}

TEST(ServeProtocol, ScriptedSessionWithRepeatsAndErrors) {
  ServiceConfig config = small_config();
  SolveService service(config);

  std::istringstream in(
      "# a scripted session\n"
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 3 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a exact inf inf\n"
      "sync\n"
      "solve a exact inf inf\n"
      "solve nope exact inf inf\n"
      "bogus-command\n"
      "sync\n"
      "stats\n");
  std::ostringstream out;
  const ServeResult result = run_serve(in, out, service);

  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.protocol_errors, 2u);  // unknown instance + command

  const std::string text = out.str();
  // Request 0 solved cold, request 1 is a cache hit after the sync.
  EXPECT_NE(text.find("0\tsolved\t0"), std::string::npos);
  EXPECT_NE(text.find("1\tsolved\t1"), std::string::npos);
  EXPECT_NE(text.find("# error: solve: unknown instance 'nope'"),
            std::string::npos);
  EXPECT_NE(text.find("# engine {\"submitted\":2"), std::string::npos);
  EXPECT_NE(text.find("\"cache_hits\":1"), std::string::npos);
}

TEST(ServeProtocol, RepliesComeBackInSubmissionOrder) {
  SolveService service(small_config());
  std::istringstream in(
      "instance a\n"
      "prts-instance v1\n"
      "tasks 2\n"
      "10 1\n"
      "5 0\n"
      "platform 2 1 1e-05 2\n"
      "1 1e-08\n"
      "1 1e-08\n"
      "end\n"
      "solve a heur-p inf inf\n"
      "solve a heur-l inf inf\n"
      "solve a baseline inf inf\n");
  std::ostringstream out;
  run_serve(in, out, service);
  const std::string text = out.str();
  ASSERT_EQ(text.rfind("0\t", 0), 0u);  // reply 0 leads the output
  const std::size_t p1 = text.find("\n1\t");
  const std::size_t p2 = text.find("\n2\t");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p1, p2);
}

// ------------------------------------------------------------ wire codec

TEST(WireCodec, RequestRoundTrip) {
  SolveRequest request{het_instance(), "exact", {}, 7.5,
                       DeadlinePolicy::kReject};
  request.bounds.period_bound = 12.25;

  std::string error;
  const auto decoded =
      decode_wire_request(encode_wire_request(request), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->solver, "exact");
  EXPECT_EQ(decoded->bounds.period_bound, 12.25);
  EXPECT_TRUE(std::isinf(decoded->bounds.latency_bound));
  EXPECT_EQ(decoded->deadline_seconds, 7.5);
  EXPECT_EQ(decoded->deadline_policy, DeadlinePolicy::kReject);
  // The instance survives bit-exactly (canonical number formatting).
  EXPECT_EQ(instance_to_text(decoded->instance),
            instance_to_text(request.instance));
}

TEST(WireCodec, SolvedReplyRoundTripIsBitIdentical) {
  SolveService service(small_config());
  const SolveReply original =
      service.submit(SolveRequest{hom_instance(), "exact", {}}).get();
  ASSERT_EQ(original.status, ReplyStatus::kSolved);

  std::string error;
  const auto decoded =
      decode_wire_reply(encode_wire_reply(original), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kSolved);
  EXPECT_EQ(decoded->solver_used, "exact");
  EXPECT_EQ(decoded->key, original.key);
  ASSERT_TRUE(decoded->solution.has_value());
  EXPECT_EQ(decoded->solution->mapping, original.solution->mapping);
  EXPECT_EQ(decoded->solution->metrics, original.solution->metrics);
}

TEST(WireCodec, InfeasibleAndErrorRepliesRoundTrip) {
  SolveReply infeasible;
  infeasible.status = ReplyStatus::kInfeasible;
  infeasible.solver_used = "dp";
  infeasible.cache_hit = true;
  infeasible.key = fingerprint("some-key");
  std::string error;
  auto decoded = decode_wire_reply(encode_wire_reply(infeasible), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->key, infeasible.key);
  EXPECT_FALSE(decoded->solution.has_value());

  // Every line the encoder writes is required: a reply missing its
  // 'near' or its 'cost' line is rejected, not defaulted.
  const std::string encoded = encode_wire_reply(infeasible);
  for (const std::string line : {"near 0\n", "cost 0\n"}) {
    std::string stripped = encoded;
    const std::size_t at = stripped.find(line);
    ASSERT_NE(at, std::string::npos) << line;
    stripped.erase(at, line.size());
    EXPECT_FALSE(decode_wire_reply(stripped, error).has_value()) << line;
    EXPECT_FALSE(error.empty());
  }

  SolveReply failure;
  failure.status = ReplyStatus::kError;
  failure.error = "unknown solver 'nope'";
  failure.key = fingerprint("err-key");
  decoded = decode_wire_reply(encode_wire_reply(failure), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->status, ReplyStatus::kError);
  EXPECT_EQ(decoded->error, "unknown solver 'nope'");
  EXPECT_EQ(decoded->key, failure.key);
}

TEST(WireCodec, GarbageIsRejectedWithReason) {
  std::string error;
  EXPECT_FALSE(decode_wire_request("not a request", error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(decode_wire_reply("junk\n", error).has_value());
  EXPECT_FALSE(
      decode_wire_request("prts-solve-request v1\nsolver\n", error)
          .has_value());

  // A 'warm' hint line before the instance is not part of the format.
  const Instance instance = hom_instance();
  const auto solution =
      solver::SolverRegistry::builtin().find("exact")->solve(instance, {});
  ASSERT_TRUE(solution.has_value());
  std::string payload =
      encode_wire_request(SolveRequest{instance, "exact", {}});
  payload.insert(payload.find("instance\n"),
                 "warm " +
                     encode_cache_entry(CanonicalHash{},
                                        CachedSolution{solution}) +
                     "\n");
  EXPECT_FALSE(decode_wire_request(payload, error).has_value());
  EXPECT_EQ(error, "expected 'instance'");
}

/// A wire solve request whose instance claims `count` tasks (or
/// processors) but carries the few lines of hom_instance().
std::string hostile_request(const char* field, const char* count) {
  std::string payload =
      encode_wire_request(SolveRequest{hom_instance(), "heur-p", {}});
  const std::size_t at = payload.find(std::string("\n") + field + " ");
  const std::size_t number = payload.find(' ', at) + 1;
  const std::size_t end = payload.find_first_of(" \n", number);
  payload.replace(number, end - number, count);
  return payload;
}

TEST(WireCodec, HugeClaimedCountsAllocateNoMoreThanTheBytes) {
  // A ~200-byte request claiming 10^8 tasks once reserved 1.6 GB; every
  // reserve is now bounded by the bytes that remain.
  for (const char* field : {"tasks", "platform"}) {
    for (const char* count : {"100000000", "1000000000000000000"}) {
      const std::string payload = hostile_request(field, count);
      EXPECT_LT(payload.size(), 256u);
      std::string error;
      const obs::AllocScope scope;
      const auto decoded = decode_wire_request(payload, error);
      const obs::AllocCounts spent = scope.delta();
      EXPECT_FALSE(decoded.has_value()) << field << " " << count;
      EXPECT_LT(spent.bytes, 4096u) << field << " " << count;
    }
  }
}

TEST(FabricHandler, HostileRequestFailsAloneAndTheConnectionStaysUp) {
  SolveService service(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(service), server_pool);
  ASSERT_NE(server, nullptr);
  net::MuxFrameClient client("127.0.0.1", server->port());

  net::Frame hostile;
  hostile.type = net::FrameType::kSolveRequest;
  hostile.payload = hostile_request("tasks", "100000000");
  const auto refused = client.call(hostile);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->type, net::FrameType::kError);

  net::Frame valid;
  valid.type = net::FrameType::kSolveRequest;
  valid.payload =
      encode_wire_request(SolveRequest{hom_instance(), "heur-p", {}});
  const auto answered = client.call(valid);
  ASSERT_TRUE(answered.has_value());
  ASSERT_EQ(answered->type, net::FrameType::kSolveReply);
  std::string error;
  const auto reply = decode_wire_reply(answered->payload, error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->status, ReplyStatus::kSolved);
  EXPECT_EQ(server->stats().connections, 1u);
}

TEST(WireCodec, PeerListParses) {
  const auto peers =
      parse_peer_list("127.0.0.1:7000,node-b:7001,10.0.0.3:7002");
  ASSERT_TRUE(peers.has_value());
  ASSERT_EQ(peers->size(), 3u);
  EXPECT_EQ((*peers)[0].host, "127.0.0.1");
  EXPECT_EQ((*peers)[0].port, 7000);
  EXPECT_EQ((*peers)[1].host, "node-b");
  EXPECT_EQ((*peers)[2].port, 7002);

  EXPECT_FALSE(parse_peer_list("").has_value());
  EXPECT_FALSE(parse_peer_list("no-port,127.0.0.1:1").has_value());
  EXPECT_FALSE(parse_peer_list("host:0").has_value());
  EXPECT_FALSE(parse_peer_list("host:99999").has_value());
  EXPECT_FALSE(parse_peer_list("host:76o1").has_value());  // trailing junk
}

// ------------------------------------------------------------ shard router

/// Rank 0 of a boot-list fleet of two whose rank 1 listens on
/// `remote_port` (rank 0's own entry is never dialled). The remote runs
/// no router, so heartbeats are off.
RouterConfig two_rank_config(std::uint16_t remote_port) {
  RouterConfig config;
  config.rank = 0;
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", remote_port}};
  config.heartbeat_interval_seconds = 0.0;
  return config;
}

/// Latency bounds >= 1000 are effectively unconstrained for the tiny
/// test instances, so varying them mints distinct *solvable* cache keys;
/// this scans for one whose key `router` assigns to `shard`.
solver::Bounds bounds_on_shard(const ShardRouter& router,
                               const Instance& instance,
                               const std::string& solver_name,
                               std::size_t shard, double salt = 0.0) {
  const CanonicalInstance canonical = canonicalize(instance);
  for (double latency = 1000.0 + salt; latency < 2000.0 + salt;
       latency += 1.0) {
    solver::Bounds bounds;
    bounds.latency_bound = latency;
    if (router.shard_of(request_key(canonical, solver_name, bounds)) ==
        shard) {
      return bounds;
    }
  }
  ADD_FAILURE() << "no bounds found for shard " << shard;
  return {};
}

TEST(ShardRouterTest, WorldOfOneNeverTouchesTheNetwork) {
  SolveService service(small_config());
  ShardRouter router(service, RouterConfig{});
  const SolveReply reply =
      router.submit(SolveRequest{hom_instance(), "heur-p", {}}).get();
  EXPECT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().local, 1u);
  EXPECT_EQ(router.stats().forwarded, 0u);
}

TEST(ShardRouterTest, RemoteShardForwardedSolvedOnceCachedOnOwner) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config = two_rank_config(server->port());
  // Replica tier off: this test pins the *owner-cache* forwarding path
  // a repeat takes when replication cannot absorb it
  // (tests/test_fabric_replication.cpp covers the replica tier).
  config.replica.capacity_bytes = 0;
  ShardRouter router(local, config);

  const Instance instance = hom_instance();
  SolveRequest request{instance, "heur-p",
                       bounds_on_shard(router, instance, "heur-p", 1)};

  // Cold: forwarded, solved by the owner, not a hit anywhere.
  const SolveReply cold = router.submit(request).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(router.stats().forwarded, 1u);
  EXPECT_EQ(router.stats().local, 0u);
  EXPECT_EQ(remote.stats().submitted, 1u);
  EXPECT_EQ(local.stats().submitted, 0u);

  // Repeat: forwarded again and answered from the owner's cache.
  const SolveReply warm = router.submit(request).get();
  ASSERT_EQ(warm.status, ReplyStatus::kSolved);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(router.stats().forwarded, 2u);
  EXPECT_EQ(router.stats().forward_hits, 1u);
  EXPECT_EQ(remote.stats().cache_hits, 1u);
  // Bit-identical replay through the wire.
  EXPECT_EQ(warm.solution->mapping, cold.solution->mapping);
  EXPECT_EQ(warm.solution->metrics, cold.solution->metrics);

  // A local-shard request never leaves the process.
  SolveRequest local_request{instance, "heur-p",
                             bounds_on_shard(router, instance, "heur-p", 0)};
  const SolveReply local_reply = router.submit(local_request).get();
  ASSERT_EQ(local_reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().local, 1u);
  EXPECT_EQ(local.stats().submitted, 1u);
}

TEST(ShardRouterTest, InFlightForwardsDeduplicate) {
  std::promise<void> gate;
  solver::SolverRegistry registry;
  registry.add(std::make_shared<GatedSolver>(gate.get_future().share()));

  ServiceConfig remote_config;
  remote_config.threads = 2;
  remote_config.registry = &registry;
  SolveService local(small_config());
  SolveService remote(remote_config);
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  ShardRouter router(local, two_rank_config(server->port()));

  const Instance instance = hom_instance();
  SolveRequest request{instance, "gated",
                       bounds_on_shard(router, instance, "gated", 1)};

  // First submit opens the forward; the owner blocks on the gate, so
  // the identical second submit must attach, not forward again.
  std::future<SolveReply> first = router.submit(request);
  std::future<SolveReply> second = router.submit(request);
  EXPECT_EQ(router.stats().deduplicated, 1u);
  gate.set_value();

  const SolveReply a = first.get();
  const SolveReply b = second.get();
  ASSERT_EQ(a.status, ReplyStatus::kSolved);
  ASSERT_EQ(b.status, ReplyStatus::kSolved);
  EXPECT_FALSE(a.deduplicated);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.solution->metrics, b.solution->metrics);
  EXPECT_EQ(router.stats().forwarded, 1u);
  EXPECT_EQ(remote.stats().submitted, 1u);  // one network solve total
}

TEST(ShardRouterTest, IsomorphicTwinsGetOwnLabelsThroughForward) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  ShardRouter router(local, two_rank_config(server->port()));

  // Isomorphic instances share one canonical key, hence one shard.
  const Instance original = het_instance();
  const Instance permuted = het_instance_permuted();
  const solver::Bounds bounds =
      bounds_on_shard(router, original, "heur-p", 1);

  const SolveReply first =
      router.submit(SolveRequest{original, "heur-p", bounds}).get();
  const SolveReply second =
      router.submit(SolveRequest{permuted, "heur-p", bounds}).get();
  ASSERT_EQ(first.status, ReplyStatus::kSolved);
  ASSERT_EQ(second.status, ReplyStatus::kSolved);
  EXPECT_EQ(first.key, second.key);
  EXPECT_TRUE(second.cache_hit);  // owner answered the twin from cache
  // Metrics are label-invariant and bit-identical; each mapping is
  // valid on its *own* platform.
  EXPECT_EQ(first.solution->metrics, second.solution->metrics);
  EXPECT_FALSE(
      first.solution->mapping.validate(original.platform).has_value());
  EXPECT_FALSE(
      second.solution->mapping.validate(permuted.platform).has_value());
}

TEST(ShardRouterTest, PeerDeathDegradesToLocalSolveWithoutErrors) {
  SolveService local(small_config());
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);

  RouterConfig config = two_rank_config(server->port());
  config.client.connect_timeout_seconds = 0.5;
  config.client.backoff_initial_seconds = 0.05;
  ShardRouter router(local, config);

  const Instance instance = hom_instance();
  const SolveReply before =
      router
          .submit(SolveRequest{instance, "heur-p",
                               bounds_on_shard(router, instance, "heur-p", 1)})
          .get();
  ASSERT_EQ(before.status, ReplyStatus::kSolved);
  EXPECT_EQ(router.stats().forwarded, 1u);

  // Kill the peer mid-run: remote-shard keys must degrade to local
  // solves, statuses stay clean.
  server->stop();
  const SolveReply after =
      router
          .submit(SolveRequest{instance, "heur-p",
                               bounds_on_shard(router, instance, "heur-p", 1,
                                               /*salt=*/5000.0)})
          .get();
  ASSERT_EQ(after.status, ReplyStatus::kSolved);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.forward_failures, 1u);
  EXPECT_EQ(stats.local_fallbacks, 1u);
  EXPECT_GE(local.stats().submitted, 1u);
  EXPECT_TRUE(router.peer_suspect(1));
}

TEST(ShardRouterTest, OwnedKeysLockTheRouterOnceAndReplicaHitsNever) {
  obs::Telemetry telemetry;
  ServiceConfig local_config = small_config();
  local_config.telemetry = &telemetry;
  SolveService local(local_config);
  SolveService remote(small_config());
  ThreadPool server_pool(2);
  auto server =
      net::FrameServer::start(0, make_fabric_handler(remote), server_pool);
  ASSERT_NE(server, nullptr);
  ShardRouter router(local, two_rank_config(server->port()));
  const auto acquisitions = [&telemetry] {
    return telemetry.metrics
        .counter("mutex_router_inflight_acquisitions_total")
        .value();
  };
  constexpr std::uint64_t kRequests = 64;
  const Instance instance = hom_instance();

  // An owned key takes the router's lock once: the gossip hit tally.
  const SolveRequest owned{instance, "heur-p",
                           bounds_on_shard(router, instance, "heur-p", 0)};
  ASSERT_EQ(router.submit(owned).get().status, ReplyStatus::kSolved);
  std::uint64_t before = acquisitions();
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(router.submit(owned).get().cache_hit);
  }
  EXPECT_EQ(acquisitions() - before, kRequests);

  // A replica hit never takes it: the replica tier counts the hit.
  const SolveRequest peer_key{instance, "heur-p",
                              bounds_on_shard(router, instance, "heur-p", 1)};
  ASSERT_EQ(router.submit(peer_key).get().status, ReplyStatus::kSolved);
  before = acquisitions();
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(router.submit(peer_key).get().cache_hit);
  }
  EXPECT_EQ(acquisitions() - before, 0u);
  EXPECT_EQ(router.stats().replica_hits, kRequests);
}

// ------------------------------------------------ one counter system

/// Every `prefix<field>_total` counter in `metrics` equals its snapshot
/// field.
void expect_counters(obs::Registry& metrics, const std::string& prefix,
                     std::initializer_list<std::pair<const char*,
                                                     std::uint64_t>> fields) {
  for (const auto& [field, value] : fields) {
    EXPECT_EQ(metrics.counter(prefix + field + "_total").value(), value)
        << prefix << field;
  }
}

void expect_engine_snapshot(SolveService& service) {
  const EngineStats s = service.stats();
  expect_counters(service.telemetry().metrics, "prts_engine_",
                  {{"submitted", s.submitted},
                   {"cache_hits", s.cache_hits},
                   {"dominating_hits", s.dominating_hits},
                   {"solver_invocations", s.solver_invocations},
                   {"deduplicated", s.deduplicated},
                   {"batches", s.batches},
                   {"batched_requests", s.batched_requests},
                   {"downgraded", s.downgraded},
                   {"rejected_queue", s.rejected_queue},
                   {"rejected_deadline", s.rejected_deadline},
                   {"errors", s.errors}});
  EXPECT_EQ(s.completed, s.submitted);  // every waiter was answered
  EXPECT_EQ(service.telemetry().metrics.gauge("prts_cache_entries").value(),
            static_cast<double>(service.cache_stats().entries));
}

void expect_router_snapshot(ShardRouter& router, obs::Registry& metrics) {
  const RouterStats r = router.stats();
  expect_counters(metrics, "prts_router_",
                  {{"local", r.local},
                   {"forwarded", r.forwarded},
                   {"forward_hits", r.forward_hits},
                   {"forward_failures", r.forward_failures},
                   {"local_fallbacks", r.local_fallbacks},
                   {"deduplicated", r.deduplicated},
                   {"replica_hits", r.replica_hits},
                   {"prefetched", r.prefetched},
                   {"gossip_sent", r.gossip_sent},
                   {"gossip_failures", r.gossip_failures},
                   {"gossip_received", r.gossip_received}});
  const ReplicaStats replica = router.replica_stats();
  EXPECT_EQ(replica.hits, r.replica_hits);
  expect_counters(metrics, "replica_",
                  {{"misses", replica.misses},
                   {"insertions", replica.insertions},
                   {"evictions", replica.evictions},
                   {"expirations", replica.expirations}});
  const MembershipStats m = router.membership_stats();
  EXPECT_EQ(metrics.gauge("prts_membership_epoch").value(),
            static_cast<double>(m.epoch));
  EXPECT_EQ(metrics.gauge("prts_membership_members").value(),
            static_cast<double>(m.members));
  expect_counters(metrics, "prts_membership_",
                  {{"joins", m.joins},
                   {"deaths", m.deaths},
                   {"suspects", m.suspects},
                   {"handoffs_started", m.handoffs_started},
                   {"handoffs_completed", m.handoffs_completed},
                   {"handoff_chunks_sent", m.handoff_chunks_sent},
                   {"handoff_chunks_received", m.handoff_chunks_received},
                   {"handoff_entries_sent", m.handoff_entries_sent},
                   {"handoff_entries_received", m.handoff_entries_received},
                   {"double_writes", m.double_writes}});
  for (const auto& [rank, c] : router.client_stats()) {
    expect_counters(metrics, "net_client_rank" + std::to_string(rank) + "_",
                    {{"calls", c.calls},
                     {"failures", c.failures},
                     {"connects", c.connects},
                     {"fast_failures", c.fast_failures},
                     {"suspects", c.suspects},
                     {"timeouts", c.timeouts}});
  }
}

/// The `metrics` scrape names each family once, and never under a name
/// that repeated another family's quantity.
void expect_one_name_per_quantity(SolveService& service) {
  std::ostringstream out;
  write_metrics_text(out, service);
  std::istringstream lines(out.str());
  std::set<std::string> families;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(families.insert(name).second) << "repeated family " << name;
  }
  for (const char* deleted :
       {"engine_requests_total", "engine_errors_total",
        "engine_rejected_total", "membership_epoch", "membership_members",
        "membership_joins_total", "membership_deaths_total",
        "membership_suspects_total", "handoff_entries_sent_total",
        "handoff_entries_received_total"}) {
    EXPECT_EQ(families.count(deleted), 0u) << deleted;
  }
  EXPECT_EQ(families.count("prts_engine_submitted_total"), 1u);
  EXPECT_EQ(families.count("prts_cache_entries"), 1u);
}

TEST(OneCounterSystem, EveryStatsFieldIsItsRegistryCounter) {
  // One service through every engine path: batch, dedup, queue and
  // deadline rejections, exact and dominating hits.
  std::promise<void> gate;
  solver::SolverRegistry registry = solver::SolverRegistry::builtin();
  const auto gated =
      std::make_shared<GatedSolver>(gate.get_future().share());
  registry.add(gated);
  ServiceConfig config = small_config();
  config.registry = &registry;
  config.max_queue_depth = 1;
  SolveService service(config);
  const Instance instance = hom_instance();
  const SolveRequest held{instance, "gated", {}};
  std::future<SolveReply> first = service.submit(held);
  std::future<SolveReply> twin = service.submit(held);  // dedup
  gated->wait_until_entered();
  EXPECT_EQ(service.submit(SolveRequest{instance, "heur-p", {}}).get().status,
            ReplyStatus::kRejectedQueue);
  gate.set_value();
  ASSERT_EQ(first.get().status, ReplyStatus::kSolved);
  ASSERT_TRUE(twin.get().deduplicated);
  EXPECT_EQ(service
                .submit(SolveRequest{instance, "exact", {}, 0.0,
                                     DeadlinePolicy::kReject})
                .get()
                .status,
            ReplyStatus::kRejectedDeadline);
  ASSERT_TRUE(service.submit(held).get().cache_hit);
  SolveRequest loose{instance, "exact", {}};
  loose.bounds.period_bound = 100.0;
  const SolveReply cold = service.submit(loose).get();
  ASSERT_EQ(cold.status, ReplyStatus::kSolved);
  SolveRequest tight = loose;
  tight.bounds.period_bound = cold.solution->metrics.worst_period + 1.0;
  ASSERT_TRUE(service.submit(tight).get().near_miss);
  const EngineStats engine = service.stats();
  EXPECT_GE(engine.cache_hits, 1u);
  EXPECT_GE(engine.dominating_hits, 1u);
  EXPECT_GE(engine.deduplicated, 1u);
  EXPECT_GE(engine.rejected_queue, 1u);
  EXPECT_GE(engine.rejected_deadline, 1u);
  expect_engine_snapshot(service);
  expect_one_name_per_quantity(service);

  // A fleet of two: a forward, a replica hit, then a failover.
  testing::FabricHarness::Options options;
  options.world = 2;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 0.5;
  options.router.client.backoff_initial_seconds = 0.05;
  testing::FabricHarness fleet(options);
  const SolveRequest remote{instance, "heur-p",
                            fleet.bounds_on_rank(instance, "heur-p", 1)};
  ASSERT_EQ(fleet.router(0).submit(remote).get().status,
            ReplyStatus::kSolved);
  ASSERT_TRUE(fleet.router(0).submit(remote).get().cache_hit);
  fleet.kill(1);
  const SolveRequest stranded{
      instance, "heur-p",
      fleet.bounds_on_rank(instance, "heur-p", 1, /*salt=*/5000.0)};
  ASSERT_EQ(fleet.router(0).submit(stranded).get().status,
            ReplyStatus::kSolved);
  const RouterStats routed = fleet.router(0).stats();
  EXPECT_GE(routed.forwarded, 1u);
  EXPECT_GE(routed.replica_hits, 1u);
  EXPECT_GE(routed.forward_failures, 1u);
  for (std::size_t r = 0; r < fleet.world(); ++r) {
    expect_engine_snapshot(fleet.service(r));
    expect_router_snapshot(fleet.router(r), fleet.telemetry(r).metrics);
    expect_one_name_per_quantity(fleet.service(r));
  }
}

// -------------------------------------------------- wide replication

/// `prts_cli generate --seed 1 --tasks 2 --procs 40` with K = 40: the
/// local search's split move enumerates every division only of small
/// replica sets, so this 378-byte request must not take 2^40 candidates.
Instance wide_replication_instance() {
  Rng rng(1);
  ChainConfig chain_config;
  chain_config.task_count = 2;
  return Instance{random_chain(rng, chain_config),
                  Platform::homogeneous(40, 1.0, paper::kProcessorFailureRate,
                                        1.0, paper::kLinkFailureRate, 40)};
}

TEST(WideReplication, LocalSearchSolversAnswerWithinASecond) {
  const Instance instance = wide_replication_instance();
  SolveService service(small_config());
  for (const std::string name : {"heur-l+ls", "heur-p+ls", "portfolio"}) {
    const auto solver = solver::SolverRegistry::builtin().find(name);
    ASSERT_NE(solver, nullptr) << name;
    auto start = std::chrono::steady_clock::now();
    const auto direct = solver->solve(instance, solver::Bounds{});
    const std::chrono::duration<double> direct_seconds =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(direct.has_value()) << name;
    EXPECT_LT(direct_seconds.count(), 1.0) << name;

    start = std::chrono::steady_clock::now();
    const SolveReply reply =
        service.submit(SolveRequest{instance, name, {}}).get();
    const std::chrono::duration<double> service_seconds =
        std::chrono::steady_clock::now() - start;
    EXPECT_EQ(reply.status, ReplyStatus::kSolved) << name;
    EXPECT_LT(service_seconds.count(), 1.0) << name;
  }
}

// ------------------------------------------------- campaign x service

scenario::CampaignSpec small_campaign(bool het) {
  scenario::CampaignSpec spec;
  spec.name = "fusion-test";
  spec.instances = 2;
  spec.repetitions = 1;
  spec.seed = 7;
  spec.chain.task_count = 6;
  spec.platform.kind =
      het ? scenario::PlatformKind::kHet : scenario::PlatformKind::kHom;
  spec.platform.processors = 4;
  spec.sweep.kind = scenario::SweepKind::kPeriod;
  spec.sweep.lo = 40.0;
  spec.sweep.hi = 120.0;
  spec.sweep.step = 40.0;
  spec.solvers = {"heur-p", "heur-l"};
  return spec;
}

std::string figure_tsv(const scenario::CampaignResult& result) {
  std::ostringstream out;
  scenario::write_tsv(out, result.figure);
  return out.str();
}

TEST(CampaignFusion, MatchesPlainCampaignOnHomogeneousPlatform) {
  const scenario::CampaignSpec spec = small_campaign(/*het=*/false);
  scenario::CampaignConfig config;
  config.threads = 2;
  const scenario::CampaignResult plain =
      scenario::run_campaign(spec, config);

  ServiceConfig service_config;
  service_config.threads = 2;
  SolveService service(service_config);
  const scenario::CampaignResult fused =
      run_campaign_via_service(spec, service);

  // Homogeneous canonicalization is the identity, so the fused sweep is
  // byte-identical to the classic engine's.
  EXPECT_EQ(figure_tsv(fused), figure_tsv(plain));
  EXPECT_EQ(fused.jobs, plain.jobs);
  EXPECT_GT(service.stats().submitted, 0u);
}

TEST(CampaignFusion, WarmServiceReplaysByteIdentical) {
  const scenario::CampaignSpec spec = small_campaign(/*het=*/true);
  ServiceConfig service_config;
  service_config.threads = 2;
  SolveService service(service_config);

  const std::string cold = figure_tsv(run_campaign_via_service(spec, service));
  const auto cold_hits = service.stats().cache_hits;
  const std::string warm = figure_tsv(run_campaign_via_service(spec, service));

  // The second sweep is served from the cross-run cache and still
  // reproduces the exact bytes (cache replay is bit-identical).
  EXPECT_EQ(warm, cold);
  EXPECT_GT(service.stats().cache_hits, cold_hits);
}

TEST(CampaignFusion, UnknownSolverThrowsLikeTheClassicEngine) {
  scenario::CampaignSpec spec = small_campaign(false);
  spec.solvers = {"definitely-not-a-solver"};
  ServiceConfig config;
  config.threads = 1;
  SolveService service(config);
  EXPECT_THROW(run_campaign_via_service(spec, service),
               std::invalid_argument);
}

}  // namespace
}  // namespace prts::service
