// Incremental re-solve: the bounds-monotone near-miss index. The
// load-bearing guarantees:
//   * a dominating near-miss hit is byte-identical to the originally
//     cached entry and costs zero solver invocations;
//   * a whole bound-ladder sweep produces byte-identical output to a
//     cold sweep (a service without the cache, every step a full
//     solve), with several-fold fewer invocations;
//   * the index survives the snapshot file, and near-miss
//     metadata rides the wire reply.
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/generator.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
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

Instance random_hom_instance(std::uint64_t seed, std::size_t tasks,
                             std::size_t procs) {
  Rng rng(seed);
  ChainConfig config;
  config.task_count = tasks;
  return Instance{random_chain(rng, config),
                  Platform::homogeneous(procs, 1.0, 1e-6, 1.0, 1e-5, 3)};
}

/// Near-miss reuse rides the cache: `cache_enabled = false` is the
/// cold reference, whose every request is a full solve.
ServiceConfig service_config(bool cache_enabled = true) {
  ServiceConfig config;
  config.threads = 2;
  config.cache_enabled = cache_enabled;
  return config;
}

struct LadderRun {
  std::vector<SolveReply> replies;
  EngineStats stats;
};

/// One paced sweep: each step waits for its reply before the next is
/// submitted, the access pattern of a campaign walking a bound axis.
LadderRun run_ladder(const ServiceConfig& config, const Instance& instance,
                     const std::string& solver,
                     const std::vector<double>& periods) {
  SolveService service(config);
  LadderRun run;
  for (const double period : periods) {
    SolveRequest request{instance, solver, {}};
    request.bounds.period_bound = period;
    run.replies.push_back(service.submit(request).get());
  }
  run.stats = service.stats();
  return run;
}

void expect_same_answers(const LadderRun& cold, const LadderRun& reused) {
  ASSERT_EQ(cold.replies.size(), reused.replies.size());
  for (std::size_t i = 0; i < cold.replies.size(); ++i) {
    const SolveReply& x = cold.replies[i];
    const SolveReply& y = reused.replies[i];
    ASSERT_EQ(x.status, y.status) << "step " << i;
    ASSERT_EQ(x.solution.has_value(), y.solution.has_value()) << "step " << i;
    if (x.solution) {
      EXPECT_EQ(x.solution->mapping, y.solution->mapping) << "step " << i;
      EXPECT_EQ(x.solution->metrics, y.solution->metrics) << "step " << i;
    }
  }
}

/// Ascending bound ladder bracketing the interesting region: from below
/// the tightest feasible period up past the unconstrained optimum.
std::vector<double> period_ladder(const Instance& instance,
                                  std::size_t steps) {
  const auto engine = solver::SolverRegistry::builtin().find("exact");
  const auto free_opt = engine->solve(instance, {});
  const double top = free_opt->metrics.worst_period * 2.0;
  std::vector<double> ladder;
  for (std::size_t i = 0; i < steps; ++i) {
    ladder.push_back(top * (0.15 + 0.85 * static_cast<double>(i) /
                                       static_cast<double>(steps - 1)));
  }
  return ladder;
}

// ------------------------------------------------- service near-miss path

TEST(NearMissService, DominatingHitIsByteIdenticalToCachedEntry) {
  SolveService service(service_config());
  const Instance instance = hom_instance();

  SolveRequest loose{instance, "exact", {}};
  loose.bounds.period_bound = 100.0;
  const SolveReply first = service.submit(loose).get();
  ASSERT_EQ(first.status, ReplyStatus::kSolved);
  EXPECT_FALSE(first.cache_hit);

  // Tighter period that the cached solution still satisfies: served
  // from the bounds index, bit-identical, no second solve.
  SolveRequest tight = loose;
  tight.bounds.period_bound = first.solution->metrics.worst_period + 1.0;
  ASSERT_LT(tight.bounds.period_bound, loose.bounds.period_bound);
  const SolveReply near = service.submit(tight).get();
  ASSERT_EQ(near.status, ReplyStatus::kSolved);
  EXPECT_TRUE(near.cache_hit);
  EXPECT_TRUE(near.near_miss);
  EXPECT_EQ(near.solution->mapping, first.solution->mapping);
  EXPECT_EQ(near.solution->metrics, first.solution->metrics);

  const EngineStats stats = service.stats();
  EXPECT_EQ(stats.dominating_hits, 1u);
  EXPECT_EQ(stats.solver_invocations, 1u);

  // The dominating answer was promoted under its own key: an identical
  // repeat is now an *exact* hit.
  const SolveReply repeat = service.submit(tight).get();
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_FALSE(repeat.near_miss);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(NearMissService, LooserInfeasibilityAnswersTighterRequests) {
  SolveService service(service_config());
  const Instance instance = hom_instance();

  SolveRequest infeasible{instance, "exact", {}};
  infeasible.bounds.period_bound = 1e-3;  // below any interval's work
  const SolveReply first = service.submit(infeasible).get();
  ASSERT_EQ(first.status, ReplyStatus::kInfeasible);

  SolveRequest tighter = infeasible;
  tighter.bounds.period_bound = 1e-4;
  const SolveReply second = service.submit(tighter).get();
  EXPECT_EQ(second.status, ReplyStatus::kInfeasible);
  EXPECT_TRUE(second.near_miss);
  EXPECT_EQ(service.stats().solver_invocations, 1u);
}

TEST(NearMissService, NonMonotoneSolversNeverGetDominatingHits) {
  // dp-period reconstructs under the period bound: correct per query
  // but not argmax-over-fixed-candidates, so near-miss must never
  // answer for it.
  SolveService service(service_config());
  const Instance instance = hom_instance();
  SolveRequest loose{instance, "dp-period", {}};
  loose.bounds.period_bound = 100.0;
  const SolveReply first = service.submit(loose).get();
  ASSERT_EQ(first.status, ReplyStatus::kSolved);

  SolveRequest tight = loose;
  tight.bounds.period_bound = first.solution->metrics.worst_period + 1.0;
  const SolveReply second = service.submit(tight).get();
  ASSERT_EQ(second.status, ReplyStatus::kSolved);
  EXPECT_FALSE(second.near_miss);
  EXPECT_EQ(service.stats().dominating_hits, 0u);
  EXPECT_EQ(service.stats().solver_invocations, 2u);
}

TEST(NearMissService, LadderOutputByteIdenticalToColdWithFewerSolves) {
  const Instance instance = random_hom_instance(21, 10, 6);
  const std::vector<double> ladder = [&] {
    std::vector<double> descending = period_ladder(instance, 20);
    return std::vector<double>(descending.rbegin(), descending.rend());
  }();

  const LadderRun cold = run_ladder(service_config(false), instance,
                                    "exact", ladder);
  const LadderRun reused = run_ladder(service_config(), instance, "exact",
                                      ladder);
  expect_same_answers(cold, reused);
  // A paced descending sweep revisits the same optimum for most steps:
  // near-miss reuse turns those into dominating hits. One invocation
  // per *distinct optimum* remains (7 on this seed's ladder, vs 20
  // cold); the exact multiple is workload-shaped, so this test only
  // pins "at least half the solves disappeared". The paper-instance
  // ladder below pins its exact count.
  EXPECT_EQ(cold.stats.solver_invocations, ladder.size());
  EXPECT_GT(reused.stats.dominating_hits, 0u);
  EXPECT_LE(reused.stats.solver_invocations * 2,
            cold.stats.solver_invocations);
}

TEST(NearMissService, PaperInstanceLadderSolvesOnlyItsDistinctOptima) {
  // The paper's Section 8 instance (n = 15 tasks, homogeneous 10
  // processors; exact prepare enumerates 2^14 partitions) at seed 1,
  // swept Figure-6 style: 20 descending period bounds from 4x down to
  // 0.8x the unconstrained optimum's period, paced. Earlier answers
  // dominate later steps until the optimum shifts.
  Rng rng(1);
  const Instance instance{
      paper::chain(rng),
      Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                            paper::kProcessorFailureRate, paper::kBandwidth,
                            paper::kLinkFailureRate, paper::kMaxReplication)};
  const auto exact = solver::SolverRegistry::builtin().find("exact");
  const auto free_opt = exact->solve(instance, {});
  ASSERT_TRUE(free_opt);
  const double top = free_opt->metrics.worst_period * 4.0;
  const double bottom = free_opt->metrics.worst_period * 0.8;
  constexpr std::size_t kSteps = 20;
  std::vector<double> ladder;
  for (std::size_t i = 0; i < kSteps; ++i) {
    ladder.push_back(top - (top - bottom) * static_cast<double>(i) /
                               static_cast<double>(kSteps - 1));
  }

  const LadderRun cold = run_ladder(service_config(false), instance,
                                    "exact", ladder);
  const LadderRun reused = run_ladder(service_config(), instance, "exact",
                                      ladder);
  expect_same_answers(cold, reused);
  // 20 cold solves against 2 (18 dominating hits): stricter than a
  // 3x-fewer-invocations bar.
  EXPECT_EQ(cold.stats.solver_invocations, kSteps);
  EXPECT_LE(reused.stats.solver_invocations, 2u);
  EXPECT_EQ(reused.stats.dominating_hits,
            kSteps - reused.stats.solver_invocations);
}

TEST(NearMissService, IlpAscendingLadderByteIdenticalToCold) {
  // Ascending ladder on the ILP, which is not bounds-monotone: near-miss
  // reuse must never answer for it, so every step is a real solve and
  // the output is identical to cold.
  const Instance instance = random_hom_instance(33, 8, 5);
  const std::vector<double> ladder = period_ladder(instance, 8);

  const LadderRun cold = run_ladder(service_config(false), instance, "ilp",
                                    ladder);
  const LadderRun reused = run_ladder(service_config(), instance, "ilp",
                                      ladder);
  EXPECT_EQ(reused.stats.dominating_hits, 0u);
  expect_same_answers(cold, reused);
}

TEST(NearMissService, BurstSubmittedLadderCollapsesInsideOneBatch) {
  // All steps submitted before any solve runs: the solve-time re-probe
  // must still collapse the batch to a handful of real solves.
  const Instance instance = random_hom_instance(5, 10, 6);
  std::vector<double> ladder = period_ladder(instance, 16);
  std::vector<double> descending(ladder.rbegin(), ladder.rend());

  SolveService service(service_config());
  std::vector<std::future<SolveReply>> futures;
  for (const double period : descending) {
    SolveRequest request{instance, "exact", {}};
    request.bounds.period_bound = period;
    futures.push_back(service.submit(request));
  }
  for (auto& future : futures) {
    const SolveReply reply = future.get();
    EXPECT_NE(reply.status, ReplyStatus::kError);
  }
  const EngineStats stats = service.stats();
  EXPECT_LT(stats.solver_invocations, descending.size());
}

TEST(NearMissService, ExpiredDeadlineDowngradePrefersTheCachedIncumbent) {
  // deadline 0 expires immediately -> downgrade path; the cache holds
  // an answer of the requested solver at tighter bounds that fits the
  // request and beats anything heur-p can produce, so the degraded
  // answer is that incumbent.
  const Instance instance = hom_instance();
  const CanonicalInstance canonical = canonicalize(instance);
  const auto exact = solver::SolverRegistry::builtin().find("exact");
  const auto optimum = exact->solve(canonical.instance, {});
  ASSERT_TRUE(optimum);

  SolveService service(service_config());
  // An incumbent strictly better than anything the fallback can
  // produce (tri-criteria prefers higher reliability), so the choice
  // is deterministic. Its tighter bounds keep it from dominating the
  // unbounded request.
  solver::Solution incumbent = *optimum;
  incumbent.metrics.reliability = LogReliability::from_log(
      optimum->metrics.reliability.log() * 0.5);
  service.cache().insert(
      fingerprint("tighter-neighbour"),
      CachedSolution{incumbent, 0.0, batch_key(canonical, "exact"),
                     solver::Bounds{incumbent.metrics.worst_period,
                                    incumbent.metrics.worst_latency}});

  SolveRequest request{instance, "exact", {}, 0.0,
                       DeadlinePolicy::kDowngrade};
  const SolveReply reply = service.submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_TRUE(reply.downgraded);
  EXPECT_FALSE(reply.near_miss);
  EXPECT_EQ(reply.solution->metrics, incumbent.metrics);
  EXPECT_EQ(reply.solver_used, "exact");
  EXPECT_EQ(service.stats().solver_invocations, 0u);
}

// ------------------------------------------------------ persistence / wire

TEST(NearMissPersistence, IndexSurvivesTheSnapshot) {
  SolveService service(service_config());
  const Instance instance = hom_instance();
  SolveRequest loose{instance, "exact", {}};
  loose.bounds.period_bound = 100.0;
  const SolveReply first = service.submit(loose).get();
  ASSERT_EQ(first.status, ReplyStatus::kSolved);

  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  service.cache().save_binary(binary);

  ShardedSolutionCache reloaded;
  const auto result = reloaded.load_binary(binary);
  ASSERT_EQ(result.error, "");
  ASSERT_EQ(result.loaded, 1u);
  // The rebuilt index answers a tighter probe of the same instance.
  const CanonicalInstance canonical = canonicalize(instance);
  const CanonicalHash bkey = batch_key(canonical, "exact");
  solver::Bounds tighter;
  tighter.period_bound = first.solution->metrics.worst_period + 1.0;
  const auto hit = reloaded.find_dominating(bkey, tighter);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->solution.has_value());
  EXPECT_EQ(hit->solution->metrics, first.solution->metrics);
}

TEST(NearMissPersistence, MetadataRoundTripsThroughTheEntryCodec) {
  const Instance instance = hom_instance();
  const auto exact = solver::SolverRegistry::builtin().find("exact");
  const auto solution = exact->solve(instance, {});
  CachedSolution entry{solution, 0.25, fingerprint("instance-key"),
                       solver::Bounds{12.5, 99.0}};
  const std::string line = encode_cache_entry(fingerprint("req"), entry);

  CanonicalHash key;
  CachedSolution parsed;
  std::string error;
  ASSERT_TRUE(parse_cache_entry(line, key, parsed, error)) << error;
  ASSERT_TRUE(parsed.indexable());
  EXPECT_EQ(*parsed.instance_key, fingerprint("instance-key"));
  EXPECT_EQ(parsed.bounds->period_bound, 12.5);
  EXPECT_EQ(parsed.bounds->latency_bound, 99.0);
  EXPECT_EQ(parsed.cost_seconds, 0.25);
  EXPECT_EQ(parsed.solution->metrics, solution->metrics);
}

TEST(NearMissPersistence, EntriesWithoutMetadataLoadUnindexed) {
  // An entry encoded without the near-miss metadata (its flag clear).
  const Instance instance = hom_instance();
  const auto exact = solver::SolverRegistry::builtin().find("exact");
  const auto solution = exact->solve(instance, {});
  const std::string line =
      encode_cache_entry(fingerprint("req"), CachedSolution{solution, 0.5});
  CanonicalHash key;
  CachedSolution parsed;
  std::string error;
  ASSERT_TRUE(parse_cache_entry(line, key, parsed, error)) << error;
  EXPECT_FALSE(parsed.indexable());
  EXPECT_EQ(parsed.cost_seconds, 0.5);
}

TEST(NearMissWire, ReplyCarriesCostAndNearFlag) {
  SolveService service(service_config());
  const SolveReply original =
      service.submit(SolveRequest{hom_instance(), "exact", {}}).get();
  ASSERT_EQ(original.status, ReplyStatus::kSolved);

  SolveReply flagged = original;
  flagged.near_miss = true;
  flagged.cost_seconds = 0.125;
  std::string error;
  const auto decoded =
      decode_wire_reply(encode_wire_reply(flagged), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_TRUE(decoded->near_miss);
  EXPECT_EQ(decoded->cost_seconds, 0.125);
  EXPECT_EQ(decoded->solution->mapping, original.solution->mapping);
}

}  // namespace
}  // namespace prts::service
