// Edge cases and scale checks that don't fit the per-module files.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"
#include "eval/evaluation.hpp"
#include "exact_oracle.hpp"
#include "model/generator.hpp"
#include "sim/pipeline_sim.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

TEST(EdgeCases, SingleTaskSingleProcessor) {
  const TaskChain chain({{7.0, 0.0}});
  const Platform platform = Platform::homogeneous(1, 2.0, 1e-4, 1.0, 0.0, 1);
  const auto dp = optimize_reliability(chain, platform);
  EXPECT_EQ(dp.mapping.interval_count(), 1u);
  EXPECT_EQ(dp.mapping.processors_used(), 1u);
  const MappingMetrics metrics = evaluate(chain, platform, dp.mapping);
  EXPECT_NEAR(metrics.worst_latency, 3.5, 1e-12);
  EXPECT_NEAR(metrics.worst_period, 3.5, 1e-12);
  EXPECT_NEAR(metrics.failure, failure_from_rate(1e-4, 3.5), 1e-15);
}

TEST(EdgeCases, HugeCommunicationForcesMerging) {
  // Task 0's output (50 units) blows any period bound it crosses: every
  // mapping that cuts after task 0 has worst period >= 50 (Eq. (6)
  // includes each interval's outgoing communication), so under P = 10
  // the only feasible shape merges both tasks into one interval — which
  // hides the transfer entirely (intra-interval data never crosses a
  // link).
  const TaskChain chain({{1.0, 50.0}, {1.0, 0.0}});
  const Platform platform = Platform::homogeneous(4, 1.0, 1e-6, 1.0, 0.0, 2);

  const Mapping cut(IntervalPartition::singletons(2), {{0}, {1}});
  EXPECT_GE(evaluate(chain, platform, cut).worst_period, 50.0);

  const auto dp = optimize_reliability_period(chain, platform, 10.0);
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->mapping.interval_count(), 1u);

  const HomogeneousExactSolver solver(chain, platform);
  const auto best = solver.solve(10.0, 1e9);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->mapping.interval_count(), 1u);
  // But a period bound below the merged work is infeasible outright.
  EXPECT_FALSE(solver.solve(1.5, 1e9).has_value());
  EXPECT_FALSE(
      optimize_reliability_period(chain, platform, 1.5).has_value());
}

TEST(EdgeCases, Algorithm2AgreesWithExactOnCommBoundedInstance) {
  const TaskChain chain({{1.0, 50.0}, {1.0, 0.0}});
  const Platform platform = Platform::homogeneous(4, 1.0, 1e-6, 1.0, 0.0, 2);
  const auto dp = optimize_reliability_period(chain, platform, 10.0);
  const HomogeneousExactSolver solver(chain, platform);
  const auto exact = solver.best_log_reliability(10.0, 1e9);
  ASSERT_EQ(dp.has_value(), exact.has_value());
  if (dp) {
    EXPECT_NEAR(dp->reliability.log(), *exact, 1e-12);
  }
}

TEST(EdgeCases, ExactRecordsMatchEvaluator) {
  Rng rng(5);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(5, 2);
  // Every enumerated partition, through the oracle the solver matches
  // bit for bit (test_exact), and every record the solver keeps.
  for (const auto& record : oracle::enumerate(chain, platform)) {
    const Mapping mapping = oracle::mapping(record, chain.size());
    const MappingMetrics metrics = evaluate(chain, platform, mapping);
    ASSERT_NEAR(metrics.worst_period, record.period, 1e-9);
    ASSERT_NEAR(metrics.worst_latency, record.latency, 1e-9);
    ASSERT_NEAR(metrics.reliability.log(), record.log_reliability, 1e-9);
  }
  const HomogeneousExactSolver solver(chain, platform);
  ASSERT_FALSE(solver.staircase().records().empty());
  for (const auto& record : solver.staircase().records()) {
    const Mapping mapping = solver.mapping(record);
    const MappingMetrics metrics = evaluate(chain, platform, mapping);
    ASSERT_NEAR(metrics.worst_period, record.period, 1e-9);
    ASSERT_NEAR(metrics.worst_latency, record.latency, 1e-9);
    ASSERT_NEAR(metrics.reliability.log(), record.log_reliability, 1e-9);
  }
}

TEST(EdgeCases, ExpectedTimeWithSpeedTiesIsStable) {
  // Two processors of equal speed: order must not matter (and the value
  // equals the common duration regardless of failure rates).
  const Platform platform({{2.0, 0.1}, {2.0, 0.3}}, 1.0, 0.0, 2);
  const std::array<std::size_t, 2> forward{0, 1};
  const std::array<std::size_t, 2> backward{1, 0};
  EXPECT_NEAR(expected_computation_time(platform, 10.0, forward),
              expected_computation_time(platform, 10.0, backward), 1e-12);
  EXPECT_NEAR(expected_computation_time(platform, 10.0, forward), 5.0,
              1e-12);
}

TEST(EdgeCases, Algorithm1ScalesToLongChains) {
  // n = 60, p = 20: well beyond the paper's 15x10; self-consistency only
  // (exhaustive oracles are unreachable at this size).
  Rng rng(6);
  ChainConfig config;
  config.task_count = 60;
  const TaskChain chain = random_chain(rng, config);
  const Platform platform = Platform::homogeneous(20, 1.0, 1e-8, 1.0,
                                                  1e-5, 3);
  const auto dp = optimize_reliability(chain, platform);
  ASSERT_FALSE(dp.mapping.validate(platform).has_value());
  EXPECT_NEAR(dp.reliability.log(),
              mapping_reliability(chain, platform, dp.mapping).log(),
              1e-10);
  // And Algorithm 2 tightens monotonically at this scale too.
  const auto loose = optimize_reliability_period(chain, platform, 400.0);
  const auto tight = optimize_reliability_period(chain, platform, 200.0);
  if (loose && tight) {
    EXPECT_GE(loose->reliability.log(), tight->reliability.log() - 1e-12);
  }
}

TEST(EdgeCases, HeurPartitionsAtMaximumIntervalCount) {
  Rng rng(7);
  const TaskChain chain = testutil::small_chain(rng, 6);
  EXPECT_EQ(heur_l_partition(chain, 6).interval_count(), 6u);
  EXPECT_EQ(heur_p_partition(chain, 6).interval_count(), 6u);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(heur_p_partition(chain, 6).interval(j).size(), 1u);
  }
}

TEST(EdgeCases, SimulatorSerializesPortContentionAcrossDatasets) {
  // One stage pair with a big transfer and K = 1: the single channel
  // serializes consecutive data sets' transfers, so completions space at
  // the communication time even though computation is fast.
  const TaskChain chain({{1.0, 10.0}, {1.0, 0.0}});
  const Platform platform = Platform::homogeneous(2, 1.0, 0.0, 1.0, 0.0, 1);
  const Mapping mapping(IntervalPartition::singletons(2), {{0}, {1}});
  sim::SimulationConfig config;
  config.dataset_count = 20;
  config.input_period = 1.0;  // released far faster than the link drains
  config.inject_failures = false;
  config.use_routing = false;
  const auto result =
      sim::simulate_pipeline(chain, platform, mapping, config);
  EXPECT_EQ(result.successes, 20u);
  // Steady-state spacing = transfer time (10), not the input period (1).
  EXPECT_NEAR(result.inter_completion.max(), 10.0, 1e-9);
}

TEST(EdgeCases, ZeroLinkFailureMakesCommReliabilityFree) {
  Rng rng(8);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = Platform::homogeneous(5, 1.0, 1e-3, 1.0, 0.0, 2);
  const Mapping mapping = testutil::random_mapping(rng, chain, platform);
  // Reliability must equal the product over stages of compute-only
  // parallel groups.
  double expected_log = 0.0;
  const auto& part = mapping.partition();
  for (std::size_t j = 0; j < part.interval_count(); ++j) {
    double group_failure = 1.0;
    for (std::size_t u : mapping.processors(j)) {
      group_failure *=
          failure_from_rate(1e-3, part.work(chain, j) / platform.speed(u));
    }
    expected_log += std::log1p(-group_failure);
  }
  EXPECT_NEAR(mapping_reliability(chain, platform, mapping).log(),
              expected_log, 1e-12);
}

TEST(EdgeCases, RunHeuristicInfeasibleBoundsReturnNullopt) {
  Rng rng(9);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(5, 2);
  HeuristicOptions options;
  options.latency_bound = 0.5;  // below any computation time
  for (HeuristicKind kind : {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
    EXPECT_FALSE(run_heuristic(chain, platform, kind, options).has_value());
  }
}

}  // namespace
}  // namespace prts
