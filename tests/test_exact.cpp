#include "core/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/alloc.hpp"
#include "core/dp_detail.hpp"
#include "core/heuristics.hpp"
#include "core/reliability_dp.hpp"
#include "exact_oracle.hpp"
#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "test_oracle.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The solver against the direct enumeration (exact_oracle.hpp): it
/// visits every partition, its staircase is the oracle's list of
/// winners record for record (bits, mask, replicas and mapping), and its
/// answer is the oracle's for every (period, latency) pair drawn from
/// the records' own values, each with infinity, and a ladder of full
/// solves. Returns the number of partitions compared.
std::size_t expect_identical_to_oracle(const TaskChain& chain,
                                       const Platform& platform) {
  const std::vector<oracle::Record> expected =
      oracle::enumerate(chain, platform);
  const HomogeneousExactSolver solver(chain, platform);
  const ExactStaircase& staircase = solver.staircase();
  EXPECT_EQ(staircase.partitions(), expected.size());
  EXPECT_EQ(expected.size(), HomogeneousExactSolver::record_count(
                                 chain.size(), platform.processor_count()));
  for (const oracle::Record& record : expected) {
    EXPECT_EQ(algo_alloc_counts(record.failures, platform.processor_count(),
                                platform.max_replication()),
              record.replicas);
    if (::testing::Test::HasFailure()) return 0;
  }

  const std::vector<std::size_t> winners = oracle::staircase(expected);
  const auto records = staircase.records();
  EXPECT_EQ(records.size(), winners.size());
  if (records.size() != winners.size()) return 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const oracle::Record& want = expected[winners[i]];
    EXPECT_EQ(record.interval_ends, want.interval_ends()) << "record " << i;
    EXPECT_EQ(bits(record.period), bits(want.period)) << "record " << i;
    EXPECT_EQ(bits(record.latency), bits(want.latency)) << "record " << i;
    EXPECT_EQ(bits(record.log_reliability), bits(want.log_reliability))
        << "record " << i;
    const auto replicas = staircase.replicas(record);
    EXPECT_EQ(std::vector<unsigned>(replicas.begin(), replicas.end()),
              want.replicas)
        << "record " << i;
    EXPECT_EQ(solver.mapping(record), oracle::mapping(want, chain.size()))
        << "record " << i;
    if (::testing::Test::HasFailure()) return 0;
  }

  std::vector<std::pair<double, double>> probes{{kInf, kInf}, {0.0, 0.0}};
  for (const oracle::Record& record : expected) {
    probes.emplace_back(record.period, record.latency);
    probes.emplace_back(record.period, kInf);
    probes.emplace_back(kInf, record.latency);
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  const std::vector<std::ptrdiff_t> answers =
      oracle::best_indices(expected, probes);
  for (std::size_t q = 0; q < probes.size(); ++q) {
    const auto [period_bound, latency_bound] = probes[q];
    // The sweep is checked against the linear scan on a sample.
    if (q % 97 == 0) {
      const auto scanned =
          oracle::best_index(expected, period_bound, latency_bound);
      EXPECT_EQ(answers[q], scanned ? static_cast<std::ptrdiff_t>(*scanned)
                                    : std::ptrdiff_t{-1})
          << "P=" << period_bound << " L=" << latency_bound;
    }
    const auto* got = staircase.best_record(period_bound, latency_bound);
    EXPECT_EQ(got != nullptr, answers[q] >= 0)
        << "P=" << period_bound << " L=" << latency_bound;
    if (got != nullptr && answers[q] >= 0) {
      const oracle::Record& want =
          expected[static_cast<std::size_t>(answers[q])];
      EXPECT_EQ(got->interval_ends, want.interval_ends())
          << "P=" << period_bound << " L=" << latency_bound;
      EXPECT_EQ(bits(got->log_reliability), bits(want.log_reliability))
          << "P=" << period_bound << " L=" << latency_bound;
    }
    if (::testing::Test::HasFailure()) return 0;
  }

  std::vector<std::pair<double, double>> ladder;
  for (int period = 50; period <= 500; period += 50) {
    ladder.emplace_back(period, 750.0);
  }
  ladder.emplace_back(kInf, kInf);
  for (std::size_t i = 0; i < expected.size(); i += expected.size() / 7 + 1) {
    ladder.emplace_back(expected[i].period, expected[i].latency);
  }
  for (const auto& [period_bound, latency_bound] : ladder) {
    const auto got = solver.solve(period_bound, latency_bound);
    const auto want = oracle::best_index(expected, period_bound, latency_bound);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "P=" << period_bound << " L=" << latency_bound;
    if (got && want) {
      const Mapping mapping = oracle::mapping(expected[*want], chain.size());
      EXPECT_EQ(got->mapping, mapping);
      EXPECT_EQ(got->metrics, evaluate(chain, platform, mapping));
    }
  }
  return staircase.partitions();
}

TEST(ExactSolver, RejectsHeterogeneous) {
  Rng rng(1);
  const TaskChain chain = testutil::small_chain(rng, 4);
  const Platform platform = testutil::small_het_platform(rng, 4, 2);
  EXPECT_THROW(HomogeneousExactSolver(chain, platform),
               std::invalid_argument);
}

TEST(ExactSolver, EnumeratesAllPartitions) {
  Rng rng(2);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(6, 2);
  // All 2^(n-1) = 16 partitions fit within min(n,p) = 5 intervals... the
  // 1 partition with 5 intervals included.
  ASSERT_EQ(oracle::enumerate(chain, platform).size(), 16u);
  EXPECT_EQ(expect_identical_to_oracle(chain, platform), 16u);
}

TEST(ExactSolver, LimitsIntervalCountToProcessors) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(2, 2);
  // C(4, 0) + C(4, 1): the partitions into one or two intervals.
  const auto expected = oracle::enumerate(chain, platform);
  ASSERT_EQ(expected.size(), 5u);
  for (const auto& record : expected) EXPECT_LE(record.lasts.size(), 2u);
  EXPECT_EQ(expect_identical_to_oracle(chain, platform), 5u);
  const HomogeneousExactSolver solver(chain, platform);
  for (const auto& record : solver.staircase().records()) {
    EXPECT_LE(std::popcount(record.interval_ends), 2);
  }
}

TEST(ExactSolver, UnboundedMatchesAlgorithm1) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(5, 2);
    const HomogeneousExactSolver solver(chain, platform);
    const auto best = solver.best_log_reliability(kInf, kInf);
    const auto dp = optimize_reliability(chain, platform);
    ASSERT_TRUE(best.has_value());
    EXPECT_NEAR(*best, dp.reliability.log(), 1e-10);
  }
}

class ExactSolverOptimality : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverOptimality, MatchesBruteForceUnderBothBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 600);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const TaskChain chain = testutil::small_chain(rng, n);
  const Platform platform = testutil::small_hom_platform(p, 2);
  const double period_bound = rng.uniform_real(5.0, 40.0);
  const double latency_bound = rng.uniform_real(15.0, 90.0);
  const HomogeneousExactSolver solver(chain, platform);
  const auto fast =
      solver.best_log_reliability(period_bound, latency_bound);
  const auto oracle = testutil::brute_force_best_log_reliability(
      chain, platform, period_bound, latency_bound);
  ASSERT_EQ(fast.has_value(), oracle.has_value())
      << "P=" << period_bound << " L=" << latency_bound;
  if (fast) {
    EXPECT_NEAR(*fast, *oracle, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactSolverOptimality,
                         ::testing::Range(0, 40));

TEST(ExactSolver, SolveReturnsConsistentMapping) {
  Rng rng(5);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const HomogeneousExactSolver solver(chain, platform);
  const auto solution = solver.solve(30.0, 80.0);
  if (!solution) GTEST_SKIP() << "bounds infeasible for this seed";
  ASSERT_FALSE(solution->mapping.validate(platform).has_value());
  EXPECT_LE(solution->metrics.worst_period, 30.0 + 1e-9);
  EXPECT_LE(solution->metrics.worst_latency, 80.0 + 1e-9);
  const auto best = solver.best_log_reliability(30.0, 80.0);
  EXPECT_NEAR(solution->metrics.reliability.log(), *best, 1e-10);
}

TEST(ExactSolver, NeverWorseThanHeuristics) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(6, 3);
    const double period_bound = rng.uniform_real(10.0, 50.0);
    const double latency_bound = rng.uniform_real(30.0, 100.0);
    const HomogeneousExactSolver solver(chain, platform);
    const auto exact =
        solver.best_log_reliability(period_bound, latency_bound);
    HeuristicOptions options;
    options.period_bound = period_bound;
    options.latency_bound = latency_bound;
    for (HeuristicKind kind :
         {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
      const auto heuristic = run_heuristic(chain, platform, kind, options);
      if (heuristic) {
        ASSERT_TRUE(exact.has_value());
        EXPECT_GE(*exact, heuristic->metrics.reliability.log() - 1e-9);
      }
    }
  }
}

TEST(ExactDp, AgreesWithEnumerationOnIntegerInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(5, 2);
    const double period_bound = std::floor(rng.uniform_real(5.0, 40.0));
    const double latency_bound = std::floor(rng.uniform_real(15.0, 90.0));
    const HomogeneousExactSolver solver(chain, platform);
    const auto via_enum =
        solver.best_log_reliability(period_bound, latency_bound);
    const auto via_dp = exact_dp_log_reliability(chain, platform,
                                                 period_bound,
                                                 latency_bound);
    ASSERT_EQ(via_enum.has_value(), via_dp.has_value());
    if (via_enum) {
      EXPECT_NEAR(*via_enum, *via_dp, 1e-9);
    }
  }
}

TEST(ExactDp, RejectsNonIntegralDurations) {
  const TaskChain chain({{1.5, 0.0}});
  const Platform platform = Platform::homogeneous(1, 1.0, 0.01, 1.0, 0.0, 1);
  EXPECT_THROW(exact_dp_log_reliability(chain, platform, kInf, kInf),
               std::invalid_argument);
}

TEST(ExactSolver, PaperScaleCompletesQuickly) {
  Rng rng(8);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  // The build allocates a fixed set of buffers (the branch-failure rows,
  // the stage table, the frontier and the staircase), nothing per
  // partition.
  const obs::AllocScope scope;
  const HomogeneousExactSolver solver(chain, platform);
  EXPECT_LE(scope.delta().count, 64u);
  // All partitions with <= 10 intervals out of 2^14, of which a few
  // dozen win some bounds pair.
  EXPECT_GT(solver.staircase().partitions(), 14000u);
  EXPECT_LE(solver.staircase().partitions(), 16384u);
  EXPECT_LE(solver.staircase().records().size(), 64u);
  const auto best = solver.best_log_reliability(250.0, 750.0);
  // A mid-range bound pair from the paper's sweeps is usually feasible.
  if (best) {
    EXPECT_LT(*best, 0.0);
  }
}

TEST(ExactSolver, RecordCountIsTheSumOfBinomials) {
  // sum_{k < min(n, p)} C(n-1, k).
  EXPECT_EQ(HomogeneousExactSolver::record_count(1, 1), 1u);
  EXPECT_EQ(HomogeneousExactSolver::record_count(5, 6), 16u);
  EXPECT_EQ(HomogeneousExactSolver::record_count(5, 2), 1u + 4u);
  EXPECT_EQ(HomogeneousExactSolver::record_count(15, 10), 14913u);
  EXPECT_EQ(HomogeneousExactSolver::record_count(23, 64), 1u << 22);
  EXPECT_EQ(HomogeneousExactSolver::record_count(24, 64),
            HomogeneousExactSolver::kMaxRecords + 1);
  EXPECT_EQ(HomogeneousExactSolver::record_count(40, 10),
            HomogeneousExactSolver::kMaxRecords + 1);
  EXPECT_EQ(HomogeneousExactSolver::record_count(
                std::numeric_limits<std::size_t>::max(), 3),
            HomogeneousExactSolver::kMaxRecords + 1);
  // And the count is what both enumerations visit.
  Rng rng(10);
  for (std::size_t n : {1u, 2u, 5u, 9u}) {
    const TaskChain chain = testutil::small_chain(rng, n);
    for (std::size_t p : {1u, 2u, 4u, 9u}) {
      const Platform platform = testutil::small_hom_platform(p, 2);
      const std::size_t count = HomogeneousExactSolver::record_count(n, p);
      EXPECT_EQ(oracle::enumerate(chain, platform).size(), count)
          << "n " << n << " p " << p;
      const HomogeneousExactSolver solver(chain, platform);
      EXPECT_EQ(solver.staircase().partitions(), count)
          << "n " << n << " p " << p;
    }
  }
}

TEST(ExactSolver, RefusesEnumerationsBeyondItsBounds) {
  Rng rng(9);
  ChainConfig config;
  config.task_count = 40;
  const TaskChain long_chain = random_chain(rng, config);
  const Platform platform = paper::hom_platform();
  EXPECT_FALSE(HomogeneousExactSolver::accepts(long_chain, platform));
  EXPECT_THROW(HomogeneousExactSolver(long_chain, platform),
               std::invalid_argument);

  // 65 tasks on one processor is a single partition, but the mask
  // cannot describe it.
  config.task_count = 65;
  const TaskChain too_many = random_chain(rng, config);
  const Platform one = Platform::homogeneous(1, 1.0, 1e-8, 1.0, 1e-5, 3);
  EXPECT_FALSE(HomogeneousExactSolver::accepts(too_many, one));
  config.task_count = 64;
  const TaskChain widest = random_chain(rng, config);
  ASSERT_TRUE(HomogeneousExactSolver::accepts(widest, one));
  const auto expected = oracle::enumerate(widest, one);
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].interval_ends(), std::uint64_t{1} << 63);
  const HomogeneousExactSolver solver(widest, one);
  const auto records = solver.staircase().records();
  EXPECT_EQ(solver.staircase().partitions(), 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].interval_ends, std::uint64_t{1} << 63);
  EXPECT_EQ(bits(records[0].log_reliability),
            bits(expected[0].log_reliability));
  EXPECT_EQ(solver.mapping(records[0]), oracle::mapping(expected[0], 64));
  EXPECT_EQ(solver.mapping(records[0]).interval_count(), 1u);
}

TEST(ExactSolverDifferential, PaperInstancesAreBitIdentical) {
  Rng rng(20100913);
  std::size_t compared = 0;
  for (int instance = 0; instance < 30; ++instance) {
    const TaskChain chain = paper::chain(rng);
    compared += expect_identical_to_oracle(chain, paper::hom_platform());
    ASSERT_FALSE(HasFailure()) << "paper instance " << instance;
  }
  EXPECT_EQ(compared, 30u * 14913u);
}

TEST(ExactSolverDifferential, ShapeGridIsBitIdentical) {
  // Two failure regimes: the paper's (every gain tiny) and a lossy one
  // where replicas trade off in earnest.
  const std::pair<double, double> regimes[] = {
      {paper::kProcessorFailureRate, paper::kLinkFailureRate}, {1e-3, 2e-3}};
  Rng rng(1615);
  for (const auto& [lambda, link_lambda] : regimes) {
    for (std::size_t n : {1u, 3u, 8u, 12u, 15u}) {
      ChainConfig config;
      config.task_count = n;
      const TaskChain chain = random_chain(rng, config);
      for (std::size_t p : {1u, 2u, 4u, 7u, 10u, 12u}) {
        for (unsigned k : {1u, 2u, 3u, 5u, 20u}) {
          const Platform platform = Platform::homogeneous(
              p, paper::kHomSpeed, lambda, paper::kBandwidth, link_lambda, k);
          expect_identical_to_oracle(chain, platform);
          ASSERT_FALSE(HasFailure()) << "lambda " << lambda << " n " << n
                                     << " p " << p << " K " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prts
