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
#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "test_oracle.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  const HomogeneousExactSolver solver(chain, platform);
  // All 2^(n-1) = 16 partitions fit within min(n,p) = 5 intervals... the
  // 1 partition with 5 intervals included.
  EXPECT_EQ(solver.records().size(), 16u);
}

TEST(ExactSolver, LimitsIntervalCountToProcessors) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(2, 2);
  const HomogeneousExactSolver solver(chain, platform);
  for (const auto& record : solver.records()) {
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
  // the stage table and the records), nothing per partition.
  const obs::AllocScope scope;
  const HomogeneousExactSolver solver(chain, platform);
  EXPECT_LE(scope.delta().count, 64u);
  // All partitions with <= 10 intervals out of 2^14.
  EXPECT_GT(solver.records().size(), 14000u);
  EXPECT_LE(solver.records().size(), 16384u);
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
  const HomogeneousExactSolver solver(widest, one);
  ASSERT_EQ(solver.records().size(), 1u);
  EXPECT_EQ(solver.records()[0].interval_ends, std::uint64_t{1} << 63);
  EXPECT_EQ(solver.mapping(solver.records()[0]).interval_count(), 1u);
}

// ------------------------------------------------- differential oracle
//
// A direct enumeration: every partition carries its interval ends and
// replica vectors, Algo-Alloc takes pow/log1p per candidate gain, and
// the log-reliability sums detail::stage_log_reliability. The
// table-driven kernel must reproduce its every record, mapping and
// answer bit for bit.

std::vector<unsigned> reference_algo_alloc(
    const std::vector<double>& branch_failure, std::size_t processor_count,
    unsigned max_replication) {
  const std::size_t m = branch_failure.size();
  if (m > processor_count) return {};
  std::vector<unsigned> counts(m, 1);
  std::size_t used = m;
  auto gain = [&](std::size_t j) {
    const double f = branch_failure[j];
    const double q = static_cast<double>(counts[j]);
    return std::log1p(-std::pow(f, q + 1.0)) - std::log1p(-std::pow(f, q));
  };
  while (used < processor_count) {
    double best_gain = -1.0;
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (counts[j] >= max_replication) continue;
      const double g = gain(j);
      if (g > best_gain) {
        best_gain = g;
        best_j = j;
      }
    }
    if (best_j == m) break;
    ++counts[best_j];
    ++used;
  }
  return counts;
}

struct ReferenceRecord {
  std::vector<std::size_t> lasts;
  std::vector<double> failures;
  std::vector<unsigned> replicas;
  double period = 0.0;
  double latency = 0.0;
  double log_reliability = 0.0;
};

std::vector<ReferenceRecord> reference_enumeration(const TaskChain& chain,
                                                   const Platform& platform) {
  const std::size_t n = chain.size();
  const std::size_t max_intervals =
      std::min(n, platform.processor_count());
  const double speed = platform.speed(0);
  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);
  std::vector<ReferenceRecord> records;
  std::vector<std::size_t> lasts;
  std::vector<double> failures;
  double latency = 0.0;
  double period = 0.0;
  auto recurse = [&](auto&& self, std::size_t first) -> void {
    if (lasts.size() == max_intervals && first < n) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform.comm_time(chain.out_size(last));
      const double saved_latency = latency;
      const double saved_period = period;
      lasts.push_back(last);
      failures.push_back(branch_failure[first][last + 1]);
      latency += work + comm;
      period = std::max({period, work, comm});
      if (last + 1 == n) {
        ReferenceRecord record;
        record.lasts = lasts;
        record.failures = failures;
        record.replicas = reference_algo_alloc(
            failures, platform.processor_count(), platform.max_replication());
        record.period = period;
        record.latency = latency;
        double log_rel = 0.0;
        for (std::size_t j = 0; j < failures.size(); ++j) {
          log_rel +=
              detail::stage_log_reliability(failures[j], record.replicas[j]);
        }
        record.log_reliability = log_rel;
        records.push_back(std::move(record));
      } else {
        self(self, last + 1);
      }
      lasts.pop_back();
      failures.pop_back();
      latency = saved_latency;
      period = saved_period;
    }
  };
  recurse(recurse, 0);
  return records;
}

Mapping reference_mapping(const ReferenceRecord& record, std::size_t n) {
  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  for (unsigned q : record.replicas) {
    std::vector<std::size_t> replica_set(q);
    for (unsigned r = 0; r < q; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  return Mapping(IntervalPartition::from_boundaries(record.lasts, n),
                 std::move(procs));
}

std::optional<ExactSolution> reference_solve(
    const std::vector<ReferenceRecord>& records, const TaskChain& chain,
    const Platform& platform, double period_bound, double latency_bound) {
  const ReferenceRecord* best = nullptr;
  for (const ReferenceRecord& record : records) {
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (best == nullptr || record.log_reliability > best->log_reliability) {
      best = &record;
    }
  }
  if (best == nullptr) return std::nullopt;
  Mapping mapping = reference_mapping(*best, chain.size());
  const MappingMetrics metrics = evaluate(chain, platform, mapping);
  return ExactSolution{std::move(mapping), metrics};
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every record, mapping and ladder answer of the kernel against the
/// reference enumeration; returns the number of records compared.
std::size_t expect_identical_to_reference(const TaskChain& chain,
                                          const Platform& platform) {
  const std::vector<ReferenceRecord> expected =
      reference_enumeration(chain, platform);
  const HomogeneousExactSolver solver(chain, platform);
  const auto records = solver.records();
  EXPECT_EQ(records.size(), expected.size());
  EXPECT_EQ(records.size(), HomogeneousExactSolver::record_count(
                                chain.size(), platform.processor_count()));
  if (records.size() != expected.size()) return 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const ReferenceRecord& want = expected[i];
    std::uint64_t ends = 0;
    for (std::size_t last : want.lasts) ends |= std::uint64_t{1} << last;
    EXPECT_EQ(record.interval_ends, ends) << "record " << i;
    EXPECT_EQ(bits(record.period), bits(want.period)) << "record " << i;
    EXPECT_EQ(bits(record.latency), bits(want.latency)) << "record " << i;
    EXPECT_EQ(bits(record.log_reliability), bits(want.log_reliability))
        << "record " << i;
    EXPECT_EQ(solver.mapping(record), reference_mapping(want, chain.size()))
        << "record " << i;
    EXPECT_EQ(algo_alloc_counts(want.failures, platform.processor_count(),
                                platform.max_replication()),
              want.replicas)
        << "record " << i;
    if (::testing::Test::HasFailure()) return i;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> bounds;
  for (int period = 50; period <= 500; period += 50) {
    bounds.emplace_back(period, 750.0);
  }
  bounds.emplace_back(kInf, kInf);
  // Bounds that sit exactly on some records' period and latency.
  for (std::size_t i = 0; i < expected.size(); i += expected.size() / 7 + 1) {
    bounds.emplace_back(expected[i].period, expected[i].latency);
  }
  for (const auto& [period_bound, latency_bound] : bounds) {
    const auto got = solver.solve(period_bound, latency_bound);
    const auto want = reference_solve(expected, chain, platform,
                                      period_bound, latency_bound);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "P=" << period_bound << " L=" << latency_bound;
    if (got && want) {
      EXPECT_EQ(got->mapping, want->mapping);
      EXPECT_EQ(got->metrics, want->metrics);
    }
  }
  return records.size();
}

TEST(ExactSolverDifferential, PaperInstancesAreBitIdentical) {
  Rng rng(20100913);
  std::size_t compared = 0;
  for (int instance = 0; instance < 30; ++instance) {
    const TaskChain chain = paper::chain(rng);
    compared += expect_identical_to_reference(chain, paper::hom_platform());
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
          expect_identical_to_reference(chain, platform);
          ASSERT_FALSE(HasFailure()) << "lambda " << lambda << " n " << n
                                     << " p " << p << " K " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prts
