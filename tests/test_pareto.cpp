#include "core/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/exact.hpp"
#include "exact_oracle.hpp"
#include "model/generator.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

ParetoPoint make_point(Rng& rng, const TaskChain& chain,
                       const Platform& platform) {
  Mapping mapping = testutil::random_mapping(rng, chain, platform);
  MappingMetrics metrics = evaluate(chain, platform, mapping);
  return ParetoPoint{std::move(mapping), metrics};
}

TEST(ParetoFilter, RemovesDominatedPoints) {
  Rng rng(1);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(5, 2);
  std::vector<ParetoPoint> candidates;
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(make_point(rng, chain, platform));
  }
  const auto front = pareto_filter(candidates);
  ASSERT_FALSE(front.empty());
  // No front point dominates another front point.
  for (const auto& a : front) {
    for (const auto& b : front) {
      if (&a == &b) continue;
      const bool dominates = a.metrics.worst_period <= b.metrics.worst_period &&
                             a.metrics.worst_latency <= b.metrics.worst_latency &&
                             a.metrics.failure <= b.metrics.failure &&
                             (a.metrics.worst_period < b.metrics.worst_period ||
                              a.metrics.worst_latency < b.metrics.worst_latency ||
                              a.metrics.failure < b.metrics.failure);
      EXPECT_FALSE(dominates);
    }
  }
  // Every dropped candidate is dominated by (or equal to) a front point.
  for (const auto& candidate : candidates) {
    bool covered = false;
    for (const auto& keeper : front) {
      if (keeper.metrics.worst_period <= candidate.metrics.worst_period &&
          keeper.metrics.worst_latency <= candidate.metrics.worst_latency &&
          keeper.metrics.failure <= candidate.metrics.failure) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
}

TEST(ParetoFilter, SortedByPeriodThenLatency) {
  Rng rng(2);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(6, 3);
  std::vector<ParetoPoint> candidates;
  for (int i = 0; i < 40; ++i) {
    candidates.push_back(make_point(rng, chain, platform));
  }
  const auto front = pareto_filter(candidates);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LE(front[i - 1].metrics.worst_period,
              front[i].metrics.worst_period + 1e-12);
  }
}

TEST(ExactParetoFront, CoversEveryBoundCombination) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const auto front = exact_pareto_front(chain, platform);
  ASSERT_FALSE(front.empty());
  // For any (P, L) the exact optimum reliability equals the best front
  // point within the bounds: fronts are lossless summaries.
  const HomogeneousExactSolver solver(chain, platform);
  Rng bound_rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const double period_bound = bound_rng.uniform_real(5.0, 60.0);
    const double latency_bound = bound_rng.uniform_real(15.0, 120.0);
    const auto exact =
        solver.best_log_reliability(period_bound, latency_bound);
    double best_front = -1e300;
    for (const auto& point : front) {
      if (point.metrics.worst_period <= period_bound &&
          point.metrics.worst_latency <= latency_bound) {
        best_front =
            std::max(best_front, point.metrics.reliability.log());
      }
    }
    if (exact) {
      EXPECT_NEAR(*exact, best_front, 1e-9);
    } else {
      EXPECT_EQ(best_front, -1e300);
    }
  }
}

TEST(HeuristicParetoFront, ProducesValidNonDominatedPoints) {
  Rng rng(5);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_het_platform(rng, 6, 2);
  const auto front = heuristic_pareto_front(chain, platform);
  ASSERT_FALSE(front.empty());
  for (const auto& point : front) {
    EXPECT_FALSE(point.mapping.validate(platform).has_value());
  }
}

/// The points of every enumerated partition (the oracle's full record
/// list), in enumeration order.
std::vector<ParetoPoint> full_list(const TaskChain& chain,
                                   const Platform& platform) {
  std::vector<ParetoPoint> candidates;
  for (const auto& record : oracle::enumerate(chain, platform)) {
    Mapping mapping = oracle::mapping(record, chain.size());
    const MappingMetrics metrics = evaluate(chain, platform, mapping);
    candidates.push_back(ParetoPoint{std::move(mapping), metrics});
  }
  return candidates;
}

/// pareto_filter's front in O(N x front) rather than O(N^2): a point
/// joins unless a kept point dominates or equals it, and evicts the kept
/// points it dominates. A point dominated by a dropped one is dominated
/// by whatever dropped that one, so the kept set is the front, first of
/// equal points included.
std::vector<ParetoPoint> streamed_front(std::vector<ParetoPoint> candidates) {
  const auto no_worse = [](const MappingMetrics& a, const MappingMetrics& b) {
    return a.worst_period <= b.worst_period &&
           a.worst_latency <= b.worst_latency && a.failure <= b.failure;
  };
  std::vector<ParetoPoint> front;
  for (ParetoPoint& point : candidates) {
    if (std::any_of(front.begin(), front.end(), [&](const ParetoPoint& kept) {
          return no_worse(kept.metrics, point.metrics);
        })) {
      continue;
    }
    std::erase_if(front, [&](const ParetoPoint& kept) {
      return no_worse(point.metrics, kept.metrics);
    });
    front.push_back(std::move(point));
  }
  std::sort(front.begin(), front.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.metrics.worst_period != b.metrics.worst_period) {
                return a.metrics.worst_period < b.metrics.worst_period;
              }
              return a.metrics.worst_latency < b.metrics.worst_latency;
            });
  return front;
}

void expect_same_front(const std::vector<ParetoPoint>& got,
                       const std::vector<ParetoPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].mapping, want[i].mapping) << "point " << i;
    EXPECT_EQ(got[i].metrics, want[i].metrics) << "point " << i;
  }
}

TEST(ExactParetoFront, StaircaseFrontIsTheFullListFront) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const auto small_front = pareto_filter(full_list(chain, platform));
  expect_same_front(streamed_front(full_list(chain, platform)), small_front);
  expect_same_front(exact_pareto_front(chain, platform), small_front);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng paper_rng(seed);
    const TaskChain paper_chain = paper::chain(paper_rng);
    const Platform paper_platform = paper::hom_platform();
    const auto front = exact_pareto_front(paper_chain, paper_platform);
    EXPECT_GE(front.size(), 2u) << "seed " << seed;
    expect_same_front(front,
                      streamed_front(full_list(paper_chain, paper_platform)));
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prts
