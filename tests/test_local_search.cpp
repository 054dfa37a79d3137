#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/reliability_dp.hpp"
#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "test_util.hpp"

namespace prts {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------ oracle
//
// The full-evaluation search, kept as a differential oracle (its split
// move bounded like the search's): every candidate copies the state,
// builds a Mapping and runs `evaluate`. The incremental search must
// make the same decisions and return bit-identical results.
namespace oracle {
namespace {

/// Mutable mapping state during the search.
struct State {
  std::vector<std::size_t> lasts;
  std::vector<std::vector<std::size_t>> procs;
};

State to_state(const Mapping& mapping) {
  State state;
  state.lasts = mapping.partition().boundaries();
  for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
    state.procs.emplace_back(mapping.processors(j).begin(),
                             mapping.processors(j).end());
  }
  return state;
}

Mapping to_mapping(const State& state, std::size_t task_count) {
  return Mapping(IntervalPartition::from_boundaries(state.lasts, task_count),
                 state.procs);
}

/// Evaluates a state; returns nullopt when it violates the bounds or the
/// allocation constraints.
std::optional<MappingMetrics> check(const TaskChain& chain,
                                    const Platform& platform,
                                    const State& state,
                                    const LocalSearchOptions& options) {
  const Mapping mapping = to_mapping(state, chain.size());
  if (options.constraints != nullptr) {
    for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
      for (std::size_t u : mapping.processors(j)) {
        if (!options.constraints->interval_allowed(
                mapping.partition().interval(j), u)) {
          return std::nullopt;
        }
      }
    }
  }
  const MappingMetrics metrics = evaluate(chain, platform, mapping);
  const double period = options.use_expected_metrics
                            ? metrics.expected_period
                            : metrics.worst_period;
  const double latency = options.use_expected_metrics
                             ? metrics.expected_latency
                             : metrics.worst_latency;
  if (period > options.period_bound || latency > options.latency_bound) {
    return std::nullopt;
  }
  return metrics;
}

/// All ways to split a replica set into two non-empty halves (by bitmask;
/// set sizes are <= K, typically <= 4, so this is at most 14 options).
/// Sets of more than 10 replicas split only in order: the first i
/// replicas go left.
std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
two_way_splits(const std::vector<std::size_t>& procs) {
  std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      splits;
  const std::size_t k = procs.size();
  if (k < 2) return splits;
  if (k > 10) {
    for (std::size_t i = 1; i < k; ++i) {
      splits.emplace_back(
          std::vector<std::size_t>(procs.begin(), procs.begin() + i),
          std::vector<std::size_t>(procs.begin() + i, procs.end()));
    }
    return splits;
  }
  for (std::size_t mask = 1; mask + 1 < (std::size_t{1} << k); ++mask) {
    std::vector<std::size_t> left;
    std::vector<std::size_t> right;
    for (std::size_t bit = 0; bit < k; ++bit) {
      ((mask >> bit) & 1u ? left : right).push_back(procs[bit]);
    }
    splits.emplace_back(std::move(left), std::move(right));
  }
  return splits;
}

}  // namespace

std::optional<LocalSearchResult> improve_mapping(
    const TaskChain& chain, const Platform& platform, const Mapping& start,
    const LocalSearchOptions& options) {
  if (start.validate(platform).has_value()) return std::nullopt;
  State state = to_state(start);
  auto current = check(chain, platform, state, options);
  if (!current) return std::nullopt;

  LocalSearchResult result{to_mapping(state, chain.size()), *current, 0, 0};
  const unsigned max_k = platform.max_replication();

  // Tries a candidate state; commits it when strictly more reliable.
  auto try_improve = [&](const State& candidate) -> bool {
    const auto metrics = check(chain, platform, candidate, options);
    if (!metrics) return false;
    if (metrics->reliability.log() <=
        current->reliability.log() + 1e-15) {
      return false;
    }
    state = candidate;
    current = metrics;
    ++result.moves_accepted;
    return true;
  };

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    bool improved = false;

    // Move 0: recruit an idle processor as an extra replica (always a
    // reliability gain; may be vetoed by the worst-case bounds).
    std::vector<bool> used(platform.processor_count(), false);
    for (const auto& replica_set : state.procs) {
      for (std::size_t u : replica_set) used[u] = true;
    }
    for (std::size_t u = 0; u < platform.processor_count() && !improved;
         ++u) {
      if (used[u]) continue;
      for (std::size_t j = 0; j < state.procs.size() && !improved; ++j) {
        if (state.procs[j].size() >= max_k) continue;
        State candidate = state;
        candidate.procs[j].push_back(u);
        if (try_improve(candidate)) improved = true;
      }
    }

    // Idle processors ordered most-reliable-per-work first, used by the
    // split move to refill both halves (a raw split loses redundancy and
    // almost never improves on its own — the refilled macro-move jumps
    // that valley).
    std::vector<std::size_t> idle;
    for (std::size_t u = 0; u < platform.processor_count(); ++u) {
      if (!used[u]) idle.push_back(u);
    }
    std::sort(idle.begin(), idle.end(), [&](std::size_t a, std::size_t b) {
      const double ka = platform.failure_rate(a) / platform.speed(a);
      const double kb = platform.failure_rate(b) / platform.speed(b);
      if (ka != kb) return ka < kb;
      return a < b;
    });

    // Move 1: split interval j at an inner boundary, dividing its
    // replicas between the halves (all 2-way divisions), optionally
    // refilling both halves with idle processors up to K.
    const std::size_t m = state.lasts.size();
    for (std::size_t j = 0; j < m && !improved; ++j) {
      const std::size_t first = j == 0 ? 0 : state.lasts[j - 1] + 1;
      const std::size_t last = state.lasts[j];
      if (first == last || state.procs[j].size() < 2) continue;
      for (std::size_t cut = first; cut < last && !improved; ++cut) {
        for (auto& [left, right] : two_way_splits(state.procs[j])) {
          for (const bool refill : {true, false}) {
            State candidate = state;
            std::vector<std::size_t> left_set = left;
            std::vector<std::size_t> right_set = right;
            if (refill) {
              std::size_t next_idle = 0;
              while (next_idle < idle.size() &&
                     (left_set.size() < max_k ||
                      right_set.size() < max_k)) {
                // Top up the thinner half first.
                auto& target = left_set.size() <= right_set.size() &&
                                       left_set.size() < max_k
                                   ? left_set
                                   : right_set;
                if (target.size() >= max_k) break;
                target.push_back(idle[next_idle++]);
              }
            }
            candidate.lasts.insert(
                candidate.lasts.begin() + static_cast<std::ptrdiff_t>(j),
                cut);
            candidate.procs[j] = left_set;
            candidate.procs.insert(
                candidate.procs.begin() + static_cast<std::ptrdiff_t>(j) +
                    1,
                right_set);
            if (try_improve(candidate)) {
              improved = true;
              break;
            }
          }
          if (improved) break;
        }
      }
    }

    // Move 2: merge adjacent intervals, keeping the most reliable <= K
    // replicas of the union (the rest go idle).
    for (std::size_t j = 0; j + 1 < state.lasts.size() && !improved; ++j) {
      State candidate = state;
      std::vector<std::size_t> merged = candidate.procs[j];
      merged.insert(merged.end(), candidate.procs[j + 1].begin(),
                    candidate.procs[j + 1].end());
      const std::size_t first = j == 0 ? 0 : candidate.lasts[j - 1] + 1;
      const std::size_t last = candidate.lasts[j + 1];
      const double work = chain.work_sum(first, last);
      // Most reliable first: smallest branch failure on the merged work.
      std::sort(merged.begin(), merged.end(),
                [&](std::size_t a, std::size_t b) {
                  const double fa = platform.failure_rate(a) *
                                    (work / platform.speed(a));
                  const double fb = platform.failure_rate(b) *
                                    (work / platform.speed(b));
                  if (fa != fb) return fa < fb;
                  return a < b;
                });
      if (merged.size() > max_k) merged.resize(max_k);
      candidate.lasts.erase(candidate.lasts.begin() +
                            static_cast<std::ptrdiff_t>(j));
      candidate.procs.erase(candidate.procs.begin() +
                            static_cast<std::ptrdiff_t>(j) + 1);
      candidate.procs[j] = std::move(merged);
      if (try_improve(candidate)) improved = true;
    }

    // Move 3: move one replica from interval a to interval b.
    for (std::size_t a = 0; a < state.procs.size() && !improved; ++a) {
      if (state.procs[a].size() < 2) continue;
      for (std::size_t b = 0; b < state.procs.size() && !improved; ++b) {
        if (a == b || state.procs[b].size() >= max_k) continue;
        for (std::size_t idx = 0; idx < state.procs[a].size(); ++idx) {
          State candidate = state;
          const std::size_t u = candidate.procs[a][idx];
          candidate.procs[a].erase(candidate.procs[a].begin() +
                                   static_cast<std::ptrdiff_t>(idx));
          candidate.procs[b].push_back(u);
          if (try_improve(candidate)) {
            improved = true;
            break;
          }
        }
      }
    }

    // Move 4: swap the replica sets of two intervals.
    for (std::size_t a = 0; a < state.procs.size() && !improved; ++a) {
      for (std::size_t b = a + 1; b < state.procs.size() && !improved;
           ++b) {
        State candidate = state;
        std::swap(candidate.procs[a], candidate.procs[b]);
        if (try_improve(candidate)) improved = true;
      }
    }

    // Move 5: shift the boundary between adjacent intervals by one task
    // in either direction (classic partition refinement).
    for (std::size_t j = 0; j + 1 < state.lasts.size() && !improved; ++j) {
      const std::size_t first = j == 0 ? 0 : state.lasts[j - 1] + 1;
      if (state.lasts[j] > first) {  // left interval keeps >= 1 task
        State candidate = state;
        --candidate.lasts[j];
        if (try_improve(candidate)) improved = true;
      }
      if (!improved && state.lasts[j] + 1 < state.lasts[j + 1]) {
        State candidate = state;
        ++candidate.lasts[j];
        if (try_improve(candidate)) improved = true;
      }
    }

    if (!improved) break;  // local optimum
  }

  result.mapping = to_mapping(state, chain.size());
  result.metrics = *current;
  return result;
}

}  // namespace oracle

TEST(LocalSearch, NeverWorsensTheStart) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_het_platform(rng, 6, 3);
    const Mapping start = testutil::random_mapping(rng, chain, platform);
    const auto improved = improve_mapping(chain, platform, start);
    ASSERT_TRUE(improved.has_value());
    EXPECT_GE(improved->metrics.reliability.log(),
              mapping_reliability(chain, platform, start).log() - 1e-12);
    EXPECT_FALSE(improved->mapping.validate(platform).has_value());
  }
}

TEST(LocalSearch, RespectsBounds) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_het_platform(rng, 6, 2);
    HeuristicOptions heuristic_options;
    heuristic_options.period_bound = rng.uniform_real(8.0, 40.0);
    heuristic_options.latency_bound = rng.uniform_real(25.0, 120.0);
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurP,
                                     heuristic_options);
    if (!start) continue;
    LocalSearchOptions options;
    options.period_bound = heuristic_options.period_bound;
    options.latency_bound = heuristic_options.latency_bound;
    const auto improved =
        improve_mapping(chain, platform, start->mapping, options);
    ASSERT_TRUE(improved.has_value());
    EXPECT_LE(improved->metrics.worst_period,
              options.period_bound + 1e-9);
    EXPECT_LE(improved->metrics.worst_latency,
              options.latency_bound + 1e-9);
    EXPECT_GE(improved->metrics.reliability.log(),
              start->metrics.reliability.log() - 1e-12);
  }
}

TEST(LocalSearch, InfeasibleStartRejected) {
  Rng rng(3);
  const TaskChain chain = testutil::small_chain(rng, 5);
  const Platform platform = testutil::small_hom_platform(5, 2);
  const Mapping start = testutil::random_mapping(rng, chain, platform);
  LocalSearchOptions options;
  options.period_bound = 1e-9;  // nothing satisfies this
  EXPECT_FALSE(improve_mapping(chain, platform, start, options).has_value());
}

TEST(LocalSearch, ReachesOptimumFromPoorStartOnSmallInstances) {
  // Hill climbing will not always reach the global optimum, but from a
  // deliberately poor start (everything in one interval on one slow
  // processor pair) it must close most of the gap; on many small
  // homogeneous instances it lands exactly on the optimum.
  Rng rng(4);
  std::size_t exact_hits = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 5);
    const Platform platform = testutil::small_hom_platform(6, 3);
    const Mapping start(IntervalPartition::single(5), {{0}});
    const auto improved = improve_mapping(chain, platform, start);
    ASSERT_TRUE(improved.has_value());
    const auto optimum = optimize_reliability(chain, platform);
    EXPECT_LE(improved->metrics.reliability.log(),
              optimum.reliability.log() + 1e-12);
    if (improved->metrics.reliability.log() >=
        optimum.reliability.log() - 1e-9) {
      ++exact_hits;
    }
    // The start had one replica on one interval; any improvement implies
    // the climb worked at all.
    EXPECT_GT(improved->metrics.reliability.log(),
              mapping_reliability(chain, platform, start).log());
  }
  EXPECT_GE(exact_hits, static_cast<std::size_t>(trials / 2));
}

TEST(LocalSearch, ImprovesHeuristicsOnHeterogeneousInstances) {
  // Aggregate check: across instances, local search starting from the
  // best heuristic result is never worse and sometimes strictly better.
  Rng rng(5);
  std::size_t strict_improvements = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 7);
    const Platform platform = testutil::small_het_platform(rng, 7, 3);
    HeuristicOptions heuristic_options;
    heuristic_options.period_bound = 30.0;
    heuristic_options.latency_bound = 150.0;
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurP,
                                     heuristic_options);
    if (!start) continue;
    LocalSearchOptions options;
    options.period_bound = heuristic_options.period_bound;
    options.latency_bound = heuristic_options.latency_bound;
    const auto improved =
        improve_mapping(chain, platform, start->mapping, options);
    ASSERT_TRUE(improved.has_value());
    if (improved->metrics.reliability.log() >
        start->metrics.reliability.log() + 1e-9) {
      ++strict_improvements;
    }
  }
  EXPECT_GT(strict_improvements, 0u);
}

TEST(LocalSearch, HonorsAllocationConstraints) {
  Rng rng(6);
  const TaskChain chain = testutil::small_chain(rng, 4);
  const Platform platform = testutil::small_hom_platform(4, 2);
  auto constraints = AllocationConstraints::all_allowed(4, 4);
  // Task 0 may only run on processor 0.
  for (std::size_t u : {1u, 2u, 3u}) constraints.forbid(0, u);
  const Mapping start(IntervalPartition::single(4), {{0}});
  LocalSearchOptions options;
  options.constraints = &constraints;
  const auto improved = improve_mapping(chain, platform, start, options);
  ASSERT_TRUE(improved.has_value());
  // Whatever the result, the interval containing task 0 only uses P0.
  const std::size_t j =
      improved->mapping.partition().interval_of(0);
  for (std::size_t u : improved->mapping.processors(j)) {
    EXPECT_EQ(u, 0u);
  }
}

TEST(LocalSearch, TerminatesWithinRoundLimit) {
  Rng rng(7);
  const TaskChain chain = testutil::small_chain(rng, 6);
  const Platform platform = testutil::small_het_platform(rng, 6, 3);
  const Mapping start = testutil::random_mapping(rng, chain, platform);
  LocalSearchOptions options;
  options.max_rounds = 2;
  const auto improved = improve_mapping(chain, platform, start, options);
  ASSERT_TRUE(improved.has_value());
  EXPECT_LE(improved->rounds, 2u);
}

TEST(LocalSearch, UnboundedSearchOnHomInstancesMatchesAlgorithm1Often) {
  Rng rng(8);
  std::size_t matches = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    const TaskChain chain = testutil::small_chain(rng, 6);
    const Platform platform = testutil::small_hom_platform(6, 2);
    HeuristicOptions heuristic_options;
    const auto start = run_heuristic(chain, platform,
                                     HeuristicKind::kHeurL,
                                     heuristic_options);
    ASSERT_TRUE(start.has_value());
    const auto improved =
        improve_mapping(chain, platform, start->mapping);
    ASSERT_TRUE(improved.has_value());
    const auto optimum = optimize_reliability(chain, platform);
    if (improved->metrics.reliability.log() >=
        optimum.reliability.log() - 1e-9) {
      ++matches;
    }
  }
  EXPECT_GE(matches, static_cast<std::size_t>(trials * 2 / 3));
}

// ------------------------------------------------------ differential

/// The same platform with a different link failure rate.
Platform with_link_rate(const Platform& platform, double link_rate) {
  std::vector<Processor> procs;
  for (std::size_t u = 0; u < platform.processor_count(); ++u) {
    procs.push_back(platform.processor(u));
  }
  return Platform(std::move(procs), platform.bandwidth(), link_rate,
                  platform.max_replication());
}

/// Forbids each (task, processor) pair with probability 1/6, keeping at
/// least one processor per task.
AllocationConstraints random_constraints(Rng& rng, std::size_t n,
                                         std::size_t p) {
  auto constraints = AllocationConstraints::all_allowed(n, p);
  for (std::size_t task = 0; task < n; ++task) {
    for (std::size_t u = 1; u < p; ++u) {
      if (rng.uniform_int(0, 5) == 0) constraints.forbid(task, u);
    }
  }
  return constraints;
}

struct Tally {
  std::size_t calls = 0;
  std::size_t answered = 0;
  std::size_t moves = 0;
};

/// Runs both searches from `start` and requires identical outcomes:
/// mapping, every metric, rounds and accepted moves.
void expect_identical(const TaskChain& chain, const Platform& platform,
                      const Mapping& start,
                      const LocalSearchOptions& options, Tally& tally,
                      const std::string& where) {
  const auto expected = oracle::improve_mapping(chain, platform, start,
                                                options);
  const auto actual = improve_mapping(chain, platform, start, options);
  ++tally.calls;
  ASSERT_EQ(actual.has_value(), expected.has_value()) << where;
  if (!actual) return;
  ++tally.answered;
  tally.moves += actual->moves_accepted;
  EXPECT_EQ(actual->mapping, expected->mapping) << where;
  EXPECT_TRUE(actual->metrics == expected->metrics) << where;
  EXPECT_EQ(actual->rounds, expected->rounds) << where;
  EXPECT_EQ(actual->moves_accepted, expected->moves_accepted) << where;
  EXPECT_TRUE(actual->metrics == evaluate(chain, platform, actual->mapping))
      << where;
}

/// The Section 8 ladder (period 50..500, L = 750) and the unbounded
/// query. Heterogeneous paper platforms run at speeds up to 100, so
/// their ladder is period 2..20 at L = 30 (every rung of the paper's
/// ladder gets the unbounded optimum there).
std::vector<std::pair<double, double>> ladder(bool heterogeneous) {
  const double step = heterogeneous ? 2.0 : 50.0;
  const double latency = heterogeneous ? 30.0 : 750.0;
  std::vector<std::pair<double, double>> rungs;
  for (int rung = 1; rung <= 10; ++rung) {
    rungs.emplace_back(rung * step, latency);
  }
  rungs.emplace_back(kInf, kInf);
  return rungs;
}

/// Every start the grid uses: both heuristics under the query's bounds
/// (what the +ls solvers polish), the one-interval start on processor 0,
/// and a random mapping.
void run_grid(const TaskChain& chain, const Platform& platform, Rng& rng,
              const AllocationConstraints* constraints, bool expected,
              Tally& tally, const std::string& label) {
  const Mapping single(IntervalPartition::single(chain.size()), {{0}});
  const Mapping random = testutil::random_mapping(rng, chain, platform);
  for (const auto& [period, latency] :
       ladder(!platform.is_homogeneous())) {
    LocalSearchOptions options;
    options.period_bound = period;
    options.latency_bound = latency;
    options.use_expected_metrics = expected;
    options.constraints = constraints;
    const std::string where = label + " P=" + std::to_string(period) +
                              " L=" + std::to_string(latency);
    for (const HeuristicKind kind :
         {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
      HeuristicOptions heuristic;
      heuristic.period_bound = period;
      heuristic.latency_bound = latency;
      heuristic.use_expected_metrics = expected;
      heuristic.constraints = constraints;
      const auto start = run_heuristic(chain, platform, kind, heuristic);
      if (!start) continue;
      expect_identical(chain, platform, start->mapping, options, tally,
                       where + (kind == HeuristicKind::kHeurL ? " heur-l"
                                                              : " heur-p"));
    }
    expect_identical(chain, platform, single, options, tally,
                     where + " single");
    expect_identical(chain, platform, random, options, tally,
                     where + " random");
  }
}

TEST(LocalSearchDifferential, PaperInstancesAreBitIdentical) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    const Platform hom = paper::hom_platform();
    const Platform het = paper::het_platform(rng);
    const auto constraints =
        random_constraints(rng, chain.size(), hom.processor_count());
    for (const bool heterogeneous : {false, true}) {
      const Platform& paper_platform = heterogeneous ? het : hom;
      const std::string name = std::string(heterogeneous ? "het" : "hom") +
                               " seed " + std::to_string(seed);
      for (const double link_rate : {paper::kLinkFailureRate, 2e-3}) {
        const Platform platform = with_link_rate(paper_platform, link_rate);
        const std::string label =
            name + " link " + std::to_string(link_rate);
        run_grid(chain, platform, rng, nullptr, false, tally, label);
        run_grid(chain, platform, rng, nullptr, true, tally,
                 label + " expected");
        run_grid(chain, platform, rng, &constraints, false, tally,
                 label + " constrained");
      }
    }
  }
  // The grid must exercise the search, not just its refusals.
  EXPECT_GT(tally.calls, 2000u);
  EXPECT_GT(tally.answered, tally.calls / 2);
  EXPECT_GT(tally.moves, tally.answered);
}

TEST(LocalSearchDifferential, SmallAggressiveInstancesAreBitIdentical) {
  // High failure rates and K up to 4: the split move's refill and the
  // replica moves take many more steps here than on paper instances.
  Tally tally;
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4 + static_cast<std::size_t>(trial % 6);
    const std::size_t p = 3 + static_cast<std::size_t>(trial % 7);
    const auto k = static_cast<unsigned>(1 + trial % 4);
    const TaskChain chain = testutil::small_chain(rng, n);
    const Platform platform = trial % 2 == 0
                                  ? testutil::small_hom_platform(p, k)
                                  : testutil::small_het_platform(rng, p, k);
    const Mapping start = testutil::random_mapping(rng, chain, platform);
    for (const double period : {8.0, 20.0, kInf}) {
      LocalSearchOptions options;
      options.period_bound = period;
      options.latency_bound = period * 4.0;
      options.use_expected_metrics = trial % 3 == 0;
      expect_identical(chain, platform, start, options, tally,
                       "trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(tally.moves, tally.answered);
}

TEST(LocalSearchDifferential, ReplicaSetsAroundTheSplitLimitAreBitIdentical) {
  // The split move divides a set of up to 10 replicas every way and a
  // larger one only in order: K = 10 and 11 sit on either side of that
  // limit, and K = 40 is a request-sized set. Each start is one
  // interval on K of K + 10 processors.
  Tally tally;
  Rng rng(37);
  for (const unsigned k : {10u, 11u, 40u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t n = 3 + static_cast<std::size_t>(trial % 3);
      const TaskChain chain = testutil::small_chain(rng, n);
      const Platform platform =
          trial % 2 == 0 ? testutil::small_hom_platform(k + 10, k)
                         : testutil::small_het_platform(rng, k + 10, k);
      std::vector<std::size_t> replicas(k);
      std::iota(replicas.begin(), replicas.end(), std::size_t{0});
      const Mapping start(IntervalPartition::single(n), {replicas});
      for (const double period : {20.0, kInf}) {
        LocalSearchOptions options;
        options.period_bound = period;
        options.latency_bound = period * 4.0;
        expect_identical(chain, platform, start, options, tally,
                         "K " + std::to_string(k) + " trial " +
                             std::to_string(trial));
      }
    }
  }
  EXPECT_GT(tally.moves, 0u);
}

TEST(LocalSearch, PaperInstanceCallsAllocateAFixedFew) {
  // Candidates reuse the search's buffers: one call allocates its
  // buffers and the result mapping, nothing per candidate.
  std::uint64_t worst = 0;
  std::size_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const TaskChain chain = paper::chain(rng);
    for (const bool heterogeneous : {false, true}) {
      const Platform platform =
          heterogeneous ? paper::het_platform(rng) : paper::hom_platform();
      for (const auto& [period, latency] : ladder(heterogeneous)) {
        HeuristicOptions heuristic;
        heuristic.period_bound = period;
        heuristic.latency_bound = latency;
        const auto start = run_heuristic(chain, platform,
                                         HeuristicKind::kHeurP, heuristic);
        if (!start) continue;
        LocalSearchOptions options;
        options.period_bound = period;
        options.latency_bound = latency;
        const obs::AllocScope scope;
        const auto improved =
            improve_mapping(chain, platform, start->mapping, options);
        worst = std::max(worst, scope.delta().count);
        ASSERT_TRUE(improved.has_value());
        ++calls;
      }
    }
  }
  EXPECT_GT(calls, 60u);
  EXPECT_LE(worst, 64u);
}

}  // namespace
}  // namespace prts
