#include "solver/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "model/generator.hpp"
#include "service/canonical.hpp"
#include "solver/adapters.hpp"
#include "test_util.hpp"

namespace prts::solver {
namespace {

Instance small_hom_instance(std::uint64_t seed = 3) {
  Rng rng(seed);
  return Instance{testutil::small_chain(rng, 8),
                  testutil::small_hom_platform(6, 3)};
}

Instance small_het_instance(std::uint64_t seed = 5) {
  Rng rng(seed);
  TaskChain chain = testutil::small_chain(rng, 8);
  return Instance{std::move(chain), testutil::small_het_platform(rng, 6, 3)};
}

TEST(SolverRegistry, BuiltinContainsEveryEngine) {
  const SolverRegistry& registry = SolverRegistry::builtin();
  for (const char* name :
       {"exact", "ilp", "dp", "dp-period", "heur-l", "heur-p", "heur-l+ls",
        "heur-p+ls", "baseline", "portfolio"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    ASSERT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.find(name)->name(), name);
  }
  EXPECT_EQ(registry.size(), 10u);
}

TEST(SolverRegistry, NamesAreSortedAndComplete) {
  const auto names = SolverRegistry::builtin().names();
  EXPECT_EQ(names.size(), SolverRegistry::builtin().size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(SolverRegistry::builtin().find("no-such-solver"), nullptr);
  EXPECT_FALSE(SolverRegistry::builtin().contains("no-such-solver"));
}

TEST(SolverRegistry, RejectsDuplicateNames) {
  SolverRegistry registry;
  registry.add(make_exact_solver());
  EXPECT_THROW(registry.add(make_exact_solver()), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(SolverRegistry, RejectsNullSolver) {
  SolverRegistry registry;
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
}

TEST(SolverAdapters, ExactMatchesUnderlyingEngine) {
  const Instance instance = small_hom_instance();
  const auto solver = SolverRegistry::builtin().find("exact");
  Bounds bounds;
  bounds.period_bound = 30.0;
  bounds.latency_bound = 90.0;
  const auto solution = solver->solve(instance, bounds);

  const HomogeneousExactSolver reference(instance.chain, instance.platform);
  const auto expected = reference.best_log_reliability(
      bounds.period_bound, bounds.latency_bound);
  ASSERT_EQ(solution.has_value(), expected.has_value());
  if (solution) {
    EXPECT_DOUBLE_EQ(solution->metrics.reliability.log(), *expected);
    EXPECT_LE(solution->metrics.worst_period, bounds.period_bound);
    EXPECT_LE(solution->metrics.worst_latency, bounds.latency_bound);
  }
}

TEST(SolverAdapters, HomogeneousOnlyEnginesRejectHetInstances) {
  const Instance het = small_het_instance();
  for (const char* name : {"exact", "ilp", "dp", "dp-period"}) {
    const auto solver = SolverRegistry::builtin().find(name);
    EXPECT_FALSE(solver->supports(het)) << name;
    EXPECT_FALSE(solver->solve(het, Bounds{}).has_value()) << name;
  }
  for (const char* name :
       {"heur-l", "heur-p", "heur-l+ls", "heur-p+ls", "baseline",
        "portfolio"}) {
    EXPECT_TRUE(SolverRegistry::builtin().find(name)->supports(het)) << name;
  }
}

TEST(SolverAdapters, HeuristicMatchesRunHeuristic) {
  const Instance instance = small_het_instance(11);
  Bounds bounds;
  bounds.period_bound = 25.0;
  bounds.latency_bound = 80.0;
  const auto solution =
      SolverRegistry::builtin().find("heur-p")->solve(instance, bounds);

  HeuristicOptions options;
  options.period_bound = bounds.period_bound;
  options.latency_bound = bounds.latency_bound;
  const auto expected = run_heuristic(instance.chain, instance.platform,
                                      HeuristicKind::kHeurP, options);
  ASSERT_EQ(solution.has_value(), expected.has_value());
  if (solution) {
    EXPECT_EQ(solution->mapping, expected->mapping);
  }
}

TEST(SolverAdapters, PreparedSessionAgreesWithDirectSolve) {
  // The cached homogeneous sessions must answer exactly like a fresh
  // solve at every bound — this is what the campaign engine relies on.
  const Instance instance = small_hom_instance(17);
  for (const char* name : {"exact", "heur-l", "heur-p"}) {
    const auto solver = SolverRegistry::builtin().find(name);
    const auto session = solver->prepare(instance);
    for (double period : {8.0, 15.0, 30.0, 1e9}) {
      Bounds bounds;
      bounds.period_bound = period;
      bounds.latency_bound = 120.0;
      const auto from_session = session->solve(bounds);
      const auto from_solver = solver->solve(instance, bounds);
      ASSERT_EQ(from_session.has_value(), from_solver.has_value())
          << name << " period " << period;
      if (from_session) {
        EXPECT_EQ(from_session->mapping, from_solver->mapping)
            << name << " period " << period;
      }
    }
  }
}

TEST(SolverAdapters, LocalSearchNeverWorseThanPlainHeuristic) {
  const Instance instance = small_het_instance(23);
  Bounds bounds;
  bounds.period_bound = 40.0;
  bounds.latency_bound = 120.0;
  const auto plain =
      SolverRegistry::builtin().find("heur-l")->solve(instance, bounds);
  const auto polished =
      SolverRegistry::builtin().find("heur-l+ls")->solve(instance, bounds);
  ASSERT_EQ(plain.has_value(), polished.has_value());
  if (plain) {
    EXPECT_GE(polished->metrics.reliability.log(),
              plain->metrics.reliability.log());
    EXPECT_LE(polished->metrics.worst_period, bounds.period_bound);
    EXPECT_LE(polished->metrics.worst_latency, bounds.latency_bound);
  }
}

TEST(SolverAdapters, InfeasibleBoundsReturnNothing) {
  const Instance instance = small_hom_instance();
  Bounds impossible;
  impossible.period_bound = 1e-6;
  impossible.latency_bound = 1e-6;
  for (const std::string& name : SolverRegistry::builtin().names()) {
    const auto solution = SolverRegistry::builtin().find(name)->solve(
        instance, impossible);
    EXPECT_FALSE(solution.has_value()) << name;
  }
}

TEST(SolverAdapters, TriCriteriaOrderingPrefersReliabilityFirst) {
  MappingMetrics a;
  a.reliability = LogReliability::from_log(-1e-6);
  a.worst_period = 100.0;
  MappingMetrics b;
  b.reliability = LogReliability::from_log(-1e-3);
  b.worst_period = 1.0;
  EXPECT_TRUE(tri_criteria_better(a, b));
  EXPECT_FALSE(tri_criteria_better(b, a));

  // Equal reliability: the faster mapping wins.
  b.reliability = a.reliability;
  EXPECT_TRUE(tri_criteria_better(b, a));
  EXPECT_FALSE(tri_criteria_better(a, b));

  // Fully equal metrics: neither is strictly better.
  EXPECT_FALSE(tri_criteria_better(a, a));
}

// ------------------------------------------------------- golden answers
//
// 128-bit digests of the exact and portfolio answers on the Section 8
// ladder (period 50..500 step 50, L = 750) for three seeded paper
// instances, chosen because their ladders are feasible on 9 of 10
// rungs. The digests were computed with Algo-Alloc taking pow/log1p per
// gain; a kernel change that moves one bit of a mapping or a metric
// fails here.

template <typename T>
void append_bits(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

std::string ladder_digest(const Instance& instance, const char* name) {
  const auto session = SolverRegistry::builtin().find(name)->prepare(instance);
  std::string bytes;
  for (int period = 50; period <= 500; period += 50) {
    Bounds bounds;
    bounds.period_bound = period;
    bounds.latency_bound = 750.0;
    const auto solution = session->solve(bounds);
    bytes.push_back(solution ? 'S' : 'I');
    if (!solution) continue;
    const Mapping& mapping = solution->mapping;
    append_bits(bytes, mapping.interval_count());
    for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
      append_bits(bytes, mapping.partition().interval(j).last);
      for (std::size_t u : mapping.processors(j)) append_bits(bytes, u);
      bytes.push_back(';');
    }
    const MappingMetrics& m = solution->metrics;
    append_bits(bytes, m.reliability.log());
    append_bits(bytes, m.failure);
    append_bits(bytes, m.expected_latency);
    append_bits(bytes, m.worst_latency);
    append_bits(bytes, m.expected_period);
    append_bits(bytes, m.worst_period);
    append_bits(bytes, m.processors_used);
  }
  return service::to_hex(service::fingerprint(bytes));
}

TEST(SolverGoldenAnswers, SectionEightLadderDigestsArePinned) {
  struct Pin {
    std::uint64_t seed;
    const char* exact;
    const char* portfolio;
  };
  const Pin pins[] = {
      {4, "7dfcd552eab36a0ae5656798daca68d5",
       "7dfcd552eab36a0ae5656798daca68d5"},
      {22, "cb8b7438965c8bec62ddc2cc1c3af12d",
       "cb8b7438965c8bec62ddc2cc1c3af12d"},
      {25, "2e95364d561565978ca749735646277e",
       "2e95364d561565978ca749735646277e"},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    const Instance instance{paper::chain(rng), paper::hom_platform()};
    EXPECT_EQ(ladder_digest(instance, "exact"), pin.exact)
        << "seed " << pin.seed;
    EXPECT_EQ(ladder_digest(instance, "portfolio"), pin.portfolio)
        << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace prts::solver
