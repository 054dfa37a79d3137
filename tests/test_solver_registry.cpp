#include "solver/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

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

/// The ten rungs step, 2 step, ..., 10 step at one latency bound.
std::string ladder_digest(const Instance& instance, const char* name,
                          double step = 50.0, double latency = 750.0) {
  const auto session = SolverRegistry::builtin().find(name)->prepare(instance);
  std::string bytes;
  for (int rung = 1; rung <= 10; ++rung) {
    Bounds bounds;
    bounds.period_bound = rung * step;
    bounds.latency_bound = latency;
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

// The portfolio's local-search members on the same three homogeneous
// instances, and on Section 8.2 heterogeneous platforms drawn from the
// same seeds. Their speeds reach 100, so the heterogeneous ladder is
// period 2..20 at L = 30 (on the paper's 50..500 ladder every rung gets
// the unbounded optimum). Digests computed at the parent commit, before
// the incremental local search and the prepared +ls sessions.
TEST(SolverGoldenAnswers, LocalSearchLadderDigestsArePinned) {
  struct Pin {
    std::uint64_t seed;
    bool heterogeneous;
    const char* heur_l;
    const char* heur_p;
    const char* portfolio;
  };
  const Pin pins[] = {
      {4, false, "3a684f8aad5dafb010c59a1cf07b2752",
       "a8c1dd60ffc2508068a0f13c51a04b31",
       "7dfcd552eab36a0ae5656798daca68d5"},
      {22, false, "84e893fc4afce96c31e2622491dbd77c",
       "6e758dcb33d03fd844552cd271ee45ad",
       "cb8b7438965c8bec62ddc2cc1c3af12d"},
      {25, false, "9d16d0b6bf5fa2a02023709a74d31ce3",
       "323876bcfe6fd4dda130f1fd99e66d13",
       "2e95364d561565978ca749735646277e"},
      {4, true, "70c86fe6d7fa95c635f7fabe494459d7",
       "859ecb1a1a419da8e2b6eb3893134ae4",
       "70c86fe6d7fa95c635f7fabe494459d7"},
      {22, true, "dc0e52853d13cf182c49408743bfdd07",
       "b2e9bc574714b5f225e92375038d57b2",
       "dc0e52853d13cf182c49408743bfdd07"},
      {25, true, "bd9c9a581d8f199aad38787b12151e96",
       "0c43de001a9657ebf9b6276bb3e562e8",
       "bd9c9a581d8f199aad38787b12151e96"},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    TaskChain chain = paper::chain(rng);
    Platform platform =
        pin.heterogeneous ? paper::het_platform(rng) : paper::hom_platform();
    const Instance instance{std::move(chain), std::move(platform)};
    const double step = pin.heterogeneous ? 2.0 : 50.0;
    const double latency = pin.heterogeneous ? 30.0 : 750.0;
    const std::string where = std::string(pin.heterogeneous ? "het" : "hom") +
                              " seed " + std::to_string(pin.seed);
    EXPECT_EQ(ladder_digest(instance, "heur-l+ls", step, latency),
              pin.heur_l)
        << where;
    EXPECT_EQ(ladder_digest(instance, "heur-p+ls", step, latency),
              pin.heur_p)
        << where;
    EXPECT_EQ(ladder_digest(instance, "portfolio", step, latency),
              pin.portfolio)
        << where;
  }
}

TEST(SolverAdapters, LocalSearchSessionAgreesWithDirectSolveOnTheLadder) {
  // The prepared +ls session polishes the bounds-free candidate list's
  // winner; it must answer exactly like run_heuristic + improve_mapping
  // at every rung, on both platform kinds.
  for (const std::uint64_t seed : {4u, 9u, 22u}) {
    for (const bool heterogeneous : {false, true}) {
      Rng rng(seed);
      TaskChain chain = paper::chain(rng);
      Platform platform = heterogeneous ? paper::het_platform(rng)
                                        : paper::hom_platform();
      const Instance instance{std::move(chain), std::move(platform)};
      const double step = heterogeneous ? 2.0 : 50.0;
      std::vector<Bounds> ladder;
      for (int rung = 1; rung <= 10; ++rung) {
        ladder.push_back(Bounds{rung * step, heterogeneous ? 30.0 : 750.0});
      }
      ladder.push_back(Bounds{});
      for (const char* name : {"heur-l+ls", "heur-p+ls"}) {
        const auto solver = SolverRegistry::builtin().find(name);
        const auto session = solver->prepare(instance);
        for (const Bounds& bounds : ladder) {
          const auto from_session = session->solve(bounds);
          const auto from_solver = solver->solve(instance, bounds);
          const std::string where = std::string(name) + " seed " +
                                    std::to_string(seed) +
                                    (heterogeneous ? " het" : " hom") +
                                    " P=" +
                                    std::to_string(bounds.period_bound);
          ASSERT_EQ(from_session.has_value(), from_solver.has_value())
              << where;
          if (!from_session) continue;
          EXPECT_EQ(from_session->mapping, from_solver->mapping) << where;
          EXPECT_TRUE(from_session->metrics == from_solver->metrics)
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prts::solver
