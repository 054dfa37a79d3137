#include "solver/portfolio.hpp"

#include <gtest/gtest.h>

#include "model/generator.hpp"
#include "solver/adapters.hpp"
#include "solver/registry.hpp"
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

Bounds loose_bounds() {
  Bounds bounds;
  bounds.period_bound = 40.0;
  bounds.latency_bound = 150.0;
  return bounds;
}

TEST(Portfolio, BestOfSelectionIsAtLeastEveryMember) {
  const auto& registry = SolverRegistry::builtin();
  const auto portfolio = make_portfolio(
      registry, "test", {"heur-l", "heur-p", "baseline"});
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Instance instance = small_het_instance(seed);
    const Bounds bounds = loose_bounds();
    const auto best = portfolio->solve(instance, bounds);
    for (const char* name : {"heur-l", "heur-p", "baseline"}) {
      const auto member = registry.find(name)->solve(instance, bounds);
      if (!member) continue;
      ASSERT_TRUE(best.has_value()) << "seed " << seed;
      EXPECT_FALSE(tri_criteria_better(member->metrics, best->metrics))
          << name << " beat the portfolio at seed " << seed;
    }
  }
}

TEST(Portfolio, MatchesExactOnHomogeneousPlatforms) {
  // With the exact engine in the portfolio, the portfolio answer is
  // optimal wherever the exact engine applies.
  const auto& registry = SolverRegistry::builtin();
  const auto portfolio =
      make_portfolio(registry, "test", {"heur-l", "exact", "heur-p"});
  const Instance instance = small_hom_instance(9);
  const Bounds bounds = loose_bounds();
  const auto best = portfolio->solve(instance, bounds);
  const auto exact = registry.find("exact")->solve(instance, bounds);
  ASSERT_TRUE(exact.has_value());
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->metrics.reliability.log(),
                   exact->metrics.reliability.log());
}

TEST(Portfolio, DeterministicAcrossRepeats) {
  const auto& registry = SolverRegistry::builtin();
  const Instance instance = small_het_instance(7);
  const Bounds bounds = loose_bounds();
  const auto first = make_portfolio(registry, "first",
                                    {"heur-l", "heur-p", "baseline"});
  const auto second = make_portfolio(registry, "second",
                                     {"heur-l", "heur-p", "baseline"});
  const auto a = first->solve(instance, bounds);
  const auto b = first->solve(instance, bounds);
  const auto c = second->solve(instance, bounds);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->mapping, b->mapping);
  EXPECT_EQ(a->mapping, c->mapping);
  EXPECT_EQ(a->metrics, c->metrics);
}

TEST(Portfolio, PreparedSessionAgreesWithDirectSolve) {
  // Campaign sweeps drive portfolios through prepare(); the session
  // must answer exactly like a fresh solve at every bound.
  const auto portfolio = make_portfolio(SolverRegistry::builtin(), "test",
                                        {"exact", "heur-l", "heur-p"});
  const Instance instance = small_hom_instance(21);
  const auto session = portfolio->prepare(instance);
  for (double period : {10.0, 20.0, 40.0, 1e9}) {
    Bounds bounds;
    bounds.period_bound = period;
    bounds.latency_bound = 150.0;
    const auto from_session = session->solve(bounds);
    const auto from_solver = portfolio->solve(instance, bounds);
    ASSERT_EQ(from_session.has_value(), from_solver.has_value())
        << "period " << period;
    if (from_session) {
      EXPECT_EQ(from_session->mapping, from_solver->mapping)
          << "period " << period;
    }
  }
}

TEST(Portfolio, SkipsUnsupportedMembers) {
  // On a heterogeneous platform the exact member cannot run; the
  // heuristics still answer.
  const auto portfolio = make_portfolio(SolverRegistry::builtin(), "test",
                                        {"exact", "heur-l"});
  const Instance het = small_het_instance(13);
  EXPECT_TRUE(portfolio->supports(het));
  const auto solution = portfolio->solve(het, loose_bounds());
  EXPECT_TRUE(solution.has_value());
}

TEST(Portfolio, ExhaustedBudgetsDiscardEveryAnswer) {
  // A negative budget can never be met (elapsed >= 0), so every member's
  // answer is discarded — the degenerate all-timed-out portfolio.
  std::vector<PortfolioMember> members;
  members.push_back(PortfolioMember{make_heuristic_solver(
                                        HeuristicKind::kHeurL, false),
                                    -1.0});
  const PortfolioSolver portfolio("timed-out", std::move(members));
  const auto solution =
      portfolio.solve(small_het_instance(3), loose_bounds());
  EXPECT_FALSE(solution.has_value());
}

TEST(Portfolio, RejectsNullMembersAndUnknownNames) {
  EXPECT_THROW(PortfolioSolver("bad", {PortfolioMember{nullptr}}),
               std::invalid_argument);
  EXPECT_THROW(
      make_portfolio(SolverRegistry::builtin(), "bad", {"no-such"}),
      std::invalid_argument);
  EXPECT_THROW(make_portfolio(SolverRegistry::builtin(), "bad", {}),
               std::invalid_argument);
}

TEST(Portfolio, DescriptionListsMembers) {
  const auto portfolio = make_portfolio(SolverRegistry::builtin(), "test",
                                        {"heur-l", "baseline"});
  EXPECT_NE(portfolio->description().find("heur-l"), std::string::npos);
  EXPECT_NE(portfolio->description().find("baseline"), std::string::npos);
}

}  // namespace
}  // namespace prts::solver
