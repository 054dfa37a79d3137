#include "solver/portfolio.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/exact.hpp"
#include "model/generator.hpp"
#include "service/engine.hpp"
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


// ------------------------------------------------ one staircase per instance

Instance paper_instance(std::uint64_t seed) {
  Rng rng(seed);
  return Instance{paper::chain(rng), paper::hom_platform()};
}

std::vector<Bounds> paper_ladder() {
  std::vector<Bounds> ladder;
  for (int period = 50; period <= 500; period += 50) {
    Bounds bounds;
    bounds.period_bound = period;
    bounds.latency_bound = 750.0;
    ladder.push_back(bounds);
  }
  ladder.push_back(Bounds{});
  return ladder;
}

std::vector<std::optional<Solution>> answer_ladder(
    const PreparedSolver& session) {
  std::vector<std::optional<Solution>> answers;
  for (const Bounds& bounds : paper_ladder()) {
    answers.push_back(session.solve(bounds));
  }
  return answers;
}

void expect_same_answers(const std::vector<std::optional<Solution>>& got,
                         const std::vector<std::optional<Solution>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].has_value(), want[i].has_value()) << "rung " << i;
    if (!got[i]) continue;
    EXPECT_EQ(got[i]->mapping, want[i]->mapping) << "rung " << i;
    EXPECT_EQ(got[i]->metrics, want[i]->metrics) << "rung " << i;
  }
}

/// The answers of a session on its own enumeration, outside any store.
std::vector<std::optional<Solution>> unshared_answers(
    const Instance& instance) {
  const HomogeneousExactSolver solver(instance.chain, instance.platform);
  std::vector<std::optional<Solution>> answers;
  for (const Bounds& bounds : paper_ladder()) {
    auto solution = solver.solve(bounds.period_bound, bounds.latency_bound);
    if (!solution) {
      answers.emplace_back();
      continue;
    }
    answers.push_back(Solution{std::move(solution->mapping),
                               solution->metrics});
  }
  return answers;
}

TEST(ExactStaircaseStore, ConcurrentPreparesOfEqualInstancesEnumerateOnce) {
  const auto exact = make_exact_solver();
  constexpr std::size_t kThreads = 8;
  // Equal instances, each thread its own copy.
  std::vector<Instance> instances(kThreads, paper_instance(31));
  std::vector<std::vector<std::optional<Solution>>> answers(kThreads);
  std::atomic<std::size_t> ready{0};
  const std::uint64_t before = ExactStaircase::enumerations();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      answers[t] = answer_ladder(*exact->prepare(instances[t]));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ExactStaircase::enumerations() - before, 1u);
  const auto want = unshared_answers(instances[0]);
  for (std::size_t t = 0; t < kThreads; ++t) {
    expect_same_answers(answers[t], want);
  }
}

TEST(ExactStaircaseStore, ExactThenPortfolioLaddersEnumerateOnceInTheService) {
  SolverRegistry registry;
  register_builtin_solvers(registry);
  registry.add(make_portfolio(registry, "portfolio",
                              {"exact", "heur-l+ls", "heur-p+ls", "baseline"}));
  service::ServiceConfig config;
  config.registry = &registry;
  config.threads = 2;
  service::SolveService service(config);
  const Instance instance = paper_instance(32);

  const std::uint64_t before = ExactStaircase::enumerations();
  for (const char* name : {"exact", "portfolio"}) {
    std::vector<std::future<service::SolveReply>> replies;
    for (const Bounds& bounds : paper_ladder()) {
      replies.push_back(
          service.submit(service::SolveRequest{instance, name, bounds}));
    }
    for (auto& reply : replies) {
      const service::SolveReply answer = reply.get();
      EXPECT_TRUE(answer.status == service::ReplyStatus::kSolved ||
                  answer.status == service::ReplyStatus::kInfeasible)
          << name;
    }
  }
  EXPECT_EQ(ExactStaircase::enumerations() - before, 1u);
}

TEST(ExactStaircaseStore, AThrowingBuildReleasesItsWaitersAndLeavesNoEntry) {
  ExactStaircaseStore store;
  constexpr std::size_t kWaiters = 4;
  std::atomic<std::size_t> builds{0};
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> failed{0};
  const auto failing_build = [&]() -> std::shared_ptr<const ExactStaircase> {
    builds.fetch_add(1);
    // Give every waiter time to queue on this build before it fails.
    while (arrived.load() < kWaiters) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    throw std::runtime_error("build failed");
  };
  std::thread first_caller([&] {
    try {
      store.get("key", failing_build);
    } catch (const std::runtime_error&) {
      failed.fetch_add(1);
    }
  });
  while (builds.load() == 0) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (std::size_t w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      arrived.fetch_add(1);
      try {
        store.get("key", failing_build);
      } catch (const std::runtime_error&) {
        failed.fetch_add(1);
      }
    });
  }
  first_caller.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(builds.load(), 1u);
  EXPECT_EQ(failed.load(), kWaiters + 1);
  EXPECT_EQ(store.size(), 0u);

  // The key builds afresh afterwards.
  const Instance instance = small_hom_instance(4);
  const auto staircase = store.get("key", [&] {
    return std::make_shared<const ExactStaircase>(instance.chain,
                                                  instance.platform);
  });
  ASSERT_NE(staircase, nullptr);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("key", failing_build), staircase);
  EXPECT_EQ(builds.load(), 1u);
}

TEST(ExactStaircaseStore, AnswersStayIdenticalAcrossEvictionAtCapacity) {
  const auto exact = make_exact_solver();
  const Instance first = paper_instance(33);
  const std::uint64_t before = ExactStaircase::enumerations();
  const auto want = answer_ladder(*exact->prepare(first));
  // A recently used instance is not enumerated again.
  expect_same_answers(answer_ladder(*exact->prepare(first)), want);
  EXPECT_EQ(ExactStaircase::enumerations() - before, 1u);
  // kCapacity other instances push it out.
  for (std::uint64_t seed = 0; seed < ExactStaircaseStore::kCapacity; ++seed) {
    exact->prepare(small_hom_instance(100 + seed));
  }
  EXPECT_EQ(ExactStaircase::enumerations() - before,
            1u + ExactStaircaseStore::kCapacity);
  expect_same_answers(answer_ladder(*exact->prepare(first)), want);
  EXPECT_EQ(ExactStaircase::enumerations() - before,
            2u + ExactStaircaseStore::kCapacity);
  expect_same_answers(want, unshared_answers(first));
}

}  // namespace
}  // namespace prts::solver
