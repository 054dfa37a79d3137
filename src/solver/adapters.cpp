#include "solver/adapters.hpp"

#include <utility>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/ilp.hpp"
#include "core/local_search.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"

namespace prts::solver {
namespace {

/// Wraps a mapping + metrics pair into a Solution after a bounds check.
std::optional<Solution> accept_if_within(Mapping mapping,
                                         const MappingMetrics& metrics,
                                         const Bounds& bounds) {
  if (!within_bounds(metrics, bounds)) return std::nullopt;
  return Solution{std::move(mapping), metrics};
}

// ------------------------------------------------------------------ exact

/// Session answering from the instance's shared staircase; bound
/// queries scan its ~30 records.
class ExactSession final : public PreparedSolver {
 public:
  ExactSession(const Instance& instance,
               std::shared_ptr<const ExactStaircase> staircase)
      : solver_(instance.chain, instance.platform, std::move(staircase)) {}

  std::optional<Solution> solve(const Bounds& bounds) const override {
    auto solution = solver_.solve(bounds.period_bound, bounds.latency_bound);
    if (!solution) return std::nullopt;
    return Solution{std::move(solution->mapping), solution->metrics};
  }

 private:
  HomogeneousExactSolver solver_;
};

/// One enumeration per instance: every session of an equal instance,
/// the portfolio's exact member included, reads one stored staircase.
class ExactAdapter final : public Solver {
 public:
  std::string name() const override { return "exact"; }
  std::string description() const override {
    return "exact partition enumeration + Algo-Alloc (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    // Homogeneous, and small enough to enumerate: a larger instance gets
    // the heterogeneous answer rather than an enumeration that never ends.
    return HomogeneousExactSolver::accepts(instance.chain, instance.platform);
  }
  bool bounds_monotone(const Instance& instance) const override {
    // First-max over the fixed staircase.
    return supports(instance);
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    return prepare(instance)->solve(bounds);
  }
  std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const override {
    if (!supports(instance)) return Solver::prepare(instance);
    const CanonicalInstanceText key(instance);
    return std::make_unique<ExactSession>(
        instance, staircases_.get(key.view(), [&instance] {
          return std::make_shared<const ExactStaircase>(instance.chain,
                                                        instance.platform);
        }));
  }

 private:
  mutable ExactStaircaseStore staircases_;
};

// -------------------------------------------------------------------- ilp

class IlpAdapter final : public Solver {
 public:
  std::string name() const override { return "ilp"; }
  std::string description() const override {
    return "Section 5.4 ILP via branch-and-bound (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    const IlpFormulation formulation(instance.chain, instance.platform,
                                     bounds.period_bound,
                                     bounds.latency_bound);
    auto solution = solve_ilp(formulation);
    if (!solution) return std::nullopt;
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution->mapping);
    return Solution{std::move(solution->mapping), metrics};
  }
};

// --------------------------------------------------------------------- dp

class DpAdapter final : public Solver {
 public:
  std::string name() const override { return "dp"; }
  std::string description() const override {
    return "Algorithm 1 reliability DP, bounds checked on the optimum "
           "(homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  bool bounds_monotone(const Instance& instance) const override {
    // The optimum is computed bounds-free and only *checked* against
    // the bounds — a one-candidate fixed set.
    return supports(instance);
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    auto solution = optimize_reliability(instance.chain, instance.platform);
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution.mapping);
    return accept_if_within(std::move(solution.mapping), metrics, bounds);
  }
};

class PeriodDpAdapter final : public Solver {
 public:
  std::string name() const override { return "dp-period"; }
  std::string description() const override {
    return "Algorithm 2 reliability-under-period DP, latency checked on "
           "the optimum (homogeneous only)";
  }
  bool supports(const Instance& instance) const override {
    return instance.platform.is_homogeneous();
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    if (!supports(instance)) return std::nullopt;
    auto solution = optimize_reliability_period(
        instance.chain, instance.platform, bounds.period_bound);
    if (!solution) return std::nullopt;
    const MappingMetrics metrics =
        evaluate(instance.chain, instance.platform, solution->mapping);
    return accept_if_within(std::move(solution->mapping), metrics, bounds);
  }
};

// -------------------------------------------------------------- heuristics

/// Polishes a heuristic answer by local search under the same bounds;
/// the answer itself when the search cannot start from it.
Solution polish(const Instance& instance, const HeuristicSolution& start,
                const Bounds& bounds) {
  LocalSearchOptions search;
  search.period_bound = bounds.period_bound;
  search.latency_bound = bounds.latency_bound;
  auto improved = improve_mapping(instance.chain, instance.platform,
                                  start.mapping, search);
  if (!improved) return Solution{start.mapping, start.metrics};
  return Solution{std::move(improved->mapping), improved->metrics};
}

/// Homogeneous session: the allocation does not depend on the bounds, so
/// the candidate list (one per interval count) is computed once and each
/// query filters it — the same caching src/exp/runner.cpp used to
/// hand-roll per experiment. With local search on, the filtered winner
/// is the start run_heuristic would pick, and each query polishes it.
class HomHeuristicSession final : public PreparedSolver {
 public:
  HomHeuristicSession(const Instance& instance, HeuristicKind kind,
                      bool local_search)
      : instance_(instance),
        candidates_(heuristic_candidates(instance.chain, instance.platform,
                                         kind)),
        local_search_(local_search) {}

  std::optional<Solution> solve(const Bounds& bounds) const override {
    const HeuristicSolution* best = best_heuristic_candidate(
        candidates_, bounds.period_bound, bounds.latency_bound);
    if (best == nullptr) return std::nullopt;
    if (local_search_) return polish(instance_, *best, bounds);
    return Solution{best->mapping, best->metrics};
  }

 private:
  const Instance& instance_;
  std::vector<HeuristicSolution> candidates_;
  bool local_search_;
};

class HeuristicAdapter final : public Solver {
 public:
  HeuristicAdapter(HeuristicKind kind, bool local_search)
      : kind_(kind), local_search_(local_search) {}

  std::string name() const override {
    std::string base = kind_ == HeuristicKind::kHeurL ? "heur-l" : "heur-p";
    return local_search_ ? base + "+ls" : base;
  }
  std::string description() const override {
    std::string base = kind_ == HeuristicKind::kHeurL
                           ? "Heur-L: cut at the cheapest communications"
                           : "Heur-P: balance interval loads (min-period "
                             "DP)";
    return local_search_ ? base + ", polished by local search" : base;
  }

  bool bounds_monotone(const Instance& instance) const override {
    // The cached-session path (the one whose answers the service
    // caches) is a first-max filter over the bounds-free candidate
    // list — monotone. With local-search polish the hill-climb
    // trajectory depends on which moves the bounds permit, and on
    // heterogeneous platforms the allocator itself is bounds-driven:
    // neither answer transfers across bounds.
    return !local_search_ && instance.platform.is_homogeneous();
  }

  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    HeuristicOptions options;
    options.period_bound = bounds.period_bound;
    options.latency_bound = bounds.latency_bound;
    auto heuristic =
        run_heuristic(instance.chain, instance.platform, kind_, options);
    if (!heuristic) return std::nullopt;
    if (local_search_) return polish(instance, *heuristic, bounds);
    return Solution{std::move(heuristic->mapping), heuristic->metrics};
  }

  std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const override {
    // The candidate cache is only valid where allocation ignores the
    // bounds (homogeneous platforms).
    if (instance.platform.is_homogeneous()) {
      return std::make_unique<HomHeuristicSession>(instance, kind_,
                                                   local_search_);
    }
    return Solver::prepare(instance);
  }

 private:
  HeuristicKind kind_;
  bool local_search_;
};

// --------------------------------------------------------------- baseline

class BaselineAdapter final : public Solver {
 public:
  std::string name() const override { return "baseline"; }
  std::string description() const override {
    return "one task per interval with Algo-Alloc replication (needs "
           "n <= p)";
  }
  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override {
    AllocOptions options;
    options.period_bound = bounds.period_bound;
    auto solution =
        one_to_one_mapping(instance.chain, instance.platform, options);
    if (!solution) return std::nullopt;
    return accept_if_within(std::move(solution->mapping), solution->metrics,
                            bounds);
  }
};

}  // namespace

std::shared_ptr<const Solver> make_exact_solver() {
  return std::make_shared<ExactAdapter>();
}

std::shared_ptr<const Solver> make_ilp_solver() {
  return std::make_shared<IlpAdapter>();
}

std::shared_ptr<const Solver> make_dp_solver() {
  return std::make_shared<DpAdapter>();
}

std::shared_ptr<const Solver> make_period_dp_solver() {
  return std::make_shared<PeriodDpAdapter>();
}

std::shared_ptr<const Solver> make_heuristic_solver(HeuristicKind kind,
                                                    bool local_search) {
  return std::make_shared<HeuristicAdapter>(kind, local_search);
}

std::shared_ptr<const Solver> make_baseline_solver() {
  return std::make_shared<BaselineAdapter>();
}

void register_builtin_solvers(SolverRegistry& registry) {
  registry.add(make_exact_solver());
  registry.add(make_ilp_solver());
  registry.add(make_dp_solver());
  registry.add(make_period_dp_solver());
  registry.add(make_heuristic_solver(HeuristicKind::kHeurL, false));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurP, false));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurL, true));
  registry.add(make_heuristic_solver(HeuristicKind::kHeurP, true));
  registry.add(make_baseline_solver());
}

}  // namespace prts::solver
