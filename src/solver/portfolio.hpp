// Portfolio solving: run a query through several registered engines in
// member order, discard members that blow their time budget, and keep
// the best answer under the tri-criteria ordering. This is the
// portfolio-of-methods pattern: heuristics answer quickly on every
// platform, exact engines answer optimally where they apply, and the
// portfolio returns the best of whatever came back in time. Members run
// on the caller's thread; the solve engine's workers and the campaign
// runner are the parallel layers above it.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "solver/registry.hpp"
#include "solver/solver.hpp"

namespace prts::solver {

/// One engine in the portfolio with its wall-clock budget. Engines are
/// cooperative black boxes (they cannot be interrupted); a member whose
/// solve ran longer than its budget has its answer discarded, so budgets
/// shape selection, not execution.
struct PortfolioMember {
  std::shared_ptr<const Solver> solver;
  double time_budget_seconds = std::numeric_limits<double>::infinity();
};

/// Runs its members in order and selects the best in-budget feasible
/// answer (tri-criteria ordering, ties to the earliest member, so
/// selection is deterministic for a fixed member order).
class PortfolioSolver final : public Solver {
 public:
  /// Members must be non-null (throws std::invalid_argument otherwise).
  PortfolioSolver(std::string name, std::vector<PortfolioMember> members);

  std::string name() const override { return name_; }
  std::string description() const override;

  /// True when any member supports the instance.
  bool supports(const Instance& instance) const override;

  std::optional<Solution> solve(const Instance& instance,
                                const Bounds& bounds) const override;

  /// Prepares every supported member once and runs the member sessions
  /// per query — campaign sweeps pay the expensive per-instance engine
  /// setups once, not per sweep point. The `exact` member's prepare reads
  /// (or waits for) the staircase an `exact` session of the same
  /// instance built; that wait is here, outside the timed member solves.
  std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const override;

  std::size_t member_count() const noexcept { return members_.size(); }

 private:
  std::string name_;
  std::vector<PortfolioMember> members_;
};

/// Builds a portfolio from registry names with one shared budget. Throws
/// std::invalid_argument on an unknown name or an empty list.
std::shared_ptr<const Solver> make_portfolio(
    const SolverRegistry& registry, const std::string& name,
    const std::vector<std::string>& member_names,
    double time_budget_seconds = std::numeric_limits<double>::infinity());

}  // namespace prts::solver
