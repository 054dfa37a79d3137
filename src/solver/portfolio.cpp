#include "solver/portfolio.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace prts::solver {
namespace {

/// One prepared member session per supported engine, run in member
/// order on the caller's thread: the engine workers and the campaign
/// runner are the parallel layers, so a pool here only oversubscribes.
class PortfolioSession final : public PreparedSolver {
 public:
  PortfolioSession(const std::vector<PortfolioMember>& members,
                   const Instance& instance) {
    for (const PortfolioMember& member : members) {
      if (!member.solver->supports(instance)) continue;
      entries_.push_back(Entry{member.solver->prepare(instance),
                               member.time_budget_seconds});
    }
  }

  std::optional<Solution> solve(const Bounds& bounds) const override {
    std::optional<Solution> best;
    for (const Entry& entry : entries_) {
      const auto start = std::chrono::steady_clock::now();
      auto answer = entry.session->solve(bounds);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      // Engines are uninterruptible black boxes: the budget gates which
      // answers count, not how long the member runs.
      if (elapsed > entry.time_budget_seconds) continue;
      // Best in-bounds answer; ties go to the earliest member, so
      // selection is deterministic for a fixed member order.
      if (!answer || !within_bounds(answer->metrics, bounds)) continue;
      if (!best || tri_criteria_better(answer->metrics, best->metrics)) {
        best = std::move(answer);
      }
    }
    return best;
  }

 private:
  struct Entry {
    std::unique_ptr<PreparedSolver> session;
    double time_budget_seconds;
  };

  std::vector<Entry> entries_;
};

}  // namespace

PortfolioSolver::PortfolioSolver(std::string name,
                                 std::vector<PortfolioMember> members)
    : name_(std::move(name)), members_(std::move(members)) {
  for (const PortfolioMember& member : members_) {
    if (!member.solver) {
      throw std::invalid_argument("PortfolioSolver: null member solver");
    }
  }
}

std::string PortfolioSolver::description() const {
  std::string text = "portfolio of";
  for (const PortfolioMember& member : members_) {
    text += ' ';
    text += member.solver->name();
  }
  return text;
}

bool PortfolioSolver::supports(const Instance& instance) const {
  for (const PortfolioMember& member : members_) {
    if (member.solver->supports(instance)) return true;
  }
  return false;
}

std::optional<Solution> PortfolioSolver::solve(const Instance& instance,
                                               const Bounds& bounds) const {
  return PortfolioSession(members_, instance).solve(bounds);
}

std::unique_ptr<PreparedSolver> PortfolioSolver::prepare(
    const Instance& instance) const {
  return std::make_unique<PortfolioSession>(members_, instance);
}

std::shared_ptr<const Solver> make_portfolio(
    const SolverRegistry& registry, const std::string& name,
    const std::vector<std::string>& member_names,
    double time_budget_seconds) {
  if (member_names.empty()) {
    throw std::invalid_argument("make_portfolio: empty member list");
  }
  std::vector<PortfolioMember> members;
  members.reserve(member_names.size());
  for (const std::string& member_name : member_names) {
    auto solver = registry.find(member_name);
    if (!solver) {
      throw std::invalid_argument("make_portfolio: unknown solver '" +
                                  member_name + "'");
    }
    members.push_back(PortfolioMember{std::move(solver),
                                      time_budget_seconds});
  }
  return std::make_shared<PortfolioSolver>(name, std::move(members));
}

}  // namespace prts::solver
