#include "solver/registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/heuristics.hpp"
#include "solver/adapters.hpp"
#include "solver/portfolio.hpp"

namespace prts::solver {

void SolverRegistry::add(std::shared_ptr<const Solver> solver) {
  if (!solver) {
    throw std::invalid_argument("SolverRegistry::add: null solver");
  }
  const std::string name = solver->name();
  if (name.empty()) {
    throw std::invalid_argument("SolverRegistry::add: empty solver name");
  }
  const auto [it, inserted] = solvers_.emplace(name, std::move(solver));
  (void)it;
  if (!inserted) {
    throw std::invalid_argument("SolverRegistry::add: duplicate solver '" +
                                name + "'");
  }
}

std::shared_ptr<const Solver> SolverRegistry::find(
    const std::string& name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : it->second;
}

bool SolverRegistry::contains(const std::string& name) const {
  return solvers_.count(name) > 0;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(solvers_.size());
  for (const auto& [name, solver] : solvers_) result.push_back(name);
  return result;
}

const SolverRegistry& SolverRegistry::builtin() {
  static const SolverRegistry registry = [] {
    SolverRegistry built;
    register_builtin_solvers(built);
    // The default portfolio: exact answers where it applies, the heuristics
    // cover heterogeneous platforms, the baseline backstops tiny chains.
    built.add(std::make_shared<PortfolioSolver>(
        "portfolio",
        std::vector<PortfolioMember>{
            PortfolioMember{built.find("exact")},
            PortfolioMember{built.find("heur-l+ls")},
            PortfolioMember{built.find("heur-p+ls")},
            PortfolioMember{built.find("baseline")},
        }));
    return built;
  }();
  return registry;
}

}  // namespace prts::solver
