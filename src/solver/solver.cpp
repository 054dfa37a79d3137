#include "solver/solver.hpp"

#include <chrono>

namespace prts::solver {
namespace {

/// Default session: no per-instance state, every query is a fresh solve.
class ForwardingSession final : public PreparedSolver {
 public:
  ForwardingSession(const Solver& solver, const Instance& instance)
      : solver_(solver), instance_(instance) {}

  std::optional<Solution> solve(const Bounds& bounds) const override {
    return solver_.solve(instance_, bounds);
  }

 private:
  const Solver& solver_;
  const Instance& instance_;
};

}  // namespace

bool within_bounds(const MappingMetrics& metrics,
                   const Bounds& bounds) noexcept {
  return metrics.worst_period <= bounds.period_bound &&
         metrics.worst_latency <= bounds.latency_bound;
}

bool tri_criteria_better(const MappingMetrics& a,
                         const MappingMetrics& b) noexcept {
  if (a.reliability.log() != b.reliability.log()) {
    return a.reliability.log() > b.reliability.log();
  }
  if (a.worst_period != b.worst_period) {
    return a.worst_period < b.worst_period;
  }
  if (a.worst_latency != b.worst_latency) {
    return a.worst_latency < b.worst_latency;
  }
  return a.processors_used < b.processors_used;
}

std::optional<Solution> timed_solve(const PreparedSolver& session,
                                    const Bounds& bounds, double& seconds) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<Solution> solution = session.solve(bounds);
  seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  return solution;
}

std::unique_ptr<PreparedSolver> Solver::prepare(
    const Instance& instance) const {
  return std::make_unique<ForwardingSession>(*this, instance);
}

}  // namespace prts::solver
