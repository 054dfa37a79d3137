// The Section 5.4 integer linear program, as data plus an exact solver.
//
// Variables a_{i,j,k} = 1 iff tasks i..j form one interval replicated on k
// processors. Constraints: every task in exactly one interval, at most p
// processors used in total, total latency within the bound, and no chosen
// interval may violate the period bound. Objective: maximize the sum of
// log stage reliabilities (the log of Eq. (9)).
//
// The paper solves this with CPLEX; we provide an in-house exact
// branch-and-bound that branches on the next interval (end, replication)
// along the chain and prunes with an admissible latency-free DP bound.
// Note: the paper's printed objective omits the communication
// reliabilities r_comm; by default we include them so that the ILP
// optimizes the same Eq. (9) objective as every other method (set
// include_comm_reliability = false for the literal printed coefficient).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// The ILP over interval variables.
class IlpFormulation {
 public:
  /// One 0-1 variable a_{first..last, replicas} with its objective
  /// coefficient log(1 - f^replicas).
  struct Variable {
    std::size_t first = 0;
    std::size_t last = 0;
    unsigned replicas = 0;
    double objective = 0.0;
    bool period_feasible = true;  ///< false when the period rows force 0
  };

  /// Builds all O(n^2 K) variables. Homogeneous platforms only (throws
  /// std::invalid_argument otherwise).
  IlpFormulation(const TaskChain& chain, const Platform& platform,
                 double period_bound, double latency_bound,
                 bool include_comm_reliability = true);

  std::span<const Variable> variables() const noexcept { return variables_; }

  /// Checks every constraint row for a 0/1 assignment over variables();
  /// returns an explanation of the first violated row, or nullopt.
  std::optional<std::string> violated_constraint(
      std::span<const std::uint8_t> assignment) const;

  /// Objective value of an assignment (sum of chosen coefficients).
  double objective_value(std::span<const std::uint8_t> assignment) const;

  const TaskChain& chain() const noexcept { return chain_; }
  const Platform& platform() const noexcept { return platform_; }
  double period_bound() const noexcept { return period_bound_; }
  double latency_bound() const noexcept { return latency_bound_; }

 private:
  const TaskChain& chain_;
  const Platform& platform_;
  double period_bound_;
  double latency_bound_;
  std::vector<Variable> variables_;
};

/// An optimal ILP solution: the chosen variables (indices into
/// formulation.variables()), the induced mapping (processor ids dealt in
/// chain order) and the objective (= log reliability).
struct IlpSolution {
  std::vector<std::size_t> chosen;
  Mapping mapping;
  double objective = 0.0;
};

/// Exact branch-and-bound over the chain structure. Returns nullopt when
/// the constraints are infeasible.
std::optional<IlpSolution> solve_ilp(const IlpFormulation& formulation);

}  // namespace prts
