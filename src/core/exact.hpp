// Exact tri-criteria optimization on homogeneous platforms: maximize
// reliability subject to period and latency bounds. This plays the role
// of the Section 5.4 integer linear program (the paper solves it with
// CPLEX, which is proprietary; see DESIGN.md for the substitution
// argument).
//
// Key structural facts (Section 5.5): on a homogeneous platform the
// period and latency of a mapping depend only on the partition, and for a
// fixed partition the optimal replication is Algo-Alloc (Theorem 4). The
// optimum over mappings is therefore the optimum over the 2^(n-1)
// partitions with at most min(n,p) intervals — 16 384 partitions at the
// paper's n = 15, each allocated greedily in O(p m).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// An exact optimum with its full evaluation.
struct ExactSolution {
  Mapping mapping;
  MappingMetrics metrics;
};

/// Enumerates every partition once, attaches the Algo-Alloc reliability,
/// and answers (period, latency) queries by linear scan. Build once per
/// instance, query per sweep point.
class HomogeneousExactSolver {
 public:
  /// Precomputes all partition records. Throws std::invalid_argument on a
  /// heterogeneous platform (the problem is NP-complete there).
  HomogeneousExactSolver(const TaskChain& chain, const Platform& platform);

  /// One enumerated partition with its optimal allocation.
  struct PartitionRecord {
    std::vector<std::size_t> lasts;   ///< last task of each interval
    std::vector<unsigned> replicas;   ///< Algo-Alloc replica counts
    double period = 0.0;              ///< = worst = expected period
    double latency = 0.0;             ///< = worst = expected latency
    double log_reliability = 0.0;     ///< after optimal allocation
  };

  std::span<const PartitionRecord> records() const noexcept {
    return records_;
  }

  /// Best log-reliability achievable with period <= period_bound and
  /// latency <= latency_bound, or nullopt when no partition fits.
  std::optional<double> best_log_reliability(double period_bound,
                                             double latency_bound) const;

  /// Like best_log_reliability, but materializes the optimal mapping
  /// (processor ids dealt in chain order) and its metrics.
  std::optional<ExactSolution> solve(double period_bound,
                                     double latency_bound) const;

 private:
  const TaskChain& chain_;
  const Platform& platform_;
  std::vector<PartitionRecord> records_;
};

/// Pseudo-polynomial cross-check of the enumeration solver: a DP over
/// (prefix, processors used, accumulated latency) that requires every
/// interval computation time W/s and communication time o/b to be
/// integral (throws std::invalid_argument otherwise). Returns the best
/// log-reliability under the bounds, or nullopt when infeasible. Used by
/// tests; the enumeration solver is the production path.
std::optional<double> exact_dp_log_reliability(const TaskChain& chain,
                                               const Platform& platform,
                                               double period_bound,
                                               double latency_bound);

}  // namespace prts
