// Exact tri-criteria optimization on homogeneous platforms: maximize
// reliability subject to period and latency bounds. This plays the role
// of the Section 5.4 integer linear program (the paper solves it with
// CPLEX, which is proprietary; see DESIGN.md for the substitution
// argument).
//
// Key structural facts (Section 5.5): on a homogeneous platform the
// period and latency of a mapping depend only on the partition, and for a
// fixed partition the optimal replication is Algo-Alloc (Theorem 4). The
// optimum over mappings is therefore the optimum over the partitions of
// the chain into at most min(n,p) intervals — 14 913 of the 16 384 at the
// paper's n = 15, p = 10, each allocated greedily in O(p m).
//
// The enumeration is table driven: the stage log-reliability
// log1p(-f^q) of every candidate interval and every replica count q is
// computed once, and each partition's Algo-Alloc reads its gains from
// the table. A record is four words (period, latency, log-reliability,
// interval-end mask); mapping() rebuilds the partition and replicas of
// any record on demand.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Most tasks the interval-end mask can describe.
  static constexpr std::size_t kMaxTaskCount = 64;
  /// Most partition records one solver holds (128 MB of records).
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 22;
  /// Most stage log-reliabilities one solver tabulates (128 MB).
  static constexpr std::size_t kMaxTableEntries = std::size_t{1} << 24;

  /// Precomputes all partition records. Throws std::invalid_argument on a
  /// heterogeneous platform (the problem is NP-complete there) and on an
  /// instance outside the bounds above (see accepts()).
  HomogeneousExactSolver(const TaskChain& chain, const Platform& platform);

  /// True when the constructor accepts the instance: a homogeneous
  /// platform, at most kMaxTaskCount tasks, at most kMaxRecords
  /// partitions and at most kMaxTableEntries table entries.
  static bool accepts(const TaskChain& chain,
                      const Platform& platform) noexcept;

  /// Number of partitions of n tasks into at most p intervals, the sum
  /// over k < min(n, p) of C(n-1, k); saturates at kMaxRecords + 1.
  static std::size_t record_count(std::size_t task_count,
                                  std::size_t processor_count) noexcept;

  /// One enumerated partition with its optimal allocation.
  struct PartitionRecord {
    double period = 0.0;           ///< = worst = expected period
    double latency = 0.0;          ///< = worst = expected latency
    double log_reliability = 0.0;  ///< after optimal allocation
    std::uint64_t interval_ends = 0;  ///< bit i: an interval ends at task i
  };

  std::span<const PartitionRecord> records() const noexcept {
    return records_;
  }

  /// The record's mapping: its partition, with the Algo-Alloc replica
  /// counts and processor ids dealt in chain order.
  Mapping mapping(const PartitionRecord& record) const;

  /// Best log-reliability achievable with period <= period_bound and
  /// latency <= latency_bound, or nullopt when no partition fits.
  std::optional<double> best_log_reliability(double period_bound,
                                             double latency_bound) const;

  /// Like best_log_reliability, but materializes the optimal mapping
  /// and its metrics.
  std::optional<ExactSolution> solve(double period_bound,
                                     double latency_bound) const;

 private:
  /// First record of maximal log-reliability within the bounds.
  const PartitionRecord* best_record(double period_bound,
                                     double latency_bound) const noexcept;

  /// Stage log-reliabilities of the interval first..last:
  /// row[q] = log1p(-f^q) for q in [0, min(K, p)].
  const double* stage_row(std::size_t first, std::size_t last) const noexcept {
    return stage_table_.data() +
           (first * chain_.size() + last) * row_length_;
  }

  const TaskChain& chain_;
  const Platform& platform_;
  std::size_t row_length_ = 0;
  std::vector<double> stage_table_;  ///< n x n rows of row_length_
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
