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
// the table. The enumeration keeps only its staircase (ExactStaircase):
// the ~30 records that answer some (period, latency) query, each with
// its replica counts. A staircase holds no reference into the instance,
// so the solver adapter (src/solver/adapters.cpp) keeps one per instance
// in an ExactStaircaseStore and every session of an equal instance reads
// it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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

/// The product of one partition enumeration: the records that are the
/// first maximum of log-reliability for some (period, latency) query,
/// in enumeration order. Record i survives when no earlier record has
/// period <=, latency <= and log-reliability >= its own, and no later
/// record has period <=, latency <= and log-reliability >; every
/// comparison is exact. The first-max scan over the survivors is
/// therefore the first-max scan over all partitions, for every bounds
/// pair — about 30 records of the 14 913 at the paper's n = 15, p = 10.
///
/// A record carries its Algo-Alloc replica counts, so a staircase holds
/// no reference into the instance it was built from: it is immutable and
/// can be shared by every solver of an equal instance.
class ExactStaircase {
 public:
  /// One surviving partition with its optimal allocation.
  struct Record {
    double period = 0.0;              ///< = worst = expected period
    double latency = 0.0;             ///< = worst = expected latency
    double log_reliability = 0.0;     ///< after optimal allocation
    std::uint64_t interval_ends = 0;  ///< bit i: an interval ends at task i
    std::uint32_t replicas_begin = 0;  ///< first of its counts in replicas()
  };

  /// Enumerates every partition and keeps the staircase. Throws
  /// std::invalid_argument where HomogeneousExactSolver::accepts is false.
  ExactStaircase(const TaskChain& chain, const Platform& platform);

  std::span<const Record> records() const noexcept { return records_; }

  /// The record's Algo-Alloc replica counts, one per interval in chain
  /// order.
  std::span<const unsigned> replicas(const Record& record) const noexcept {
    return {replicas_.data() + record.replicas_begin,
            static_cast<std::size_t>(std::popcount(record.interval_ends))};
  }

  /// Partitions the enumeration visited (HomogeneousExactSolver::
  /// record_count of the instance).
  std::size_t partitions() const noexcept { return partitions_; }

  /// The record's mapping: its partition, with its replica counts and
  /// processor ids dealt in chain order.
  Mapping mapping(const Record& record) const;

  /// First record of maximal log-reliability within the bounds, or
  /// nullptr when no partition fits.
  const Record* best_record(double period_bound,
                            double latency_bound) const noexcept;

  /// Enumerations this process has run, over all instances: the count
  /// tests and benches gate on to show a build was shared.
  static std::uint64_t enumerations() noexcept;

 private:
  std::size_t task_count_ = 0;
  std::size_t partitions_ = 0;
  std::vector<Record> records_;
  std::vector<unsigned> replicas_;
};

/// Answers (period, latency) queries on one instance from its staircase.
/// Build once per instance (or share a staircase across equal
/// instances), query per sweep point.
class HomogeneousExactSolver {
 public:
  /// Most tasks the interval-end mask can describe.
  static constexpr std::size_t kMaxTaskCount = 64;
  /// Most partitions one enumeration visits.
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 22;
  /// Most stage log-reliabilities one enumeration tabulates (128 MB).
  static constexpr std::size_t kMaxTableEntries = std::size_t{1} << 24;

  /// Enumerates the instance's staircase. Throws std::invalid_argument on
  /// a heterogeneous platform (the problem is NP-complete there) and on
  /// an instance outside the bounds above (see accepts()).
  HomogeneousExactSolver(const TaskChain& chain, const Platform& platform);

  /// Answers from a staircase already built for an equal instance.
  HomogeneousExactSolver(const TaskChain& chain, const Platform& platform,
                         std::shared_ptr<const ExactStaircase> staircase);

  /// True when the enumeration accepts the instance: a homogeneous
  /// platform, at most kMaxTaskCount tasks, at most kMaxRecords
  /// partitions and at most kMaxTableEntries table entries.
  static bool accepts(const TaskChain& chain,
                      const Platform& platform) noexcept;

  /// Number of partitions of n tasks into at most p intervals, the sum
  /// over k < min(n, p) of C(n-1, k); saturates at kMaxRecords + 1.
  static std::size_t record_count(std::size_t task_count,
                                  std::size_t processor_count) noexcept;

  const ExactStaircase& staircase() const noexcept { return *staircase_; }

  /// The record's mapping (ExactStaircase::mapping).
  Mapping mapping(const ExactStaircase::Record& record) const {
    return staircase_->mapping(record);
  }

  /// Best log-reliability achievable with period <= period_bound and
  /// latency <= latency_bound, or nullopt when no partition fits.
  std::optional<double> best_log_reliability(double period_bound,
                                             double latency_bound) const;

  /// Like best_log_reliability, but materializes the optimal mapping
  /// and its metrics.
  std::optional<ExactSolution> solve(double period_bound,
                                     double latency_bound) const;

 private:
  const TaskChain& chain_;
  const Platform& platform_;
  std::shared_ptr<const ExactStaircase> staircase_;
};

/// A bounded store of immutable staircases, keyed by an instance's
/// lossless text (CanonicalInstanceText), which a lookup compares in
/// full. Concurrent gets of one key share one build: the first caller
/// builds, later callers wait for it. A build that throws hands its
/// exception to every waiter and leaves no entry. Past kCapacity keys
/// the least recently used entry goes. Thread-safe.
class ExactStaircaseStore {
 public:
  static constexpr std::size_t kCapacity = 64;

  using Build = std::function<std::shared_ptr<const ExactStaircase>()>;

  /// The staircase stored under `key`, built by `build` when there is
  /// none.
  std::shared_ptr<const ExactStaircase> get(std::string_view key,
                                            const Build& build);

  /// Keys stored, builds in flight included.
  std::size_t size() const;

 private:
  struct Entry {
    std::size_t hash = 0;
    std::string key;
    std::shared_future<std::shared_ptr<const ExactStaircase>> staircase;
    std::uint64_t id = 0;  ///< the clock at insertion
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
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
