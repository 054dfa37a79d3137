// The uniform solver abstraction: every optimization engine in src/core/
// (exact enumeration, ILP branch-and-bound, the Section 5 dynamic
// programs, both Section 7 heuristics, local search, the one-to-one
// baseline) is exposed behind one interface, in the spirit of the
// black-box-solver framing of Wang et al. and the portfolio-of-methods
// view of Benoit et al.: a solver takes an instance plus (period,
// latency) bounds and returns the best mapping it can find, or nothing.
//
// Engines whose per-instance setup dominates per-query work (the
// homogeneous exact solver enumerates all 2^(n-1) partitions once and
// then answers any bound query by a scan of the few that can win)
// additionally override prepare(), which returns a per-instance session
// answering many bound queries cheaply — the campaign engine
// (src/scenario/) drives every sweep through prepare() so the old
// hand-rolled per-method caching in src/exp/runner.cpp is subsumed
// rather than lost.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/serialize.hpp"

namespace prts::solver {

/// The tri-criteria query bounds (Section 2.6): maximize reliability
/// subject to worst-case period and latency caps. Infinity relaxes a
/// bound.
struct Bounds {
  double period_bound = std::numeric_limits<double>::infinity();
  double latency_bound = std::numeric_limits<double>::infinity();
};

/// A solver answer: the mapping and its full evaluation.
struct Solution {
  Mapping mapping;
  MappingMetrics metrics;
};

/// True when the metrics satisfy both worst-case bounds.
bool within_bounds(const MappingMetrics& metrics,
                   const Bounds& bounds) noexcept;

/// The tri-criteria preference order used for best-of selection across
/// solvers: higher reliability first, then lower worst-case period, then
/// lower worst-case latency, then fewer processors used. Returns true
/// when `a` is strictly preferred to `b`.
bool tri_criteria_better(const MappingMetrics& a,
                         const MappingMetrics& b) noexcept;

/// A per-instance solving session (see Solver::prepare). Sessions keep
/// references into the instance they were prepared from; the instance
/// and the parent solver must outlive the session.
class PreparedSolver {
 public:
  virtual ~PreparedSolver() = default;

  /// Best solution under the bounds, or nullopt when the engine finds
  /// none.
  virtual std::optional<Solution> solve(const Bounds& bounds) const = 0;
};

/// Runs `session.solve(bounds)` and reports the wall-clock solve time
/// through `seconds`. One shared timing point, so the cache's per-entry
/// cost accounting and the telemetry histograms can never disagree
/// about what a solve cost.
std::optional<Solution> timed_solve(const PreparedSolver& session,
                                    const Bounds& bounds, double& seconds);

/// The uniform engine interface. Implementations are thread-safe:
/// concurrent solve()/prepare() calls on one solver object are safe.
/// They are stateless with one exception: the `exact` adapter keeps a
/// bounded store of immutable per-instance staircases, so every session
/// of an equal instance shares one enumeration. Its answers do not
/// depend on what the store holds.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Stable registry key ("exact", "heur-l", ...).
  virtual std::string name() const = 0;

  /// One human-readable line for `prts_cli solvers`.
  virtual std::string description() const { return ""; }

  /// True when the engine can handle the instance (e.g. the homogeneous
  /// exact methods reject heterogeneous platforms). solve() on an
  /// unsupported instance returns nullopt instead of throwing.
  virtual bool supports(const Instance& instance) const {
    (void)instance;
    return true;
  }

  /// Best solution under the bounds, or nullopt (infeasible bounds or
  /// unsupported instance).
  virtual std::optional<Solution> solve(const Instance& instance,
                                        const Bounds& bounds) const = 0;

  /// True when the engine's answer for `instance` is the argmax of a
  /// fixed preference order over a *fixed, bounds-filtered* candidate
  /// set (first winner kept on ties). For such engines the answer is
  /// bounds-monotone: the answer for looser bounds, when it satisfies
  /// tighter bounds, *is* the answer for the tighter bounds (the
  /// feasible set only shrinks, and a first-wins argmax of a superset
  /// that lies in the subset is the argmax of the subset) — and
  /// infeasibility at looser bounds implies infeasibility at tighter
  /// ones. The solve service uses this to answer near-miss cache
  /// lookups without invoking the solver at all. Engines whose search
  /// trajectory depends on the bounds (bounded DPs with tie-dependent
  /// reconstructions, bounds-driven heuristics, local search) must
  /// return false.
  virtual bool bounds_monotone(const Instance& instance) const {
    (void)instance;
    return false;
  }

  /// Per-instance session for answering many bound queries (sweeps).
  /// The default simply forwards to solve(); engines with expensive
  /// instance setup override it. The instance must outlive the session.
  virtual std::unique_ptr<PreparedSolver> prepare(
      const Instance& instance) const;
};

}  // namespace prts::solver
