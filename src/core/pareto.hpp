// Pareto-front exploration over the three antagonistic criteria
// (worst-case period, worst-case latency, failure probability). Used by
// the examples to show the trade-offs the paper's introduction discusses.
#pragma once

#include <vector>

#include "core/heuristics.hpp"
#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts {

/// A schedule on the front.
struct ParetoPoint {
  Mapping mapping;
  MappingMetrics metrics;
};

/// Filters a candidate set down to the non-dominated points (strictly
/// better in at least one of period/latency/failure, no worse in all).
/// Deterministic order: by period, then latency.
std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> candidates);

/// The exact Pareto front on a homogeneous platform, from the exhaustive
/// partition enumeration (every partition with its optimal allocation),
/// filtered from the enumeration's staircase.
std::vector<ParetoPoint> exact_pareto_front(const TaskChain& chain,
                                            const Platform& platform);

/// A heuristic front for any platform: candidates from both heuristics
/// at every interval count, allocated both without a period bound and at
/// each candidate's own period (tightened allocation), then filtered.
std::vector<ParetoPoint> heuristic_pareto_front(const TaskChain& chain,
                                                const Platform& platform);

}  // namespace prts
