#include "core/pareto.hpp"

#include <algorithm>

#include "core/exact.hpp"

namespace prts {
namespace {

/// a dominates b: no worse on all three criteria, strictly better on one.
bool dominates(const MappingMetrics& a, const MappingMetrics& b) {
  const bool no_worse = a.worst_period <= b.worst_period &&
                        a.worst_latency <= b.worst_latency &&
                        a.failure <= b.failure;
  const bool better = a.worst_period < b.worst_period ||
                      a.worst_latency < b.worst_latency ||
                      a.failure < b.failure;
  return no_worse && better;
}

}  // namespace

std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> candidates) {
  std::vector<ParetoPoint> front;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j) {
      if (i == j) continue;
      if (dominates(candidates[j].metrics, candidates[i].metrics)) {
        dominated = true;
      }
      // Of equal points keep only the first.
      if (j < i &&
          candidates[j].metrics.worst_period ==
              candidates[i].metrics.worst_period &&
          candidates[j].metrics.worst_latency ==
              candidates[i].metrics.worst_latency &&
          candidates[j].metrics.failure == candidates[i].metrics.failure) {
        dominated = true;
      }
    }
    if (!dominated) front.push_back(std::move(candidates[i]));
  }
  std::sort(front.begin(), front.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.metrics.worst_period != b.metrics.worst_period) {
                return a.metrics.worst_period < b.metrics.worst_period;
              }
              return a.metrics.worst_latency < b.metrics.worst_latency;
            });
  return front;
}

std::vector<ParetoPoint> exact_pareto_front(const TaskChain& chain,
                                            const Platform& platform) {
  // Every point of the front wins some (period, latency) query, so the
  // staircase holds it.
  const ExactStaircase staircase(chain, platform);
  std::vector<ParetoPoint> candidates;
  candidates.reserve(staircase.records().size());
  for (const auto& record : staircase.records()) {
    Mapping mapping = staircase.mapping(record);
    MappingMetrics metrics = evaluate(chain, platform, mapping);
    candidates.push_back(ParetoPoint{std::move(mapping), metrics});
  }
  return pareto_filter(std::move(candidates));
}

std::vector<ParetoPoint> heuristic_pareto_front(const TaskChain& chain,
                                                const Platform& platform) {
  std::vector<ParetoPoint> candidates;
  for (HeuristicKind kind :
       {HeuristicKind::kHeurL, HeuristicKind::kHeurP}) {
    // Unbounded allocation first.
    for (auto& sol : heuristic_candidates(chain, platform, kind)) {
      candidates.push_back(
          ParetoPoint{std::move(sol.mapping), sol.metrics});
    }
    // Re-allocate with each candidate's own achieved period as the bound:
    // on heterogeneous platforms this can exclude slow processors and
    // trade reliability for period.
    std::vector<double> periods;
    for (const auto& point : candidates) {
      periods.push_back(point.metrics.worst_period);
    }
    std::sort(periods.begin(), periods.end());
    periods.erase(std::unique(periods.begin(), periods.end()),
                  periods.end());
    for (double period : periods) {
      HeuristicOptions options;
      options.period_bound = period;
      for (auto& sol :
           heuristic_candidates(chain, platform, kind, options)) {
        candidates.push_back(
            ParetoPoint{std::move(sol.mapping), sol.metrics});
      }
    }
  }
  return pareto_filter(std::move(candidates));
}

}  // namespace prts
