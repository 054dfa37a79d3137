#include "core/heuristics.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace prts {

IntervalPartition heur_l_partition(const TaskChain& chain,
                                   std::size_t interval_count) {
  const std::size_t n = chain.size();
  if (interval_count < 1 || interval_count > n) {
    throw std::invalid_argument("heur_l_partition: bad interval count");
  }
  // Candidate cut after task t costs o_t; pick the interval_count-1
  // cheapest cuts (ties by position, like the paper's stable sort).
  std::vector<std::size_t> cuts(n - 1);
  std::iota(cuts.begin(), cuts.end(), std::size_t{0});
  std::sort(cuts.begin(), cuts.end(), [&](std::size_t a, std::size_t b) {
    if (chain.out_size(a) != chain.out_size(b)) {
      return chain.out_size(a) < chain.out_size(b);
    }
    return a < b;
  });
  cuts.resize(interval_count - 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(n - 1);
  return IntervalPartition::from_boundaries(cuts, n);
}

IntervalPartition heur_p_partition(const TaskChain& chain,
                                   std::size_t interval_count, double speed,
                                   double bandwidth) {
  const std::size_t n = chain.size();
  if (interval_count < 1 || interval_count > n) {
    throw std::invalid_argument("heur_p_partition: bad interval count");
  }
  const auto inf = std::numeric_limits<double>::infinity();

  // Contribution of the interval covering tasks a..b (inclusive) to the
  // period: its computation time and its outgoing communication time.
  auto contribution = [&](std::size_t a, std::size_t b) {
    return std::max(chain.work_sum(a, b) / speed,
                    chain.out_size(b) / bandwidth);
  };

  // F[j][k]: minimal max-contribution for the first j tasks split into k
  // intervals; choice[j][k] is the preceding prefix length.
  std::vector<std::vector<double>> F(
      n + 1, std::vector<double>(interval_count + 1, inf));
  std::vector<std::vector<std::size_t>> choice(
      n + 1, std::vector<std::size_t>(interval_count + 1, 0));
  F[0][0] = 0.0;
  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t k_hi = std::min(interval_count, j);
    for (std::size_t k = 1; k <= k_hi; ++k) {
      for (std::size_t prev = k - 1; prev < j; ++prev) {
        if (F[prev][k - 1] == inf) continue;
        const double value =
            std::max(F[prev][k - 1], contribution(prev, j - 1));
        if (value < F[j][k]) {
          F[j][k] = value;
          choice[j][k] = prev;
        }
      }
    }
  }

  std::vector<std::size_t> lasts;
  std::size_t j = n;
  for (std::size_t k = interval_count; k >= 1; --k) {
    lasts.push_back(j - 1);
    j = choice[j][k];
  }
  std::reverse(lasts.begin(), lasts.end());
  return IntervalPartition::from_boundaries(lasts, n);
}

std::vector<HeuristicSolution> heuristic_candidates(
    const TaskChain& chain, const Platform& platform, HeuristicKind kind,
    const HeuristicOptions& options) {
  const std::size_t max_intervals =
      std::min(chain.size(), platform.processor_count());
  // Heur-P balances with the platform speed when it is meaningful (all
  // equal); otherwise the paper's unit-speed balancing applies.
  const double balance_speed =
      platform.is_homogeneous() ? platform.speed(0) : 1.0;

  AllocOptions alloc_options;
  alloc_options.period_bound = options.period_bound;
  alloc_options.constraints = options.constraints;

  std::vector<HeuristicSolution> candidates;
  for (std::size_t i = 1; i <= max_intervals; ++i) {
    IntervalPartition partition =
        kind == HeuristicKind::kHeurL
            ? heur_l_partition(chain, i)
            : heur_p_partition(chain, i, balance_speed,
                               platform.bandwidth());
    auto mapping =
        allocate_processors(chain, platform, partition, alloc_options);
    if (!mapping) continue;
    MappingMetrics metrics = evaluate(chain, platform, *mapping);
    candidates.push_back(HeuristicSolution{std::move(*mapping), metrics});
  }
  return candidates;
}

const HeuristicSolution* best_heuristic_candidate(
    std::span<const HeuristicSolution> candidates, double period_bound,
    double latency_bound, bool use_expected_metrics) {
  const HeuristicSolution* best = nullptr;
  for (const HeuristicSolution& candidate : candidates) {
    const double period = use_expected_metrics
                              ? candidate.metrics.expected_period
                              : candidate.metrics.worst_period;
    const double latency = use_expected_metrics
                               ? candidate.metrics.expected_latency
                               : candidate.metrics.worst_latency;
    if (period > period_bound || latency > latency_bound) continue;
    if (best == nullptr ||
        candidate.metrics.reliability > best->metrics.reliability) {
      best = &candidate;
    }
  }
  return best;
}

std::optional<HeuristicSolution> run_heuristic(const TaskChain& chain,
                                               const Platform& platform,
                                               HeuristicKind kind,
                                               const HeuristicOptions& options) {
  const auto candidates =
      heuristic_candidates(chain, platform, kind, options);
  const HeuristicSolution* best = best_heuristic_candidate(
      candidates, options.period_bound, options.latency_bound,
      options.use_expected_metrics);
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace prts
