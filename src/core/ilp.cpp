#include "core/ilp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/dp_detail.hpp"

namespace prts {

IlpFormulation::IlpFormulation(const TaskChain& chain,
                               const Platform& platform, double period_bound,
                               double latency_bound,
                               bool include_comm_reliability)
    : chain_(chain),
      platform_(platform),
      period_bound_(period_bound),
      latency_bound_(latency_bound) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "IlpFormulation: the Section 5.4 ILP is for homogeneous platforms");
  }
  const std::size_t n = chain.size();
  const double speed = platform.speed(0);
  const unsigned max_k = static_cast<unsigned>(std::min<std::size_t>(
      platform.max_replication(), platform.processor_count()));

  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double in_size = first == 0 ? 0.0 : chain.out_size(first - 1);
      const double out_comm = platform.comm_time(chain.out_size(last));
      const bool fits = work <= period_bound_ && out_comm <= period_bound_ &&
                        platform.comm_time(in_size) <= period_bound_;

      double branch_failure;
      if (include_comm_reliability) {
        LogReliability r = LogReliability::exp_failure(
            platform.failure_rate(0), work);
        if (in_size > 0.0) {
          r *= LogReliability::exp_failure(platform.link_failure_rate(),
                                           platform.comm_time(in_size));
        }
        if (chain.out_size(last) > 0.0) {
          r *= LogReliability::exp_failure(platform.link_failure_rate(),
                                           out_comm);
        }
        branch_failure = r.failure();
      } else {
        // Literal printed coefficient: computation reliability only.
        branch_failure =
            failure_from_rate(platform.failure_rate(0), work);
      }

      for (unsigned k = 1; k <= max_k; ++k) {
        Variable var;
        var.first = first;
        var.last = last;
        var.replicas = k;
        var.objective = detail::stage_log_reliability(branch_failure, k);
        var.period_feasible = fits;
        variables_.push_back(var);
      }
    }
  }
}

std::optional<std::string> IlpFormulation::violated_constraint(
    std::span<const std::uint8_t> assignment) const {
  const std::size_t n = chain_.size();
  const double speed = platform_.speed(0);

  // (1) every task in exactly one chosen interval.
  std::vector<unsigned> cover(n, 0);
  std::size_t processors = 0;
  double latency = 0.0;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    if (!assignment[v]) continue;
    const Variable& var = variables_[v];
    for (std::size_t t = var.first; t <= var.last; ++t) ++cover[t];
    processors += var.replicas;
    latency += chain_.work_sum(var.first, var.last) / speed +
               platform_.comm_time(chain_.out_size(var.last));
    // (4) period rows: a chosen interval must be period-feasible.
    if (!var.period_feasible) {
      return "period row violated by interval [" +
             std::to_string(var.first) + "," + std::to_string(var.last) +
             "]";
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (cover[t] != 1) {
      return "task " + std::to_string(t) + " covered " +
             std::to_string(cover[t]) + " times";
    }
  }
  // (2) at most p processors.
  if (processors > platform_.processor_count()) {
    return "uses " + std::to_string(processors) + " processors, above p=" +
           std::to_string(platform_.processor_count());
  }
  // (3) latency row.
  if (latency > latency_bound_) {
    return "latency " + std::to_string(latency) + " above bound";
  }
  return std::nullopt;
}

double IlpFormulation::objective_value(
    std::span<const std::uint8_t> assignment) const {
  double value = 0.0;
  for (std::size_t v = 0; v < variables_.size(); ++v) {
    if (assignment[v]) value += variables_[v].objective;
  }
  return value;
}

namespace {

/// Variables regrouped by start task for the chain-structured search.
struct Arc {
  std::size_t variable_index;
  std::size_t last;
  unsigned replicas;
  double objective;
  double duration;  // contribution to latency
};

}  // namespace

std::optional<IlpSolution> solve_ilp(const IlpFormulation& formulation) {
  const TaskChain& chain = formulation.chain();
  const Platform& platform = formulation.platform();
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const double speed = platform.speed(0);

  std::vector<std::vector<Arc>> arcs(n);
  for (std::size_t v = 0; v < formulation.variables().size(); ++v) {
    const auto& var = formulation.variables()[v];
    if (!var.period_feasible) continue;
    const double duration =
        chain.work_sum(var.first, var.last) / speed +
        platform.comm_time(chain.out_size(var.last));
    arcs[var.first].push_back(
        Arc{v, var.last, var.replicas, var.objective, duration});
  }
  // Explore high-reliability choices first so the incumbent tightens fast.
  for (auto& outgoing : arcs) {
    std::sort(outgoing.begin(), outgoing.end(),
              [](const Arc& a, const Arc& b) {
                return a.objective > b.objective;
              });
  }

  // Admissible bound: best objective for tasks t..n-1 with at most k
  // processors, ignoring latency (a relaxation, hence an upper bound).
  std::vector<std::vector<double>> bound(
      n + 1, std::vector<double>(p + 1, detail::kMinusInf));
  for (std::size_t k = 0; k <= p; ++k) bound[n][k] = 0.0;
  for (std::size_t t = n; t-- > 0;) {
    for (std::size_t k = 1; k <= p; ++k) {
      bound[t][k] = bound[t][k - 1];  // "at most k": monotone in k
      for (const Arc& arc : arcs[t]) {
        if (arc.replicas > k) continue;
        const double after = bound[arc.last + 1][k - arc.replicas];
        if (after == detail::kMinusInf) continue;
        bound[t][k] = std::max(bound[t][k], arc.objective + after);
      }
    }
  }
  if (bound[0][p] == detail::kMinusInf) return std::nullopt;

  double best_value = detail::kMinusInf;
  std::vector<std::size_t> best_chosen;
  std::vector<std::size_t> current;

  auto dfs = [&](auto&& self, std::size_t t, std::size_t procs_left,
                 double latency_left, double value) -> void {
    if (t == n) {
      if (value > best_value) {
        best_value = value;
        best_chosen = current;
      }
      return;
    }
    if (value + bound[t][procs_left] <= best_value) return;  // prune
    for (const Arc& arc : arcs[t]) {
      if (arc.replicas > procs_left) continue;
      if (arc.duration > latency_left) continue;
      current.push_back(arc.variable_index);
      self(self, arc.last + 1, procs_left - arc.replicas,
           latency_left - arc.duration, value + arc.objective);
      current.pop_back();
    }
  };
  dfs(dfs, 0, p, formulation.latency_bound(), 0.0);

  if (best_value == detail::kMinusInf) return std::nullopt;

  std::vector<std::size_t> lasts;
  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  std::sort(best_chosen.begin(), best_chosen.end(),
            [&](std::size_t a, std::size_t b) {
              return formulation.variables()[a].first <
                     formulation.variables()[b].first;
            });
  for (std::size_t v : best_chosen) {
    const auto& var = formulation.variables()[v];
    lasts.push_back(var.last);
    std::vector<std::size_t> replica_set(var.replicas);
    for (unsigned r = 0; r < var.replicas; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  Mapping mapping(IntervalPartition::from_boundaries(lasts, n),
                  std::move(procs));
  return IlpSolution{std::move(best_chosen), std::move(mapping), best_value};
}

}  // namespace prts
