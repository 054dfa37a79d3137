#include "core/exact.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/alloc.hpp"
#include "core/dp_detail.hpp"

namespace prts {

HomogeneousExactSolver::HomogeneousExactSolver(const TaskChain& chain,
                                               const Platform& platform)
    : chain_(chain), platform_(platform) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: exact tri-criteria optimization is only "
        "polynomial-by-enumeration on homogeneous platforms");
  }
  const std::size_t n = chain.size();
  const std::size_t max_intervals =
      std::min(n, platform.processor_count());
  const double speed = platform.speed(0);
  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);

  // Recursive enumeration of partitions (by their interval ends).
  std::vector<std::size_t> lasts;
  std::vector<double> failures;  // per-interval branch failures
  double latency = 0.0;
  double period = 0.0;

  auto recurse = [&](auto&& self, std::size_t first) -> void {
    if (lasts.size() == max_intervals && first < n) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform_.comm_time(chain.out_size(last));
      const double saved_latency = latency;
      const double saved_period = period;
      lasts.push_back(last);
      failures.push_back(branch_failure[first][last + 1]);
      latency += work + comm;
      period = std::max({period, work, comm});
      if (last + 1 == n) {
        PartitionRecord record;
        record.lasts = lasts;
        record.replicas = algo_alloc_counts(
            failures, platform_.processor_count(),
            platform_.max_replication());
        record.period = period;
        record.latency = latency;
        double log_rel = 0.0;
        for (std::size_t j = 0; j < failures.size(); ++j) {
          log_rel +=
              detail::stage_log_reliability(failures[j], record.replicas[j]);
        }
        record.log_reliability = log_rel;
        records_.push_back(std::move(record));
      } else {
        self(self, last + 1);
      }
      lasts.pop_back();
      failures.pop_back();
      latency = saved_latency;
      period = saved_period;
    }
  };
  recurse(recurse, 0);
}

std::optional<double> HomogeneousExactSolver::best_log_reliability(
    double period_bound, double latency_bound) const {
  const PartitionRecord* best = nullptr;
  for (const PartitionRecord& record : records_) {
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (best == nullptr || record.log_reliability > best->log_reliability) {
      best = &record;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->log_reliability;
}

std::optional<ExactSolution> HomogeneousExactSolver::solve(
    double period_bound, double latency_bound) const {
  const PartitionRecord* best = nullptr;
  for (const PartitionRecord& record : records_) {
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (best == nullptr || record.log_reliability > best->log_reliability) {
      best = &record;
    }
  }
  if (best == nullptr) return std::nullopt;

  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  for (unsigned q : best->replicas) {
    std::vector<std::size_t> replica_set(q);
    for (unsigned r = 0; r < q; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  Mapping mapping(
      IntervalPartition::from_boundaries(best->lasts, chain_.size()),
      std::move(procs));
  MappingMetrics metrics = evaluate(chain_, platform_, mapping);
  return ExactSolution{std::move(mapping), metrics};
}

std::optional<double> exact_dp_log_reliability(const TaskChain& chain,
                                               const Platform& platform,
                                               double period_bound,
                                               double latency_bound) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "exact_dp_log_reliability: homogeneous platforms only");
  }
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const double speed = platform.speed(0);
  const unsigned max_q =
      static_cast<unsigned>(std::min<std::size_t>(
          platform.max_replication(), p));

  // The latency dimension requires integral interval durations.
  auto as_index = [](double value) -> std::size_t {
    const double rounded = std::round(value);
    if (std::abs(value - rounded) > 1e-9) {
      throw std::invalid_argument(
          "exact_dp_log_reliability: interval durations must be integral");
    }
    return static_cast<std::size_t>(rounded);
  };

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += chain.work(i) / speed + platform.comm_time(chain.out_size(i));
  }
  const std::size_t max_latency = std::min(
      as_index(std::ceil(total)),
      latency_bound == std::numeric_limits<double>::infinity()
          ? as_index(std::ceil(total))
          : static_cast<std::size_t>(std::floor(latency_bound)));

  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);

  // F[i][k][l]: best log-reliability for the first i tasks on exactly k
  // processors with accumulated latency exactly l.
  const std::size_t lat_states = max_latency + 1;
  std::vector<double> F((n + 1) * (p + 1) * lat_states, detail::kMinusInf);
  auto at = [&](std::size_t i, std::size_t k, std::size_t l) -> double& {
    return F[(i * (p + 1) + k) * lat_states + l];
  };
  at(0, 0, 0) = 0.0;

  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double work = chain.work_sum(j, i - 1) / speed;
      const double comm = platform.comm_time(chain.out_size(i - 1));
      if (work > period_bound || comm > period_bound) continue;
      const std::size_t duration = as_index(work + comm);
      for (std::size_t k = 1; k <= p; ++k) {
        const unsigned q_hi =
            static_cast<unsigned>(std::min<std::size_t>(max_q, k));
        for (unsigned q = 1; q <= q_hi; ++q) {
          const double stage =
              detail::stage_log_reliability(branch_failure[j][i], q);
          for (std::size_t l = duration; l <= max_latency; ++l) {
            const double before = at(j, k - q, l - duration);
            if (before == detail::kMinusInf) continue;
            double& cell = at(i, k, l);
            cell = std::max(cell, before + stage);
          }
        }
      }
    }
  }

  double best = detail::kMinusInf;
  for (std::size_t k = 1; k <= p; ++k) {
    for (std::size_t l = 0; l <= max_latency; ++l) {
      best = std::max(best, at(n, k, l));
    }
  }
  if (best == detail::kMinusInf) return std::nullopt;
  return best;
}

}  // namespace prts
