#include "core/exact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "core/alloc.hpp"
#include "core/dp_detail.hpp"

namespace prts {

std::size_t HomogeneousExactSolver::record_count(
    std::size_t task_count, std::size_t processor_count) noexcept {
  const std::size_t max_intervals = std::min(task_count, processor_count);
  // C(n-1, k) term by term. From k = 2 on, the total already includes
  // C(n-1, 1) = n-1, so while it is within the bound both factors of the
  // product are at most 2^22 and it cannot overflow.
  std::size_t total = 0;
  std::size_t term = 1;
  for (std::size_t k = 0; k < max_intervals; ++k) {
    if (k > 0) term = term * (task_count - k) / k;
    total += term;
    if (total > kMaxRecords) return kMaxRecords + 1;
  }
  return total;
}

bool HomogeneousExactSolver::accepts(const TaskChain& chain,
                                     const Platform& platform) noexcept {
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const std::size_t row_length =
      std::min<std::size_t>(platform.max_replication(), p) + 1;
  return platform.is_homogeneous() && n <= kMaxTaskCount &&
         record_count(n, p) <= kMaxRecords &&
         n * n * row_length <= kMaxTableEntries;
}

HomogeneousExactSolver::HomogeneousExactSolver(const TaskChain& chain,
                                               const Platform& platform)
    : chain_(chain), platform_(platform) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: exact tri-criteria optimization is only "
        "polynomial-by-enumeration on homogeneous platforms");
  }
  if (!accepts(chain, platform)) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: instance too large to enumerate (more "
        "than 64 tasks, 2^22 partitions or 2^24 table entries)");
  }
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const unsigned max_replication = platform.max_replication();
  const std::size_t max_intervals = std::min(n, p);
  const double speed = platform.speed(0);

  // log1p(-f^q) once per candidate interval and replica count.
  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);
  row_length_ = std::min<std::size_t>(max_replication, p) + 1;
  stage_table_.resize(n * n * row_length_);
  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t last = first; last < n; ++last) {
      double* row = stage_table_.data() + (first * n + last) * row_length_;
      for (std::size_t q = 0; q < row_length_; ++q) {
        row[q] = detail::stage_log_reliability(
            branch_failure[first][last + 1], static_cast<unsigned>(q));
      }
    }
  }

  // Recursive enumeration of partitions (by their interval ends).
  records_.reserve(record_count(n, p));
  std::array<const double*, kMaxTaskCount> rows{};  // per interval so far
  std::array<unsigned, kMaxTaskCount> counts{};
  std::size_t depth = 0;
  std::uint64_t ends = 0;
  double latency = 0.0;
  double period = 0.0;

  auto recurse = [&](auto&& self, std::size_t first) -> void {
    if (depth == max_intervals && first < n) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform_.comm_time(chain.out_size(last));
      const double saved_latency = latency;
      const double saved_period = period;
      rows[depth++] = stage_row(first, last);
      ends |= std::uint64_t{1} << last;
      latency += work + comm;
      period = std::max({period, work, comm});
      if (last + 1 == n) {
        algo_alloc_counts_from_rows({rows.data(), depth}, p, max_replication,
                                    {counts.data(), depth});
        double log_rel = 0.0;
        for (std::size_t j = 0; j < depth; ++j) log_rel += rows[j][counts[j]];
        records_.push_back(PartitionRecord{period, latency, log_rel, ends});
      } else {
        self(self, last + 1);
      }
      --depth;
      ends &= ~(std::uint64_t{1} << last);
      latency = saved_latency;
      period = saved_period;
    }
  };
  recurse(recurse, 0);
}

Mapping HomogeneousExactSolver::mapping(const PartitionRecord& record) const {
  std::vector<std::size_t> lasts;
  lasts.reserve(static_cast<std::size_t>(std::popcount(record.interval_ends)));
  std::array<const double*, kMaxTaskCount> rows{};
  std::size_t first = 0;
  for (std::size_t last = 0; last < chain_.size(); ++last) {
    if (((record.interval_ends >> last) & 1u) == 0) continue;
    rows[lasts.size()] = stage_row(first, last);
    lasts.push_back(last);
    first = last + 1;
  }
  const std::size_t m = lasts.size();
  std::array<unsigned, kMaxTaskCount> counts{};
  algo_alloc_counts_from_rows({rows.data(), m}, platform_.processor_count(),
                              platform_.max_replication(), {counts.data(), m});

  std::vector<std::vector<std::size_t>> procs(m);
  std::size_t next_proc = 0;
  for (std::size_t j = 0; j < m; ++j) {
    procs[j].resize(counts[j]);
    for (std::size_t& u : procs[j]) u = next_proc++;
  }
  return Mapping(IntervalPartition::from_boundaries(lasts, chain_.size()),
                 std::move(procs));
}

const HomogeneousExactSolver::PartitionRecord*
HomogeneousExactSolver::best_record(double period_bound,
                                    double latency_bound) const noexcept {
  const PartitionRecord* best = nullptr;
  for (const PartitionRecord& record : records_) {
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (best == nullptr || record.log_reliability > best->log_reliability) {
      best = &record;
    }
  }
  return best;
}

std::optional<double> HomogeneousExactSolver::best_log_reliability(
    double period_bound, double latency_bound) const {
  const PartitionRecord* best = best_record(period_bound, latency_bound);
  if (best == nullptr) return std::nullopt;
  return best->log_reliability;
}

std::optional<ExactSolution> HomogeneousExactSolver::solve(
    double period_bound, double latency_bound) const {
  const PartitionRecord* best = best_record(period_bound, latency_bound);
  if (best == nullptr) return std::nullopt;
  Mapping best_mapping = mapping(*best);
  MappingMetrics metrics = evaluate(chain_, platform_, best_mapping);
  return ExactSolution{std::move(best_mapping), metrics};
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
