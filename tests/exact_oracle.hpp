// The direct partition enumeration the exact solver must reproduce bit
// for bit: every partition carries its interval ends and replica
// vectors, Algo-Alloc takes pow/log1p per candidate gain, and the
// log-reliability sums detail::stage_log_reliability. The solver keeps
// only the records that win some (period, latency) query; the oracle
// keeps them all and answers queries from the full list.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/dp_detail.hpp"
#include "core/exact.hpp"
#include "eval/evaluation.hpp"
#include "model/mapping.hpp"
#include "model/platform.hpp"
#include "model/task_chain.hpp"

namespace prts::oracle {

inline std::vector<unsigned> algo_alloc(
    const std::vector<double>& branch_failure, std::size_t processor_count,
    unsigned max_replication) {
  const std::size_t m = branch_failure.size();
  if (m > processor_count) return {};
  std::vector<unsigned> counts(m, 1);
  std::size_t used = m;
  auto gain = [&](std::size_t j) {
    const double f = branch_failure[j];
    const double q = static_cast<double>(counts[j]);
    return std::log1p(-std::pow(f, q + 1.0)) - std::log1p(-std::pow(f, q));
  };
  while (used < processor_count) {
    double best_gain = -1.0;
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (counts[j] >= max_replication) continue;
      const double g = gain(j);
      if (g > best_gain) {
        best_gain = g;
        best_j = j;
      }
    }
    if (best_j == m) break;
    ++counts[best_j];
    ++used;
  }
  return counts;
}

struct Record {
  std::vector<std::size_t> lasts;
  std::vector<double> failures;
  std::vector<unsigned> replicas;
  double period = 0.0;
  double latency = 0.0;
  double log_reliability = 0.0;

  std::uint64_t interval_ends() const {
    std::uint64_t ends = 0;
    for (std::size_t last : lasts) ends |= std::uint64_t{1} << last;
    return ends;
  }
};

/// Every partition of the chain into at most min(n, p) intervals, in the
/// solver's enumeration order.
inline std::vector<Record> enumerate(const TaskChain& chain,
                                     const Platform& platform) {
  const std::size_t n = chain.size();
  const std::size_t max_intervals =
      std::min(n, platform.processor_count());
  const double speed = platform.speed(0);
  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);
  std::vector<Record> records;
  std::vector<std::size_t> lasts;
  std::vector<double> failures;
  double latency = 0.0;
  double period = 0.0;
  auto recurse = [&](auto&& self, std::size_t first) -> void {
    if (lasts.size() == max_intervals && first < n) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform.comm_time(chain.out_size(last));
      const double saved_latency = latency;
      const double saved_period = period;
      lasts.push_back(last);
      failures.push_back(branch_failure[first][last + 1]);
      latency += work + comm;
      period = std::max({period, work, comm});
      if (last + 1 == n) {
        Record record;
        record.lasts = lasts;
        record.failures = failures;
        record.replicas = algo_alloc(failures, platform.processor_count(),
                                     platform.max_replication());
        record.period = period;
        record.latency = latency;
        double log_rel = 0.0;
        for (std::size_t j = 0; j < failures.size(); ++j) {
          log_rel +=
              detail::stage_log_reliability(failures[j], record.replicas[j]);
        }
        record.log_reliability = log_rel;
        records.push_back(std::move(record));
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
  return records;
}

inline Mapping mapping(const Record& record, std::size_t n) {
  std::vector<std::vector<std::size_t>> procs;
  std::size_t next_proc = 0;
  for (unsigned q : record.replicas) {
    std::vector<std::size_t> replica_set(q);
    for (unsigned r = 0; r < q; ++r) replica_set[r] = next_proc++;
    procs.push_back(std::move(replica_set));
  }
  return Mapping(IntervalPartition::from_boundaries(record.lasts, n),
                 std::move(procs));
}

/// Index of the first record of maximal log-reliability within the
/// bounds (a linear scan), or nullopt when none fits.
inline std::optional<std::size_t> best_index(
    const std::vector<Record>& records, double period_bound,
    double latency_bound) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (!best || record.log_reliability > records[*best].log_reliability) {
      best = i;
    }
  }
  return best;
}

/// best_index for many bounds pairs at once: an offline sweep in period
/// order over a prefix-maximum Fenwick tree on latency ranks, ordered by
/// (log-reliability descending, index ascending) — the linear scan's
/// first maximum. -1 where no record fits.
inline std::vector<std::ptrdiff_t> best_indices(
    const std::vector<Record>& records,
    const std::vector<std::pair<double, double>>& bounds) {
  std::vector<double> latencies;
  for (const Record& record : records) latencies.push_back(record.latency);
  std::sort(latencies.begin(), latencies.end());
  latencies.erase(std::unique(latencies.begin(), latencies.end()),
                  latencies.end());
  const auto better = [&](std::ptrdiff_t a, std::ptrdiff_t b) {
    if (b < 0) return a >= 0;
    if (a < 0) return false;
    const double ra = records[static_cast<std::size_t>(a)].log_reliability;
    const double rb = records[static_cast<std::size_t>(b)].log_reliability;
    return ra > rb || (ra == rb && a < b);
  };
  std::vector<std::ptrdiff_t> tree(latencies.size() + 1, -1);

  std::vector<std::size_t> by_period(records.size());
  std::iota(by_period.begin(), by_period.end(), std::size_t{0});
  std::stable_sort(by_period.begin(), by_period.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].period < records[b].period;
                   });
  std::vector<std::size_t> queries(bounds.size());
  std::iota(queries.begin(), queries.end(), std::size_t{0});
  std::stable_sort(queries.begin(), queries.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bounds[a].first < bounds[b].first;
                   });

  std::vector<std::ptrdiff_t> answers(bounds.size(), -1);
  std::size_t inserted = 0;
  for (std::size_t q : queries) {
    const auto [period_bound, latency_bound] = bounds[q];
    for (; inserted < by_period.size() &&
           records[by_period[inserted]].period <= period_bound;
         ++inserted) {
      const std::size_t i = by_period[inserted];
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(latencies.begin(), latencies.end(),
                           records[i].latency) -
          latencies.begin()) + 1;
      for (std::size_t k = rank; k < tree.size(); k += k & (~k + 1)) {
        if (better(static_cast<std::ptrdiff_t>(i), tree[k])) {
          tree[k] = static_cast<std::ptrdiff_t>(i);
        }
      }
    }
    const std::size_t rank = static_cast<std::size_t>(
        std::upper_bound(latencies.begin(), latencies.end(), latency_bound) -
        latencies.begin());
    std::ptrdiff_t best = -1;
    for (std::size_t k = rank; k > 0; k -= k & (~k + 1)) {
      if (better(tree[k], best)) best = tree[k];
    }
    answers[q] = best;
  }
  return answers;
}

/// The records that are the answer to some bounds pair, in enumeration
/// order: record i is one exactly when it answers (period_i, latency_i).
inline std::vector<std::size_t> staircase(const std::vector<Record>& records) {
  std::vector<std::pair<double, double>> own;
  for (const Record& record : records) {
    own.emplace_back(record.period, record.latency);
  }
  const auto answers = best_indices(records, own);
  std::vector<std::size_t> winners;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (answers[i] == static_cast<std::ptrdiff_t>(i)) winners.push_back(i);
  }
  return winners;
}

}  // namespace prts::oracle
