#include "core/exact.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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

namespace {

std::atomic<std::uint64_t> enumeration_count{0};

/// The staircase as the enumeration streams its records: kept() holds,
/// in enumeration order, the records no record offered so far rules out.
/// A record that an earlier one rules out (no worse on period and
/// latency, at least as reliable) is dropped: whatever ruled out that
/// earlier record rules this one out too, so checking the kept records
/// suffices. A record that is kept drops every kept record it beats
/// outright (no worse on period and latency, strictly more reliable).
/// Once every record is offered, kept() is the staircase.
class StaircaseFilter {
 public:
  using Record = ExactStaircase::Record;

  StaircaseFilter() { kept_.reserve(64); }

  void offer(const Record& record) {
    const auto rules_out = [&record](const Record& kept) {
      return kept.period <= record.period && kept.latency <= record.latency &&
             kept.log_reliability >= record.log_reliability;
    };
    // Neighbouring partitions share most intervals, so the record that
    // ruled out the last one is tried first.
    if (last_rule_ < kept_.size() && rules_out(kept_[last_rule_])) return;
    const auto rule = std::find_if(kept_.begin(), kept_.end(), rules_out);
    if (rule != kept_.end()) {
      last_rule_ = static_cast<std::size_t>(rule - kept_.begin());
      return;
    }
    std::erase_if(kept_, [&record](const Record& kept) {
      return record.period <= kept.period && record.latency <= kept.latency &&
             record.log_reliability > kept.log_reliability;
    });
    kept_.push_back(record);
  }

  const std::vector<Record>& kept() const noexcept { return kept_; }

 private:
  std::vector<Record> kept_;
  std::size_t last_rule_ = 0;
};

}  // namespace

ExactStaircase::ExactStaircase(const TaskChain& chain,
                               const Platform& platform)
    : task_count_(chain.size()) {
  if (!platform.is_homogeneous()) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: exact tri-criteria optimization is only "
        "polynomial-by-enumeration on homogeneous platforms");
  }
  if (!HomogeneousExactSolver::accepts(chain, platform)) {
    throw std::invalid_argument(
        "HomogeneousExactSolver: instance too large to enumerate (more "
        "than 64 tasks, 2^22 partitions or 2^24 table entries)");
  }
  enumeration_count.fetch_add(1, std::memory_order_relaxed);
  constexpr std::size_t kMaxTasks = HomogeneousExactSolver::kMaxTaskCount;
  const std::size_t n = chain.size();
  const std::size_t p = platform.processor_count();
  const unsigned max_replication = platform.max_replication();
  const std::size_t max_intervals = std::min(n, p);
  const double speed = platform.speed(0);

  // log1p(-f^q) once per candidate interval and replica count.
  const auto branch_failure =
      detail::interval_branch_failures(chain, platform);
  const std::size_t row_length =
      std::min<std::size_t>(max_replication, p) + 1;
  std::vector<double> stage_table(n * n * row_length);
  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t last = first; last < n; ++last) {
      double* row = stage_table.data() + (first * n + last) * row_length;
      for (std::size_t q = 0; q < row_length; ++q) {
        row[q] = detail::stage_log_reliability(
            branch_failure[first][last + 1], static_cast<unsigned>(q));
      }
    }
  }
  const auto stage_row = [&](std::size_t first, std::size_t last) {
    return stage_table.data() + (first * n + last) * row_length;
  };

  // Recursive enumeration of partitions (by their interval ends), each
  // record offered to the staircase filter.
  StaircaseFilter staircase;
  std::array<const double*, kMaxTasks> rows{};  // per interval so far
  std::array<unsigned, kMaxTasks> counts{};
  std::size_t depth = 0;
  std::uint64_t ends = 0;
  double latency = 0.0;
  double period = 0.0;

  auto recurse = [&](auto&& self, std::size_t first) -> void {
    if (depth == max_intervals && first < n) return;
    for (std::size_t last = first; last < n; ++last) {
      const double work = chain.work_sum(first, last) / speed;
      const double comm = platform.comm_time(chain.out_size(last));
      const double saved_latency = latency;
      const double saved_period = period;
      rows[depth++] = stage_row(first, last);
      ends |= std::uint64_t{1} << last;
      latency += work + comm;
      period = std::max({period, work, comm});
      if (last + 1 == n) {
        ++partitions_;
        algo_alloc_counts_from_rows({rows.data(), depth}, p, max_replication,
                                    {counts.data(), depth});
        double log_rel = 0.0;
        for (std::size_t j = 0; j < depth; ++j) log_rel += rows[j][counts[j]];
        staircase.offer(Record{period, latency, log_rel, ends, 0});
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

  // The survivors' Algo-Alloc counts, from the same rows and greedy as
  // the enumeration.
  records_ = staircase.kept();
  replicas_.reserve(records_.size() * max_intervals);
  for (Record& record : records_) {
    std::size_t m = 0;
    std::size_t first = 0;
    for (std::size_t last = 0; last < n; ++last) {
      if (((record.interval_ends >> last) & 1u) == 0) continue;
      rows[m++] = stage_row(first, last);
      first = last + 1;
    }
    algo_alloc_counts_from_rows({rows.data(), m}, p, max_replication,
                                {counts.data(), m});
    record.replicas_begin = static_cast<std::uint32_t>(replicas_.size());
    replicas_.insert(replicas_.end(), counts.begin(), counts.begin() + m);
  }
}

std::uint64_t ExactStaircase::enumerations() noexcept {
  return enumeration_count.load(std::memory_order_relaxed);
}

Mapping ExactStaircase::mapping(const Record& record) const {
  std::vector<std::size_t> lasts;
  lasts.reserve(static_cast<std::size_t>(std::popcount(record.interval_ends)));
  for (std::size_t last = 0; last < task_count_; ++last) {
    if (((record.interval_ends >> last) & 1u) != 0) lasts.push_back(last);
  }
  const std::span<const unsigned> counts = replicas(record);
  std::vector<std::vector<std::size_t>> procs(counts.size());
  std::size_t next_proc = 0;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    procs[j].resize(counts[j]);
    for (std::size_t& u : procs[j]) u = next_proc++;
  }
  return Mapping(IntervalPartition::from_boundaries(lasts, task_count_),
                 std::move(procs));
}

const ExactStaircase::Record* ExactStaircase::best_record(
    double period_bound, double latency_bound) const noexcept {
  const Record* best = nullptr;
  for (const Record& record : records_) {
    if (record.period > period_bound || record.latency > latency_bound) {
      continue;
    }
    if (best == nullptr || record.log_reliability > best->log_reliability) {
      best = &record;
    }
  }
  return best;
}

HomogeneousExactSolver::HomogeneousExactSolver(const TaskChain& chain,
                                               const Platform& platform)
    : HomogeneousExactSolver(
          chain, platform,
          std::make_shared<const ExactStaircase>(chain, platform)) {}

HomogeneousExactSolver::HomogeneousExactSolver(
    const TaskChain& chain, const Platform& platform,
    std::shared_ptr<const ExactStaircase> staircase)
    : chain_(chain), platform_(platform), staircase_(std::move(staircase)) {}

std::optional<double> HomogeneousExactSolver::best_log_reliability(
    double period_bound, double latency_bound) const {
  const ExactStaircase::Record* best =
      staircase_->best_record(period_bound, latency_bound);
  if (best == nullptr) return std::nullopt;
  return best->log_reliability;
}

std::optional<ExactSolution> HomogeneousExactSolver::solve(
    double period_bound, double latency_bound) const {
  const ExactStaircase::Record* best =
      staircase_->best_record(period_bound, latency_bound);
  if (best == nullptr) return std::nullopt;
  Mapping best_mapping = staircase_->mapping(*best);
  MappingMetrics metrics = evaluate(chain_, platform_, best_mapping);
  return ExactSolution{std::move(best_mapping), metrics};
}

std::shared_ptr<const ExactStaircase> ExactStaircaseStore::get(
    std::string_view key, const Build& build) {
  const std::size_t hash = std::hash<std::string_view>{}(key);
  std::promise<std::shared_ptr<const ExactStaircase>> promise;
  std::shared_future<std::shared_ptr<const ExactStaircase>> staircase;
  std::uint64_t stamp = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stamp = ++clock_;
    const auto found =
        std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
          return e.hash == hash && e.key == key;
        });
    if (found != entries_.end()) {
      found->last_used = stamp;
      staircase = found->staircase;
    } else {
      if (entries_.size() >= kCapacity) {
        *std::min_element(entries_.begin(), entries_.end(),
                          [](const Entry& a, const Entry& b) {
                            return a.last_used < b.last_used;
                          }) = std::move(entries_.back());
        entries_.pop_back();
      }
      entries_.push_back(Entry{hash, std::string(key),
                               promise.get_future().share(), stamp, stamp});
    }
  }
  // A hit, or a build in flight: wait for it (a failed build rethrows).
  if (staircase.valid()) return staircase.get();
  try {
    std::shared_ptr<const ExactStaircase> built = build();
    promise.set_value(built);
    return built;
  } catch (...) {
    {
      // Eviction may have dropped the entry already, and a later caller
      // may have stored the key again under a new id.
      const std::lock_guard<std::mutex> lock(mutex_);
      std::erase_if(entries_, [&](const Entry& e) { return e.id == stamp; });
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::size_t ExactStaircaseStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
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
