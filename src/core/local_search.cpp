#include "core/local_search.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace prts {
namespace {

/// The largest replica set whose every 2-way division the split move
/// tries. A k-set has 2^k - 2 divisions per cut, each tried with and
/// without refill, so the move's cost doubles with every replica: a
/// heur-l+ls solve of a 2-task instance on 40 processors takes 5 ms at
/// K = 10 but took 157 ms at K = 16 and 771 ms at K = 18 when every
/// set was enumerated (Release build, 4-core x86 VM). Ten keeps a solve
/// within milliseconds and still enumerates every set of the paper's
/// K <= 3 exactly. Larger sets try the k - 1 divisions that keep their
/// order, which also keeps `1 << k` below 64 bits.
constexpr std::size_t kMaxEnumeratedSplit = 10;

/// What `evaluate` computes for one interval (Eqs. (3), (4), (9)). It
/// depends only on the interval's tasks and replica set: the incoming
/// size is the output of the task just before the interval. A move
/// therefore recomputes the intervals it rewrites and reuses the rest.
struct Term {
  LogReliability reliability;
  double expected = 0.0;
  double worst = 0.0;
  double comm = 0.0;
};

/// An interval a candidate rewrites: its position in the candidate, its
/// last task and its replica set in search order.
struct Fresh {
  std::size_t index = 0;
  std::size_t last = 0;
  std::vector<std::size_t> procs;
  Term term;
};

/// The hill-climb over one flat state: interval ends, replica sets laid
/// end to end (set j is procs_[begin_[j], begin_[j+1])) and the term of
/// every interval. A candidate is the current state with one or two
/// intervals rewritten (`fresh_`) and, for splits and merges, the
/// intervals after them shifted by one; its metrics fold the cached and
/// fresh terms in interval order with the expressions `evaluate` uses,
/// so every metric is bit-identical to evaluating the candidate mapping.
/// All buffers are sized to the processor count up front (a valid
/// mapping has at most p intervals and p replicas), so trying a
/// candidate allocates nothing.
class Search {
 public:
  Search(const TaskChain& chain, const Platform& platform,
         const LocalSearchOptions& options)
      : chain_(chain),
        platform_(platform),
        options_(options),
        max_k_(platform.max_replication()),
        used_(platform.processor_count()) {
    const std::size_t p = platform.processor_count();
    for (auto* buffer : {&lasts_, &procs_, &next_lasts_, &next_procs_,
                         &sorted_, &idle_, &fresh_[0].procs,
                         &fresh_[1].procs}) {
      buffer->reserve(p);
    }
    begin_.reserve(p + 1);
    next_begin_.reserve(p + 1);
    terms_.reserve(p);
    next_terms_.reserve(p);
  }

  /// Loads `start` and checks it like any candidate; false when it
  /// violates the bounds or the allocation constraints.
  bool load(const Mapping& start) {
    begin_.push_back(0);
    for (std::size_t j = 0; j < start.interval_count(); ++j) {
      const Interval& interval = start.partition().interval(j);
      const auto procs = start.processors(j);
      if (!allowed(interval.first, interval.last, procs)) return false;
      lasts_.push_back(interval.last);
      procs_.insert(procs_.end(), procs.begin(), procs.end());
      begin_.push_back(procs_.size());
      terms_.push_back(term(interval.first, interval.last, procs));
    }
    const MappingMetrics metrics = fold(lasts_.size(), procs_.size(),
                                        [&](std::size_t j) -> const Term& {
                                          return terms_[j];
                                        });
    if (!within(metrics)) return false;
    current_ = metrics;
    current_.failure = current_.reliability.failure();
    return true;
  }

  /// One neighbourhood sweep in the fixed move order; true when a move
  /// was accepted (first improvement).
  bool sweep() {
    const std::size_t p = platform_.processor_count();
    const std::size_t m = lasts_.size();

    // Move 0: recruit an idle processor as an extra replica (always a
    // reliability gain; may be vetoed by the worst-case bounds).
    std::fill(used_.begin(), used_.end(), false);
    for (std::size_t u : procs_) used_[u] = true;
    for (std::size_t u = 0; u < p; ++u) {
      if (used_[u]) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (set_size(j) >= max_k_) continue;
        Fresh& grown = rewrite(0, j, lasts_[j], set(j));
        grown.procs.push_back(u);
        if (try_candidate(1, m, m, 0)) return true;
      }
    }

    // Idle processors ordered most-reliable-per-work first, used by the
    // split move to refill both halves (a raw split loses redundancy and
    // almost never improves on its own — the refilled macro-move jumps
    // that valley).
    idle_.clear();
    for (std::size_t u = 0; u < p; ++u) {
      if (!used_[u]) idle_.push_back(u);
    }
    std::sort(idle_.begin(), idle_.end(), [&](std::size_t a, std::size_t b) {
      const double ka = platform_.failure_rate(a) / platform_.speed(a);
      const double kb = platform_.failure_rate(b) / platform_.speed(b);
      if (ka != kb) return ka < kb;
      return a < b;
    });

    // Move 1: split interval j at an inner boundary, dividing its
    // replicas between the halves, optionally refilling both halves with
    // idle processors up to K. A set of at most kMaxEnumeratedSplit
    // replicas tries every 2-way division (division d sends replica b
    // left when bit b of d is set); a larger one tries the k - 1
    // divisions that keep its order (the first d replicas go left).
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t first = first_of(j);
      const std::size_t last = lasts_[j];
      const auto replicas = set(j);
      const std::size_t k = replicas.size();
      if (first == last || k < 2) continue;
      const bool enumerate = k <= kMaxEnumeratedSplit;
      const std::size_t divisions =
          enumerate ? (std::size_t{1} << k) - 2 : k - 1;
      for (std::size_t cut = first; cut < last; ++cut) {
        for (std::size_t d = 1; d <= divisions; ++d) {
          for (const bool refill : {true, false}) {
            Fresh& left = rewrite(0, j, cut, {});
            Fresh& right = rewrite(1, j + 1, last, {});
            for (std::size_t b = 0; b < k; ++b) {
              const bool goes_left = enumerate ? ((d >> b) & 1u) != 0 : b < d;
              (goes_left ? left : right).procs.push_back(replicas[b]);
            }
            bool refilled = false;
            if (refill) {
              std::size_t next_idle = 0;
              while (next_idle < idle_.size() &&
                     (left.procs.size() < max_k_ ||
                      right.procs.size() < max_k_)) {
                // Top up the thinner half first.
                auto& target = left.procs.size() <= right.procs.size() &&
                                       left.procs.size() < max_k_
                                   ? left.procs
                                   : right.procs;
                if (target.size() >= max_k_) break;
                target.push_back(idle_[next_idle++]);
                refilled = true;
              }
            }
            if (try_candidate(2, m + 1, j + 2, 1)) return true;
            // Without refill the candidate would repeat this rejected one.
            if (refill && !refilled) break;
          }
        }
      }
    }

    // Move 2: merge adjacent intervals, keeping the most reliable <= K
    // replicas of the union (the rest go idle).
    for (std::size_t j = 0; j + 1 < m; ++j) {
      const std::size_t last = lasts_[j + 1];
      const double work = chain_.work_sum(first_of(j), last);
      Fresh& merged = rewrite(0, j, last, set(j));
      const auto right = set(j + 1);
      merged.procs.insert(merged.procs.end(), right.begin(), right.end());
      // Most reliable first: smallest branch failure on the merged work.
      std::sort(merged.procs.begin(), merged.procs.end(),
                [&](std::size_t a, std::size_t b) {
                  const double fa = platform_.failure_rate(a) *
                                    (work / platform_.speed(a));
                  const double fb = platform_.failure_rate(b) *
                                    (work / platform_.speed(b));
                  if (fa != fb) return fa < fb;
                  return a < b;
                });
      if (merged.procs.size() > max_k_) merged.procs.resize(max_k_);
      if (try_candidate(1, m - 1, j + 1, -1)) return true;
    }

    // Move 3: move one replica from interval a to interval b.
    for (std::size_t a = 0; a < m; ++a) {
      if (set_size(a) < 2) continue;
      for (std::size_t b = 0; b < m; ++b) {
        if (a == b || set_size(b) >= max_k_) continue;
        for (std::size_t idx = 0; idx < set_size(a); ++idx) {
          const auto from = set(a);
          Fresh& shrunk = rewrite(0, a, lasts_[a], from.first(idx));
          shrunk.procs.insert(shrunk.procs.end(), from.begin() + idx + 1,
                              from.end());
          Fresh& grown = rewrite(1, b, lasts_[b], set(b));
          grown.procs.push_back(from[idx]);
          if (try_candidate(2, m, m, 0)) return true;
        }
      }
    }

    // Move 4: swap the replica sets of two intervals.
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a + 1; b < m; ++b) {
        rewrite(0, a, lasts_[a], set(b));
        rewrite(1, b, lasts_[b], set(a));
        if (try_candidate(2, m, m, 0)) return true;
      }
    }

    // Move 5: shift the boundary between adjacent intervals by one task
    // in either direction (classic partition refinement).
    for (std::size_t j = 0; j + 1 < m; ++j) {
      if (lasts_[j] > first_of(j)) {  // left interval keeps >= 1 task
        rewrite(0, j, lasts_[j] - 1, set(j));
        rewrite(1, j + 1, lasts_[j + 1], set(j + 1));
        if (try_candidate(2, m, m, 0)) return true;
      }
      if (lasts_[j] + 1 < lasts_[j + 1]) {
        rewrite(0, j, lasts_[j] + 1, set(j));
        rewrite(1, j + 1, lasts_[j + 1], set(j + 1));
        if (try_candidate(2, m, m, 0)) return true;
      }
    }
    return false;
  }

  std::size_t moves_accepted() const noexcept { return moves_accepted_; }
  const MappingMetrics& metrics() const noexcept { return current_; }

  Mapping mapping() const {
    std::vector<std::vector<std::size_t>> sets;
    sets.reserve(lasts_.size());
    for (std::size_t j = 0; j < lasts_.size(); ++j) {
      const auto replicas = set(j);
      sets.emplace_back(replicas.begin(), replicas.end());
    }
    return Mapping(IntervalPartition::from_boundaries(lasts_, chain_.size()),
                   std::move(sets));
  }

 private:
  std::span<const std::size_t> set(std::size_t j) const noexcept {
    return std::span<const std::size_t>(procs_).subspan(
        begin_[j], begin_[j + 1] - begin_[j]);
  }
  std::size_t set_size(std::size_t j) const noexcept {
    return begin_[j + 1] - begin_[j];
  }
  std::size_t first_of(std::size_t j) const noexcept {
    return j == 0 ? 0 : lasts_[j - 1] + 1;
  }

  /// Sets fresh slot `slot` to interval `index` ending at `last` with
  /// the replicas `procs` (callers may append more).
  Fresh& rewrite(std::size_t slot, std::size_t index, std::size_t last,
                 std::span<const std::size_t> procs) {
    Fresh& fresh = fresh_[slot];
    fresh.index = index;
    fresh.last = last;
    fresh.procs.assign(procs.begin(), procs.end());
    return fresh;
  }

  bool allowed(std::size_t first, std::size_t last,
               std::span<const std::size_t> procs) const noexcept {
    if (options_.constraints == nullptr) return true;
    for (std::size_t u : procs) {
      if (!options_.constraints->interval_allowed(Interval{first, last}, u)) {
        return false;
      }
    }
    return true;
  }

  /// `evaluate`'s per-interval computation. Its reliability product runs
  /// over the replicas in ascending order, as a Mapping stores them.
  Term term(std::size_t first, std::size_t last,
            std::span<const std::size_t> procs) {
    const double work = chain_.work_sum(first, last);
    const double in_size = first == 0 ? 0.0 : chain_.out_size(first - 1);
    const double out_size = chain_.out_size(last);
    sorted_.assign(procs.begin(), procs.end());
    std::sort(sorted_.begin(), sorted_.end());
    Term t;
    t.reliability =
        interval_reliability(platform_, sorted_, work, in_size, out_size);
    t.expected = expected_computation_time(platform_, work, procs);
    t.worst = worst_computation_time(platform_, work, procs);
    t.comm = platform_.comm_time(out_size);
    return t;
  }

  /// `evaluate`'s fold over m interval terms, minus the failure
  /// probability (filled in for accepted states only).
  template <typename TermAt>
  static MappingMetrics fold(std::size_t m, std::size_t processors_used,
                             TermAt term_at) {
    LogReliability reliability;
    double expected_latency = 0.0;
    double worst_latency = 0.0;
    double expected_period = 0.0;
    double worst_period = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const Term& t = term_at(j);
      reliability *= t.reliability;
      expected_latency += t.expected + t.comm;
      worst_latency += t.worst + t.comm;
      expected_period = std::max({expected_period, t.expected, t.comm});
      worst_period = std::max({worst_period, t.worst, t.comm});
    }
    MappingMetrics metrics;
    metrics.reliability = reliability;
    metrics.expected_latency = expected_latency;
    metrics.worst_latency = worst_latency;
    metrics.expected_period = expected_period;
    metrics.worst_period = worst_period;
    metrics.interval_count = m;
    metrics.processors_used = processors_used;
    metrics.replication_level = static_cast<double>(processors_used) /
                                static_cast<double>(m);
    return metrics;
  }

  bool within(const MappingMetrics& metrics) const noexcept {
    const double period = options_.use_expected_metrics
                              ? metrics.expected_period
                              : metrics.worst_period;
    const double latency = options_.use_expected_metrics
                               ? metrics.expected_latency
                               : metrics.worst_latency;
    return !(period > options_.period_bound ||
             latency > options_.latency_bound);
  }

  /// Scores the candidate of `count` intervals made of the `fresh_count`
  /// fresh slots and, elsewhere, the current interval at i (before
  /// `shift_from`) or i - shift (from it on); commits it when it meets
  /// the bounds and is strictly more reliable.
  bool try_candidate(std::size_t fresh_count, std::size_t count,
                     std::size_t shift_from, std::ptrdiff_t shift) {
    const auto fresh_at = [&](std::size_t i) -> const Fresh* {
      for (std::size_t s = 0; s < fresh_count; ++s) {
        if (fresh_[s].index == i) return &fresh_[s];
      }
      return nullptr;
    };
    const auto source = [&](std::size_t i) {
      return i < shift_from ? i
                            : static_cast<std::size_t>(
                                  static_cast<std::ptrdiff_t>(i) - shift);
    };
    const auto last_at = [&](std::size_t i) {
      const Fresh* fresh = fresh_at(i);
      return fresh != nullptr ? fresh->last : lasts_[source(i)];
    };

    std::size_t used = 0;
    for (std::size_t s = 0; s < fresh_count; ++s) {
      Fresh& fresh = fresh_[s];
      const std::size_t first =
          fresh.index == 0 ? 0 : last_at(fresh.index - 1) + 1;
      if (!allowed(first, fresh.last, fresh.procs)) return false;
      fresh.term = term(first, fresh.last, fresh.procs);
      used += fresh.procs.size();
    }
    const auto term_at = [&](std::size_t i) -> const Term& {
      const Fresh* fresh = fresh_at(i);
      return fresh != nullptr ? fresh->term : terms_[source(i)];
    };
    for (std::size_t i = 0; i < count; ++i) {
      if (fresh_at(i) == nullptr) used += set_size(source(i));
    }
    MappingMetrics metrics = fold(count, used, term_at);
    if (!within(metrics)) return false;
    if (metrics.reliability.log() <= current_.reliability.log() + 1e-15) {
      return false;
    }

    next_lasts_.clear();
    next_procs_.clear();
    next_terms_.clear();
    next_begin_.assign(1, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const Fresh* fresh = fresh_at(i);
      const auto replicas = fresh != nullptr ? std::span<const std::size_t>(
                                                   fresh->procs)
                                             : set(source(i));
      next_lasts_.push_back(last_at(i));
      next_procs_.insert(next_procs_.end(), replicas.begin(),
                         replicas.end());
      next_begin_.push_back(next_procs_.size());
      next_terms_.push_back(term_at(i));
    }
    lasts_.swap(next_lasts_);
    procs_.swap(next_procs_);
    begin_.swap(next_begin_);
    terms_.swap(next_terms_);
    metrics.failure = metrics.reliability.failure();
    current_ = metrics;
    ++moves_accepted_;
    return true;
  }

  const TaskChain& chain_;
  const Platform& platform_;
  const LocalSearchOptions& options_;
  const std::size_t max_k_;

  std::vector<std::size_t> lasts_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> procs_;
  std::vector<Term> terms_;
  std::vector<std::size_t> next_lasts_;
  std::vector<std::size_t> next_begin_;
  std::vector<std::size_t> next_procs_;
  std::vector<Term> next_terms_;

  Fresh fresh_[2];
  std::vector<std::size_t> sorted_;
  std::vector<bool> used_;
  std::vector<std::size_t> idle_;

  MappingMetrics current_;
  std::size_t moves_accepted_ = 0;
};

}  // namespace

std::optional<LocalSearchResult> improve_mapping(
    const TaskChain& chain, const Platform& platform, const Mapping& start,
    const LocalSearchOptions& options) {
  if (start.validate(platform).has_value()) return std::nullopt;
  Search search(chain, platform, options);
  if (!search.load(start)) return std::nullopt;

  std::size_t rounds = 0;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++rounds;
    if (!search.sweep()) break;  // local optimum
  }
  return LocalSearchResult{search.mapping(), search.metrics(), rounds,
                           search.moves_accepted()};
}

}  // namespace prts
