#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"

namespace prts::sim {
namespace {

bool attempt(Rng& rng, double rate, double duration) {
  if (rate <= 0.0 || duration <= 0.0) return true;
  return rng.bernoulli(std::exp(-rate * duration));
}

}  // namespace

bool sample_routing_success(Rng& rng, const TaskChain& chain,
                            const Platform& platform,
                            const Mapping& mapping) {
  const IntervalPartition& part = mapping.partition();
  for (std::size_t j = 0; j < part.interval_count(); ++j) {
    const double work = part.work(chain, j);
    const double in_size = j == 0 ? 0.0 : part.out_size(chain, j - 1);
    const double out_size = part.out_size(chain, j);
    bool stage_ok = false;
    for (std::size_t u : mapping.processors(j)) {
      const bool branch_ok =
          attempt(rng, platform.link_failure_rate(),
                  platform.comm_time(in_size)) &&
          attempt(rng, platform.failure_rate(u), work / platform.speed(u)) &&
          attempt(rng, platform.link_failure_rate(),
                  platform.comm_time(out_size));
      stage_ok = stage_ok || branch_ok;
    }
    if (!stage_ok) return false;
  }
  return true;
}

bool sample_no_routing_success(Rng& rng, const TaskChain& chain,
                               const Platform& platform,
                               const Mapping& mapping) {
  const IntervalPartition& part = mapping.partition();
  const std::size_t m = part.interval_count();
  std::vector<std::uint8_t> valid;  // stage j: which replicas hold data

  for (std::size_t j = 0; j < m; ++j) {
    const auto procs = mapping.processors(j);
    const double work = part.work(chain, j);
    const double out_comm = platform.comm_time(part.out_size(chain, j));
    std::vector<std::uint8_t> next(procs.size(), 0);
    for (std::size_t v = 0; v < procs.size(); ++v) {
      bool received;
      if (j == 0) {
        received = true;  // from the environment, o_0 = 0
      } else {
        received = false;
        const double in_comm =
            platform.comm_time(part.out_size(chain, j - 1));
        for (std::size_t u = 0; u < valid.size(); ++u) {
          // Every valid sender attempts its own transfer to v.
          if (valid[u] &&
              attempt(rng, platform.link_failure_rate(), in_comm)) {
            received = true;
            // Keep sampling the remaining transfers? Not needed: failures
            // are independent and unobserved branches do not bias the
            // result, so short-circuit.
            break;
          }
        }
      }
      bool ok = received &&
                attempt(rng, platform.failure_rate(procs[v]),
                        work / platform.speed(procs[v]));
      if (ok && j + 1 == m && out_comm > 0.0) {
        // Environment delivery folded into the last stage.
        ok = attempt(rng, platform.link_failure_rate(), out_comm);
      }
      next[v] = ok ? 1 : 0;
    }
    valid = std::move(next);
  }
  return std::any_of(valid.begin(), valid.end(),
                     [](std::uint8_t v) { return v != 0; });
}

MonteCarloResult estimate_reliability(const TaskChain& chain,
                                      const Platform& platform,
                                      const Mapping& mapping,
                                      std::size_t trials, std::uint64_t seed,
                                      bool use_routing, std::size_t threads) {
  ThreadPool pool(threads, "monte-carlo");
  const std::size_t workers = pool.thread_count();
  const std::size_t chunk = (trials + workers - 1) / std::max<std::size_t>(
                                workers, 1);
  std::atomic<std::size_t> successes{0};

  pool.parallel_for(workers, [&](std::size_t w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(trials, begin + chunk);
    if (begin >= end) return;
    std::uint64_t stream = seed;
    for (std::size_t skip = 0; skip <= w; ++skip) splitmix64_next(stream);
    Rng rng(stream);
    std::size_t local = 0;
    for (std::size_t t = begin; t < end; ++t) {
      const bool ok = use_routing
                          ? sample_routing_success(rng, chain, platform,
                                                   mapping)
                          : sample_no_routing_success(rng, chain, platform,
                                                      mapping);
      if (ok) ++local;
    }
    successes.fetch_add(local);
  });

  MonteCarloResult result;
  result.trials = trials;
  result.successes = successes.load();
  result.estimate = trials == 0 ? 0.0
                                : static_cast<double>(result.successes) /
                                      static_cast<double>(trials);
  if (trials > 0) result.ci95 = wilson_interval(result.successes, trials);
  return result;
}

std::optional<double> sample_interval_completion(
    Rng& rng, const Platform& platform, double work,
    std::span<const std::size_t> procs) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t u : procs) {
    const double duration = work / platform.speed(u);
    if (attempt(rng, platform.failure_rate(u), duration)) {
      best = std::min(best, duration);
    }
  }
  if (!std::isfinite(best)) return std::nullopt;
  return best;
}

}  // namespace prts::sim
