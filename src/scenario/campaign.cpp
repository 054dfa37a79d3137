#include "scenario/campaign.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace prts::scenario {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<std::shared_ptr<const solver::Solver>> resolve_solvers(
    const CampaignSpec& spec, const CampaignConfig& config) {
  const solver::SolverRegistry& registry =
      config.registry ? *config.registry : solver::SolverRegistry::builtin();
  if (spec.solvers.empty()) {
    throw std::invalid_argument("run_campaign: empty solver list");
  }
  std::vector<std::shared_ptr<const solver::Solver>> solvers;
  solvers.reserve(spec.solvers.size());
  for (const std::string& name : spec.solvers) {
    auto found = registry.find(name);
    if (!found) {
      throw std::invalid_argument("run_campaign: unknown solver '" + name +
                                  "'");
    }
    solvers.push_back(std::move(found));
  }
  return solvers;
}

}  // namespace

std::uint64_t job_seed(std::uint64_t base, std::size_t job) noexcept {
  // The historical src/exp/runner.cpp stream, kept so rewired
  // experiments reproduce the seed repo's figures bit-for-bit.
  std::uint64_t state = base + 0x632be59bd9b4e019ULL * (job + 1);
  return splitmix64_next(state);
}

Instance materialize_instance(const CampaignSpec& spec, std::size_t job) {
  Rng rng(job_seed(spec.seed, job));
  TaskChain chain = random_chain(rng, spec.chain);
  const PlatformSpec& platform = spec.platform;
  if (platform.kind == PlatformKind::kHom) {
    return Instance{std::move(chain),
                    Platform::homogeneous(
                        platform.processors, platform.speed,
                        platform.processor_failure_rate, platform.bandwidth,
                        platform.link_failure_rate,
                        platform.max_replication)};
  }
  HetPlatformConfig het;
  het.processor_count = platform.processors;
  het.speed_lo = platform.speed_lo;
  het.speed_hi = platform.speed_hi;
  het.processor_failure_rate = platform.processor_failure_rate;
  het.bandwidth = platform.bandwidth;
  het.link_failure_rate = platform.link_failure_rate;
  het.max_replication = platform.max_replication;
  return Instance{std::move(chain), random_het_platform(rng, het)};
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignConfig& config) {
  return run_campaign_points(spec, sweep_points(spec.sweep),
                             sweep_x(spec.sweep), config);
}

CampaignResult run_campaign_points(const CampaignSpec& spec,
                                   const std::vector<exp::SweepPoint>& points,
                                   const std::vector<double>& x,
                                   const CampaignConfig& config) {
  const auto solvers = resolve_solvers(spec, config);
  const std::size_t n_solvers = solvers.size();
  const std::size_t n_points = points.size();
  const std::size_t jobs = spec.instances * spec.repetitions;

  // Phase 1 (parallel): every job writes its own preassigned slot, so no
  // synchronization and no ordering effects.
  std::vector<std::vector<double>> failures(jobs);
  ThreadPool pool(config.threads, "campaign");
  pool.parallel_for(jobs, [&](std::size_t job) {
    const Instance instance = materialize_instance(spec, job);
    std::vector<double>& outcome = failures[job];
    outcome.assign(n_solvers * n_points, kNan);
    for (std::size_t s = 0; s < n_solvers; ++s) {
      const auto prepared = solvers[s]->prepare(instance);
      for (std::size_t pt = 0; pt < n_points; ++pt) {
        solver::Bounds bounds;
        bounds.period_bound = points[pt].period_bound;
        bounds.latency_bound = points[pt].latency_bound;
        if (const auto solution = prepared->solve(bounds)) {
          outcome[s * n_points + pt] = solution->metrics.failure;
        }
      }
    }
  });

  return reduce_job_failures(spec, x, failures, n_solvers, n_points);
}

CampaignResult reduce_job_failures(
    const CampaignSpec& spec, const std::vector<double>& x,
    const std::vector<std::vector<double>>& failures,
    std::size_t n_solvers, std::size_t n_points) {
  // Sequential, job order: the reduction order is fixed, so the
  // floating-point sums are identical for any thread count.
  const std::size_t jobs = failures.size();
  CampaignResult result;
  result.jobs = jobs;
  result.points = n_points;
  result.figure.title = spec.name;
  result.figure.x_label = sweep_x_label(spec.sweep);
  result.figure.x = x;
  for (std::size_t s = 0; s < n_solvers; ++s) {
    exp::MethodSeries series;
    series.name = spec.solvers[s];
    series.solutions.assign(n_points, 0);
    std::vector<double> failure_sum(n_points, 0.0);
    for (std::size_t job = 0; job < jobs; ++job) {
      for (std::size_t pt = 0; pt < n_points; ++pt) {
        const double failure = failures[job][s * n_points + pt];
        if (std::isnan(failure)) continue;
        ++series.solutions[pt];
        failure_sum[pt] += failure;
      }
    }
    series.avg_failure.assign(n_points, kNan);
    for (std::size_t pt = 0; pt < n_points; ++pt) {
      if (series.solutions[pt] > 0) {
        series.avg_failure[pt] =
            failure_sum[pt] / static_cast<double>(series.solutions[pt]);
      }
    }
    result.figure.series.push_back(std::move(series));
  }
  return result;
}

}  // namespace prts::scenario
