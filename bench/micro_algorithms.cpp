// Microbenchmarks of the optimization kernels: the Algorithm 1/2 dynamic
// programs (O(n^2 p K)), Algo-Alloc, the exact partition enumeration, the
// two interval heuristics, the Eq. (3)-(9) evaluator, the local-search
// polish and the default portfolio.
#include <benchmark/benchmark.h>

#include "core/alloc.hpp"
#include "core/exact.hpp"
#include "core/heuristics.hpp"
#include "core/period_dp.hpp"
#include "core/reliability_dp.hpp"
#include "eval/evaluation.hpp"
#include "model/generator.hpp"
#include "solver/registry.hpp"

namespace {

using namespace prts;

TaskChain bench_chain(std::size_t n) {
  Rng rng(99);
  ChainConfig config;
  config.task_count = n;
  return random_chain(rng, config);
}

Platform bench_platform(std::size_t p) {
  return Platform::homogeneous(p, 1.0, 1e-8, 1.0, 1e-5, 3);
}

void BM_Algorithm1_Tasks(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const TaskChain chain = bench_chain(n);
  const Platform platform = bench_platform(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_reliability(chain, platform));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Algorithm1_Tasks)->RangeMultiplier(2)->Range(8, 128)
    ->Complexity(benchmark::oNSquared);

void BM_Algorithm1_Processors(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_reliability(chain, platform));
  }
}
BENCHMARK(BM_Algorithm1_Processors)->RangeMultiplier(2)->Range(4, 64);

void BM_Algorithm2(benchmark::State& state) {
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_reliability_period(chain, platform, 250.0));
  }
}
BENCHMARK(BM_Algorithm2);

void BM_PeriodMinimization(benchmark::State& state) {
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  const auto target = LogReliability::from_log(
      optimize_reliability(chain, platform).reliability.log() * 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_period_reliability(chain, platform, target));
  }
}
BENCHMARK(BM_PeriodMinimization);

void BM_AlgoAllocCounts(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> failures;
  for (std::size_t j = 0; j < m; ++j) {
    failures.push_back(rng.uniform_real(1e-6, 0.2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo_alloc_counts(failures, 3 * m, 3));
  }
}
BENCHMARK(BM_AlgoAllocCounts)->RangeMultiplier(4)->Range(4, 256);

// The exact solver's build: every partition of a paper instance (14 913
// at n = 15, p = 10) with its Algo-Alloc replication, kept as the
// staircase of records that win some bounds pair.
void BM_ExactPrepare(benchmark::State& state) {
  Rng rng(17);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  for (auto _ : state) {
    const HomogeneousExactSolver solver(chain, platform);
    benchmark::DoNotOptimize(solver.staircase().records().data());
  }
}
BENCHMARK(BM_ExactPrepare);

// A registry `exact` prepare of an instance equal to one already
// prepared: the session reads the adapter's stored staircase (the
// portfolio's exact member after an exact ladder). Reports the
// staircase size.
void BM_ExactSharedPrepare(benchmark::State& state) {
  Rng rng(17);
  const Instance first{paper::chain(rng), paper::hom_platform()};
  const Instance equal = first;
  const auto engine = solver::SolverRegistry::builtin().find("exact");
  benchmark::DoNotOptimize(engine->prepare(first));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->prepare(equal));
  }
  state.counters["staircase"] = static_cast<double>(
      HomogeneousExactSolver(first.chain, first.platform)
          .staircase()
          .records()
          .size());
}
BENCHMARK(BM_ExactSharedPrepare);

// One Figure 6/7 ladder as a service batch runs it: build, then the ten
// period rungs 50..500 at L = 750.
void BM_ExactLadder(benchmark::State& state) {
  Rng rng(17);
  const TaskChain chain = paper::chain(rng);
  const Platform platform = paper::hom_platform();
  for (auto _ : state) {
    const HomogeneousExactSolver solver(chain, platform);
    for (int period = 50; period <= 500; period += 50) {
      benchmark::DoNotOptimize(solver.solve(period, 750.0));
    }
  }
}
BENCHMARK(BM_ExactLadder);

void BM_AllocateProcessorsHet(benchmark::State& state) {
  Rng rng(7);
  const TaskChain chain = bench_chain(15);
  const Platform platform = random_het_platform(rng, HetPlatformConfig{});
  const IntervalPartition partition = heur_p_partition(chain, 5);
  AllocOptions options;
  options.period_bound = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocate_processors(chain, platform, partition, options));
  }
}
BENCHMARK(BM_AllocateProcessorsHet);

void BM_HeurLPartition(benchmark::State& state) {
  const TaskChain chain = bench_chain(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur_l_partition(chain, 8));
  }
}
BENCHMARK(BM_HeurLPartition)->RangeMultiplier(4)->Range(16, 1024);

void BM_HeurPPartition(benchmark::State& state) {
  const TaskChain chain = bench_chain(static_cast<std::size_t>(
      state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur_p_partition(chain, 8));
  }
}
BENCHMARK(BM_HeurPPartition)->RangeMultiplier(4)->Range(16, 256);

void BM_EvaluateMapping(benchmark::State& state) {
  Rng rng(11);
  const TaskChain chain = bench_chain(15);
  const Platform platform = bench_platform(10);
  const auto solution = optimize_reliability(chain, platform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(chain, platform, solution.mapping));
  }
}
BENCHMARK(BM_EvaluateMapping);

void BM_RunHeuristicHet(benchmark::State& state) {
  Rng rng(13);
  const TaskChain chain = bench_chain(15);
  const Platform platform = random_het_platform(rng, HetPlatformConfig{});
  HeuristicOptions options;
  options.period_bound = 50.0;
  options.latency_bound = 150.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_heuristic(chain, platform, HeuristicKind::kHeurP, options));
  }
}
BENCHMARK(BM_RunHeuristicHet);

// One Figure 6/7 ladder through a registry solver as a service batch
// runs it: prepare the session, then the ten period rungs 50..500 at
// L = 750 on a Section 8.1 paper instance.
void solver_ladder(benchmark::State& state, const char* name) {
  Rng rng(17);
  const Instance instance{paper::chain(rng), paper::hom_platform()};
  const auto engine = solver::SolverRegistry::builtin().find(name);
  for (auto _ : state) {
    const auto session = engine->prepare(instance);
    for (int period = 50; period <= 500; period += 50) {
      solver::Bounds bounds;
      bounds.period_bound = period;
      bounds.latency_bound = 750.0;
      benchmark::DoNotOptimize(session->solve(bounds));
    }
  }
}

// heur-l+ls (arg 0) or heur-p+ls (arg 1): the portfolio's two
// local-search members.
void BM_LocalSearchLadder(benchmark::State& state) {
  solver_ladder(state, state.range(0) == 0 ? "heur-l+ls" : "heur-p+ls");
}
BENCHMARK(BM_LocalSearchLadder)->Arg(0)->Arg(1);

// The default portfolio: exact, heur-l+ls, heur-p+ls and baseline. After
// the first iteration the exact member reads the stored staircase, as it
// does after an exact ladder on the same instance.
void BM_PortfolioLadder(benchmark::State& state) {
  solver_ladder(state, "portfolio");
}
BENCHMARK(BM_PortfolioLadder);

}  // namespace

BENCHMARK_MAIN();
