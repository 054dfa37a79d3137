// Microbenchmarks of the solve service's warm-hit layers, one by one:
// a fresh canonicalize, a canonical-form memo hit and miss, the request
// key over the kept hash chains, and a whole warm submit().get() with
// telemetry on, which spends a memo hit, the request key and a cache
// lookup among its work.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "model/generator.hpp"
#include "service/engine.hpp"

namespace {

using namespace prts;

/// A Section 8.2 instance (15 tasks, 10 het processors) with its
/// processor list reversed, so canonicalization has labels to sort.
Instance paper_het_request() {
  Rng rng(2718);
  TaskChain chain = paper::chain(rng);
  const Platform platform = paper::het_platform(rng);
  std::vector<Processor> procs(platform.processors().begin(),
                               platform.processors().end());
  std::reverse(procs.begin(), procs.end());
  return Instance{std::move(chain),
                  Platform(std::move(procs), platform.bandwidth(),
                           platform.link_failure_rate(),
                           platform.max_replication())};
}

void BM_Canonicalize(benchmark::State& state) {
  const Instance request = paper_het_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::canonicalize(request));
  }
}
BENCHMARK(BM_Canonicalize);

void BM_CanonicalMemoHit(benchmark::State& state) {
  const Instance request = paper_het_request();
  service::CanonicalMemo memo;
  memo.canonicalize(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.canonicalize(request));
  }
}
BENCHMARK(BM_CanonicalMemoHit);

void BM_CanonicalMemoMiss(benchmark::State& state) {
  // Twice the capacity, cycled: every set sees twice its ways in
  // round-robin order, so every lookup misses, canonicalizes, inserts
  // and evicts. Against BM_Canonicalize this is the memo's cost where
  // instances do not repeat.
  const Instance base = paper_het_request();
  std::vector<Instance> requests;
  for (std::size_t i = 0; i < 2 * service::CanonicalMemo::kCapacity; ++i) {
    std::vector<Task> tasks(base.chain.tasks().begin(),
                            base.chain.tasks().end());
    tasks[0].work += static_cast<double>(i + 1);
    requests.push_back(Instance{TaskChain(std::move(tasks)), base.platform});
  }
  service::CanonicalMemo memo;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(memo.canonicalize(requests[next]));
    next = (next + 1) % requests.size();
  }
}
BENCHMARK(BM_CanonicalMemoMiss);

void BM_RequestKey(benchmark::State& state) {
  const service::CanonicalInstance canonical =
      service::canonicalize(paper_het_request());
  solver::Bounds bounds;
  bounds.period_bound = 187.5;
  bounds.latency_bound = 1200.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::request_key(canonical, "heur-p", bounds));
  }
}
BENCHMARK(BM_RequestKey);

void BM_WarmSubmitGet(benchmark::State& state) {
  obs::Telemetry telemetry;
  service::ServiceConfig config;
  config.threads = 1;
  config.telemetry = &telemetry;
  service::SolveService engine(config);
  const service::SolveRequest request(paper_het_request(), "heur-p");
  engine.submit(request).get();
  for (auto _ : state) {
    service::SolveRequest copy = request;
    benchmark::DoNotOptimize(engine.submit(std::move(copy)).get());
  }
}
BENCHMARK(BM_WarmSubmitGet);

}  // namespace

BENCHMARK_MAIN();
