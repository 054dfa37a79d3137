// Profiler A/B on the warm path: telemetry is ON in BOTH arms (registry,
// tracer, flight-recorder counters — the PR-7 baseline), and only the
// in-process profiler flips via Profiler::set_enabled. The delta is
// therefore the profiler's own marginal cost: the dual-clock reads, the
// thread-local allocation deltas and the ProfiledMutex probes on the
// engine queue, cache shards and thread pool. Acceptance bar:
// overhead < 5% on the concurrent warm path.
//
// The instrumented arm additionally reports what the profiler is FOR:
//   - allocations per warm cache hit (a dedicated warm phase measured
//     via engine_request_allocs_total deltas — the number the
//     zero-allocation hot-path rebuild must drive down),
//   - the per-component cpu/wall/blocked rollup,
//   - the top contended mutex with its summed wait time.
//
//   profile_overhead [--requests N] [--unique U] [--solver NAME]
//                    [--threads T] [--clients C] [--quick] [--out PATH]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "model/generator.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"

namespace {

using namespace prts;

/// Closed-loop concurrent warm-path run against `engine`: `clients`
/// threads split `requests` between them, cycling the instance set so
/// after the first lap every request is a cache hit. Returns wall
/// seconds.
double run_clients(service::SolveService& engine,
                   const std::vector<Instance>& instances,
                   std::size_t requests, const std::string& solver,
                   std::size_t clients) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      const std::size_t share =
          requests / clients + (c < requests % clients ? 1 : 0);
      for (std::size_t r = 0; r < share; ++r) {
        service::SolveRequest request{
            instances[(c + r * clients) % instances.size()], solver, {}};
        engine.submit(std::move(request)).get();
      }
    });
  }
  for (std::thread& client : pool) client.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 5000;
  std::size_t unique = 4;
  std::size_t threads = 0;
  std::size_t clients = 8;
  std::string solver = "heur-p";
  std::string out_path = "BENCH_profile.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--requests") {
      requests = std::stoul(next());
    } else if (arg == "--unique") {
      unique = std::stoul(next());
    } else if (arg == "--threads") {
      threads = std::stoul(next());
    } else if (arg == "--clients") {
      clients = std::stoul(next());
    } else if (arg == "--solver") {
      solver = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quick") {
      requests = 2000;
      unique = 3;
      clients = 4;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (unique == 0 || requests == 0 || clients == 0) {
    std::cerr << "--requests, --unique and --clients must be positive\n";
    return 2;
  }

  std::vector<Instance> instances;
  for (std::size_t u = 0; u < unique; ++u) {
    Rng rng(1000 + u);
    instances.push_back(Instance{
        paper::chain(rng),
        Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  const auto build_engine = [&](obs::Telemetry& telemetry) {
    service::ServiceConfig config;
    config.threads = threads;
    config.max_queue_depth = 2 * requests + clients + 1;
    config.telemetry = &telemetry;
    return std::make_unique<service::SolveService>(config);
  };

  // A: telemetry on, profiler off — the baseline every earlier bench
  // already holds to. set_enabled BEFORE the engine exists so not one
  // request pays for a sample. Each arm runs `reps` laps on one warm
  // engine and keeps its best lap: the warm path is microseconds per
  // request, so scheduler noise on a single lap would swamp a 5% gate.
  constexpr int kReps = 5;
  double off_seconds = 0.0;
  {
    obs::Telemetry off_telemetry;
    off_telemetry.profiler.set_enabled(false);
    auto off_engine = build_engine(off_telemetry);
    run_clients(*off_engine, instances, requests, solver, clients);  // warm
    for (int rep = 0; rep < kReps; ++rep) {
      const double lap =
          run_clients(*off_engine, instances, requests, solver, clients);
      if (rep == 0 || lap < off_seconds) off_seconds = lap;
    }
  }

  // B: profiler on — every request's allocations tallied exactly, the
  // fast path dual-clock sampled 1-in-N, every batch/wire span sampled,
  // every probed lock counted.
  obs::Telemetry telemetry;
  auto engine = build_engine(telemetry);
  run_clients(*engine, instances, requests, solver, clients);  // warm
  double on_seconds = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double lap =
        run_clients(*engine, instances, requests, solver, clients);
    if (rep == 0 || lap < on_seconds) on_seconds = lap;
  }

  const double off_rps = static_cast<double>(requests) / off_seconds;
  const double on_rps = static_cast<double>(requests) / on_seconds;
  const double overhead_pct = (off_rps - on_rps) / off_rps * 100.0;

  // Warm phase: everything is cached now, so the counter deltas across
  // one more lap measure allocations per pure warm hit.
  obs::Counter& allocs_counter =
      telemetry.metrics.counter("engine_request_allocs_total");
  obs::Counter& requests_counter =
      telemetry.metrics.counter("prts_engine_submitted_total");
  const std::uint64_t allocs_before = allocs_counter.value();
  const std::uint64_t requests_before = requests_counter.value();
  const std::size_t warm_requests = std::min<std::size_t>(requests, 500);
  run_clients(*engine, instances, warm_requests, solver, clients);
  const std::uint64_t warm_served = requests_counter.value() - requests_before;
  const double allocs_per_warm_hit =
      warm_served > 0 ? static_cast<double>(allocs_counter.value() -
                                            allocs_before) /
                            static_cast<double>(warm_served)
                      : 0.0;

  const std::vector<obs::Profiler::ComponentStats> components =
      telemetry.profiler.stats();
  const std::vector<obs::Profiler::MutexStats> mutexes =
      telemetry.profiler.mutexes();

  std::cout << "profile overhead: " << requests << " warm-path requests, "
            << clients << " clients, solver " << solver << "\n"
            << "  profiler off  " << off_rps << " req/s\n"
            << "  profiler on   " << on_rps << " req/s (overhead "
            << overhead_pct << "%)\n"
            << "  allocs/warm-hit " << allocs_per_warm_hit << "\n";
  for (const obs::Profiler::ComponentStats& component : components) {
    std::cout << "  component " << component.name << ": "
              << component.samples << " samples, wall "
              << component.wall_seconds << "s, cpu " << component.cpu_seconds
              << "s, blocked " << component.blocked_seconds << "s\n";
  }
  if (!mutexes.empty()) {
    std::cout << "  top contended mutex: " << mutexes.front().name << " ("
              << mutexes.front().contended << "/"
              << mutexes.front().acquisitions << " contended, wait "
              << mutexes.front().wait_seconds << "s)\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"profile_overhead\",\"solver\":\"" << solver
      << "\",\"requests\":" << requests << ",\"unique_instances\":" << unique
      << ",\"threads\":" << threads << ",\"clients\":" << clients
      << ",\"off_seconds\":" << off_seconds << ",\"off_rps\":" << off_rps
      << ",\"on_seconds\":" << on_seconds << ",\"on_rps\":" << on_rps
      << ",\"overhead_pct\":" << overhead_pct
      << ",\"allocs_per_warm_hit\":" << allocs_per_warm_hit
      << ",\"components\":[";
  bool first = true;
  for (const obs::Profiler::ComponentStats& component : components) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << component.name
        << "\",\"samples\":" << component.samples
        << ",\"wall_seconds\":" << component.wall_seconds
        << ",\"cpu_seconds\":" << component.cpu_seconds
        << ",\"blocked_seconds\":" << component.blocked_seconds
        << ",\"allocs\":" << component.alloc_count << "}";
  }
  out << "],\"mutexes\":[";
  first = true;
  for (const obs::Profiler::MutexStats& mutex : mutexes) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << mutex.name
        << "\",\"acquisitions\":" << mutex.acquisitions
        << ",\"contended\":" << mutex.contended
        << ",\"wait_seconds\":" << mutex.wait_seconds << "}";
  }
  out << "]}\n";
  return 0;
}
