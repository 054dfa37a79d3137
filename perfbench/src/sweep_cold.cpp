// sweep_cold: one in-process SolveService, closed loop, over a fixed
// list of fresh Section 8.1 instances. Each client submits one
// instance's whole Figure 6/7 ladder at once (period 50..500 step 50,
// L = 750, as examples/section8_sweep.campaign) for the exact, heur-l,
// heur-p and portfolio solvers, and waits for all 40 answers. Nothing
// repeats across instances, so the solvers, batch sessions and the
// near-miss index do the work and the hit path is noise. Throughput is
// taken over the fixed work list, not a fixed time window, so that every
// run covers the same instances.
#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

using prts::service::CanonicalHash;
using prts::service::CanonicalInstance;
using prts::service::SolveReply;
using prts::service::SolveRequest;
using prts::service::SolveService;

const char* const kSolvers[] = {"exact", "heur-l", "heur-p", "portfolio"};
constexpr std::size_t kSolverCount = 4;
/// Work-list size per measured second; sized on a 4-core x86 host so the
/// list takes about --seconds to answer there.
constexpr double kInstancesPerSecond = 70.0;
constexpr int kSetups = 7;

std::vector<prts::solver::Bounds> ladder() {
  std::vector<prts::solver::Bounds> bounds;
  for (int period = 50; period <= 500; period += 50) {
    bounds.push_back({static_cast<double>(period), 750.0});
  }
  return bounds;
}

struct Deployment {
  std::unique_ptr<prts::obs::Telemetry> telemetry;
  std::unique_ptr<SolveService> service;
};

/// The requests of one instance's ladder, solver-major.
std::vector<SolveRequest> ladder_requests(const prts::Instance& instance) {
  std::vector<SolveRequest> requests;
  for (const char* solver : kSolvers) {
    for (const auto& bounds : ladder()) {
      requests.emplace_back(instance, solver, bounds);
    }
  }
  return requests;
}

/// Builds a serve-shaped service and answers one warm-up ladder, so the
/// pool threads and solver code are warm; returns the seconds. The
/// answers are appended to `warm_replies` for the gate.
double deploy(const prts::Instance& warm_instance, Deployment& deployment,
              std::vector<SolveReply>& warm_replies) {
  const std::int64_t start = now_ns();
  deployment.telemetry = std::make_unique<prts::obs::Telemetry>();
  start_serve_telemetry(*deployment.telemetry);
  prts::service::ServiceConfig config;
  config.telemetry = deployment.telemetry.get();
  deployment.service = std::make_unique<SolveService>(config);
  std::vector<std::future<SolveReply>> futures;
  for (auto& request : ladder_requests(warm_instance)) {
    futures.push_back(deployment.service->submit(std::move(request)));
  }
  for (auto& future : futures) warm_replies.push_back(future.get());
  return static_cast<double>(now_ns() - start) / 1e9;
}

struct PassOutcome {
  std::vector<std::vector<SolveReply>> replies;  ///< per instance
  LatencyHistogram ladder_latency;
  double seconds = 0.0;
  ProcDelta proc;
  std::size_t threads = 0;
  SpanLog spans;
};

/// Answers the whole work list with `clients` closed-loop clients. The
/// traced pass makes the calls SolveService::submit makes itself
/// (canonicalize, request_key, submit_canonicalized) under spans.
PassOutcome run_pass(const std::vector<prts::Instance>& work,
                     SolveService& service, std::size_t clients, bool traced) {
  PassOutcome outcome;
  outcome.replies.resize(work.size());
  std::vector<LatencyHistogram> latencies(clients);
  std::vector<SpanBuffer> buffers(clients);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      std::vector<Span> spans;
      for (std::size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        std::vector<SolveRequest> requests = ladder_requests(work[i]);
        std::vector<std::future<SolveReply>> futures;
        futures.reserve(requests.size());
        const std::int64_t t0 = now_ns();
        spans.clear();
        const std::uint64_t id = i;
        std::uint16_t span_id = 2;
        for (auto& request : requests) {
          if (!traced) {
            futures.push_back(service.submit(std::move(request)));
            continue;
          }
          const std::int64_t s0 = now_ns();
          auto canonical = std::make_shared<const CanonicalInstance>(
              prts::service::canonicalize(request.instance));
          const std::int64_t s1 = now_ns();
          const CanonicalHash key = prts::service::request_key(
              *canonical, request.solver, request.bounds);
          const std::int64_t s2 = now_ns();
          futures.push_back(service.submit_canonicalized(
              std::move(request), std::move(canonical), key));
          const std::int64_t s3 = now_ns();
          spans.push_back({id, span_id++, 1, "canonical.canonicalize", s0, s1});
          spans.push_back({id, span_id++, 1, "canonical.request_key", s1, s2});
          spans.push_back(
              {id, span_id++, 1, "engine.submit_canonicalized", s2, s3});
        }
        const std::int64_t waiting = now_ns();
        auto& replies = outcome.replies[i];
        for (auto& future : futures) replies.push_back(future.get());
        const std::int64_t t1 = now_ns();
        latencies[c].record(t1 - t0);
        if (traced) {
          spans.push_back({id, span_id++, 1, "engine.wait_answers", waiting, t1});
          spans.push_back({id, 1, 0, "ladder", t0, t1});
          buffers[c].add(i, spans.data(), spans.size());
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const ProcCounters before = read_proc();
  go.store(true);
  for (auto& thread : threads) thread.join();
  const ProcCounters after = read_proc();
  outcome.seconds = static_cast<double>(after.wall_ns - before.wall_ns) / 1e9;
  outcome.threads = after.threads;
  for (std::size_t c = 0; c < clients; ++c) {
    outcome.ladder_latency.merge(latencies[c]);
    outcome.spans.merge(buffers[c]);
  }
  outcome.proc = proc_delta(before, after, work.size() * kSolverCount * ladder().size());
  return outcome;
}

/// Reference replay: every distinct canonical request of the work list
/// solved cold, straight through the builtin registry, on `clients`
/// threads. Returns the expected answers (request labels) per instance.
struct Replay {
  std::vector<std::vector<CanonicalHash>> digests;  ///< per instance
  double solver_seconds[kSolverCount] = {};
  std::size_t feasible[kSolverCount] = {};
  std::size_t requests_per_solver = 0;
};

Replay replay(const std::vector<prts::Instance>& work, std::size_t clients) {
  Replay result;
  result.digests.resize(work.size());
  result.requests_per_solver = work.size() * ladder().size();
  std::vector<std::array<double, kSolverCount>> seconds(clients);
  std::vector<std::array<std::size_t, kSolverCount>> feasible(clients);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    seconds[c].fill(0.0);
    feasible[c].fill(0);
    threads.emplace_back([&, c] {
      for (std::size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        const CanonicalInstance canonical = prts::service::canonicalize(work[i]);
        for (std::size_t s = 0; s < kSolverCount; ++s) {
          double elapsed = 0.0;
          const auto answers =
              cold_solve(canonical.instance, kSolvers[s], ladder(), elapsed);
          seconds[c][s] += elapsed;
          for (const auto& answer : answers) {
            feasible[c][s] += answer.has_value();
            result.digests[i].push_back(
                answer_digest(in_request_labels(answer, canonical)));
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t s = 0; s < kSolverCount; ++s) {
      result.solver_seconds[s] += seconds[c][s];
      result.feasible[s] += feasible[c][s];
    }
  }
  return result;
}

/// The gate: every answer byte-identical to the replay, and per-solver
/// feasible counts equal.
void check(const PassOutcome& pass, const Replay& reference, Result& result) {
  std::size_t mismatched = 0;
  std::size_t feasible[kSolverCount] = {};
  for (std::size_t i = 0; i < pass.replies.size(); ++i) {
    const auto& replies = pass.replies[i];
    for (std::size_t r = 0; r < replies.size(); ++r) {
      ++result.attempted;
      if (!answered(replies[r])) {
        ++result.failed;
        continue;
      }
      feasible[r / ladder().size()] += replies[r].solution.has_value();
      if (answer_digest(replies[r].solution) != reference.digests[i][r]) {
        ++mismatched;
      }
    }
  }
  if (mismatched > 0) {
    result.fail("sweep_cold: " + std::to_string(mismatched) +
                " answers differ from the cold solve");
  }
  for (std::size_t s = 0; s < kSolverCount; ++s) {
    if (feasible[s] != reference.feasible[s]) {
      result.fail(std::string("sweep_cold: ") + kSolvers[s] + " answered " +
                  std::to_string(feasible[s]) + " feasible, the replay " +
                  std::to_string(reference.feasible[s]));
    }
  }
}

}  // namespace

void run_sweep_cold(const Options& options, Result& result) {
  const std::size_t clients = options.cpus;
  // A traced run makes two passes (untraced and traced) over half a list.
  const std::size_t instances = static_cast<std::size_t>(
      kInstancesPerSecond * options.seconds / (options.trace ? 2.0 : 1.0));
  prts::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 23);
  const prts::Instance warm_instance = paper_hom_instance(rng);
  std::vector<prts::Instance> work;
  for (std::size_t i = 0; i < instances; ++i) {
    work.push_back(paper_hom_instance(rng));
  }

  std::vector<double> setups;
  std::vector<SolveReply> warm_replies;
  Deployment deployment;
  for (int i = 0; i < kSetups; ++i) {
    deployment.service.reset();  // before the telemetry it points at
    deployment.telemetry.reset();
    setups.push_back(deploy(warm_instance, deployment, warm_replies));
  }
  // Warm-up answers face the same gate as timed ones.
  const Replay warm_reference = replay({warm_instance}, 1);
  const auto check_warm = [&](const std::vector<SolveReply>& replies) {
    const auto& expected = warm_reference.digests[0];
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (!answered(replies[i]) ||
          answer_digest(replies[i].solution) != expected[i % expected.size()]) {
        result.fail("sweep_cold: a warm-up answer differs from the cold solve");
        return;
      }
    }
  };
  check_warm(warm_replies);

  const PassOutcome pass = run_pass(work, *deployment.service, clients, false);
  const Replay reference = replay(work, clients);
  check(pass, reference, result);
  {
    // The gate must catch a corrupted answer of this workload's shape.
    const auto& first = pass.replies.front();
    const auto sample = std::find_if(first.begin(), first.end(),
                                     [](const SolveReply& reply) {
                                       return reply.solution.has_value();
                                     });
    if (sample != first.end()) {
      if (const std::string missed = gate_self_test(*sample->solution);
          !missed.empty()) {
        result.fail("gate self-test accepted a corrupted answer:" + missed);
      }
    }
  }
  const double requests = static_cast<double>(instances * kSolverCount *
                                              ladder().size());
  std::cerr << "# sweep_cold: " << instances << " ladders (" << requests
            << " requests) in " << pass.seconds << " s, " << clients
            << " clients; ladder latency p50 "
            << pass.ladder_latency.quantile_us(0.50) << " us, p99 "
            << pass.ladder_latency.quantile_us(0.99) << " us; host steal "
            << pass.proc.steal_ms_per_s << " ms/s\n";

  if (!options.trace) {
    result.set("setup_s", median(setups));
    result.set("throughput_rps", requests / pass.seconds);
    result.set("cpu_us_per_req", pass.proc.cpu_us_per_req);
    result.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  Deployment traced_deployment;
  warm_replies.clear();
  deploy(warm_instance, traced_deployment, warm_replies);
  check_warm(warm_replies);
  SolveService& service = *traced_deployment.service;
  const PassOutcome traced = run_pass(work, service, clients, true);
  check(traced, reference, result);
  result.set("obs.trace_overhead_pct", (traced.seconds / pass.seconds - 1.0) * 100.0);
  const auto summary = traced.spans.summarize();
  const auto p50 = [&](const char* name) {
    const auto found = summary.find(name);
    return found == summary.end() ? 0.0 : found->second.p50_us;
  };
  result.set("canonical.canonicalize_us", p50("canonical.canonicalize"));
  result.set("canonical.request_key_us", p50("canonical.request_key"));
  result.set("trace.self_gap_us", traced.spans.max_accounting_gap_us());
  result.set("latency.samples", static_cast<double>(pass.ladder_latency.count()));
  result.set("latency.p50_us", pass.ladder_latency.quantile_us(0.50));
  result.set("latency.p99_us", pass.ladder_latency.quantile_us(0.99));
  result.set("proc.steal_ms_per_s", pass.proc.steal_ms_per_s);
  result.set("proc.runq_wait_ms_per_s", pass.proc.runq_wait_ms_per_s);
  result.set("proc.ctx_switches_per_req", pass.proc.ctx_switches_per_req);
  result.set("proc.threads", static_cast<double>(pass.threads));

  report_engine_and_cache({&service}, result);

  // Replay every request's key into lookup() and its (instance, solver)
  // key and bounds into find_dominating(), straight into the cache.
  std::vector<std::pair<CanonicalHash, CanonicalHash>> keys;
  std::vector<prts::solver::Bounds> bounds;
  for (const auto& instance : work) {
    const CanonicalInstance canonical = prts::service::canonicalize(instance);
    for (const char* solver : kSolvers) {
      const CanonicalHash batch = prts::service::batch_key(canonical, solver);
      for (const auto& rung : ladder()) {
        keys.emplace_back(prts::service::request_key(canonical, solver, rung),
                          batch);
        bounds.push_back(rung);
      }
    }
  }
  std::int64_t start = now_ns();
  std::size_t found = 0;
  for (const auto& key : keys) found += service.cache().lookup(key.first).has_value();
  result.set("cache.lookup_us", static_cast<double>(now_ns() - start) / 1e3 /
                                    static_cast<double>(keys.size()));
  start = now_ns();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    found += service.cache().find_dominating(keys[i].second, bounds[i]).has_value();
  }
  result.set("cache.near_lookup_us", static_cast<double>(now_ns() - start) / 1e3 /
                                         static_cast<double>(keys.size()));
  std::cerr << "# sweep_cold: cache replay found " << found << " of "
            << 2 * keys.size() << "\n";

  for (std::size_t s = 0; s < kSolverCount; ++s) {
    const std::string prefix = std::string("solver.") + kSolvers[s];
    result.set(prefix + ".solve_ms",
               reference.solver_seconds[s] * 1e3 /
                   static_cast<double>(reference.requests_per_solver));
    result.set(prefix + ".feasible", static_cast<double>(reference.feasible[s]));
  }
  write_spans(options, traced.spans);
}

}  // namespace perfbench
