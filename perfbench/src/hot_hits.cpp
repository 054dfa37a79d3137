// hot_hits: one in-process SolveService, closed loop, fewer client
// threads than CPUs. Zipf-skewed repeats over a warmed key set of
// Section 8.2 instances, including processor-permuted isomorphic copies,
// so every timed request is an exact cache hit that still runs canonical
// relabelling. The solver, batching and network do no timed work here;
// canonicalize, the key hash, the cache lookup and the engine's hit path
// do all of it.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <limits>
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

constexpr std::size_t kBaseInstances = 32;
constexpr std::size_t kLabelVariants = 3;  // original + 2 permuted copies
constexpr double kZipfS = 1.0;
constexpr std::size_t kSequenceLength = 1 << 16;
constexpr int kSetups = 7;
const char* const kSolvers[] = {"heur-l", "heur-p", "portfolio"};

/// One distinct request as a client sends it: an instance in its own
/// labels, a solver and bounds, plus its expected answer.
struct Variant {
  prts::Instance instance;
  std::string solver;
  prts::solver::Bounds bounds;
  CanonicalHash key;
  std::optional<prts::solver::Solution> expected;  ///< request labels
  CanonicalHash digest;                            ///< of `expected`
  bool warm = false;  ///< submitted once during set-up
};

struct Inputs {
  std::vector<Variant> variants;
  std::vector<std::vector<std::uint32_t>> sequences;  ///< per client
  std::size_t keys = 0;
  std::size_t infeasible_keys = 0;
  std::map<std::string, double> solver_seconds;
  std::map<std::string, std::size_t> solver_requests;
  std::map<std::string, std::size_t> solver_feasible;
};

/// Bounds ladder of one het instance, scaled by its fastest-processor
/// makespan so each rung mixes feasible and infeasible answers.
std::vector<prts::solver::Bounds> bounds_ladder(const prts::Instance& instance) {
  double fastest = 0.0;
  for (const auto& processor : instance.platform.processors()) {
    fastest = std::max(fastest, processor.speed);
  }
  const double span = instance.chain.total_work() / fastest;
  const double inf = std::numeric_limits<double>::infinity();
  return {{inf, inf}, {span, inf}, {0.4 * span, 3.0 * span},
          {0.15 * span, 2.0 * span}};
}

Inputs make_inputs(const Options& options, std::size_t clients) {
  Inputs inputs;
  prts::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 11);
  for (std::size_t b = 0; b < kBaseInstances; ++b) {
    const prts::Instance base = paper_het_instance(rng);
    std::vector<prts::Instance> labels{base};
    for (std::size_t v = 1; v < kLabelVariants; ++v) {
      labels.push_back(permuted_copy(base, rng));
    }
    std::vector<CanonicalInstance> canonicals;
    for (const auto& instance : labels) {
      canonicals.push_back(prts::service::canonicalize(instance));
    }
    const auto ladder = bounds_ladder(base);
    for (const char* solver : kSolvers) {
      double seconds = 0.0;
      const auto answers =
          cold_solve(canonicals[0].instance, solver, ladder, seconds);
      inputs.solver_seconds[solver] += seconds;
      inputs.solver_requests[solver] += ladder.size();
      for (std::size_t j = 0; j < ladder.size(); ++j) {
        ++inputs.keys;
        if (!answers[j]) ++inputs.infeasible_keys;
        if (answers[j]) ++inputs.solver_feasible[solver];
        for (std::size_t v = 0; v < labels.size(); ++v) {
          Variant variant{
              labels[v], solver, ladder[j],
              prts::service::request_key(canonicals[v], solver, ladder[j]),
              in_request_labels(answers[j], canonicals[v]), {}, v == 0};
          variant.digest = answer_digest(variant.expected);
          inputs.variants.push_back(std::move(variant));
        }
      }
    }
  }
  // Popularity: Zipf over a seeded shuffle of the variants.
  std::vector<std::uint32_t> order(inputs.variants.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::shuffle(order.begin(), order.end(), rng);
  const std::vector<double> cumulative = zipf_cumulative(order.size(), kZipfS);
  for (std::size_t c = 0; c < clients; ++c) {
    prts::Rng client_rng = rng.split();
    std::vector<std::uint32_t> sequence(kSequenceLength);
    for (auto& index : sequence) index = order[zipf_draw(client_rng, cumulative)];
    inputs.sequences.push_back(std::move(sequence));
  }
  return inputs;
}

/// One service built the way `prts_cli serve` builds it. The telemetry
/// is declared first so it outlives the service.
struct Deployment {
  std::unique_ptr<prts::obs::Telemetry> telemetry;
  std::unique_ptr<SolveService> service;
};

bool same_answer(const SolveReply& reply, const Variant& variant) {
  if (!answered(reply)) return false;
  if (reply.solution.has_value() != variant.expected.has_value()) return false;
  return !reply.solution || (reply.solution->mapping == variant.expected->mapping &&
                             reply.solution->metrics == variant.expected->metrics);
}

/// Builds the service and solves every key once (the warm-up users would
/// have paid before the hot phase); returns the set-up seconds.
double deploy(const Inputs& inputs, Deployment& deployment, Result& result) {
  const std::int64_t start = now_ns();
  deployment.telemetry = std::make_unique<prts::obs::Telemetry>();
  start_serve_telemetry(*deployment.telemetry);
  prts::service::ServiceConfig config;
  config.telemetry = deployment.telemetry.get();
  deployment.service = std::make_unique<SolveService>(config);
  std::vector<std::pair<const Variant*, std::future<SolveReply>>> warm;
  for (const Variant& variant : inputs.variants) {
    if (!variant.warm) continue;
    warm.emplace_back(&variant, deployment.service->submit(SolveRequest(
                                    variant.instance, variant.solver,
                                    variant.bounds)));
  }
  std::vector<SolveReply> replies;
  for (auto& [variant, future] : warm) replies.push_back(future.get());
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    if (!same_answer(replies[i], *warm[i].first) ||
        answer_digest(replies[i].solution) != warm[i].first->digest) {
      result.fail("hot_hits warm-up answer differs from the cold solve");
      break;
    }
  }
  return seconds;
}

struct ClientTotals {
  LatencyHistogram latency;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t misses = 0;  ///< answers not served as exact cache hits
  std::uint64_t allocations = 0;  ///< traced pass: canonicalize..reply
  SpanBuffer spans;
};

struct PassOutcome {
  ClientTotals totals;
  double seconds = 0.0;
  ProcDelta proc;
  std::size_t threads = 0;
  SpanLog spans;
};

/// One closed-loop pass of `seconds` with one thread per sequence.
/// Untraced clients call SolveService::submit as any caller would; traced
/// clients make the same calls the service makes inside submit
/// (canonicalize, request_key, submit_canonicalized) so that each layer
/// gets its own span, and count the request's allocations.
PassOutcome run_pass(const Inputs& inputs, SolveService& service,
                     double seconds, bool traced) {
  const std::size_t clients = inputs.sequences.size();
  std::vector<ClientTotals> totals(clients);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTotals& mine = totals[c];
      const auto& sequence = inputs.sequences[c];
      std::vector<std::uint8_t> byte_checked(inputs.variants.size(), 0);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      std::uint64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t index = sequence[seq % sequence.size()];
        const Variant& variant = inputs.variants[index];
        SolveRequest request(variant.instance, variant.solver, variant.bounds);
        SolveReply reply;
        const std::int64_t t0 = now_ns();
        if (!traced) {
          reply = service.submit(std::move(request)).get();
        } else {
          const prts::obs::AllocScope allocs;
          auto canonical = std::make_shared<const CanonicalInstance>(
              prts::service::canonicalize(request.instance));
          const std::int64_t t1 = now_ns();
          const CanonicalHash key = prts::service::request_key(
              *canonical, request.solver, request.bounds);
          const std::int64_t t2 = now_ns();
          auto future = service.submit_canonicalized(std::move(request),
                                                     std::move(canonical), key);
          const std::int64_t t3 = now_ns();
          reply = future.get();
          const std::int64_t t4 = now_ns();
          mine.allocations += allocs.delta().count;
          if (mine.spans.keep(seq)) {
            const std::uint64_t id = (std::uint64_t{c} << 40) | seq;
            const Span spans[] = {
                {id, 1, 0, "request", t0, t4},
                {id, 2, 1, "canonical.canonicalize", t0, t1},
                {id, 3, 1, "canonical.request_key", t1, t2},
                {id, 4, 1, "engine.submit_canonicalized", t2, t3},
                {id, 5, 1, "engine.future_get", t3, t4}};
            mine.spans.add(seq, spans, 5);
          }
        }
        mine.latency.record(now_ns() - t0);
        ++seq;
        if (!answered(reply)) {
          ++mine.failed;
          continue;
        }
        ++mine.answered;
        if (!reply.cache_hit) ++mine.misses;
        if (!same_answer(reply, variant)) ++mine.mismatched;
        if (!byte_checked[index]) {
          byte_checked[index] = 1;
          if (answer_digest(reply.solution) != variant.digest) ++mine.mismatched;
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const ProcCounters before = read_proc();
  go.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  const ProcCounters mid = read_proc();
  for (auto& thread : threads) thread.join();
  const ProcCounters after = read_proc();

  PassOutcome outcome;
  outcome.seconds = static_cast<double>(after.wall_ns - before.wall_ns) / 1e9;
  outcome.threads = mid.threads;
  for (auto& mine : totals) {
    outcome.totals.latency.merge(mine.latency);
    outcome.totals.answered += mine.answered;
    outcome.totals.failed += mine.failed;
    outcome.totals.mismatched += mine.mismatched;
    outcome.totals.misses += mine.misses;
    outcome.totals.allocations += mine.allocations;
    outcome.spans.merge(mine.spans);
  }
  outcome.proc = proc_delta(before, after, outcome.totals.answered);
  return outcome;
}

void check_pass(const PassOutcome& pass, Result& result) {
  result.attempted += pass.totals.answered + pass.totals.failed;
  result.failed += pass.totals.failed;
  if (pass.totals.mismatched > 0) {
    result.fail("hot_hits: " + std::to_string(pass.totals.mismatched) +
                " answers differ from the cold solve");
  }
  if (pass.totals.misses > 0) {
    std::cerr << "# hot_hits: " << pass.totals.misses
              << " timed answers were not exact cache hits\n";
  }
}

}  // namespace

void run_hot_hits(const Options& options, Result& result) {
  const std::size_t clients = std::max<unsigned>(1, options.cpus - 1);
  const Inputs inputs = make_inputs(options, clients);
  if (const std::string missed =
          gate_self_test(*std::find_if(inputs.variants.begin(),
                                       inputs.variants.end(),
                                       [](const Variant& v) {
                                         return v.expected.has_value();
                                       })->expected);
      !missed.empty()) {
    result.fail("gate self-test accepted a corrupted answer:" + missed);
  }
  std::cerr << "# hot_hits: " << inputs.keys << " keys ("
            << inputs.infeasible_keys << " infeasible), "
            << inputs.variants.size() << " request variants, " << clients
            << " clients\n";

  std::vector<double> setups;
  Deployment deployment;
  for (int i = 0; i < kSetups; ++i) {
    deployment.service.reset();  // before the telemetry it points at
    deployment.telemetry.reset();
    setups.push_back(deploy(inputs, deployment, result));
  }
  SolveService& service = *deployment.service;

  if (!options.trace) {
    const PassOutcome pass = run_pass(inputs, service, options.seconds, false);
    check_pass(pass, result);
    result.set("setup_s", median(setups));
    result.set("throughput_rps",
               static_cast<double>(pass.totals.answered) / pass.seconds);
    result.set("cpu_us_per_req", pass.proc.cpu_us_per_req);
    result.set("peak_rss_mb", peak_rss_mb());
    std::cerr << "# hot_hits: " << pass.totals.answered << " answers in "
              << pass.seconds << " s; latency p50 "
              << pass.totals.latency.quantile_us(0.50) << " us, p99 "
              << pass.totals.latency.quantile_us(0.99) << " us over "
              << pass.totals.latency.count() << " samples; host steal "
              << pass.proc.steal_ms_per_s << " ms/s\n";
    return;
  }

  // Traced run: the same loop untraced, then traced, for the overhead.
  const PassOutcome plain = run_pass(inputs, service, options.seconds / 2, false);
  const PassOutcome traced = run_pass(inputs, service, options.seconds / 2, true);
  check_pass(plain, result);
  check_pass(traced, result);
  const auto summary = traced.spans.summarize();
  const auto p50 = [&](const char* name) {
    const auto found = summary.find(name);
    return found == summary.end() ? 0.0 : found->second.p50_us;
  };
  const double plain_rate = static_cast<double>(plain.totals.answered) / plain.seconds;
  const double traced_rate =
      static_cast<double>(traced.totals.answered) / traced.seconds;
  result.set("obs.trace_overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0);
  result.set("canonical.canonicalize_us", p50("canonical.canonicalize"));
  result.set("canonical.request_key_us", p50("canonical.request_key"));
  result.set("engine.hit_submit_us", p50("engine.submit_canonicalized"));
  result.set("engine.allocs_per_hit",
             static_cast<double>(traced.totals.allocations) /
                 static_cast<double>(std::max<std::uint64_t>(
                     traced.totals.answered + traced.totals.failed, 1)));
  result.set("trace.self_gap_us", traced.spans.max_accounting_gap_us());
  result.set("latency.samples", static_cast<double>(plain.totals.latency.count()));
  result.set("latency.p50_us", plain.totals.latency.quantile_us(0.50));
  result.set("latency.p99_us", plain.totals.latency.quantile_us(0.99));
  result.set("proc.steal_ms_per_s", plain.proc.steal_ms_per_s);
  result.set("proc.runq_wait_ms_per_s", plain.proc.runq_wait_ms_per_s);
  result.set("proc.ctx_switches_per_req", plain.proc.ctx_switches_per_req);
  result.set("proc.threads", static_cast<double>(plain.threads));

  report_engine_and_cache({&service}, result);

  // Replay the first client's key sequence straight into the cache.
  const auto& sequence = inputs.sequences[0];
  const std::size_t lookups = 4 * sequence.size();
  std::size_t found = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < lookups; ++i) {
    found += service.cache()
                 .lookup(inputs.variants[sequence[i % sequence.size()]].key)
                 .has_value();
  }
  result.set("cache.lookup_us",
             static_cast<double>(now_ns() - start) / 1e3 /
                 static_cast<double>(lookups));
  if (found != lookups) result.fail("hot_hits: replayed cache lookups missed");

  for (const char* solver : kSolvers) {
    const std::string prefix = std::string("solver.") + solver;
    result.set(prefix + ".solve_ms", inputs.solver_seconds.at(solver) * 1e3 /
                                         static_cast<double>(
                                             inputs.solver_requests.at(solver)));
    const auto feasible = inputs.solver_feasible.find(solver);
    result.set(prefix + ".feasible", feasible == inputs.solver_feasible.end()
                                         ? 0.0
                                         : static_cast<double>(feasible->second));
  }
  write_spans(options, traced.spans);
}

}  // namespace perfbench
