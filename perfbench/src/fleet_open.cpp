// fleet_open: a 3-rank in-process fabric over loopback TCP (the
// repository's gtest-free tests/fabric_harness.hpp), driven open loop by
// Poisson arrivals from load::generate_arrivals, modelling independent
// users. Each arrival enters at a seeded rank, so about 2/3 of requests
// are forwarded. The key space is large and mildly skewed and the solver
// is the cheap heur-p, so nearly every request writes a new cache entry
// and the router, mux client, frame server, wire codecs and thread
// hand-offs dominate.
//
// End to end it reports latency at one fixed offered rate below the
// knee, and the knee: the highest offered rate whose p99 meets the limit
// with no growing backlog, found by ramping until a step fails and then
// bisecting. A step in which the generator itself ran later than the
// limit is invalid, not a pass; a search that never fails is "not
// bracketed" and the run fails instead of reporting its cap.
//
// Arrivals are paced by one generator lane per CPU, each with its own
// reaper thread that timestamps completions: it blocks on the lane's
// oldest outstanding future with a 100 us timeout and then sweeps the
// rest, so in-order completions are seen within a futex wake-up and
// out-of-order ones within about 100 us. Generator threads run at a
// raised priority so that they keep their schedule on shared CPUs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "fabric_harness.hpp"
#include "load/arrivals.hpp"
#include "net/frame.hpp"
#include "net/mux_client.hpp"
#include "service/wire.hpp"

namespace perfbench {
namespace {

using prts::service::CanonicalHash;
using prts::service::CanonicalInstance;
using prts::service::SolveReply;
using prts::service::SolveRequest;
using FabricHarness = prts::service::testing::FabricHarness;

constexpr std::size_t kWorld = 3;
constexpr std::size_t kInstances = 16384;
constexpr std::size_t kRungs = 16;  // latency bounds per instance
constexpr double kZipfS = 0.6;      // mild skew
const char* const kSolver = "heur-p";
/// The fixed offered rate of the latency and CPU measurements.
constexpr double kFixedRate = 8000.0;
/// The p99 latency limit of a knee step, from scheduled arrival.
constexpr double kLimitSeconds = 0.100;
constexpr double kRampStart = 4000.0;
constexpr double kRampFactor = 1.5;
constexpr double kRateCap = 200000.0;
constexpr int kBisections = 3;
/// Hot keys solved during set-up: the most popular instances, all rungs.
constexpr std::size_t kWarmInstances = 256;
constexpr int kSetups = 3;
/// A step whose stragglers are still unanswered this long after the
/// last arrival counts them as failed.
constexpr double kDrainSeconds = 20.0;

/// One offered request and what became of it.
struct Record {
  std::uint32_t instance = 0;
  std::uint16_t rung = 0;
  std::uint8_t entry = 0;     ///< rank the request entered at
  bool answered = false;
  std::int64_t due_ns = 0;    ///< scheduled arrival
  std::int64_t submit_ns = 0;  ///< submit() called
  std::int64_t submitted_ns = 0;  ///< submit() returned
  std::int64_t done_ns = 0;   ///< completion seen (0: unresolved)
  CanonicalHash digest;       ///< of the answer
};

prts::solver::Bounds rung_bounds(std::size_t instance, std::size_t rung) {
  // The generator's ladder (load/arrivals.cpp): loose, distinct rungs.
  prts::solver::Bounds bounds;
  bounds.latency_bound = 1000.0 + 50.0 * static_cast<double>(rung) +
                         static_cast<double>(instance);
  return bounds;
}

struct Inputs {
  std::vector<prts::Instance> instances;
  std::vector<CanonicalInstance> canonicals;
};

/// The arrivals of one step: generator events plus a seeded entry rank.
std::vector<Record> schedule(double rate, double seconds, std::uint64_t seed) {
  prts::load::ArrivalConfig config;
  config.process = prts::load::Process::kPoisson;
  config.rate = rate;
  config.duration_seconds = seconds;
  config.key_count = kInstances;
  config.zipf_s = kZipfS;
  config.solver_mix = {{kSolver, 1.0}};
  config.bounds_per_key = kRungs;
  config.seed = seed;
  const prts::load::LoadTrace trace = prts::load::generate_arrivals(config);
  prts::Rng entry_rng(seed ^ 0x5bd1e995ULL);
  std::vector<Record> records;
  records.reserve(trace.events.size());
  for (const auto& event : trace.events) {
    Record record;
    record.instance = static_cast<std::uint32_t>(event.instance);
    record.rung = static_cast<std::uint16_t>(
        (event.bounds.latency_bound - 1000.0 - static_cast<double>(event.instance)) /
        50.0);
    record.entry =
        static_cast<std::uint8_t>(entry_rng.uniform_int(0, kWorld - 1));
    record.due_ns = static_cast<std::int64_t>(event.time_seconds * 1e9);
    records.push_back(record);
  }
  return records;
}

/// A fleet shaped like three `prts_cli serve` ranks.
std::unique_ptr<FabricHarness> make_harness() {
  FabricHarness::Options options;
  options.world = kWorld;
  options.server_threads = std::max<std::size_t>(2, 2 * kWorld);  // as serve
  auto harness = std::make_unique<FabricHarness>(options);
  for (std::size_t r = 0; r < kWorld; ++r) {
    start_serve_telemetry(harness->telemetry(r));
  }
  return harness;
}

struct StepOutcome {
  double rate = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  LatencyHistogram latency;       ///< due -> done; failures beyond the limit
  LatencyHistogram tail_latency;  ///< arrivals of the last quarter only
  LatencyHistogram lag;           ///< due -> submit()
  LatencyHistogram submit_call;   ///< submit() duration
  ProcDelta proc;
  std::size_t threads = 0;
  /// Answers per second from the first scheduled arrival to the last
  /// answer: the rate delivered, which a saturated fleet caps.
  double achieved_rps = 0.0;
  /// The larger of the whole step's p99 and its last quarter's p99:
  /// the step passes when this meets the limit and the step is valid.
  double limit_statistic_us = 0.0;
  bool valid = true;
  bool pass = true;
  std::string why;
};

/// One generator lane: paces arrivals lane, lane + lanes, ... of
/// `records` from `start` on, and timestamps their completions with its
/// own reaper thread. Lanes keep independent users independent: a
/// submit() that blocks, or a generator thread that waits for a CPU,
/// delays only its own lane's later arrivals.
void run_lane(FabricHarness& fleet, const Inputs& inputs,
              std::vector<Record>& records, std::size_t lane,
              std::size_t lanes, std::int64_t start) {
  struct Pending {
    std::size_t index;
    std::future<SolveReply> future;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Pending> incoming;
  bool pacing_done = false;
  std::int64_t hard_stop = 0;  // set once pacing is done

  const GeneratorPriority priority;  // inherited by the reaper
  tighten_timer_slack();
  std::thread reaper([&] {
    tighten_timer_slack();
    std::deque<Pending> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (pending.empty() && incoming.empty()) {
          if (pacing_done) return;
          cv.wait(lock, [&] { return pacing_done || !incoming.empty(); });
        }
        for (auto& item : incoming) pending.push_back(std::move(item));
        incoming.clear();
        if (pacing_done && !pending.empty() && now_ns() > hard_stop) return;
      }
      if (pending.empty()) continue;
      pending.front().future.wait_for(std::chrono::microseconds(100));
      const std::size_t sweep = std::min<std::size_t>(pending.size(), 2048);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Pending& item = pending[i];
        if (i < sweep && item.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
          const std::int64_t done = now_ns();
          const SolveReply reply = item.future.get();
          Record& record = records[item.index];
          record.done_ns = done;
          record.answered = answered(reply);
          if (record.answered) record.digest = answer_digest(reply.solution);
          continue;
        }
        if (kept != i) pending[kept] = std::move(item);
        ++kept;
      }
      pending.resize(kept);
    }
  });

  for (std::size_t i = lane; i < records.size(); i += lanes) {
    Record& record = records[i];
    record.due_ns += start;
    SolveRequest request(inputs.instances[record.instance], kSolver,
                         rung_bounds(record.instance, record.rung));
    const std::int64_t now = now_ns();
    if (now < record.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(record.due_ns - now));
    }
    record.submit_ns = now_ns();
    auto future = fleet.router(record.entry).submit(std::move(request));
    record.submitted_ns = now_ns();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      incoming.push_back({i, std::move(future)});
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    pacing_done = true;
    hard_stop = now_ns() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  }
  cv.notify_one();
  reaper.join();
}

/// Offers `records` open loop against the fleet on one generator lane
/// per CPU and waits for every answer (or the drain limit).
/// Timestamps are absolute steady-clock ns.
StepOutcome run_step(FabricHarness& fleet, const Inputs& inputs,
                     std::vector<Record>& records, double rate,
                     double seconds, std::size_t lanes) {
  const ProcCounters before = read_proc();
  const std::int64_t start = now_ns() + 5'000'000;
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      run_lane(fleet, inputs, records, lane, lanes, start);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  const std::size_t threads_seen = read_proc().threads;
  for (auto& thread : threads) thread.join();

  StepOutcome outcome;
  outcome.rate = rate;
  outcome.threads = threads_seen;
  const std::int64_t limit_ns = static_cast<std::int64_t>(kLimitSeconds * 1e9);
  const std::int64_t tail_from = start + static_cast<std::int64_t>(0.75 * seconds * 1e9);
  std::int64_t last_done = start;
  for (const Record& record : records) {
    ++outcome.submitted;
    std::int64_t latency = record.done_ns - record.due_ns;
    if (record.answered) {
      ++outcome.answered;
      last_done = std::max(last_done, record.done_ns);
    } else {
      // Failed and unresolved requests miss every latency limit.
      ++outcome.failed;
      latency = std::max(record.done_ns > 0 ? latency : 0, limit_ns) + 1;
    }
    outcome.latency.record(latency);
    if (record.due_ns >= tail_from) outcome.tail_latency.record(latency);
    outcome.lag.record(record.submit_ns - record.due_ns);
    outcome.submit_call.record(record.submitted_ns - record.submit_ns);
  }
  outcome.proc = proc_delta(before, read_proc(), outcome.answered);
  outcome.achieved_rps = static_cast<double>(outcome.answered) /
                         std::max(static_cast<double>(last_done - start) / 1e9, 1e-9);
  const double limit_us = kLimitSeconds * 1e6;
  const double p99 = outcome.latency.quantile_us(0.99);
  const double tail_p99 = outcome.tail_latency.quantile_us(0.99);
  outcome.limit_statistic_us = std::max(p99, tail_p99);
  if (outcome.lag.quantile_us(0.99) > limit_us) {
    outcome.valid = false;
    outcome.pass = false;
    outcome.why = "generator late";
  } else if (p99 > limit_us) {
    outcome.pass = false;
    outcome.why = "p99 over limit";
  } else if (tail_p99 > limit_us) {
    outcome.pass = false;
    outcome.why = "backlog growing";
  }
  return outcome;
}

void report_step(const char* phase, const StepOutcome& step) {
  std::cerr << "# fleet_open " << phase << " rate=" << step.rate
            << " achieved=" << step.achieved_rps
            << " submitted=" << step.submitted << " failed=" << step.failed
            << " p50=" << step.latency.quantile_us(0.5)
            << "us p99=" << step.latency.quantile_us(0.99)
            << "us tail_p99=" << step.tail_latency.quantile_us(0.99)
            << "us lag_p99=" << step.lag.quantile_us(0.99)
            << "us submit_p99=" << step.submit_call.quantile_us(0.99)
            << "us submit_max=" << step.submit_call.quantile_us(1.0)
            << "us runq_wait=" << step.proc.runq_wait_ms_per_s
            << "ms/s steal=" << step.proc.steal_ms_per_s
            << "ms/s cpu=" << step.proc.cpu_us_per_req << "us/req "
            << (step.pass ? "PASS" : step.valid ? "FAIL" : "INVALID")
            << (step.why.empty() ? "" : " (" + step.why + ")") << "\n";
}

/// Every answer the run received, against the cold reference solve of
/// its canonical request translated to its own labels.
void check_answers(const Inputs& inputs, const std::vector<Record>& records,
                   unsigned cpus, Result& result) {
  std::unordered_map<std::uint64_t, CanonicalHash> expected;
  for (const Record& record : records) {
    if (record.answered) {
      expected.emplace(std::uint64_t{record.instance} * kRungs + record.rung,
                       CanonicalHash{});
    }
  }
  std::vector<std::pair<const std::uint64_t, CanonicalHash>*> work;
  for (auto& entry : expected) work.push_back(&entry);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < cpus; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        const std::size_t instance = work[i]->first / kRungs;
        const std::size_t rung = work[i]->first % kRungs;
        const CanonicalInstance& canonical = inputs.canonicals[instance];
        double seconds = 0.0;
        const auto answer = cold_solve(canonical.instance, kSolver,
                                       {rung_bounds(instance, rung)}, seconds);
        work[i]->second = answer_digest(in_request_labels(answer[0], canonical));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::size_t mismatched = 0;
  for (const Record& record : records) {
    if (record.answered &&
        expected.at(std::uint64_t{record.instance} * kRungs + record.rung) !=
            record.digest) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    result.fail("fleet_open: " + std::to_string(mismatched) +
                " answers differ from the cold solve");
  }
  // The gate must catch a corrupted answer of this workload's shape.
  double seconds = 0.0;
  const auto sample = in_request_labels(
      cold_solve(inputs.canonicals[0].instance, kSolver, {rung_bounds(0, 0)},
                 seconds)[0],
      inputs.canonicals[0]);
  if (!sample) {
    result.fail("fleet_open: no feasible answer for the gate self-test");
  } else if (const std::string missed = gate_self_test(*sample); !missed.empty()) {
    result.fail("gate self-test accepted a corrupted answer:" + missed);
  }
  std::cerr << "# fleet_open: checked " << records.size() << " answers over "
            << expected.size() << " distinct requests\n";
}

/// Builds the fleet, opens every peer connection and solves the hot keys
/// (each entering at every rank, so replicas fill too); returns seconds.
double deploy(const Inputs& inputs, std::unique_ptr<FabricHarness>& fleet,
              std::vector<Record>& warm_records) {
  const std::int64_t start = now_ns();
  fleet = make_harness();
  std::vector<std::pair<std::size_t, std::future<SolveReply>>> futures;
  for (std::size_t instance = 0; instance < kWarmInstances; ++instance) {
    for (std::size_t rung = 0; rung < kRungs; ++rung) {
      for (std::size_t entry = 0; entry < kWorld; ++entry) {
        Record record;
        record.instance = static_cast<std::uint32_t>(instance);
        record.rung = static_cast<std::uint16_t>(rung);
        record.entry = static_cast<std::uint8_t>(entry);
        warm_records.push_back(record);
        futures.emplace_back(
            warm_records.size() - 1,
            fleet->router(entry).submit(SolveRequest(
                inputs.instances[instance], kSolver, rung_bounds(instance, rung))));
      }
    }
  }
  for (auto& [index, future] : futures) {
    const SolveReply reply = future.get();
    warm_records[index].answered = answered(reply);
    warm_records[index].digest = answer_digest(reply.solution);
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

prts::service::RouterStats router_totals(FabricHarness& fleet) {
  prts::service::RouterStats total;
  for (std::size_t r = 0; r < kWorld; ++r) {
    const auto stats = fleet.router(r).stats();
    total.local += stats.local;
    total.forwarded += stats.forwarded;
    total.forward_failures += stats.forward_failures;
    total.local_fallbacks += stats.local_fallbacks;
    total.deduplicated += stats.deduplicated;
    total.replica_hits += stats.replica_hits;
  }
  return total;
}

}  // namespace

void run_fleet_open(const Options& options, Result& result) {
  Inputs inputs;
  prts::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 37);
  inputs.instances.reserve(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    inputs.instances.push_back(paper_het_instance(rng));
    inputs.canonicals.push_back(prts::service::canonicalize(inputs.instances.back()));
  }

  std::vector<Record> all;  // every answer the run receives, for the gate
  std::vector<double> setups;
  std::unique_ptr<FabricHarness> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    setups.push_back(deploy(inputs, fleet, all));
  }
  if (std::any_of(all.begin(), all.end(),
                  [](const Record& record) { return !record.answered; })) {
    result.fail("fleet_open: a warm-up request was not answered");
  }
  std::uint64_t step_seed = options.seed * 1000003ULL;
  const auto offer = [&](const char* phase, double rate, double seconds) {
    std::vector<Record> records = schedule(rate, seconds, ++step_seed);
    StepOutcome step = run_step(*fleet, inputs, records, rate, seconds, options.cpus);
    report_step(phase, step);
    result.attempted += step.submitted;
    result.failed += step.failed;
    all.insert(all.end(), records.begin(), records.end());
    return step;
  };

  if (!options.trace) {
    const StepOutcome fixed = offer("fixed", kFixedRate, 0.3 * options.seconds);
    // Read before the knee search, whose request count (and so the cache
    // it fills) depends on how far the ramp climbs.
    const double rss_mb = peak_rss_mb();
    // The knee: ramp until a rate fails, then bisect. A rate fails only
    // when a second step at it fails too, so that one stall of the host
    // does not move the knee; the kept statistic is the retry's.
    const double step_seconds = 0.7 * options.seconds / 12.0;
    // `delivered` receives the answers/s of every step at the rate.
    const auto try_rate = [&](const char* phase, double rate,
                              std::vector<double>& delivered) {
      StepOutcome step = offer(phase, rate, step_seconds);
      delivered.assign(1, step.achieved_rps);
      if (step.pass) return step;
      step = offer("confirm", rate, step_seconds);
      delivered.push_back(step.achieved_rps);
      return step;
    };
    // Answers/s delivered at the first rate the ramp could not sustain:
    // the fleet's capacity under overload.
    std::vector<double> delivered;
    // Each bracket end keeps its rate and its limit statistic (p99).
    std::pair<double, double> passing{0.0, 0.0};
    std::pair<double, double> failing{0.0, 0.0};
    for (double rate = kRampStart; rate <= kRateCap; rate *= kRampFactor) {
      const StepOutcome step = try_rate("ramp", rate, delivered);
      (step.pass ? passing : failing) = {rate, step.limit_statistic_us};
      if (!step.pass) break;
    }
    const double capacity =
        std::accumulate(delivered.begin(), delivered.end(), 0.0) /
        static_cast<double>(delivered.size());
    if (failing.first == 0.0) {
      throw std::runtime_error("knee not bracketed: every step up to " +
                               std::to_string(kRateCap) + "/s passed");
    }
    if (passing.first == 0.0) {
      throw std::runtime_error("knee below the first step of " +
                               std::to_string(kRampStart) + "/s");
    }
    for (int i = 0; i < kBisections; ++i) {
      const double rate = (passing.first + failing.first) / 2.0;
      std::vector<double> unused;
      const StepOutcome step = try_rate("bisect", rate, unused);
      (step.pass ? passing : failing) = {rate, step.limit_statistic_us};
    }
    // Between the bracketing steps, take log(p99) as linear in the rate
    // and report where it crosses the limit.
    const double limit_us = kLimitSeconds * 1e6;
    const double share =
        std::clamp(std::log(limit_us / passing.second) /
                       std::log(failing.second / passing.second),
                   0.0, 1.0);
    const double knee = passing.first + share * (failing.first - passing.first);
    std::cerr << "# fleet_open: knee " << knee << "/s, bracketed by a passing "
              << "step at " << passing.first << "/s and a failing step at "
              << failing.first << "/s; capacity under overload " << capacity
              << "/s\n";
    check_answers(inputs, all, options.cpus, result);
    result.set("setup_s", median(setups));
    result.set("throughput_rps", capacity);
    result.set("cpu_us_per_req", fixed.proc.cpu_us_per_req);
    result.set("peak_rss_mb", rss_mb);
    return;
  }

  // Traced run: the fixed rate untraced, then traced with a ping probe.
  const StepOutcome plain = offer("fixed", kFixedRate, 0.4 * options.seconds);
  const auto routers_before = router_totals(*fleet);
  std::vector<Record> records = schedule(kFixedRate, 0.4 * options.seconds, ++step_seed);
  std::vector<LatencyHistogram> ping(1);
  std::atomic<bool> pinging{true};
  std::thread pinger([&] {
    prts::net::MuxFrameClient client("127.0.0.1", fleet->port(1));
    while (pinging.load()) {
      prts::net::Frame frame;
      frame.version = prts::net::kProtocolVersion2;
      frame.type = prts::net::FrameType::kPing;
      frame.payload = "perfbench";
      const std::int64_t start = now_ns();
      if (client.call(frame)) ping[0].record(now_ns() - start);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const StepOutcome traced =
      run_step(*fleet, inputs, records, kFixedRate, 0.4 * options.seconds,
               options.cpus);
  pinging.store(false);
  pinger.join();
  report_step("traced", traced);
  result.attempted += traced.submitted;
  result.failed += traced.failed;
  const auto routers_after = router_totals(*fleet);

  // Spans of the traced pass, rebuilt from its timestamps: the request
  // from its scheduled arrival, the generator's lag, the submit() call,
  // and the wait for the answer, split by whether the key's owner
  // (shard_of) is the entry rank.
  SpanLog log;
  SpanBuffer buffer(std::size_t{1} << 20);
  LatencyHistogram forward;
  LatencyHistogram local;
  std::vector<std::size_t> forwarded;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& record = records[i];
    const CanonicalHash key = prts::service::request_key(
        inputs.canonicals[record.instance], kSolver,
        rung_bounds(record.instance, record.rung));
    const bool remote = fleet->router(0).shard_of(key) != record.entry;
    if (remote) forwarded.push_back(i);
    if (!record.answered) continue;
    (remote ? forward : local).record(record.done_ns - record.submit_ns);
    if (buffer.keep(i)) {
      const Span spans[] = {
          {i, 1, 0, "request", record.due_ns, record.done_ns},
          {i, 2, 1, "load.lag", record.due_ns, record.submit_ns},
          {i, 3, 1, "router.submit", record.submit_ns, record.submitted_ns},
          {i, 4, 1, remote ? "router.forward_wait" : "router.local_wait",
           record.submitted_ns, record.done_ns}};
      buffer.add(i, spans, 4);
    }
  }
  log.merge(buffer);
  all.insert(all.end(), records.begin(), records.end());
  check_answers(inputs, all, options.cpus, result);

  result.set("router.forward_us", forward.quantile_us(0.5));
  result.set("router.local_us", local.quantile_us(0.5));
  result.set("router.submit_call_us", traced.submit_call.quantile_us(0.99));
  const double routed = static_cast<double>(
      std::max<std::uint64_t>(1, (routers_after.local - routers_before.local) +
                                     (routers_after.forwarded - routers_before.forwarded) +
                                     (routers_after.forward_failures -
                                      routers_before.forward_failures) +
                                     (routers_after.deduplicated - routers_before.deduplicated) +
                                     (routers_after.replica_hits - routers_before.replica_hits)));
  result.set("router.forward_share",
             static_cast<double>(routers_after.forwarded - routers_before.forwarded) / routed);
  result.set("router.replica_hit_share",
             static_cast<double>(routers_after.replica_hits - routers_before.replica_hits) /
                 routed);
  result.set("router.dedup_share",
             static_cast<double>(routers_after.deduplicated - routers_before.deduplicated) /
                 routed);
  result.set("router.forward_failures",
             static_cast<double>(routers_after.forward_failures));
  result.set("mux.ping_rtt_us", ping[0].quantile_us(0.5));
  result.set("proc.runq_wait_ms_per_s", plain.proc.runq_wait_ms_per_s);
  result.set("proc.ctx_switches_per_req", plain.proc.ctx_switches_per_req);
  result.set("proc.threads", static_cast<double>(plain.threads));
  result.set("load.lag_p99_us", plain.lag.quantile_us(0.99));
  result.set("latency.samples", static_cast<double>(plain.latency.count()));
  result.set("latency.p50_us", plain.latency.quantile_us(0.50));
  result.set("latency.p99_us", plain.latency.quantile_us(0.99));
  result.set("proc.steal_ms_per_s", plain.proc.steal_ms_per_s);
  result.set("obs.trace_overhead_pct",
             (traced.proc.cpu_us_per_req / plain.proc.cpu_us_per_req - 1.0) * 100.0);
  result.set("trace.self_gap_us", log.max_accounting_gap_us());

  report_engine_and_cache(
      {&fleet->service(0), &fleet->service(1), &fleet->service(2)}, result);

  // Layer replays over the traced pass's requests: canonicalize and key,
  // the owner's cache lookup, and the forwarded payloads through the
  // wire codecs and frame layer as the router and the owner run them.
  const std::size_t sample = std::min<std::size_t>(forwarded.size(), 2000);
  double canonicalize_ns = 0.0;
  double key_ns = 0.0;
  double lookup_ns = 0.0;
  double near_ns = 0.0;
  double request_encode_ns = 0.0;
  double request_decode_ns = 0.0;
  double reply_encode_ns = 0.0;
  double reply_decode_ns = 0.0;
  double request_bytes = 0.0;
  double reply_bytes = 0.0;
  std::vector<std::string> frames;
  for (std::size_t n = 0; n < sample; ++n) {
    const Record& record = records[forwarded[n]];
    const prts::Instance& instance = inputs.instances[record.instance];
    const prts::solver::Bounds bounds = rung_bounds(record.instance, record.rung);
    std::int64_t t0 = now_ns();
    const CanonicalInstance canonical = prts::service::canonicalize(instance);
    std::int64_t t1 = now_ns();
    const CanonicalHash key = prts::service::request_key(canonical, kSolver, bounds);
    std::int64_t t2 = now_ns();
    canonicalize_ns += static_cast<double>(t1 - t0);
    key_ns += static_cast<double>(t2 - t1);
    auto& owner = fleet->service(fleet->router(0).shard_of(key)).cache();
    t0 = now_ns();
    const auto cached = owner.lookup(key);
    t1 = now_ns();
    owner.find_dominating(prts::service::batch_key(canonical, kSolver), bounds);
    t2 = now_ns();
    lookup_ns += static_cast<double>(t1 - t0);
    near_ns += static_cast<double>(t2 - t1);

    const SolveRequest forward_request(canonical.instance, kSolver, bounds);
    std::string error;
    t0 = now_ns();
    std::string payload = prts::service::encode_wire_request(forward_request);
    t1 = now_ns();
    const bool decoded =
        prts::service::decode_wire_request(payload, error).has_value();
    t2 = now_ns();
    request_encode_ns += static_cast<double>(t1 - t0);
    request_decode_ns += static_cast<double>(t2 - t1);
    request_bytes += static_cast<double>(payload.size());
    SolveReply reply;
    reply.key = key;
    reply.solver_used = kSolver;
    if (cached) {
      reply.solution = cached->solution;
      reply.cost_seconds = cached->cost_seconds;
    }
    reply.status = reply.solution ? prts::service::ReplyStatus::kSolved
                                  : prts::service::ReplyStatus::kInfeasible;
    t0 = now_ns();
    const std::string reply_payload = prts::service::encode_wire_reply(reply);
    t1 = now_ns();
    const bool reply_decoded =
        prts::service::decode_wire_reply(reply_payload, error).has_value();
    t2 = now_ns();
    reply_encode_ns += static_cast<double>(t1 - t0);
    reply_decode_ns += static_cast<double>(t2 - t1);
    reply_bytes += static_cast<double>(reply_payload.size());
    if (!decoded || !reply_decoded || !cached) {
      result.fail("fleet_open: wire replay could not round-trip a forward");
    }
    frames.push_back(std::move(payload));
  }
  std::vector<std::string> encoded;
  const std::int64_t f0 = now_ns();
  for (std::size_t n = 0; n < frames.size(); ++n) {
    prts::net::Frame frame;
    frame.version = prts::net::kProtocolVersion2;
    frame.type = prts::net::FrameType::kSolveRequest;
    frame.request_id = n + 1;
    frame.payload = frames[n];
    encoded.push_back(prts::net::encode_frame(frame));
  }
  const std::int64_t f1 = now_ns();
  std::size_t frames_ok = 0;
  for (const auto& bytes : encoded) {
    frames_ok += prts::net::decode_frame(bytes).status ==
                 prts::net::DecodeStatus::kFrame;
  }
  const std::int64_t f2 = now_ns();
  if (frames_ok != encoded.size()) result.fail("fleet_open: frame replay failed");
  const double count = static_cast<double>(std::max<std::size_t>(sample, 1));
  result.set("canonical.canonicalize_us", canonicalize_ns / 1e3 / count);
  result.set("canonical.request_key_us", key_ns / 1e3 / count);
  result.set("cache.lookup_us", lookup_ns / 1e3 / count);
  result.set("cache.near_lookup_us", near_ns / 1e3 / count);
  result.set("wire.request_encode_us", request_encode_ns / 1e3 / count);
  result.set("wire.request_decode_us", request_decode_ns / 1e3 / count);
  result.set("wire.request_bytes", request_bytes / count);
  result.set("wire.reply_encode_us", reply_encode_ns / 1e3 / count);
  result.set("wire.reply_decode_us", reply_decode_ns / 1e3 / count);
  result.set("wire.reply_bytes", reply_bytes / count);
  result.set("frame.encode_ns", static_cast<double>(f1 - f0) / count);
  result.set("frame.decode_ns", static_cast<double>(f2 - f1) / count);

  double solve_seconds = 0.0;
  std::size_t feasible = 0;
  for (std::size_t n = 0; n < sample; ++n) {
    const Record& record = records[forwarded[n]];
    double seconds = 0.0;
    feasible += cold_solve(inputs.canonicals[record.instance].instance, kSolver,
                           {rung_bounds(record.instance, record.rung)}, seconds)[0]
                    .has_value();
    solve_seconds += seconds;
  }
  result.set("solver.heur-p.solve_ms", solve_seconds * 1e3 / count);
  result.set("solver.heur-p.feasible", static_cast<double>(feasible));
  write_spans(options, log);
}

}  // namespace perfbench
