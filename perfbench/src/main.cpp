// perfbench: the repository benchmark. One run executes one workload
// and prints, as its last stdout line, one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end metrics, with --trace 1
// the per-layer metrics (see perfbench/README.md for both tables).
//
//   perfbench --workload hot_hits|sweep_cold|fleet_open --seed N
//             --seconds S --trace 0|1 [--span-dir DIR]
//   perfbench --self-test     # the correctness gate rejects corruption
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"throughput_rps", "1/s"},
    {"cpu_us_per_req", "us"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"canonical.canonicalize_us", "us"},
    {"canonical.request_key_us", "us"},
    {"engine.hit_submit_us", "us"},
    {"engine.allocs_per_hit", "count"},
    {"engine.solves_per_req", "ratio"},
    {"engine.batched_share", "ratio"},
    {"engine.dominating_share", "ratio"},
    {"engine.dedup_share", "ratio"},
    {"cache.lookup_us", "us"},
    {"cache.near_lookup_us", "us"},
    {"cache.hit_share", "ratio"},
    {"cache.bytes_per_entry", "B"},
    {"solver.exact.solve_ms", "ms"},
    {"solver.exact.feasible", "count"},
    {"solver.heur-l.solve_ms", "ms"},
    {"solver.heur-l.feasible", "count"},
    {"solver.heur-p.solve_ms", "ms"},
    {"solver.heur-p.feasible", "count"},
    {"solver.portfolio.solve_ms", "ms"},
    {"solver.portfolio.feasible", "count"},
    {"wire.request_encode_us", "us"},
    {"wire.request_decode_us", "us"},
    {"wire.request_bytes", "B"},
    {"wire.reply_encode_us", "us"},
    {"wire.reply_decode_us", "us"},
    {"wire.reply_bytes", "B"},
    {"frame.encode_ns", "ns"},
    {"frame.decode_ns", "ns"},
    {"router.forward_us", "us"},
    {"router.local_us", "us"},
    {"router.submit_call_us", "us"},
    {"router.forward_share", "ratio"},
    {"router.replica_hit_share", "ratio"},
    {"router.dedup_share", "ratio"},
    {"router.forward_failures", "count"},
    {"mux.ping_rtt_us", "us"},
    {"proc.runq_wait_ms_per_s", "ms/s"},
    {"proc.steal_ms_per_s", "ms/s"},
    {"proc.ctx_switches_per_req", "count"},
    {"proc.threads", "count"},
    {"load.lag_p99_us", "us"},
    {"obs.trace_overhead_pct", "%"},
    {"trace.self_gap_us", "us"},
    {"latency.samples", "count"},
    {"latency.p50_us", "us"},
    {"latency.p99_us", "us"},
    {"fail_share", "ratio"},
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload hot_hits|sweep_cold|fleet_open"
               " --seed N --seconds S --trace 0|1 [--span-dir DIR]\n"
               "       perfbench --self-test\n";
  return 2;
}

/// The gate on a known-good answer of each workload's shape.
int self_test() {
  prts::Rng rng(7);
  const prts::Instance instance = perfbench::paper_het_instance(rng);
  const prts::service::CanonicalInstance canonical =
      prts::service::canonicalize(instance);
  double seconds = 0.0;
  const auto answer = perfbench::in_request_labels(
      perfbench::cold_solve(canonical.instance, "heur-p", {{}}, seconds)[0],
      canonical);
  if (!answer) {
    std::cerr << "self-test: reference solve found no mapping\n";
    return 1;
  }
  const std::string missed = perfbench::gate_self_test(*answer);
  if (!missed.empty()) {
    std::cerr << "self-test: the gate accepted a corrupted answer:" << missed
              << "\n";
    return 1;
  }
  std::cout << "self-test: the gate rejects every corrupted answer\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.cpus = std::max(1u, std::thread::hardware_concurrency());
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--span-dir") {
        options.span_dir = value;
      } else {
        return usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_trace || options.workload.empty()) {
    return usage("--workload and --trace are required");
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 120.0)) {
    return usage("--seconds must be in [1, 120]");
  }

  perfbench::Result result;
  try {
    if (options.workload == "hot_hits") {
      perfbench::run_hot_hits(options, result);
    } else if (options.workload == "sweep_cold") {
      perfbench::run_sweep_cold(options, result);
    } else if (options.workload == "fleet_open") {
      perfbench::run_fleet_open(options, result);
    } else {
      return usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }

  // Per-layer metrics a workload does not cross read 0 (README.md says
  // which workload measures each); end-to-end metrics must all be set.
  if (options.trace) {
    result.set("fail_share", static_cast<double>(result.failed) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     result.attempted, 1)));
  }
  const auto& specs = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : result.metrics) {
    bool known = false;
    for (const auto& spec : specs) known = known || name == spec.name;
    if (!known) {
      std::cerr << "perfbench: internal error: metric " << name
                << " is not in the " << (options.trace ? "per-layer" : "end-to-end")
                << " table\n";
      return 1;
    }
  }
  std::ostringstream line;
  line << "{\"correct\":" << (result.correct ? "true" : "false")
       << ",\"attempted\":" << std::max<std::uint64_t>(result.attempted, 1)
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& spec : specs) {
    const auto found = result.metrics.find(spec.name);
    if (found == result.metrics.end() && !options.trace) {
      std::cerr << "perfbench: internal error: " << spec.name << " not set\n";
      return 1;
    }
    const double value = found == result.metrics.end() ? 0.0 : found->second;
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: internal error: " << spec.name << " is not finite\n";
      return 1;
    }
    line << (first ? "" : ",") << "\"" << spec.name << "\":{\"value\":"
         << number(value) << ",\"unit\":\"" << spec.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
