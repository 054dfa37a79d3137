// Open-loop sustainable-throughput-at-SLO on an in-process fabric: a
// 3-rank loopback world (real TCP between ranks) is driven through
// rank 0's router by the open-loop generator, stepping the offered
// Poisson rate to find the highest load at which the latency/error SLO
// still holds. Arrivals are never gated on completions and latency is
// measured from the *scheduled* arrival instant, so the headline
// number is the honest one: the rate beyond which queueing delay (not
// solver cost) breaks the latency bound.
//
// Also asserts the load subsystem's determinism contract: two
// generator runs with the same seed must serialize to byte-identical
// traces (the property that makes a recorded trace replayable as a
// fixed workload artifact).
//
//   openloop [--quick] [--slo SPEC] [--min-rate R] [--max-rate R]
//            [--step-duration S] [--keys K] [--seed S] [--out PATH]
//
// Emits BENCH_openloop.json:
//   {"bench":"openloop","world":3,"slo":"...","trace_deterministic":true,
//    "sustainable_rps_at_slo":<headline>,"capped":<bool>,"steps":[...]}
// "capped":true means every step passed, so the headline is the
// --max-rate ceiling: a lower bound on the knee, not the knee.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fabric_harness.hpp"
#include "load/arrivals.hpp"
#include "load/generator.hpp"
#include "load/slo.hpp"
#include "model/generator.hpp"

namespace {

using namespace prts;

}  // namespace

int main(int argc, char** argv) {
  std::string slo_text = "p99<=250ms;error_rate<=0.01";
  std::string out_path = "BENCH_openloop.json";
  double min_rate = 50;
  double max_rate = 1600;
  double step_duration = 2.0;
  std::size_t keys = 16;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--quick") {
      step_duration = 1.0;
      max_rate = 400;
    } else if (arg == "--slo") {
      slo_text = next();
    } else if (arg == "--min-rate") {
      min_rate = std::stod(next());
    } else if (arg == "--max-rate") {
      max_rate = std::stod(next());
    } else if (arg == "--step-duration") {
      step_duration = std::stod(next());
    } else if (arg == "--keys") {
      keys = std::stoul(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }

  load::SloSpec slo;
  std::string slo_error;
  if (!load::parse_slo(slo_text, slo, &slo_error)) {
    std::cerr << slo_error << "\n";
    return 2;
  }

  // Determinism: same config, byte-identical trace, twice.
  load::ArrivalConfig probe;
  probe.rate = 200;
  probe.duration_seconds = 1.0;
  probe.process = load::Process::kBursty;
  probe.key_count = keys;
  probe.seed = seed;
  const std::string trace_a =
      load::trace_to_string(load::generate_arrivals(probe));
  const std::string trace_b =
      load::trace_to_string(load::generate_arrivals(probe));
  const bool deterministic = trace_a == trace_b && !trace_a.empty();
  if (!deterministic) {
    std::cerr << "FAIL: same-seed arrival traces differ\n";
    return 1;
  }

  std::vector<Instance> instances;
  for (std::size_t k = 0; k < keys; ++k) {
    Rng rng(9000 + k);
    ChainConfig chain_config;
    chain_config.task_count = 10;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(4, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  service::testing::FabricHarness::Options options;
  options.world = 3;
  service::testing::FabricHarness fabric(options);
  const load::SubmitFn submit = [&fabric](service::SolveRequest request) {
    return fabric.router(0).submit(std::move(request));
  };

  load::SearchOptions search_options;
  search_options.min_rate = min_rate;
  search_options.max_rate = max_rate;
  std::uint64_t step_seed = seed;
  const auto run_at = [&](double rate) {
    load::ArrivalConfig step;
    step.rate = rate;
    step.duration_seconds = step_duration;
    step.key_count = keys;
    // Fresh arrival randomness per step: a rate retried by bisection
    // must not replay the exact schedule the ramp already measured.
    step.seed = ++step_seed;
    std::cerr << "# openloop step rate=" << rate << "\n";
    return load::run_open_loop(load::generate_arrivals(step), instances,
                               submit);
  };
  const load::SearchResult search =
      load::max_sustainable_rate(run_at, slo, search_options);

  std::ostringstream json;
  json << "{\"bench\":\"openloop\",\"world\":3,\"slo\":\"" << slo_text
       << "\",\"trace_deterministic\":true,\"sustainable_rps_at_slo\":"
       << search.sustainable_rate
       << ",\"capped\":" << (search.capped ? "true" : "false")
       << ",\"steps\":[";
  bool first = true;
  for (const load::StepOutcome& step : search.steps) {
    if (!first) json << ",";
    first = false;
    json << "{\"rate\":" << step.rate
         << ",\"pass\":" << (step.pass ? "true" : "false")
         << ",\"submitted\":" << step.submitted
         << ",\"answered\":" << step.answered
         << ",\"rejected\":" << step.rejected
         << ",\"errors\":" << step.errors
         << ",\"unresolved\":" << step.unresolved
         << ",\"p50\":" << step.p50 << ",\"p99\":" << step.p99 << "}";
  }
  json << "]}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << json.str();
  std::cerr << "# openloop sustainable rate "
            << (search.capped ? ">= " : "") << search.sustainable_rate
            << " rps at SLO " << slo_text
            << (search.capped ? " (every step passed; raise --max-rate)" : "")
            << "\n";

  if (search.sustainable_rate <= 0.0) {
    std::cerr << "FAIL: no sustainable rate at SLO " << slo_text << "\n";
    return 1;
  }
  return 0;
}
