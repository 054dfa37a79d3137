// Elastic-membership availability bench: a 3-rank elastic fleet (real
// loopback TCP, consistent-hash ring) serves a seeded open-loop arrival
// stream while the fleet is reshaped mid-run — a 4th rank joins (its
// ring slice streams over as handoff chunks) and an original rank is
// retired outright (silence -> suspect -> dead, epoch bump). The
// headline numbers are availability (answered / offered) and the p99
// latency measured ACROSS the join+death window, plus the handoff
// volume that made the reshape cheap. The run fails (exit 1) when
// availability drops below 99% — the elasticity claim, enforced.
//
//   membership_handoff [--rate R] [--duration S] [--unique U]
//                      [--quick] [--out PATH]
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "fabric_harness.hpp"
#include "load/arrivals.hpp"
#include "load/generator.hpp"
#include "model/generator.hpp"

namespace {

using namespace prts;
using service::testing::FabricHarness;

FabricHarness::Options harness_options() {
  FabricHarness::Options options;
  options.world = 3;
  options.join_founded = true;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 5.0;
  options.router.client.backoff_initial_seconds = 0.05;
  options.router.heartbeat_interval_seconds = 0.05;
  options.router.membership.suspect_after_seconds = 0.4;
  options.router.membership.dead_after_seconds = 0.8;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  double rate = 120.0;
  double duration_seconds = 5.0;
  std::size_t unique = 8;
  std::string out_path = "BENCH_membership.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--rate") {
      rate = std::stod(next());
    } else if (arg == "--duration") {
      duration_seconds = std::stod(next());
    } else if (arg == "--unique") {
      unique = std::stoul(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quick") {
      rate = 80.0;
      duration_seconds = 3.0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (rate <= 0.0 || duration_seconds <= 0.0 || unique == 0) {
    std::cerr << "--rate, --duration and --unique must be positive\n";
    return 2;
  }

  FabricHarness harness(harness_options());
  // Resolved before the fleet grows: add_rank() appends to the
  // harness's rank vector, which concurrent threads must not walk.
  service::ShardRouter& router0 = harness.router(0);
  service::ShardRouter& router2 = harness.router(2);

  std::vector<Instance> instances;
  for (std::size_t u = 0; u < unique; ++u) {
    Rng rng(4200 + u);
    ChainConfig chain_config;
    chain_config.task_count = 8;
    instances.push_back(Instance{
        random_chain(rng, chain_config),
        Platform::homogeneous(4, paper::kHomSpeed,
                              paper::kProcessorFailureRate, paper::kBandwidth,
                              paper::kLinkFailureRate,
                              paper::kMaxReplication)});
  }

  // The reshape script: the join lands ~30% in, the death ~60% in —
  // both inside the measured window.
  std::atomic<std::size_t> joined_rank{0};
  std::thread reshaper([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(0.3 * duration_seconds));
    joined_rank.store(harness.add_rank());
    std::this_thread::sleep_for(
        std::chrono::duration<double>(0.3 * duration_seconds));
    harness.retire(1);
  });

  load::ArrivalConfig arrival_config;
  arrival_config.rate = rate;
  arrival_config.duration_seconds = duration_seconds;
  arrival_config.key_count = unique;
  arrival_config.seed = 53;
  const load::LoadTrace trace = load::generate_arrivals(arrival_config);
  const load::RunResult result = load::run_open_loop(
      trace, instances, [&router0](service::SolveRequest request) {
        return router0.submit(std::move(request));
      });
  reshaper.join();
  harness.wait_for_members(3);

  const double availability =
      result.submitted == 0
          ? 0.0
          : static_cast<double>(result.answered + result.rejected) /
                static_cast<double>(result.submitted);
  const double p50 = result.quantile(0.50);
  const double p99 = result.quantile(0.99);

  const service::MembershipStats stats0 = router0.membership_stats();
  const service::MembershipStats stats2 = router2.membership_stats();
  const service::MembershipStats statsj =
      harness.router(joined_rank.load()).membership_stats();
  const std::uint64_t handoff_sent =
      stats0.handoff_entries_sent + stats2.handoff_entries_sent;

  std::cout << "membership handoff (elastic world 3 -> 4 -> 3, loopback): "
            << result.submitted << " offered at " << rate << "/s over "
            << duration_seconds << " s with one join and one death\n"
            << "  availability " << availability * 100.0 << "% ("
            << result.answered << " answered, " << result.errors
            << " errors, " << result.unresolved << " unresolved)\n"
            << "  latency p50 " << p50 * 1e3 << " ms, p99 " << p99 * 1e3
            << " ms (from scheduled arrival)\n"
            << "  handoff " << handoff_sent << " entries streamed out, "
            << statsj.handoff_entries_received
            << " received by the joiner; final epoch " << stats0.epoch
            << ", " << stats0.members << " members\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"membership_handoff\",\"world_initial\":3"
      << ",\"rate_per_s\":" << rate
      << ",\"duration_seconds\":" << duration_seconds
      << ",\"unique_instances\":" << unique
      << ",\"submitted\":" << result.submitted
      << ",\"answered\":" << result.answered
      << ",\"rejected\":" << result.rejected
      << ",\"errors\":" << result.errors
      << ",\"unresolved\":" << result.unresolved
      << ",\"availability\":" << availability
      << ",\"latency_p50_seconds\":" << p50
      << ",\"latency_p99_seconds\":" << p99
      << ",\"handoff_entries_sent\":" << handoff_sent
      << ",\"handoff_entries_received\":" << statsj.handoff_entries_received
      << ",\"deaths_seen\":" << stats0.deaths
      << ",\"final_epoch\":" << stats0.epoch
      << ",\"final_members\":" << stats0.members << "}\n";

  // The elasticity bar: a reshaped fleet is still a fleet. Enforced
  // here so a regression fails `--target bench`, not just a dashboard.
  if (availability < 0.99) {
    std::cerr << "FAIL: availability " << availability * 100.0
              << "% < 99% through the join+death window\n";
    return 1;
  }
  if (result.unresolved != 0) {
    std::cerr << "FAIL: " << result.unresolved << " stuck waiters\n";
    return 1;
  }
  return 0;
}
