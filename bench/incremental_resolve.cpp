// Incremental re-solve on a bound-ladder campaign: the paper's Figures
// 6-15 sweeps re-solve one instance under a ladder of period bounds.
// With near-miss reuse off every step pays a full prepare + solve; with
// it on, steps whose optimum is unchanged are *dominating hits* from
// the bounds-monotone index (bit-identical, zero solver work). Emits
// BENCH_incremental.json recording solver invocations and wall time for
// both modes.
//
//   incremental_resolve [--steps N] [--seed S] [--quick] [--out PATH]
//
// The output must be byte-identical between modes (the bounds-monotone
// contract); the driver verifies that and reports it.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "model/generator.hpp"
#include "service/engine.hpp"
#include "solver/registry.hpp"

namespace {

using namespace prts;

struct LadderRun {
  std::vector<service::SolveReply> replies;
  double seconds = 0.0;
  service::EngineStats stats;
};

/// One paced sweep: each step waits for its reply before the next is
/// submitted — the access pattern of a campaign driver walking a bound
/// axis (burst submission would exercise the in-batch re-probe instead;
/// both collapse, this shape keeps the two modes maximally comparable).
LadderRun run_ladder(const Instance& instance, const std::string& solver,
                     const std::vector<double>& periods, bool near_miss) {
  service::ServiceConfig config;
  config.threads = 1;
  config.near_miss = near_miss;
  service::SolveService engine(config);

  LadderRun run;
  const auto start = std::chrono::steady_clock::now();
  for (const double period : periods) {
    service::SolveRequest request{instance, solver,
                                  solver::Bounds{period, 1e18}};
    run.replies.push_back(engine.submit(std::move(request)).get());
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.stats = engine.stats();
  return run;
}

bool identical_output(const LadderRun& a, const LadderRun& b) {
  if (a.replies.size() != b.replies.size()) return false;
  for (std::size_t i = 0; i < a.replies.size(); ++i) {
    const service::SolveReply& x = a.replies[i];
    const service::SolveReply& y = b.replies[i];
    if (x.status != y.status) return false;
    if (x.solution.has_value() != y.solution.has_value()) return false;
    if (x.solution &&
        (!(x.solution->mapping == y.solution->mapping) ||
         !(x.solution->metrics == y.solution->metrics))) {
      return false;
    }
  }
  return true;
}

void write_section(std::ostream& out, const char* name,
                   const LadderRun& cold, const LadderRun& near) {
  const double ratio =
      near.stats.solver_invocations == 0
          ? static_cast<double>(cold.stats.solver_invocations)
          : static_cast<double>(cold.stats.solver_invocations) /
                static_cast<double>(near.stats.solver_invocations);
  out << "\"" << name << "\":{\"cold\":{\"solver_invocations\":"
      << cold.stats.solver_invocations << ",\"seconds\":" << cold.seconds
      << "},\"near_miss\":{\"solver_invocations\":"
      << near.stats.solver_invocations
      << ",\"dominating_hits\":" << near.stats.dominating_hits
      << ",\"seconds\":" << near.seconds << "}"
      << ",\"invocation_ratio\":" << ratio
      << ",\"speedup\":" << cold.seconds / near.seconds
      << ",\"identical_output\":"
      << (identical_output(cold, near) ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t steps = 20;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--steps") {
      steps = std::stoul(next());
    } else if (arg == "--seed") {
      seed = std::stoull(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quick") {
      steps = 10;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (steps < 2) {
    std::cerr << "--steps must be >= 2\n";
    return 2;
  }

  // The paper's Section 8 instance shape: n = 15 tasks on the
  // homogeneous 10-processor platform (exact prepare enumerates 2^14
  // partitions — the cost a dominating hit saves in full).
  Rng rng(seed);
  const Instance instance{
      paper::chain(rng),
      Platform::homogeneous(paper::kProcessorCount, paper::kHomSpeed,
                            paper::kProcessorFailureRate, paper::kBandwidth,
                            paper::kLinkFailureRate, paper::kMaxReplication)};

  // The sweep axis, Figure-6 style: from well above the unconstrained
  // optimum's period (where every step shares one optimum) down into
  // the constrained region (where optima shift and the tail goes
  // infeasible) — descending, so earlier answers dominate later steps.
  const auto exact = solver::SolverRegistry::builtin().find("exact");
  const auto free_opt = exact->solve(instance, {});
  if (!free_opt) {
    std::cerr << "unbounded solve failed\n";
    return 1;
  }
  const double top = free_opt->metrics.worst_period * 4.0;
  const double bottom = free_opt->metrics.worst_period * 0.8;
  std::vector<double> periods;
  for (std::size_t i = 0; i < steps; ++i) {
    periods.push_back(top - (top - bottom) * static_cast<double>(i) /
                                static_cast<double>(steps - 1));
  }

  const LadderRun exact_cold = run_ladder(instance, "exact", periods, false);
  const LadderRun exact_near = run_ladder(instance, "exact", periods, true);

  const double ratio =
      static_cast<double>(exact_cold.stats.solver_invocations) /
      static_cast<double>(
          std::max<std::uint64_t>(1, exact_near.stats.solver_invocations));
  std::cout << "incremental re-solve: " << steps
            << "-step period ladder, paper instance (seed " << seed << ")\n"
            << "  exact cold       " << exact_cold.stats.solver_invocations
            << " invocations, " << exact_cold.seconds << " s\n"
            << "  exact near-miss  " << exact_near.stats.solver_invocations
            << " invocations (" << exact_near.stats.dominating_hits
            << " dominating hits), " << exact_near.seconds << " s\n"
            << "  invocation ratio " << ratio << "x, wall speedup "
            << exact_cold.seconds / exact_near.seconds << "x\n"
            << "  identical output "
            << (identical_output(exact_cold, exact_near)
                    ? "yes"
                    : "NO — CONTRACT BREACH")
            << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"benchmark\":\"incremental_resolve\",\"steps\":" << steps
      << ",\"seed\":" << seed << ",";
  write_section(out, "exact_ladder", exact_cold, exact_near);
  out << "}\n";

  // The acceptance bar: >= 3x fewer full solver invocations with
  // byte-identical output. Fail loudly if a regression eats it.
  if (!identical_output(exact_cold, exact_near)) {
    std::cerr << "FAIL: near-miss reuse changed the output\n";
    return 1;
  }
  if (ratio < 3.0) {
    std::cerr << "FAIL: invocation ratio " << ratio << " < 3.0\n";
    return 1;
  }
  return 0;
}
