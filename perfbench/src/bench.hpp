// Shared pieces of the repository benchmark (see perfbench/README.md):
// run options, the result line, a constant-memory latency histogram,
// outside-in process counters, the benchmark's own span log, answer
// digests for the correctness gate, and the serve-shaped telemetry set-up.
//
// Everything here observes the system from outside: it calls public
// functions of src/ and reads /proc and getrusage, and instruments
// nothing inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "model/serialize.hpp"
#include "obs/trace.hpp"
#include "service/canonical.hpp"
#include "service/engine.hpp"
#include "solver/solver.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds (one time base for every timestamp and span).
std::int64_t now_ns() noexcept;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of one run
  bool trace = false;     ///< per-layer (traced) run instead of end to end
  std::string span_dir = ".bench_build/traces";
  unsigned cpus = 1;      ///< std::thread::hardware_concurrency()
};

/// The run's verdict and metrics; printed as the last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// Log-linear histogram of nanosecond latencies: 1024 sub-buckets per
/// octave (about 0.1% resolution) in constant memory, so a faster system
/// that answers more requests does not grow the benchmark's own RSS.
/// Quantiles interpolate inside a bucket, so they are not quantized.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const noexcept { return count_; }
  /// The q-quantile in microseconds (0 when empty).
  double quantile_us(double q) const;
  double mean_us() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// Process-wide counters read from outside the system under test.
struct ProcCounters {
  double cpu_seconds = 0.0;          ///< user + system, all threads
  std::uint64_t context_switches = 0;  ///< voluntary + involuntary
  double runq_wait_seconds = 0.0;    ///< sum over /proc/self/task/*/schedstat
  std::size_t threads = 0;           ///< live threads of this process
  /// Time the hypervisor ran something else on this machine's CPUs
  /// (/proc/stat steal, all CPUs): CPU the system lost to the host.
  double steal_seconds = 0.0;
  std::int64_t wall_ns = 0;
};
ProcCounters read_proc();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

/// Deltas between two ProcCounters snapshots, per answered request.
struct ProcDelta {
  double cpu_us_per_req = 0.0;
  double ctx_switches_per_req = 0.0;
  double runq_wait_ms_per_s = 0.0;
  double steal_ms_per_s = 0.0;
};
ProcDelta proc_delta(const ProcCounters& before, const ProcCounters& after,
                     std::uint64_t answered);

// ------------------------------------------------------------- spans

/// One span recorded by the benchmark around a call into a layer. Ids
/// are per request; parent 0 marks the request's root span.
struct Span {
  std::uint64_t request = 0;
  std::uint16_t id = 0;
  std::uint16_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span store. It keeps every span of every kept request;
/// when it reaches its capacity it drops every other kept request and
/// keeps one request in twice as many from then on, so memory stays
/// bounded and the kept requests stay spread over the whole run.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 1 << 17)
      : capacity_(capacity) {}
  /// True when request number `seq` (per thread) is kept.
  bool keep(std::uint64_t seq) const noexcept { return seq % stride_ == 0; }
  /// Adds the spans of request `seq` (call only when keep(seq)).
  void add(std::uint64_t seq, const Span* spans, std::size_t count);
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::vector<std::uint64_t> seqs_;  ///< per span: its request's seq
  std::vector<Span> spans_;
};

/// Per span name: the median duration and self time of kept spans.
struct SpanSummary {
  std::size_t count = 0;
  double p50_us = 0.0;
  double self_p50_us = 0.0;
  double self_mean_us = 0.0;
};

/// The merged spans of one traced pass.
class SpanLog {
 public:
  void merge(const SpanBuffer& buffer);
  /// Writes one JSON object per span (see README.md) to `path`;
  /// false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;
  /// Per-name summaries, plus the accounting check: for every request,
  /// the self times of its spans must add up to its root span.
  std::map<std::string, SpanSummary> summarize() const;
  /// Largest |sum of self times - root duration| over all requests, us.
  double max_accounting_gap_us() const;
  std::size_t requests() const;

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------ correctness

/// 128-bit digest of an answer: the reply status class (solution or
/// infeasible) and the bit patterns of every field of the solution —
/// interval bounds, processor lists and all nine metrics. Two answers
/// have equal digests iff they are byte-identical (up to a 2^-64
/// collision chance per pair).
prts::service::CanonicalHash answer_digest(
    const std::optional<prts::solver::Solution>& solution);

/// The reference answers: cold solves of one canonical instance with the
/// builtin registry's engine, one fresh prepared session answering every
/// bound of `ladder` in order (no cache, no warm hint), in canonical
/// processor labels; translate with to_original_labels. `seconds`
/// receives the wall time of prepare plus all solves.
std::vector<std::optional<prts::solver::Solution>> cold_solve(
    const prts::Instance& canonical_instance, const std::string& solver_name,
    const std::vector<prts::solver::Bounds>& ladder, double& seconds);

/// An optional canonical-label solution in a request's own labels.
std::optional<prts::solver::Solution> in_request_labels(
    const std::optional<prts::solver::Solution>& canonical_solution,
    const prts::service::CanonicalInstance& canonical);

/// Shows that the gate's comparisons reject corrupted answers: a one-ulp
/// change of a metric, a moved processor, and a solution turned
/// infeasible must each change the digest and fail operator==. Returns
/// an empty string on success, otherwise what went undetected.
std::string gate_self_test(const prts::solver::Solution& sample);

/// True when `reply` carries a real answer (solved or infeasible).
bool answered(const prts::service::SolveReply& reply) noexcept;

// ------------------------------------------------------------ inputs

/// A Section 8.1 instance: 15-task paper chain, 10 homogeneous
/// processors of speed 1.
prts::Instance paper_hom_instance(prts::Rng& rng);
/// A Section 8.2 instance: 15-task paper chain, 10 processors with
/// speeds drawn from [1, 100].
prts::Instance paper_het_instance(prts::Rng& rng);
/// The same instance with its processors listed in a random order: an
/// isomorphic request whose canonical form equals the original's.
prts::Instance permuted_copy(const prts::Instance& instance, prts::Rng& rng);

/// Cumulative Zipf(s) table over n ranks.
std::vector<double> zipf_cumulative(std::size_t n, double s);
std::size_t zipf_draw(prts::Rng& rng, const std::vector<double>& cumulative);

// --------------------------------------------------------- telemetry

/// Configures a Telemetry the way `prts_cli serve` does by default: the
/// flight recorder ticking every second, the stall watchdog at 2 s and
/// the default watchdog alert rule.
void start_serve_telemetry(prts::obs::Telemetry& telemetry);

/// Lowers the calling thread's timer slack to 1 us so that sleeps used
/// for pacing wake close to their deadline.
void tighten_timer_slack() noexcept;

/// Raises the calling thread's scheduling priority (nice -10) for its
/// lifetime and restores it after, so that an open-loop generator that
/// shares the CPUs with the system under test keeps its schedule.
/// Threads the calling thread creates meanwhile inherit the priority.
/// Without the privilege to do so it changes nothing and says so once.
class GeneratorPriority {
 public:
  GeneratorPriority();
  ~GeneratorPriority();
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;

 private:
  int previous_ = 0;
  bool raised_ = false;
};

/// Sets the engine.* ratios (per submitted request) and cache.* metrics
/// from the services' summed EngineStats and CacheStats snapshots.
void report_engine_and_cache(
    const std::vector<const prts::service::SolveService*>& services,
    Result& result);

/// Median of a few set-up times (the reported setup_s).
double median(std::vector<double> values);

/// Writes the span log of a traced pass under options.span_dir and
/// reports the file on stderr.
void write_spans(const Options& options, const SpanLog& log);

// ---------------------------------------------------------- workloads

void run_hot_hits(const Options& options, Result& result);
void run_sweep_cold(const Options& options, Result& result);
void run_fleet_open(const Options& options, Result& result);

}  // namespace perfbench
