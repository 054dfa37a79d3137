#include <dirent.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>

#include "bench.hpp"
#include "model/generator.hpp"
#include "solver/registry.hpp"

namespace perfbench {

using prts::service::CanonicalHash;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "# GATE FAILED: " << why << "\n";
}

// ---------------------------------------------------------- histogram

namespace {

constexpr int kSubBits = 10;  // 1024 sub-buckets per octave
constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
constexpr std::size_t kBuckets = 56 * kSub;

std::size_t bucket_of(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBits;
  return static_cast<std::size_t>(shift) * kSub +
         static_cast<std::size_t>(v >> shift);
}

void bucket_range(std::size_t index, double& low, double& width) {
  if (index < 2 * kSub) {
    low = static_cast<double>(index);
    width = 1.0;
    return;
  }
  const std::size_t shift = index / kSub - 1;
  low = std::ldexp(static_cast<double>(index - shift * kSub),
                   static_cast<int>(shift));
  width = std::ldexp(1.0, static_cast<int>(shift));
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::record(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++buckets_[std::min(bucket_of(v), kBuckets - 1)];
  ++count_;
  sum_ns_ += static_cast<double>(v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (rank < before + in_bucket) {
      double low = 0.0;
      double width = 0.0;
      bucket_range(i, low, width);
      // Samples are taken as spread evenly across their bucket.
      const double position = (rank - before + 0.5) / in_bucket;
      return (low + width * position) / 1e3;
    }
    before += in_bucket;
  }
  return 0.0;
}

double LatencyHistogram::mean_us() const {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_) / 1e3;
}

// -------------------------------------------------------- proc counters

ProcCounters read_proc() {
  ProcCounters counters;
  counters.wall_ns = now_ns();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  counters.cpu_seconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  counters.context_switches =
      static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      ++counters.threads;
      std::ifstream file(std::string("/proc/self/task/") + entry->d_name +
                         "/schedstat");
      double on_cpu = 0.0;
      double waiting = 0.0;
      if (file >> on_cpu >> waiting) counters.runq_wait_seconds += waiting / 1e9;
    }
    closedir(dir);
  }
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (double& value : ticks) stat >> value;
    counters.steal_seconds = ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return counters;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

ProcDelta proc_delta(const ProcCounters& before, const ProcCounters& after,
                     std::uint64_t answered) {
  ProcDelta delta;
  const double requests = static_cast<double>(std::max<std::uint64_t>(answered, 1));
  const double wall =
      std::max(static_cast<double>(after.wall_ns - before.wall_ns) / 1e9, 1e-9);
  delta.cpu_us_per_req = (after.cpu_seconds - before.cpu_seconds) * 1e6 / requests;
  delta.ctx_switches_per_req =
      static_cast<double>(after.context_switches - before.context_switches) /
      requests;
  // Threads that exit during the window take their wait with them, so
  // this is a lower bound; every pool here lives for the whole window.
  delta.runq_wait_ms_per_s =
      std::max(0.0, after.runq_wait_seconds - before.runq_wait_seconds) *
      1e3 / wall;
  delta.steal_ms_per_s =
      std::max(0.0, after.steal_seconds - before.steal_seconds) * 1e3 / wall;
  return delta;
}

// --------------------------------------------------------------- spans

void SpanBuffer::add(std::uint64_t seq, const Span* spans, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    spans_.push_back(spans[i]);
    seqs_.push_back(seq);
  }
  if (spans_.size() < capacity_) return;
  stride_ *= 2;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (seqs_[i] % stride_ != 0) continue;
    spans_[kept] = spans_[i];
    seqs_[kept] = seqs_[i];
    ++kept;
  }
  spans_.resize(kept);
  seqs_.resize(kept);
}

void SpanLog::merge(const SpanBuffer& buffer) {
  spans_.insert(spans_.end(), buffer.spans().begin(), buffer.spans().end());
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"request\":" << span.request << ",\"span\":" << span.id
        << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

/// Self time of every span of one request (same order as `spans`):
/// its duration minus the union of its children's intervals inside it.
std::vector<std::int64_t> self_times(const Span* spans, std::size_t count) {
  std::vector<std::int64_t> self(count);
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (std::size_t i = 0; i < count; ++i) {
    children.clear();
    for (std::size_t j = 0; j < count; ++j) {
      if (spans[j].parent != spans[i].id || j == i) continue;
      const std::int64_t start = std::max(spans[j].start_ns, spans[i].start_ns);
      const std::int64_t end = std::min(spans[j].end_ns, spans[i].end_ns);
      if (end > start) children.emplace_back(start, end);
    }
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : children) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

/// Calls fn(first, count) for each request's contiguous run of spans.
template <typename Fn>
void for_each_request(const std::vector<Span>& spans, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < spans.size()) {
    std::size_t end = begin + 1;
    while (end < spans.size() && spans[end].request == spans[begin].request) {
      ++end;
    }
    fn(spans.data() + begin, end - begin);
    begin = end;
  }
}

double median_of(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

}  // namespace

std::map<std::string, SpanSummary> SpanLog::summarize() const {
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, std::vector<double>> selves;
  for_each_request(spans_, [&](const Span* spans, std::size_t count) {
    const std::vector<std::int64_t> self = self_times(spans, count);
    for (std::size_t i = 0; i < count; ++i) {
      durations[spans[i].name].push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
      selves[spans[i].name].push_back(static_cast<double>(self[i]) / 1e3);
    }
  });
  std::map<std::string, SpanSummary> summary;
  for (auto& [name, values] : durations) {
    SpanSummary& entry = summary[name];
    entry.count = values.size();
    entry.p50_us = median_of(values);
    std::vector<double>& self = selves[name];
    double total = 0.0;
    for (double value : self) total += value;
    entry.self_mean_us = total / static_cast<double>(self.size());
    entry.self_p50_us = median_of(self);
  }
  return summary;
}

double SpanLog::max_accounting_gap_us() const {
  double worst = 0.0;
  for_each_request(spans_, [&](const Span* spans, std::size_t count) {
    const std::vector<std::int64_t> self = self_times(spans, count);
    std::int64_t sum = 0;
    std::int64_t root = 0;
    for (std::size_t i = 0; i < count; ++i) {
      sum += self[i];
      if (spans[i].parent == 0) root += spans[i].end_ns - spans[i].start_ns;
    }
    worst = std::max(worst, std::abs(static_cast<double>(sum - root)) / 1e3);
  });
  return worst;
}

std::size_t SpanLog::requests() const {
  std::size_t total = 0;
  for_each_request(spans_, [&](const Span*, std::size_t) { ++total; });
  return total;
}

void write_spans(const Options& options, const SpanLog& log) {
  const std::string path = options.span_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".spans.jsonl";
  if (log.write_jsonl(path)) {
    std::cerr << "# spans: " << log.requests() << " requests -> " << path
              << "\n";
  } else {
    std::cerr << "# spans: cannot write " << path << "\n";
  }
  for (const auto& [name, entry] : log.summarize()) {
    std::cerr << "#   span " << name << ": n=" << entry.count
              << " p50=" << entry.p50_us << "us self_p50=" << entry.self_p50_us
              << "us self_mean=" << entry.self_mean_us << "us\n";
  }
  std::cerr << "#   accounting: max |sum(self) - root| = "
            << log.max_accounting_gap_us() << " us\n";
}

// -------------------------------------------------------- correctness

namespace {

template <typename T>
void append_bits(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

}  // namespace

CanonicalHash answer_digest(
    const std::optional<prts::solver::Solution>& solution) {
  std::string bytes;
  bytes.reserve(256);
  bytes.push_back(solution ? 'S' : 'I');
  if (solution) {
    const prts::Mapping& mapping = solution->mapping;
    append_bits(bytes, mapping.interval_count());
    for (std::size_t j = 0; j < mapping.interval_count(); ++j) {
      append_bits(bytes, mapping.partition().interval(j).first);
      append_bits(bytes, mapping.partition().interval(j).last);
      append_bits(bytes, mapping.processors(j).size());
      for (std::size_t u : mapping.processors(j)) append_bits(bytes, u);
    }
    const prts::MappingMetrics& m = solution->metrics;
    append_bits(bytes, m.reliability.log());
    append_bits(bytes, m.failure);
    append_bits(bytes, m.expected_latency);
    append_bits(bytes, m.worst_latency);
    append_bits(bytes, m.expected_period);
    append_bits(bytes, m.worst_period);
    append_bits(bytes, m.interval_count);
    append_bits(bytes, m.processors_used);
    append_bits(bytes, m.replication_level);
  }
  return prts::service::fingerprint(bytes);
}

std::vector<std::optional<prts::solver::Solution>> cold_solve(
    const prts::Instance& canonical_instance, const std::string& solver_name,
    const std::vector<prts::solver::Bounds>& ladder, double& seconds) {
  const auto engine = prts::solver::SolverRegistry::builtin().find(solver_name);
  if (!engine) throw std::runtime_error("unknown solver " + solver_name);
  const std::int64_t start = now_ns();
  const auto session = engine->prepare(canonical_instance);
  std::vector<std::optional<prts::solver::Solution>> answers;
  answers.reserve(ladder.size());
  for (const auto& bounds : ladder) answers.push_back(session->solve(bounds));
  seconds = static_cast<double>(now_ns() - start) / 1e9;
  return answers;
}

std::optional<prts::solver::Solution> in_request_labels(
    const std::optional<prts::solver::Solution>& canonical_solution,
    const prts::service::CanonicalInstance& canonical) {
  if (!canonical_solution) return std::nullopt;
  return prts::service::to_original_labels(*canonical_solution, canonical);
}

std::string gate_self_test(const prts::solver::Solution& sample) {
  using prts::solver::Solution;
  const CanonicalHash reference = answer_digest(sample);
  const auto rejects = [&](const std::optional<Solution>& corrupt) {
    if (answer_digest(corrupt) == reference) return false;
    if (corrupt && corrupt->mapping == sample.mapping &&
        corrupt->metrics == sample.metrics) {
      return false;
    }
    return true;
  };
  std::string missed;
  Solution ulp = sample;
  ulp.metrics.expected_latency =
      std::nextafter(ulp.metrics.expected_latency, 1e300);
  if (!rejects(ulp)) missed += " one-ulp metric change;";
  // Move the first interval's first processor to a label no interval uses.
  std::vector<std::vector<std::size_t>> processors;
  std::size_t unused = 0;
  for (std::size_t j = 0; j < sample.mapping.interval_count(); ++j) {
    const auto procs = sample.mapping.processors(j);
    processors.emplace_back(procs.begin(), procs.end());
    for (std::size_t u : procs) unused = std::max(unused, u + 1);
  }
  processors[0][0] = unused;
  Solution moved{prts::Mapping(sample.mapping.partition(), processors),
                 sample.metrics};
  if (!rejects(moved)) missed += " moved processor;";
  if (!rejects(std::nullopt)) missed += " solution reported infeasible;";
  return missed;
}

bool answered(const prts::service::SolveReply& reply) noexcept {
  return reply.status == prts::service::ReplyStatus::kSolved ||
         reply.status == prts::service::ReplyStatus::kInfeasible;
}

// --------------------------------------------------------------- inputs

prts::Instance paper_hom_instance(prts::Rng& rng) {
  return prts::Instance{prts::paper::chain(rng), prts::paper::hom_platform()};
}

prts::Instance paper_het_instance(prts::Rng& rng) {
  prts::TaskChain chain = prts::paper::chain(rng);
  return prts::Instance{std::move(chain), prts::paper::het_platform(rng)};
}

prts::Instance permuted_copy(const prts::Instance& instance, prts::Rng& rng) {
  const auto source = instance.platform.processors();
  std::vector<prts::Processor> processors(source.begin(), source.end());
  std::shuffle(processors.begin(), processors.end(), rng);
  return prts::Instance{
      instance.chain,
      prts::Platform(std::move(processors), instance.platform.bandwidth(),
                     instance.platform.link_failure_rate(),
                     instance.platform.max_replication())};
}

std::vector<double> zipf_cumulative(std::size_t n, double s) {
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cumulative[k] = total;
  }
  for (double& value : cumulative) value /= total;
  return cumulative;
}

std::size_t zipf_draw(prts::Rng& rng, const std::vector<double>& cumulative) {
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                   rng.uniform01());
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative.begin()), cumulative.size() - 1);
}

// ------------------------------------------------------------ telemetry

void start_serve_telemetry(prts::obs::Telemetry& telemetry) {
  prts::obs::FlightRecorderConfig recorder;
  recorder.interval_seconds = 1.0;
  telemetry.recorder.configure(recorder);
  telemetry.recorder.start();
  prts::obs::WatchdogConfig watchdog;
  watchdog.stall_threshold_seconds = 2.0;
  telemetry.watchdog.start(watchdog);
  telemetry.alerts.add_rule("watchdog_stalls_total_delta>0;hold=5");
}

void tighten_timer_slack() noexcept { prctl(PR_SET_TIMERSLACK, 1000UL); }

namespace {
id_t this_thread_id() { return static_cast<id_t>(syscall(SYS_gettid)); }
}  // namespace

GeneratorPriority::GeneratorPriority() {
  errno = 0;
  previous_ = getpriority(PRIO_PROCESS, this_thread_id());
  raised_ = errno == 0 && setpriority(PRIO_PROCESS, this_thread_id(), -10) == 0;
  static std::once_flag warned;
  if (!raised_) {
    std::call_once(warned, [] {
      std::cerr << "# generator priority not raised (no permission); "
                   "generator lag may grow\n";
    });
  }
}

GeneratorPriority::~GeneratorPriority() {
  if (raised_) setpriority(PRIO_PROCESS, this_thread_id(), previous_);
}

double median(std::vector<double> values) { return median_of(values); }

void report_engine_and_cache(
    const std::vector<const prts::service::SolveService*>& services,
    Result& result) {
  prts::service::EngineStats engine;
  prts::service::CacheStats cache;
  for (const auto* service : services) {
    const auto stats = service->stats();
    engine.submitted += stats.submitted;
    engine.solver_invocations += stats.solver_invocations;
    engine.batched_requests += stats.batched_requests;
    engine.dominating_hits += stats.dominating_hits;
    engine.deduplicated += stats.deduplicated;
    const auto cache_stats = service->cache_stats();
    cache.hits += cache_stats.hits;
    cache.misses += cache_stats.misses;
    cache.entries += cache_stats.entries;
    cache.bytes += cache_stats.bytes;
  }
  const double submitted =
      static_cast<double>(std::max<std::uint64_t>(engine.submitted, 1));
  result.set("engine.solves_per_req",
             static_cast<double>(engine.solver_invocations) / submitted);
  result.set("engine.batched_share",
             static_cast<double>(engine.batched_requests) / submitted);
  result.set("engine.dominating_share",
             static_cast<double>(engine.dominating_hits) / submitted);
  result.set("engine.dedup_share",
             static_cast<double>(engine.deduplicated) / submitted);
  result.set("cache.hit_share", cache.hit_rate());
  result.set("cache.bytes_per_entry",
             static_cast<double>(cache.bytes) /
                 static_cast<double>(std::max<std::size_t>(cache.entries, 1)));
}

}  // namespace perfbench
