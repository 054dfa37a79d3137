// Declarative SLOs (src/load/): a spec is a conjunction of upper
// bounds over a run's latency quantiles and outcome rates, written in
// a compact grammar:
//
//   p99<=50ms;error_rate<=0.01
//
// Metrics: p50 p90 p99 p999 mean (latency, seconds; ms/us/s suffixes
// accepted on the bound) and error_rate reject_rate (fractions of
// submitted requests). Every criterion is "<=" — an SLO is a promise
// that bad things stay below a line.
//
// max_sustainable_rate() answers the headline question "how much load
// can this fabric take while still keeping the SLO": a geometric ramp
// (double the rate while passing) finds the first failing rate, then
// bisection tightens the pass/fail boundary. The result is the highest
// rate that passed, with the full step log so a report can show the
// search path, not just the answer. When even the ceiling passes the
// knee was never found, and the result says so (`capped`).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "load/generator.hpp"

namespace prts::load {

/// One parsed "metric OP bound[suffix]" clause — the comparison grammar
/// shared by SLO criteria (restricted to "<=") and the alert rules in
/// src/obs/alerts.hpp (any op). ms/us/s suffixes on the bound scale it
/// into seconds.
struct Comparison {
  std::string metric;
  std::string op;  ///< one of "<=", ">=", "<", ">"
  double bound = 0.0;
};

/// Parses one comparison clause. Returns false (setting `error` when
/// given) on a missing operator or malformed bound; metric names are
/// not validated here — callers own their metric namespace.
bool parse_comparison(const std::string& text, Comparison& comparison,
                      std::string* error = nullptr);

/// Evaluates `value OP bound`; false on an unknown operator string.
bool comparison_holds(double value, const std::string& op,
                      double bound) noexcept;

struct SloCriterion {
  std::string metric;  ///< p50|p90|p99|p999|mean|error_rate|reject_rate
  double bound = 0.0;  ///< seconds for latency metrics, fraction for rates
};

struct SloSpec {
  std::vector<SloCriterion> criteria;
  bool empty() const noexcept { return criteria.empty(); }
};

/// Parses the ';'-separated "metric<=bound[suffix]" grammar. Returns
/// false (and sets `error` when given) on unknown metrics or malformed
/// bounds.
bool parse_slo(const std::string& text, SloSpec& spec,
               std::string* error = nullptr);

/// Returns false on unknown metric name.
bool slo_metric_value(const RunResult& result, const std::string& metric,
                      double& value);

struct SloCheck {
  std::string metric;
  double bound = 0.0;
  double observed = 0.0;
  bool pass = false;
};

struct SloReport {
  std::vector<SloCheck> checks;
  bool pass = true;  ///< conjunction of checks (true for an empty spec)
};

SloReport evaluate_slo(const SloSpec& spec, const RunResult& result);

/// {"pass":true,"checks":[{"metric":..,"bound":..,"observed":..,
///   "pass":..},...]}
void write_slo_json(std::ostream& out, const SloReport& report);

/// One load step of the search.
struct StepOutcome {
  double rate = 0.0;
  bool pass = false;
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t unresolved = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  SloReport report;
};

struct SearchResult {
  /// Highest rate that passed the SLO (0 when even min_rate failed).
  double sustainable_rate = 0.0;
  /// True when the ramp reached max_rate and it passed: no step failed,
  /// so sustainable_rate is the search ceiling, a lower bound on the
  /// knee rather than the knee itself.
  bool capped = false;
  std::vector<StepOutcome> steps;
};

struct SearchOptions {
  double min_rate = 25.0;
  double max_rate = 3200.0;
  /// Bisection stops when the pass/fail bracket is within this relative
  /// width of each other.
  double relative_tolerance = 0.15;
  std::size_t max_steps = 12;  ///< hard cap on run_at invocations
};

/// `run_at(rate)` offers load at `rate` and returns the measured run.
SearchResult max_sustainable_rate(
    const std::function<RunResult(double)>& run_at, const SloSpec& spec,
    const SearchOptions& options = {});

}  // namespace prts::load
