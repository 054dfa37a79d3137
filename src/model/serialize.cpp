#include "model/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

namespace prts {
namespace {

/// The text's lines as std::getline splits them, read in place.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// Reads the next content line (skipping blanks and '#' comments);
  /// false at end of text.
  bool next(std::string_view& line, std::size_t& lineno) {
    while (!rest_.empty()) {
      const std::size_t end = rest_.find('\n');
      line = rest_.substr(0, end);
      rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                       : end + 1);
      ++lineno;
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string_view::npos) continue;
      if (line[start] == '#') continue;
      return true;
    }
    return false;
  }

  std::string_view unread() const noexcept { return rest_; }

 private:
  std::string_view rest_;
};

/// Reads the fields of one line the way `std::istream >>` does in the
/// classic locale, without a stream: each read skips whitespace, takes
/// the longest prefix its type's grammar accepts, and leaves the rest.
/// The first failed read fails every later one, and ok() reports it, as
/// the stream's failbit would.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line) : rest_(line) {}

  bool ok() const noexcept { return ok_; }

  /// `>> std::string`: the next run of non-whitespace characters.
  FieldReader& operator>>(std::string_view& word) {
    if (!ok_) return *this;
    skip_space();
    std::size_t end = 0;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    if (end == 0) return failed();
    word = rest_.substr(0, end);
    rest_.remove_prefix(end);
    return *this;
  }

  /// `>> integer`: an optional sign and decimal digits. Out of range
  /// fails; a minus sign on an unsigned type wraps, as num_get does.
  template <typename Int>
  FieldReader& operator>>(Int& value) {
    if (!ok_) return *this;
    skip_space();
    bool negative = false;
    if (!rest_.empty() && (rest_[0] == '-' || rest_[0] == '+')) {
      negative = rest_[0] == '-';
      rest_.remove_prefix(1);
    }
    using Unsigned = std::make_unsigned_t<Int>;
    const Unsigned limit =
        std::is_signed_v<Int> && negative
            ? static_cast<Unsigned>(std::numeric_limits<Int>::max()) + 1
            : static_cast<Unsigned>(std::numeric_limits<Int>::max());
    Unsigned magnitude = 0;
    std::size_t digits = 0;
    bool overflow = false;
    for (; digits < rest_.size() && is_digit(rest_[digits]); ++digits) {
      const auto digit = static_cast<Unsigned>(rest_[digits] - '0');
      if (magnitude > (limit - digit) / 10) overflow = true;
      magnitude = static_cast<Unsigned>(magnitude * 10 + digit);
    }
    rest_.remove_prefix(digits);
    if (digits == 0 || overflow) return failed();
    value = static_cast<Int>(negative ? static_cast<Unsigned>(0 - magnitude)
                                      : magnitude);
    return *this;
  }

  /// `>> double`: [sign] digits [. digits] [(e|E) [sign] digits], as
  /// strtod would convert it. Overflow fails; underflow to zero reads
  /// a signed zero, as strtod does.
  FieldReader& operator>>(double& value) {
    if (!ok_) return *this;
    skip_space();
    std::size_t end = 0;
    if (end < rest_.size() && (rest_[end] == '-' || rest_[end] == '+')) ++end;
    const std::size_t mantissa = end;
    bool digits = false;
    bool point = false;
    for (; end < rest_.size(); ++end) {
      if (is_digit(rest_[end])) {
        digits = true;
      } else if (rest_[end] == '.' && !point) {
        point = true;
      } else {
        break;
      }
    }
    bool negative_exponent = false;
    if (digits && end < rest_.size() &&
        (rest_[end] == 'e' || rest_[end] == 'E')) {
      ++end;
      if (end < rest_.size() && (rest_[end] == '-' || rest_[end] == '+')) {
        negative_exponent = rest_[end] == '-';
        ++end;
      }
      while (end < rest_.size() && is_digit(rest_[end])) ++end;
    }
    // from_chars takes no '+'.
    const bool plus = mantissa == 1 && rest_[0] == '+';
    const bool negative = mantissa == 1 && !plus;
    const char* const last = rest_.data() + end;
    double parsed = 0.0;
    const auto [ptr, ec] =
        std::from_chars(rest_.data() + (plus ? 1 : 0), last, parsed);
    rest_.remove_prefix(end);
    if (ptr != last && ec != std::errc::result_out_of_range) return failed();
    if (ec == std::errc::result_out_of_range) {
      // Below ~1e-324 the exponent is negative, past ~1e308 it is not
      // (for any mantissa shorter than 300 digits).
      if (!negative_exponent) return failed();
      parsed = negative ? -0.0 : 0.0;
    } else if (ec != std::errc{}) {
      return failed();
    }
    value = parsed;
    return *this;
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }
  static bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

  void skip_space() noexcept {
    std::size_t start = 0;
    while (start < rest_.size() && is_space(rest_[start])) ++start;
    rest_.remove_prefix(start);
  }

  FieldReader& failed() noexcept {
    ok_ = false;
    return *this;
  }

  std::string_view rest_;
  bool ok_ = true;
};

ParseResult fail(std::size_t lineno, const std::string& what) {
  ParseResult result;
  result.error = "line " + std::to_string(lineno) + ": " + what;
  return result;
}

}  // namespace

void write_instance(std::ostream& out, const Instance& instance) {
  out << "prts-instance v1\n";
  out << "tasks " << instance.chain.size() << "\n";
  for (const Task& task : instance.chain.tasks()) {
    out << task.work << " " << task.out_size << "\n";
  }
  const Platform& platform = instance.platform;
  out << "platform " << platform.processor_count() << " "
      << platform.bandwidth() << " " << platform.link_failure_rate() << " "
      << platform.max_replication() << "\n";
  for (const Processor& proc : platform.processors()) {
    out << proc.speed << " " << proc.failure_rate << "\n";
  }
}

std::string instance_to_text(const Instance& instance) {
  std::ostringstream out;
  write_instance(out, instance);
  return out.str();
}

std::string canonical_number(double value) {
  char buffer[kCanonicalNumberMaxChars];
  return std::string(buffer, write_canonical_number(buffer, value));
}

char* write_canonical_number(char* out, double value) noexcept {
  if (value == 0.0) value = 0.0;  // collapse -0.0
  // The shortest form always fits in kCanonicalNumberMaxChars.
  return std::to_chars(out, out + kCanonicalNumberMaxChars, value).ptr;
}

bool parse_canonical_number(std::string_view text, double& value) {
  if (text == "inf") {
    value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-inf") {
    value = -std::numeric_limits<double>::infinity();
    return true;
  }
  double parsed = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return false;
  value = parsed;
  return true;
}

CanonicalInstanceText::CanonicalInstanceText(const Instance& instance) {
  const TaskChain& chain = instance.chain;
  const Platform& platform = instance.platform;
  // Upper bound of the text: fixed words, two counts and a replication
  // bound of at most 20 digits each, and every number line at its
  // widest. Typical instances fit the stack buffer.
  constexpr std::size_t kLine = 2 * kCanonicalNumberMaxChars + 2;
  const std::size_t bound = 64 + 3 * 20 + 2 * kCanonicalNumberMaxChars +
                            kLine * (chain.size() + platform.processor_count());
  if (bound > sizeof(stack_)) heap_ = std::make_unique<char[]>(bound);
  char* const begin = heap_ ? heap_.get() : stack_;
  char* out = begin;
  const auto put = [&out](std::string_view text) {
    out = std::copy(text.begin(), text.end(), out);
  };
  const auto put_integer = [&out](std::uint64_t value) {
    out = std::to_chars(out, out + 20, value).ptr;
  };
  put("prts-instance v1\ntasks ");
  put_integer(chain.size());
  *out++ = '\n';
  for (const Task& task : chain.tasks()) {
    out = write_canonical_number(out, task.work);
    *out++ = ' ';
    out = write_canonical_number(out, task.out_size);
    *out++ = '\n';
  }
  put("platform ");
  put_integer(platform.processor_count());
  *out++ = ' ';
  out = write_canonical_number(out, platform.bandwidth());
  *out++ = ' ';
  out = write_canonical_number(out, platform.link_failure_rate());
  *out++ = ' ';
  put_integer(platform.max_replication());
  *out++ = '\n';
  for (const Processor& proc : platform.processors()) {
    out = write_canonical_number(out, proc.speed);
    *out++ = ' ';
    out = write_canonical_number(out, proc.failure_rate);
    *out++ = '\n';
  }
  begin_ = begin;
  size_ = static_cast<std::size_t>(out - begin);
}

std::size_t records_that_fit(std::istream& in, std::size_t claimed) {
  const std::streamsize remaining =
      in.rdbuf() != nullptr ? in.rdbuf()->in_avail() : 0;
  if (remaining <= 0) return 0;
  return std::min(claimed, static_cast<std::size_t>(remaining) / 2);
}

std::size_t records_that_fit(std::string_view unread,
                             std::size_t claimed) noexcept {
  return std::min(claimed, unread.size() / 2);
}

ParseResult read_instance(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return instance_from_text(text);
}

ParseResult instance_from_text(std::string_view text) {
  LineReader lines(text);
  std::string_view line;
  std::size_t lineno = 0;

  if (!lines.next(line, lineno)) return fail(lineno, "empty input");
  {
    std::string_view magic;
    std::string_view version;
    FieldReader(line) >> magic >> version;
    if (magic != "prts-instance" || version != "v1") {
      return fail(lineno, "expected header 'prts-instance v1'");
    }
  }

  if (!lines.next(line, lineno)) return fail(lineno, "missing tasks line");
  std::size_t n = 0;
  {
    std::string_view keyword;
    FieldReader tasks_line(line);
    tasks_line >> keyword >> n;
    if (keyword != "tasks" || !tasks_line.ok() || n == 0) {
      return fail(lineno, "expected 'tasks <n>' with n >= 1");
    }
  }

  std::vector<Task> tasks;
  tasks.reserve(records_that_fit(lines.unread(), n));
  // Labeled form: 'task <id> <work> <out_size>' lines in any order; the
  // ascending id order defines the chain order (ids are labels only).
  std::vector<std::pair<std::int64_t, Task>> labeled;
  for (std::size_t i = 0; i < n; ++i) {
    if (!lines.next(line, lineno)) {
      return fail(lineno, "expected " + std::to_string(n) +
                              " task lines, got " + std::to_string(i));
    }
    FieldReader task_line(line);
    Task task;
    std::string_view first_token;
    FieldReader(line) >> first_token;
    if (first_token == "task") {
      std::string_view keyword;
      std::int64_t id = 0;
      task_line >> keyword >> id >> task.work >> task.out_size;
      if (!task_line.ok()) {
        return fail(lineno, "expected 'task <id> <work> <out_size>'");
      }
      if (!tasks.empty()) {
        return fail(lineno, "cannot mix labeled and plain task lines");
      }
      labeled.emplace_back(id, task);
    } else {
      if (!labeled.empty()) {
        return fail(lineno, "cannot mix labeled and plain task lines");
      }
      task_line >> task.work >> task.out_size;
      if (!task_line.ok()) {
        return fail(lineno, "expected '<work> <out_size>'");
      }
      tasks.push_back(task);
    }
    const Task& parsed_task =
        labeled.empty() ? tasks.back() : labeled.back().second;
    if (!(parsed_task.work > 0.0) || parsed_task.out_size < 0.0) {
      return fail(lineno, "work must be > 0 and out_size >= 0");
    }
  }
  if (!labeled.empty()) {
    std::stable_sort(labeled.begin(), labeled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i + 1 < labeled.size(); ++i) {
      if (labeled[i].first == labeled[i + 1].first) {
        return fail(lineno, "duplicate task id " +
                                std::to_string(labeled[i].first));
      }
    }
    for (const auto& [id, task] : labeled) tasks.push_back(task);
  }

  if (!lines.next(line, lineno)) {
    return fail(lineno, "missing platform line");
  }
  std::size_t p = 0;
  double bandwidth = 0.0;
  double link_failure_rate = 0.0;
  unsigned max_replication = 0;
  {
    std::string_view keyword;
    FieldReader platform_line(line);
    platform_line >> keyword >> p >> bandwidth >> link_failure_rate >>
        max_replication;
    if (keyword != "platform" || !platform_line.ok() || p == 0) {
      return fail(lineno,
                  "expected 'platform <p> <bandwidth> <link_rate> <K>'");
    }
  }
  if (!(bandwidth > 0.0) || link_failure_rate < 0.0 || max_replication < 1) {
    return fail(lineno, "invalid platform parameters");
  }

  std::vector<Processor> processors;
  processors.reserve(records_that_fit(lines.unread(), p));
  for (std::size_t u = 0; u < p; ++u) {
    if (!lines.next(line, lineno)) {
      return fail(lineno, "expected " + std::to_string(p) +
                              " processor lines, got " + std::to_string(u));
    }
    FieldReader proc_line(line);
    Processor proc;
    proc_line >> proc.speed >> proc.failure_rate;
    if (!proc_line.ok()) {
      return fail(lineno, "expected '<speed> <failure_rate>'");
    }
    if (!(proc.speed > 0.0) || proc.failure_rate < 0.0) {
      return fail(lineno, "speed must be > 0 and failure rate >= 0");
    }
    processors.push_back(proc);
  }

  ParseResult result;
  result.instance = Instance{
      TaskChain(std::move(tasks)),
      Platform(std::move(processors), bandwidth, link_failure_rate,
               max_replication)};
  return result;
}

}  // namespace prts
