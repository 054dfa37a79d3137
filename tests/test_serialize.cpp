#include "model/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "model/generator.hpp"

namespace prts {
namespace {

Instance sample_instance() {
  Rng rng(3);
  return Instance{paper::chain(rng), paper::het_platform(rng)};
}

TEST(Serialize, RoundTripPreservesEverything) {
  const Instance original = sample_instance();
  const ParseResult parsed = instance_from_text(instance_to_text(original));
  ASSERT_TRUE(parsed) << parsed.error;
  const Instance& copy = *parsed.instance;
  ASSERT_EQ(copy.chain.size(), original.chain.size());
  for (std::size_t i = 0; i < copy.chain.size(); ++i) {
    EXPECT_DOUBLE_EQ(copy.chain.work(i), original.chain.work(i));
    EXPECT_DOUBLE_EQ(copy.chain.out_size(i), original.chain.out_size(i));
  }
  ASSERT_EQ(copy.platform.processor_count(),
            original.platform.processor_count());
  for (std::size_t u = 0; u < copy.platform.processor_count(); ++u) {
    EXPECT_DOUBLE_EQ(copy.platform.speed(u), original.platform.speed(u));
    EXPECT_DOUBLE_EQ(copy.platform.failure_rate(u),
                     original.platform.failure_rate(u));
  }
  EXPECT_DOUBLE_EQ(copy.platform.bandwidth(),
                   original.platform.bandwidth());
  EXPECT_DOUBLE_EQ(copy.platform.link_failure_rate(),
                   original.platform.link_failure_rate());
  EXPECT_EQ(copy.platform.max_replication(),
            original.platform.max_replication());
}

TEST(Serialize, RoundTripPreservesTinyRates) {
  // 1e-8 must survive the text round trip with full precision... the
  // default stream precision only keeps 6 digits, which is exact for
  // 1e-08 but would not be for 1.234567e-08; accept a relative error.
  Instance original{
      TaskChain({{1.5, 0.25}, {2.0, 0.0}}),
      Platform({{1.0, 1.234567e-08}, {3.0, 9.87e-10}}, 2.0, 5e-5, 2)};
  const ParseResult parsed = instance_from_text(instance_to_text(original));
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_NEAR(parsed.instance->platform.failure_rate(0) / 1.234567e-08, 1.0,
              1e-5);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const std::string text = R"(# a comment
prts-instance v1

tasks 2
# the tasks
5 1
7 0
platform 1 1 0 1
1 0
)";
  const ParseResult parsed = instance_from_text(text);
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.instance->chain.size(), 2u);
}

TEST(Serialize, RejectsBadHeader) {
  const ParseResult parsed = instance_from_text("not-an-instance v1\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("header"), std::string::npos);
}

TEST(Serialize, RejectsEmptyInput) {
  EXPECT_FALSE(instance_from_text(""));
}

TEST(Serialize, RejectsMissingTaskLines) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 3\n1 0\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("task lines"), std::string::npos);
}

TEST(Serialize, RejectsNonPositiveWork) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 1\n0 0\nplatform 1 1 0 1\n1 0\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("work"), std::string::npos);
}

TEST(Serialize, RejectsBadPlatformLine) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 1\n1 0\nplatform oops\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("platform"), std::string::npos);
}

TEST(Serialize, RejectsZeroReplication) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 1\n1 0\nplatform 1 1 0 0\n1 0\n");
  ASSERT_FALSE(parsed);
}

TEST(Serialize, RejectsMissingProcessorLines) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 1\n1 0\nplatform 2 1 0 1\n1 0\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("processor lines"), std::string::npos);
}

TEST(Serialize, ErrorNamesLineNumber) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 2\n5 1\nbogus line\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("line 4"), std::string::npos);
}

TEST(Serialize, LabeledTaskLinesOrderByIdNotPosition) {
  // 'task <id> <work> <out>' lines: ids are labels, ascending id order
  // is the chain order regardless of where the lines appear.
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 3\n"
      "task 30 7 0\ntask 5 1 2\ntask 12 3 1\n"
      "platform 1 1 0 1\n1 0\n");
  ASSERT_TRUE(parsed) << parsed.error;
  const TaskChain& chain = parsed.instance->chain;
  EXPECT_EQ(chain.work(0), 1.0);  // id 5
  EXPECT_EQ(chain.work(1), 3.0);  // id 12
  EXPECT_EQ(chain.work(2), 7.0);  // id 30
}

TEST(Serialize, LabeledAndPlainTaskFormsParseIdentically) {
  const ParseResult plain = instance_from_text(
      "prts-instance v1\ntasks 2\n5 1\n8 0\nplatform 1 1 0 1\n1 0\n");
  const ParseResult labeled = instance_from_text(
      "prts-instance v1\ntasks 2\ntask 1 8 0\ntask 0 5 1\n"
      "platform 1 1 0 1\n1 0\n");
  ASSERT_TRUE(plain) << plain.error;
  ASSERT_TRUE(labeled) << labeled.error;
  EXPECT_EQ(instance_to_text(*plain.instance),
            instance_to_text(*labeled.instance));
}

TEST(Serialize, RejectsMixedTaskLineForms) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 2\ntask 0 5 1\n8 0\nplatform 1 1 0 1\n1 0\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("mix"), std::string::npos);
}

TEST(Serialize, RejectsDuplicateTaskIds) {
  const ParseResult parsed = instance_from_text(
      "prts-instance v1\ntasks 2\ntask 3 5 1\ntask 3 8 0\n"
      "platform 1 1 0 1\n1 0\n");
  ASSERT_FALSE(parsed);
  EXPECT_NE(parsed.error.find("duplicate task id"), std::string::npos);
}

TEST(Serialize, CanonicalWriterIsLossless) {
  // CanonicalInstanceText keeps full double precision, so values the
  // default writer would truncate survive the round trip bit-exactly.
  std::vector<Task> tasks{{1.0 / 3.0, 0.123456789012345}, {2.0, 0.0}};
  std::vector<Processor> procs{{1.0000000001, 1.23456789e-9}};
  const Instance original{TaskChain(std::move(tasks)),
                          Platform(std::move(procs), 1.0, 1e-5, 1)};
  const ParseResult parsed = instance_from_text(
      std::string(CanonicalInstanceText(original).view()));
  ASSERT_TRUE(parsed) << parsed.error;
  EXPECT_EQ(parsed.instance->chain.work(0), original.chain.work(0));
  EXPECT_EQ(parsed.instance->chain.out_size(0), original.chain.out_size(0));
  EXPECT_EQ(parsed.instance->platform.speed(0), original.platform.speed(0));
  EXPECT_EQ(parsed.instance->platform.failure_rate(0),
            original.platform.failure_rate(0));
}

TEST(Serialize, CanonicalTextBeyondTheStackBufferRoundTrips) {
  // 200 tasks of full-precision numbers need far more than the 4 KB
  // stack buffer, so the text is written into its heap buffer.
  std::vector<Task> tasks;
  for (int i = 0; i < 200; ++i) {
    tasks.push_back({1.0 / (i + 3.0), 2.2250738585072014e-308 * (i + 1)});
  }
  const Instance original{TaskChain(tasks),
                          Platform({{1.0 / 7.0, 1e-300}}, 1.0, 1e-5, 1)};
  const CanonicalInstanceText text(original);
  ASSERT_GT(text.view().size(), 4096u);
  const ParseResult parsed = instance_from_text(std::string(text.view()));
  ASSERT_TRUE(parsed) << parsed.error;
  ASSERT_EQ(parsed.instance->chain.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(parsed.instance->chain.work(i), tasks[i].work);
    EXPECT_EQ(parsed.instance->chain.out_size(i), tasks[i].out_size);
  }
  EXPECT_EQ(parsed.instance->platform.speed(0), 1.0 / 7.0);
}


// --------------------------------------- the stream parser as an oracle
//
// instance_from_text reads its fields in place; the parser it replaced
// read each line through an istringstream. Both must accept the same
// texts, read the same bits and refuse with the same message.

bool stream_next_line(std::istream& in, std::string& line,
                      std::size_t& lineno) {
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    return true;
  }
  return false;
}

ParseResult stream_fail(std::size_t lineno, const std::string& what) {
  ParseResult result;
  result.error = "line " + std::to_string(lineno) + ": " + what;
  return result;
}

ParseResult stream_read_instance(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  if (!stream_next_line(in, line, lineno)) {
    return stream_fail(lineno, "empty input");
  }
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    header >> magic >> version;
    if (magic != "prts-instance" || version != "v1") {
      return stream_fail(lineno, "expected header 'prts-instance v1'");
    }
  }
  if (!stream_next_line(in, line, lineno)) {
    return stream_fail(lineno, "missing tasks line");
  }
  std::size_t n = 0;
  {
    std::istringstream tasks_line(line);
    std::string keyword;
    tasks_line >> keyword >> n;
    if (keyword != "tasks" || tasks_line.fail() || n == 0) {
      return stream_fail(lineno, "expected 'tasks <n>' with n >= 1");
    }
  }
  std::vector<Task> tasks;
  std::vector<std::pair<std::int64_t, Task>> labeled;
  for (std::size_t i = 0; i < n; ++i) {
    if (!stream_next_line(in, line, lineno)) {
      return stream_fail(lineno, "expected " + std::to_string(n) +
                                     " task lines, got " + std::to_string(i));
    }
    std::istringstream task_line(line);
    Task task;
    std::string first_token;
    {
      std::istringstream probe(line);
      probe >> first_token;
    }
    if (first_token == "task") {
      std::string keyword;
      std::int64_t id = 0;
      task_line >> keyword >> id >> task.work >> task.out_size;
      if (task_line.fail()) {
        return stream_fail(lineno, "expected 'task <id> <work> <out_size>'");
      }
      if (!tasks.empty()) {
        return stream_fail(lineno, "cannot mix labeled and plain task lines");
      }
      labeled.emplace_back(id, task);
    } else {
      if (!labeled.empty()) {
        return stream_fail(lineno, "cannot mix labeled and plain task lines");
      }
      task_line >> task.work >> task.out_size;
      if (task_line.fail()) {
        return stream_fail(lineno, "expected '<work> <out_size>'");
      }
      tasks.push_back(task);
    }
    const Task& parsed_task =
        labeled.empty() ? tasks.back() : labeled.back().second;
    if (!(parsed_task.work > 0.0) || parsed_task.out_size < 0.0) {
      return stream_fail(lineno, "work must be > 0 and out_size >= 0");
    }
  }
  if (!labeled.empty()) {
    std::stable_sort(labeled.begin(), labeled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i + 1 < labeled.size(); ++i) {
      if (labeled[i].first == labeled[i + 1].first) {
        return stream_fail(lineno, "duplicate task id " +
                                       std::to_string(labeled[i].first));
      }
    }
    for (const auto& [id, task] : labeled) tasks.push_back(task);
  }
  if (!stream_next_line(in, line, lineno)) {
    return stream_fail(lineno, "missing platform line");
  }
  std::size_t p = 0;
  double bandwidth = 0.0;
  double link_failure_rate = 0.0;
  unsigned max_replication = 0;
  {
    std::istringstream platform_line(line);
    std::string keyword;
    platform_line >> keyword >> p >> bandwidth >> link_failure_rate >>
        max_replication;
    if (keyword != "platform" || platform_line.fail() || p == 0) {
      return stream_fail(
          lineno, "expected 'platform <p> <bandwidth> <link_rate> <K>'");
    }
  }
  if (!(bandwidth > 0.0) || link_failure_rate < 0.0 || max_replication < 1) {
    return stream_fail(lineno, "invalid platform parameters");
  }
  std::vector<Processor> processors;
  for (std::size_t u = 0; u < p; ++u) {
    if (!stream_next_line(in, line, lineno)) {
      return stream_fail(lineno, "expected " + std::to_string(p) +
                                     " processor lines, got " +
                                     std::to_string(u));
    }
    std::istringstream proc_line(line);
    Processor proc;
    proc_line >> proc.speed >> proc.failure_rate;
    if (proc_line.fail()) {
      return stream_fail(lineno, "expected '<speed> <failure_rate>'");
    }
    if (!(proc.speed > 0.0) || proc.failure_rate < 0.0) {
      return stream_fail(lineno, "speed must be > 0 and failure rate >= 0");
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

/// Both parsers on one text: the same verdict, error and bits.
void expect_same_parse(const std::string& text) {
  const ParseResult got = instance_from_text(text);
  const ParseResult want = stream_read_instance(text);
  ASSERT_EQ(got.instance.has_value(), want.instance.has_value())
      << text << "\n" << got.error << " | " << want.error;
  EXPECT_EQ(got.error, want.error) << text;
  if (!got) return;
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  const Instance& a = *got.instance;
  const Instance& b = *want.instance;
  ASSERT_EQ(a.chain.size(), b.chain.size()) << text;
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    EXPECT_EQ(bits(a.chain.work(i)), bits(b.chain.work(i))) << text;
    EXPECT_EQ(bits(a.chain.out_size(i)), bits(b.chain.out_size(i))) << text;
  }
  ASSERT_EQ(a.platform.processor_count(), b.platform.processor_count());
  for (std::size_t u = 0; u < a.platform.processor_count(); ++u) {
    EXPECT_EQ(bits(a.platform.speed(u)), bits(b.platform.speed(u))) << text;
    EXPECT_EQ(bits(a.platform.failure_rate(u)),
              bits(b.platform.failure_rate(u)))
        << text;
  }
  EXPECT_EQ(bits(a.platform.bandwidth()), bits(b.platform.bandwidth()));
  EXPECT_EQ(bits(a.platform.link_failure_rate()),
            bits(b.platform.link_failure_rate()));
  EXPECT_EQ(a.platform.max_replication(), b.platform.max_replication());
}

TEST(Serialize, InPlaceParserMatchesTheStreamParserOnEverySpelling) {
  // Each spelling in turn stands for one field of a small instance.
  const char* const spellings[] = {
      "1",       "+1",     "-1",      "0",      "-0",       "1.",
      ".5",      ".",      "1e",      "1e+",    "1e-400",   "-1e-400",
      "2e-324",  "3e-324", "1e-310",  "1e400",  "1.8e308",  "nan",
      "inf",     "-inf",   "0x10",    "5x",     "--5",      "+-5",
      "1e5e6",   "1.2.3",  "007",     "1E2",    "",         "#",
      "4294967295",        "4294967296",        "18446744073709551615",
      "18446744073709551616",        "9223372036854775808",
      "-9223372036854775808",        "-9223372036854775809",
      "12345678901234567890123",     "1\v2",    "\f3",      "task"};
  const std::string fields[] = {"3", "5", "1", "7", "0", "2", "1", "0.5", "2",
                                "1", "1e-8", "2", "1e-7"};
  const auto render = [&](const std::vector<std::string>& f) {
    return "prts-instance v1\ntasks " + f[0] + "\n" + f[1] + " " + f[2] +
           "\n" + f[3] + " " + f[4] + "\ntask " + f[5] + " 2 1\n" +
           "platform " + f[6] + " " + f[7] + " " + f[8] + " " + f[9] + "\n" +
           f[10] + " " + f[11] + "\n" + f[12] + " 3\n";
  };
  std::vector<std::string> base(std::begin(fields), std::end(fields));
  base[0] = "2";  // a plain two-task chain; the labeled line is extra
  expect_same_parse(render(base));
  for (std::size_t at = 0; at < base.size(); ++at) {
    for (const char* spelling : spellings) {
      std::vector<std::string> variant = base;
      variant[at] = spelling;
      expect_same_parse(render(variant));
      ASSERT_FALSE(HasFailure()) << "field " << at << " = '" << spelling
                                 << "'";
    }
  }
}

TEST(Serialize, InPlaceParserMatchesTheStreamParserUnderByteMutations) {
  Rng rng(11);
  const Instance instance{paper::chain(rng), paper::het_platform(rng)};
  std::vector<std::string> texts{
      std::string(CanonicalInstanceText(instance).view()),
      instance_to_text(instance),
      "# comment\n\nprts-instance v1 trailing\r\ntasks 2\r\n"
      "task 9 5 1\ntask -3 7 0 extra\n\t\nplatform 2 1 0 2 more\n"
      "1 0\n2 1e-9\nafter the end\n"};
  std::mt19937_64 mutate(20);
  const char alphabet[] = "0123456789+-.eE xtask\n\r\t#\v";
  for (const std::string& text : texts) {
    expect_same_parse(text);
    std::uniform_int_distribution<std::size_t> position(0, text.size() - 1);
    std::uniform_int_distribution<std::size_t> pick(0, sizeof(alphabet) - 2);
    for (int trial = 0; trial < 2000; ++trial) {
      std::string mutated = text;
      const int edits = 1 + trial % 3;
      for (int e = 0; e < edits; ++e) {
        const std::size_t at = position(mutate) % mutated.size();
        switch (trial % 4) {
          case 0:
            mutated[at] = alphabet[pick(mutate)];
            break;
          case 1:
            mutated.erase(at, 1);
            break;
          case 2:
            mutated.insert(at, 1, alphabet[pick(mutate)]);
            break;
          default:
            mutated[at] = static_cast<char>(mutate() & 0xff);
            break;
        }
        if (mutated.empty()) mutated.push_back('x');
      }
      expect_same_parse(mutated);
      ASSERT_FALSE(HasFailure()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace prts
