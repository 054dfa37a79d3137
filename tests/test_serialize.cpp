#include "model/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

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
  // write_instance_canonical keeps full double precision, so values the
  // default writer would truncate survive the round trip bit-exactly.
  std::vector<Task> tasks{{1.0 / 3.0, 0.123456789012345}, {2.0, 0.0}};
  std::vector<Processor> procs{{1.0000000001, 1.23456789e-9}};
  const Instance original{TaskChain(std::move(tasks)),
                          Platform(std::move(procs), 1.0, 1e-5, 1)};
  std::ostringstream out;
  write_instance_canonical(out, original);
  const ParseResult parsed = instance_from_text(out.str());
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

}  // namespace
}  // namespace prts
