// The one binary codec (service/codec.hpp) behind every fabric payload,
// cache entry and snapshot, checked as a table over every decoder of
// socket or file bytes:
//   * every strict prefix of a valid encoding is refused, never thrown on;
//   * seeded single-byte mutations never throw or crash, and decoding
//     allocates at most the payload's size plus 4 KB;
//   * a huge count claimed anywhere (10^8, 10^18) allocates no more than
//     the bytes that carry it;
//   * every double keeps its bit pattern end to end, -0.0 included,
//     which the text form (canonical_number) wrote as 0.
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/evaluation.hpp"
#include "obs/profiler.hpp"
#include "service/cache.hpp"
#include "service/wire.hpp"

namespace prts::service {
namespace {

Instance tiny_instance() {
  std::vector<Task> tasks{{5.0, 1.0}, {7.0, 0.5}, {3.0, 0.0}};
  std::vector<Processor> procs{{1.0, 1e-8}, {2.0, 1e-7}, {1.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

/// A feasible entry carrying near-miss metadata, every field set.
CachedSolution indexed_entry() {
  const Instance instance = tiny_instance();
  Mapping mapping(IntervalPartition::from_boundaries(
                      std::vector<std::size_t>{0, 2}, 3),
                  {{1}, {0, 2}});
  const MappingMetrics metrics =
      evaluate(instance.chain, instance.platform, mapping);
  return CachedSolution{solver::Solution{std::move(mapping), metrics}, 0.25,
                        fingerprint("instance"), solver::Bounds{40.0, 90.0}};
}

std::vector<std::pair<CanonicalHash, CachedSolution>> two_entries() {
  return {{fingerprint("feasible"), indexed_entry()},
          {fingerprint("infeasible"), CachedSolution{std::nullopt, 1.5}}};
}

struct Outcome {
  bool accepted = false;
  std::uint64_t allocated = 0;  ///< bytes allocated while decoding
};

struct Row {
  const char* name;
  std::string bytes;
  std::function<Outcome(std::string_view)> decode;
};

/// Wraps a `decode(bytes, error) -> optional-like` call in an
/// allocation scope.
template <typename Decode>
std::function<Outcome(std::string_view)> measured(Decode decode) {
  return [decode](std::string_view bytes) {
    std::string error;
    const obs::AllocScope scope;
    const bool accepted = decode(bytes, error);
    return Outcome{accepted, scope.delta().bytes};
  };
}

std::vector<Row> every_decoder() {
  std::vector<Row> rows;

  SolveRequest request{tiny_instance(), "heur-p", {12.5, 90.0}, 7.5,
                       DeadlinePolicy::kReject};
  request.trace_id = 0xfeedULL;
  rows.push_back({"request", encode_wire_request(request),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_wire_request(bytes, error).has_value();
                  })});

  SolveReply reply;
  reply.status = ReplyStatus::kSolved;
  reply.cache_hit = true;
  reply.solver_used = "heur-p";
  reply.key = fingerprint("reply");
  reply.cost_seconds = 0.25;
  reply.solution = indexed_entry().solution;
  obs::Span span;
  span.name = "solver_run";
  span.rank = 1;
  span.start_seconds = 1e-4;
  span.duration_seconds = 2e-4;
  span.cpu_seconds = 1e-4;
  span.alloc_count = 3;
  span.alloc_bytes = 96;
  reply.remote_spans = {span, span};
  rows.push_back({"reply", encode_wire_reply(reply),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_wire_reply(bytes, error).has_value();
                  })});

  GossipDigest digest;
  digest.rank = 2;
  digest.entries = {{fingerprint("a"), 17}, {fingerprint("b"), 2}};
  rows.push_back({"gossip", encode_gossip_digest(digest),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_gossip_digest(bytes, error).has_value();
                  })});

  rows.push_back(
      {"replica fetch",
       encode_replica_fetch({fingerprint("x"), fingerprint("y")}),
       measured([](std::string_view bytes, std::string& error) {
         return decode_replica_fetch(bytes, error).has_value();
       })});

  rows.push_back({"replica entries", encode_replica_entries(two_entries()),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_replica_entries(bytes, error).has_value();
                  })});

  const Member member{3, "node-c", 7003};
  rows.push_back({"join", encode_join_request(member),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_join_request(bytes, error).has_value();
                  })});

  MembershipUpdate update;
  update.from = 1;
  update.view.epoch = 41;
  update.view.members = {{0, "node-a", 7001}, member};
  rows.push_back({"membership", encode_membership_update(update),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_membership_update(bytes, error).has_value();
                  })});

  rows.push_back({"handoff stamp", encode_handoff_stamp({9, 1, 128}),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_handoff_stamp(bytes, error).has_value();
                  })});

  rows.push_back({"handoff chunk", encode_handoff_chunk({9, 1, two_entries()}),
                  measured([](std::string_view bytes, std::string& error) {
                    return decode_handoff_chunk(bytes, error).has_value();
                  })});

  rows.push_back({"entry",
                  encode_cache_entry(fingerprint("entry"), indexed_entry()),
                  measured([](std::string_view bytes, std::string& error) {
                    CanonicalHash key;
                    CachedSolution value;
                    return parse_cache_entry(bytes, key, value, error);
                  })});

  ShardedSolutionCache cache;
  for (const auto& [key, value] : two_entries()) cache.insert(key, value);
  std::ostringstream snapshot;
  cache.save_binary(snapshot);
  rows.push_back({"snapshot", snapshot.str(), [](std::string_view bytes) {
                    ShardedSolutionCache loaded;
                    std::istringstream in{std::string(bytes)};
                    const obs::AllocScope scope;
                    const bool accepted = loaded.load_binary(in).error.empty();
                    return Outcome{accepted, scope.delta().bytes};
                  }});
  return rows;
}

TEST(CodecTotality, EveryStrictPrefixIsRefused) {
  for (const Row& row : every_decoder()) {
    ASSERT_TRUE(row.decode(row.bytes).accepted) << row.name;
    for (std::size_t length = 0; length < row.bytes.size(); ++length) {
      const std::string_view prefix(row.bytes.data(), length);
      Outcome outcome;
      EXPECT_NO_THROW(outcome = row.decode(prefix)) << row.name;
      EXPECT_FALSE(outcome.accepted) << row.name << " prefix " << length;
    }
  }
}

TEST(CodecTotality, SeededByteMutationsNeverThrowAndStayWithinTheBytes) {
  std::mt19937_64 rng(20);
  for (const Row& row : every_decoder()) {
    std::uniform_int_distribution<std::size_t> position(0,
                                                        row.bytes.size() - 1);
    std::uniform_int_distribution<int> flip(1, 255);
    for (int trial = 0; trial < 256; ++trial) {
      std::string mutated = row.bytes;
      const std::size_t at = position(rng);
      mutated[at] = static_cast<char>(mutated[at] ^ flip(rng));
      Outcome outcome;
      EXPECT_NO_THROW(outcome = row.decode(mutated)) << row.name;
      EXPECT_LE(outcome.allocated, mutated.size() + 4096)
          << row.name << " byte " << at;
    }
  }
}

TEST(CodecTotality, HugeClaimedCountsAllocateNoMoreThanTheBytes) {
  // Every count (and every other field) overwritten in turn with a huge
  // claim: 10^8 and 10^18 as a u64, 10^8 and the largest u32 as a u32
  // (10^18 does not fit one). A count vouches for at least one byte per
  // element, so no claim may cost more than its few hundred bytes.
  constexpr std::uint64_t kClaims[] = {100000000ULL, 1000000000000000000ULL};
  for (const Row& row : every_decoder()) {
    for (std::size_t at = 0; at < row.bytes.size(); ++at) {
      for (const std::uint64_t claim : kClaims) {
        for (const std::size_t width : {std::size_t{4}, std::size_t{8}}) {
          if (at + width > row.bytes.size()) continue;
          const std::uint64_t value =
              width == 4 ? std::min<std::uint64_t>(claim, 0xffffffffULL)
                         : claim;
          std::string hostile = row.bytes;
          for (std::size_t i = 0; i < width; ++i) {
            hostile[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
          }
          Outcome outcome;
          EXPECT_NO_THROW(outcome = row.decode(hostile)) << row.name;
          EXPECT_LT(outcome.allocated, 4096u)
              << row.name << " claim " << value << " at byte " << at;
        }
      }
    }
  }
}

// ------------------------------------------------------- bit patterns

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_bits(const CachedSolution& a, const CachedSolution& b) {
  ASSERT_EQ(a.solution.has_value(), b.solution.has_value());
  EXPECT_EQ(bits(a.cost_seconds), bits(b.cost_seconds));
  if (a.solution) {
    EXPECT_EQ(a.solution->mapping, b.solution->mapping);
    const MappingMetrics& x = a.solution->metrics;
    const MappingMetrics& y = b.solution->metrics;
    EXPECT_EQ(bits(x.reliability.log()), bits(y.reliability.log()));
    EXPECT_EQ(bits(x.failure), bits(y.failure));
    EXPECT_EQ(bits(x.expected_latency), bits(y.expected_latency));
    EXPECT_EQ(bits(x.worst_latency), bits(y.worst_latency));
    EXPECT_EQ(bits(x.expected_period), bits(y.expected_period));
    EXPECT_EQ(bits(x.worst_period), bits(y.worst_period));
    EXPECT_EQ(x.interval_count, y.interval_count);
    EXPECT_EQ(x.processors_used, y.processors_used);
    EXPECT_EQ(bits(x.replication_level), bits(y.replication_level));
  }
  ASSERT_EQ(a.indexable(), b.indexable());
  if (a.indexable()) {
    EXPECT_EQ(*a.instance_key, *b.instance_key);
    EXPECT_EQ(bits(a.bounds->period_bound), bits(b.bounds->period_bound));
    EXPECT_EQ(bits(a.bounds->latency_bound), bits(b.bounds->latency_bound));
  }
}

/// An entry whose doubles are the values a decimal form loses or bends:
/// -0.0, a subnormal, an infinity and a NaN with a payload.
CachedSolution awkward_entry() {
  CachedSolution entry = indexed_entry();
  MappingMetrics& metrics = entry.solution->metrics;
  metrics.reliability = LogReliability::from_log(-0.0);
  metrics.failure = -0.0;
  metrics.expected_latency = std::numeric_limits<double>::denorm_min();
  metrics.worst_latency = 1.0 / 3.0;
  metrics.expected_period = std::bit_cast<double>(0x7ff8000000000123ULL);
  metrics.replication_level = -0.0;
  entry.cost_seconds = -0.0;
  entry.bounds = solver::Bounds{-0.0, std::numeric_limits<double>::infinity()};
  return entry;
}

TEST(CodecRoundTrip, EveryDoubleKeepsItsBitPatternThroughEveryCarrier) {
  const CanonicalHash key = fingerprint("awkward");
  const CachedSolution entry = awkward_entry();
  std::string error;

  CanonicalHash parsed_key;
  CachedSolution parsed;
  ASSERT_TRUE(parse_cache_entry(encode_cache_entry(key, entry), parsed_key,
                                parsed, error))
      << error;
  EXPECT_EQ(parsed_key, key);
  expect_same_bits(entry, parsed);

  const auto chunk =
      decode_handoff_chunk(encode_handoff_chunk({1, 0, {{key, entry}}}), error);
  ASSERT_TRUE(chunk.has_value()) << error;
  expect_same_bits(entry, chunk->entries.at(0).second);

  const auto replicas =
      decode_replica_entries(encode_replica_entries({{key, entry}}), error);
  ASSERT_TRUE(replicas.has_value()) << error;
  expect_same_bits(entry, replicas->at(0).second);

  ShardedSolutionCache cache;
  cache.insert(key, entry);
  std::stringstream file;
  cache.save_binary(file);
  ShardedSolutionCache reloaded;
  ASSERT_EQ(reloaded.load_binary(file).error, "");
  expect_same_bits(entry, *reloaded.peek(key));

  SolveReply reply;
  reply.status = ReplyStatus::kSolved;
  reply.key = key;
  reply.solution = entry.solution;
  reply.cost_seconds = -0.0;
  const auto decoded_reply = decode_wire_reply(encode_wire_reply(reply), error);
  ASSERT_TRUE(decoded_reply.has_value()) << error;
  EXPECT_EQ(bits(decoded_reply->cost_seconds), bits(-0.0));
  expect_same_bits(CachedSolution{entry.solution, -0.0},
                   CachedSolution{decoded_reply->solution, -0.0});

  SolveRequest request{tiny_instance(), "exact",
                       {-0.0, std::numeric_limits<double>::infinity()}, -0.0};
  const auto decoded_request =
      decode_wire_request(encode_wire_request(request), error);
  ASSERT_TRUE(decoded_request.has_value()) << error;
  EXPECT_EQ(bits(decoded_request->bounds.period_bound), bits(-0.0));
  EXPECT_EQ(bits(decoded_request->bounds.latency_bound),
            bits(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(bits(decoded_request->deadline_seconds), bits(-0.0));
}

}  // namespace
}  // namespace prts::service
