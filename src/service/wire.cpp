#include "service/wire.hpp"

#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/codec.hpp"

namespace prts::service {
namespace {

constexpr std::uint8_t kReplyHit = 1;
constexpr std::uint8_t kReplyNear = 2;
constexpr std::uint8_t kReplyDown = 4;
/// A span's least bytes: empty name, rank, three doubles, two counts.
constexpr std::size_t kSpanMinBytes = 4 + 4 + 3 * 8 + 2 * 8;
/// A member's least bytes: rank, port, empty host.
constexpr std::size_t kMemberMinBytes = 8 + 2 + 4;

template <typename T>
std::optional<T> refuse(std::string& error, std::string why) {
  error = std::move(why);
  return std::nullopt;
}

/// `value` when the payload is consumed exactly; refused otherwise.
template <typename T>
std::optional<T> whole(const ByteReader& in, T value, std::string& error) {
  if (!in.at_end()) return refuse<T>(error, "bytes past the end of the payload");
  return value;
}

void encode_entries(
    ByteWriter& out,
    const std::vector<std::pair<CanonicalHash, CachedSolution>>& entries) {
  out.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) encode_cache_entry(out, key, value);
}

bool decode_entries(
    ByteReader& in,
    std::vector<std::pair<CanonicalHash, CachedSolution>>& entries,
    std::string& error) {
  std::size_t count = 0;
  if (!in.count(count, kCacheEntryMinBytes)) {
    error = "malformed entry count";
    return false;
  }
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CanonicalHash key;
    CachedSolution value;
    if (!parse_cache_entry(in, key, value, error)) {
      error = "entry: " + error;
      return false;
    }
    entries.emplace_back(key, std::move(value));
  }
  return true;
}

}  // namespace

std::string encode_wire_request(const SolveRequest& request) {
  ByteWriter out;
  out.text(request.solver);
  out.f64(request.bounds.period_bound);
  out.f64(request.bounds.latency_bound);
  out.f64(request.deadline_seconds);
  out.u8(request.deadline_policy == DeadlinePolicy::kReject ? 0 : 1);
  out.u64(request.trace_id);
  out.text(CanonicalInstanceText(request.instance).view());
  return out.take();
}

std::optional<SolveRequest> decode_wire_request(std::string_view payload,
                                                std::string& error) {
  ByteReader in(payload);
  std::string solver;
  solver::Bounds bounds;
  double deadline_seconds = 0.0;
  std::uint8_t policy = 0;
  std::uint64_t trace_id = 0;
  std::string_view instance_text;
  if (!in.text(solver) || solver.empty() || !in.f64(bounds.period_bound) ||
      !in.f64(bounds.latency_bound) || !in.f64(deadline_seconds) ||
      !in.u8(policy) || !in.u64(trace_id) || !in.text(instance_text)) {
    return refuse<SolveRequest>(error, "truncated or malformed solve request");
  }
  if (policy > 1) {
    return refuse<SolveRequest>(error,
                                "unknown policy " + std::to_string(policy));
  }
  ParseResult parsed = instance_from_text(std::string(instance_text));
  if (!parsed) return refuse<SolveRequest>(error, "instance: " + parsed.error);
  SolveRequest request{
      std::move(*parsed.instance), std::move(solver), bounds, deadline_seconds,
      policy == 0 ? DeadlinePolicy::kReject : DeadlinePolicy::kDowngrade};
  request.trace_id = trace_id;
  return whole(in, std::move(request), error);
}

std::string encode_wire_reply(const SolveReply& reply) {
  ByteWriter out;
  out.u8(static_cast<std::uint8_t>(reply.status));
  out.u8((reply.cache_hit ? kReplyHit : 0) | (reply.near_miss ? kReplyNear : 0) |
         (reply.downgraded ? kReplyDown : 0));
  out.text(reply.solver_used);
  out.f64(reply.cost_seconds);
  out.text(reply.error);
  out.u32(static_cast<std::uint32_t>(reply.remote_spans.size()));
  for (const obs::Span& span : reply.remote_spans) {
    out.text(span.name);
    out.u32(static_cast<std::uint32_t>(span.rank));
    out.f64(span.start_seconds);
    out.f64(span.duration_seconds);
    out.f64(span.cpu_seconds);
    out.u64(span.alloc_count);
    out.u64(span.alloc_bytes);
  }
  if (reply.status == ReplyStatus::kSolved ||
      reply.status == ReplyStatus::kInfeasible) {
    encode_cache_entry(out, reply.key,
                       CachedSolution{reply.solution, reply.cost_seconds});
  } else {
    out.key(reply.key);
  }
  return out.take();
}

std::optional<SolveReply> decode_wire_reply(std::string_view payload,
                                            std::string& error) {
  ByteReader in(payload);
  SolveReply reply;
  std::uint8_t status = 0;
  std::uint8_t flags = 0;
  std::size_t spans = 0;
  if (!in.u8(status) || !in.u8(flags) || !in.text(reply.solver_used) ||
      !in.f64(reply.cost_seconds) || !in.text(reply.error) ||
      !in.count(spans, kSpanMinBytes)) {
    return refuse<SolveReply>(error, "truncated or malformed solve reply");
  }
  if (status > static_cast<std::uint8_t>(ReplyStatus::kError)) {
    return refuse<SolveReply>(error,
                              "unknown status " + std::to_string(status));
  }
  if ((flags & ~(kReplyHit | kReplyNear | kReplyDown)) != 0) {
    return refuse<SolveReply>(error, "unknown reply flags");
  }
  reply.status = static_cast<ReplyStatus>(status);
  reply.cache_hit = (flags & kReplyHit) != 0;
  reply.near_miss = (flags & kReplyNear) != 0;
  reply.downgraded = (flags & kReplyDown) != 0;
  reply.remote_spans.resize(spans);
  for (obs::Span& span : reply.remote_spans) {
    std::uint32_t rank = 0;
    if (!in.text(span.name) || !in.u32(rank) || !in.f64(span.start_seconds) ||
        !in.f64(span.duration_seconds) || !in.f64(span.cpu_seconds) ||
        !in.u64(span.alloc_count) || !in.u64(span.alloc_bytes)) {
      return refuse<SolveReply>(error, "truncated span");
    }
    span.rank = static_cast<int>(rank);
  }
  if (reply.status == ReplyStatus::kSolved ||
      reply.status == ReplyStatus::kInfeasible) {
    CachedSolution entry;
    if (!parse_cache_entry(in, reply.key, entry, error)) {
      return refuse<SolveReply>(error, "entry: " + error);
    }
    reply.solution = std::move(entry.solution);
  } else if (!in.key(reply.key)) {
    return refuse<SolveReply>(error, "truncated key");
  }
  if (reply.status == ReplyStatus::kSolved && !reply.solution) {
    return refuse<SolveReply>(error, "status solved but no solution entry");
  }
  return whole(in, std::move(reply), error);
}

// ------------------------------------------------- gossip / replica fetch

std::string encode_gossip_digest(const GossipDigest& digest) {
  ByteWriter out;
  out.u64(digest.rank);
  out.u32(static_cast<std::uint32_t>(digest.entries.size()));
  for (const GossipDigest::Entry& entry : digest.entries) {
    out.key(entry.key);
    out.u64(entry.hits);
  }
  return out.take();
}

std::optional<GossipDigest> decode_gossip_digest(std::string_view payload,
                                                 std::string& error) {
  ByteReader in(payload);
  GossipDigest digest;
  std::size_t count = 0;
  if (!in.u64(digest.rank) || !in.count(count, 16 + 8)) {
    return refuse<GossipDigest>(error, "truncated or malformed gossip digest");
  }
  digest.entries.resize(count);
  for (GossipDigest::Entry& entry : digest.entries) {
    in.key(entry.key);  // count() vouched for these bytes
    in.u64(entry.hits);
  }
  return whole(in, std::move(digest), error);
}

std::string encode_replica_fetch(const std::vector<CanonicalHash>& keys) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(keys.size()));
  for (const CanonicalHash& key : keys) out.key(key);
  return out.take();
}

std::optional<std::vector<CanonicalHash>> decode_replica_fetch(
    std::string_view payload, std::string& error) {
  using Keys = std::vector<CanonicalHash>;
  ByteReader in(payload);
  std::size_t count = 0;
  if (!in.count(count, 16)) {
    return refuse<Keys>(error, "truncated or malformed replica fetch");
  }
  Keys keys(count);
  for (CanonicalHash& key : keys) in.key(key);  // vouched for by count()
  return whole(in, std::move(keys), error);
}

std::string encode_replica_entries(
    const std::vector<std::pair<CanonicalHash, CachedSolution>>& entries) {
  ByteWriter out;
  encode_entries(out, entries);
  return out.take();
}

std::optional<std::vector<std::pair<CanonicalHash, CachedSolution>>>
decode_replica_entries(std::string_view payload, std::string& error) {
  using Entries = std::vector<std::pair<CanonicalHash, CachedSolution>>;
  ByteReader in(payload);
  Entries entries;
  if (!decode_entries(in, entries, error)) return std::nullopt;
  return whole(in, std::move(entries), error);
}

// ------------------------------------------------- membership / handoff

std::string encode_join_request(const Member& member) {
  ByteWriter out;
  out.u64(member.rank);
  out.u16(member.port);
  out.text(member.host);
  return out.take();
}

std::optional<Member> decode_join_request(std::string_view payload,
                                          std::string& error) {
  ByteReader in(payload);
  Member member;
  if (!in.u64(member.rank) || !in.u16(member.port) || !in.text(member.host)) {
    return refuse<Member>(error, "truncated join request");
  }
  return whole(in, std::move(member), error);
}

std::string encode_membership_update(const MembershipUpdate& update) {
  ByteWriter out;
  out.u64(update.from);
  out.u64(update.view.epoch);
  out.u32(static_cast<std::uint32_t>(update.view.members.size()));
  for (const Member& member : update.view.members) {
    out.u64(member.rank);
    out.u16(member.port);
    out.text(member.host);
  }
  return out.take();
}

std::optional<MembershipUpdate> decode_membership_update(
    std::string_view payload, std::string& error) {
  ByteReader in(payload);
  MembershipUpdate update;
  std::size_t count = 0;
  if (!in.u64(update.from) || !in.u64(update.view.epoch) ||
      !in.count(count, kMemberMinBytes)) {
    return refuse<MembershipUpdate>(error,
                                    "truncated or malformed membership update");
  }
  update.view.members.resize(count);
  for (Member& member : update.view.members) {
    if (!in.u64(member.rank) || !in.u16(member.port) ||
        !in.text(member.host)) {
      return refuse<MembershipUpdate>(error, "truncated member");
    }
  }
  return whole(in, std::move(update), error);
}

std::string encode_handoff_stamp(const HandoffStamp& stamp) {
  ByteWriter out;
  out.u64(stamp.epoch);
  out.u64(stamp.from);
  out.u64(stamp.entries);
  return out.take();
}

std::optional<HandoffStamp> decode_handoff_stamp(std::string_view payload,
                                                 std::string& error) {
  ByteReader in(payload);
  HandoffStamp stamp;
  if (!in.u64(stamp.epoch) || !in.u64(stamp.from) || !in.u64(stamp.entries)) {
    return refuse<HandoffStamp>(error, "truncated handoff stamp");
  }
  return whole(in, stamp, error);
}

std::string encode_handoff_chunk(const HandoffChunk& chunk) {
  ByteWriter out;
  out.u64(chunk.epoch);
  out.u64(chunk.from);
  encode_entries(out, chunk.entries);
  return out.take();
}

std::optional<HandoffChunk> decode_handoff_chunk(std::string_view payload,
                                                 std::string& error) {
  ByteReader in(payload);
  HandoffChunk chunk;
  if (!in.u64(chunk.epoch) || !in.u64(chunk.from)) {
    return refuse<HandoffChunk>(error, "truncated handoff chunk");
  }
  if (!decode_entries(in, chunk.entries, error)) return std::nullopt;
  return whole(in, std::move(chunk), error);
}

}  // namespace prts::service
