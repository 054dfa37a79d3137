// Wire serialization of the fabric's framed transport (src/net/): every
// payload is a fixed sequence of fields in the one binary encoding of
// service/codec.hpp (little-endian integers, doubles as bit patterns,
// u32-prefixed strings and lists), and the frame type says which
// payload a frame carries, so payloads have no header of their own.
// Every decoder is total: truncated, oversized or inconsistent bytes are
// refused with a reason, never thrown on, and no claimed count
// allocates more than the bytes that remain.
//
// Solve request (kSolveRequest):
//   text solver  f64 period  f64 latency  f64 deadline
//   u8 policy (0 reject, 1 downgrade)
//   u64 trace id (0: none; the owner records its spans under it so the
//                 forwarded solve stays ONE trace)
//   text instance (CanonicalInstanceText, parsed by read_instance, so
//                 instance validation stays in one place)
//
// Solve reply (kSolveReply):
//   u8 status (ReplyStatus order)  u8 flags (1 hit, 2 near, 4 down)
//   text solver_used  f64 cost (recorded solve cost; feeds the
//   requester's adaptive replica TTL)  text error
//   u32 n, n x span {text name, u32 rank, f64 start, f64 duration,
//                    f64 cpu, u64 allocs, u64 alloc bytes}
//                 (the answering rank's trace spans, offsets from ITS
//                  submit point; the origin shifts and merges them)
//   solved/infeasible: the cache entry (service/cache.hpp; carries the
//                 key and the solution); any other status: the key
//
// Gossip digest (kGossipDigest; the sender announces its hot *owned*
// keys so peers can prefetch them):
//   u64 rank  u32 n, n x {key, u64 hits}
//
// Replica fetch (kReplicaFetch):       u32 n, n x key
// Replica entries (kReplicaFetchReply; only the keys the owner still
// holds — a fetch is best-effort):     u32 n, n x cache entry
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/engine.hpp"
#include "service/membership.hpp"

namespace prts::service {

std::string encode_wire_request(const SolveRequest& request);

/// nullopt on malformed payloads (truncated or trailing bytes, an
/// unknown policy, bad instance text); `error` says why.
std::optional<SolveRequest> decode_wire_request(std::string_view payload,
                                                std::string& error);

std::string encode_wire_reply(const SolveReply& reply);

std::optional<SolveReply> decode_wire_reply(std::string_view payload,
                                            std::string& error);

/// One rank's view of its hot owned keys since the last gossip round.
struct GossipDigest {
  std::size_t rank = 0;  ///< the sender (owner of every key below)
  struct Entry {
    CanonicalHash key;
    std::uint64_t hits = 0;
  };
  std::vector<Entry> entries;
};

std::string encode_gossip_digest(const GossipDigest& digest);

std::optional<GossipDigest> decode_gossip_digest(std::string_view payload,
                                                 std::string& error);

std::string encode_replica_fetch(const std::vector<CanonicalHash>& keys);

std::optional<std::vector<CanonicalHash>> decode_replica_fetch(
    std::string_view payload, std::string& error);

std::string encode_replica_entries(
    const std::vector<std::pair<CanonicalHash, CachedSolution>>& entries);

std::optional<std::vector<std::pair<CanonicalHash, CachedSolution>>>
decode_replica_entries(std::string_view payload, std::string& error);

// Membership codecs:
//   join request (kJoinRequest):   u64 rank  u16 port  text host
//   update (kMembershipUpdate):    u64 from  u64 epoch
//                                  u32 n, n x {u64 rank, u16 port,
//                                              text host}

std::string encode_join_request(const Member& member);

std::optional<Member> decode_join_request(std::string_view payload,
                                          std::string& error);

/// A full epoch-stamped view plus who sent it (the receiver refreshes
/// the sender's heartbeat from `from`).
struct MembershipUpdate {
  std::size_t from = 0;
  MembershipView view;
};

std::string encode_membership_update(const MembershipUpdate& update);

std::optional<MembershipUpdate> decode_membership_update(
    std::string_view payload, std::string& error);

// Handoff codecs: the old owner streams a new member's ring slice as
// bounded batches of cache entries, bracketed by begin/done stamps.
//   stamp (kHandoffBegin, kHandoffDone): u64 epoch  u64 from
//                                        u64 entries (begin: announced
//                                        total; done: streamed)
//   chunk (kHandoffChunk):  u64 epoch  u64 from  u32 n, n x cache entry

struct HandoffStamp {
  std::uint64_t epoch = 0;
  std::size_t from = 0;
  std::size_t entries = 0;
};

/// A begin or done stamp (one body; the frame type tells them apart).
std::string encode_handoff_stamp(const HandoffStamp& stamp);

std::optional<HandoffStamp> decode_handoff_stamp(std::string_view payload,
                                                 std::string& error);

struct HandoffChunk {
  std::uint64_t epoch = 0;
  std::size_t from = 0;
  std::vector<std::pair<CanonicalHash, CachedSolution>> entries;
};

std::string encode_handoff_chunk(const HandoffChunk& chunk);

std::optional<HandoffChunk> decode_handoff_chunk(std::string_view payload,
                                                 std::string& error);

}  // namespace prts::service
