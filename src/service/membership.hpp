// Fabric membership: the epoch-stamped member list every fleet routes
// by. Every rank runs one `Membership` instance. A `--peers` fleet
// bootstraps it with every listed rank at epoch 1, so all ranks build
// the same ring without any exchange; a `--join` rank dials any member
// (kJoinRequest) and adopts the view it answers with; a rank with
// neither founds a fleet of one. From then on ranks exchange full views
// on the heartbeat timer (kMembershipUpdate) — a tiny anti-entropy
// protocol, not consensus:
//
//   * every view change bumps a monotone `epoch`;
//   * a received view with a HIGHER epoch is adopted wholesale;
//   * an EQUAL epoch with a different member set is merged by union
//     (two ranks admitting different joiners at the same epoch
//     converge without livelocking on who bumps first);
//   * a LOWER epoch is ignored — the reply carries our view back, so
//     the stale peer catches up on the same exchange.
//
// Failure detection is heartbeat-timestamped with a suspect → dead
// debounce (mirroring the MuxFrameClient suspect machinery): a member not
// heard from for `suspect_after_seconds` is *suspected* (surfaced to
// telemetry/alerts, still in the ring); one silent past
// `dead_after_seconds` is removed and the epoch advances. A suspect
// that speaks again is cleared — a slow peer is not evicted.
//
// Ownership queries delegate to the consistent-hash ring
// (service/ring.hpp), rebuilt on every member-set change, so a join or
// death moves only the affected key slices. The class is
// transport-free (the router owns the wire); time is injectable for
// deterministic tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/canonical.hpp"
#include "service/ring.hpp"

namespace prts::service {

struct Member {
  std::size_t rank = 0;
  std::string host;
  std::uint16_t port = 0;

  friend bool operator==(const Member& a, const Member& b) {
    return a.rank == b.rank && a.host == b.host && a.port == b.port;
  }
};

/// One rank's snapshot of the fleet: the wire object of
/// kMembershipUpdate (codec in service/wire.hpp). Members are sorted by
/// rank.
struct MembershipView {
  std::uint64_t epoch = 0;
  std::vector<Member> members;

  friend bool operator==(const MembershipView& a, const MembershipView& b) {
    return a.epoch == b.epoch && a.members == b.members;
  }
};

class Membership {
 public:
  using Clock = std::chrono::steady_clock;

  struct Config {
    std::size_t self_rank = 0;
    /// Silence before a member is surfaced as suspect (still serving).
    double suspect_after_seconds = 2.0;
    /// Silence before a member is declared dead and removed.
    double dead_after_seconds = 5.0;
  };

  /// What one join/update/tick changed — the router turns this into
  /// handoffs (joined), client teardown (left) and counters.
  struct ChangeSet {
    std::vector<Member> joined;
    std::vector<std::size_t> left;
    /// True when the epoch advanced or the set was reshaped (including
    /// adopting a peer's higher-epoch view verbatim).
    bool changed = false;
    /// True when an adopted view lacked this rank — membership re-added
    /// itself and bumped past the incoming epoch so its presence wins.
    bool rejoined_self = false;
  };

  struct TickResult {
    std::vector<std::size_t> suspected;  ///< newly suspected this tick
    std::vector<std::size_t> died;       ///< removed this tick (epoch bumped)
  };

  explicit Membership(Config config);

  /// Installs the initial member set at epoch 1 (self is added if
  /// absent). Called once before serving.
  void bootstrap(std::vector<Member> members, Clock::time_point now = Clock::now());

  MembershipView view() const;
  std::uint64_t epoch() const;
  std::size_t member_count() const;
  std::size_t self_rank() const noexcept { return config_.self_rank; }
  bool contains(std::size_t rank) const;
  std::optional<Member> member(std::size_t rank) const;
  /// True while `rank` is in its suspect window (never true for self).
  bool is_suspect(std::size_t rank) const;

  /// The rank owning `key` under the current ring; self when the ring
  /// is empty (degraded single-rank operation).
  std::size_t owner_of(const CanonicalHash& key) const;

  /// Admits a (possibly restarted: same rank, new address) member.
  ChangeSet handle_join(const Member& member, Clock::time_point now = Clock::now());

  /// Merges a peer's view per the epoch rules above.
  ChangeSet handle_update(const MembershipView& incoming,
                          Clock::time_point now = Clock::now());

  /// Refreshes `rank`'s heartbeat timestamp and clears its suspect
  /// flag. Unknown ranks are ignored (membership changes only via
  /// join/update).
  void note_heard_from(std::size_t rank, Clock::time_point now = Clock::now());

  /// Advances failure detection: suspects the silent, removes the dead
  /// (bumping the epoch once if anyone died).
  TickResult tick(Clock::time_point now = Clock::now());

 private:
  struct Entry {
    Member member;
    Clock::time_point last_heard{};
    bool suspect = false;
  };

  /// Rebuilds the ring from entries_ (call with mutex_ held after any
  /// set change).
  void rebuild_ring_locked();
  std::vector<Member> members_locked() const;

  Config config_;
  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, Entry> entries_;
  std::uint64_t epoch_ = 0;
  HashRing ring_;
};

}  // namespace prts::service
