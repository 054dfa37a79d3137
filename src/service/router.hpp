// The shard router (top of the distributed solve fabric): N cooperating
// `prts_cli serve` processes present one logical cache whose capacity
// scales with N, by partitioning the canonical-hash keyspace over the
// consistent-hash ring of the fleet's members (service/ring.hpp):
//
//   shard(key) = ring owner of key under the current membership view
//
// The member list is known at boot (`--peers`: every rank starts with
// all of them at epoch 1, and re-dials any of them missing from its
// view) or learned from a seed (`--join`); either way heartbeats keep it
// current (service/membership.hpp), and a join, leave or death moves
// only the affected key slices, streamed by their old owners as
// kHandoff* frames.
//
// A submitted request is canonicalized once and routed by one read of
// the membership snapshot; keys this rank owns go straight to the local
// SolveService, keys owned by a peer are encoded on the submitting
// thread and forwarded over a per-peer MuxFrameClient (one connection
// carries many in-flight forwards, replies correlated by request id) as
// the *canonical* instance (so the remote answer comes back in
// canonical labels and each waiter translates into its own). The
// forward is completion-driven: the mux reader that receives the reply
// decodes it, fills the replica tier and answers every waiter, and the
// owner's server answers from the engine worker that solved it. No
// thread of the fabric parks on a future; a forward crosses the
// submitter, the mux writer, the owner's server reader, an engine
// worker and the mux reader. Identical remote-shard requests submitted
// while a forward is in flight attach to it — the router-level
// counterpart of the engine's in-flight dedup, so a thundering herd of
// isomorphic misses costs one network exchange.
//
// Hot-entry replication: every authoritative remote answer is also
// copied into a bounded, TTL'd *replica cache* on this rank (entries
// are immutable, so there is no invalidation protocol), and repeat hits
// on a peer's keys are absorbed locally — steady-state repeat traffic
// stops crossing the network. On top of that, ranks gossip per-key
// hit-count digests of their hot owned keys on a timer; a peer
// receiving a digest prefetches the top-K keys it lacks (one
// kReplicaFetch exchange), so a key that is hot *anywhere* becomes
// cheap *everywhere* before the first local request even arrives.
//
// Degradation: a peer that cannot be reached (or answers garbage)
// makes the request fall back to the local engine — correctness never
// depends on the fabric, only capacity does. The mux client marks the
// peer suspect and fails fast during its backoff window, so a dead
// peer costs one connect timeout, not one per request, and connection
// death fails every in-flight forward at once — failover fires exactly
// once per waiter. Failover re-submits every attached waiter locally,
// each with a completion, its own deadline policy and its *remaining*
// deadline budget (time already burned on the wire is charged, floored
// at zero); the engine's dedup collapses them to exactly one solve.
//
// Membership exchanges, prefetches, double-writes and handoff streams
// are completion-driven too: each is a call_async whose callback runs
// the next step, so the router owns no thread but its fabric timer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/frame_server.hpp"
#include "net/mux_client.hpp"
#include "service/engine.hpp"
#include "service/membership.hpp"
#include "service/wire.hpp"

namespace prts::service {

struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

class ShardRouter;

/// The server-side half of a fabric node: a net::FrameHandler that
/// answers kSolveRequest frames against the local service (decoded on
/// the connection's reader, answered by the solve's completion — inline
/// on a hit, from the engine worker otherwise), kPing with kPong,
/// kStatsRequest with one JSON object carrying the engine and cache
/// counters, and kReplicaFetch with the requested cache entries (peek
/// only — a fetch never disturbs the owner's LRU order). Every frame
/// but a solve is answered inline. Undecodable payloads get kError
/// frames.
///
/// `router` resolves this node's ShardRouter at call time (it is
/// usually constructed *after* the server, since peers need the bound
/// port): when it yields one, kGossipDigest frames are handed to it for
/// prefetching and solved keys are counted toward the gossip digest;
/// when it yields nullptr, gossip frames are acknowledged and dropped.
/// A router seen by a solve must outlive the server's stop().
net::FrameHandler make_fabric_handler(
    SolveService& service,
    std::function<ShardRouter*()> router = {});

/// Parses "host:port,host:port,..." (one entry per rank, in rank
/// order); nullopt on malformed input.
std::optional<std::vector<PeerAddress>> parse_peer_list(
    const std::string& text);

struct RouterConfig {
  std::size_t rank = 0;
  /// The boot member list: one address per rank, in rank order (the
  /// entry at `rank` is this rank's own). Every rank bootstraps its
  /// membership with all of them at epoch 1, so a fleet booted from the
  /// same list builds the same ring without a join exchange. The list
  /// also serves as seeds: a listed rank missing from the view is
  /// dialled with a join on every heartbeat round. Empty: the rank
  /// founds a fleet of one (and joins `join_seed`, when set).
  std::vector<PeerAddress> peers;
  net::FrameClientConfig client;

  /// Failure-detection knobs (self_rank is overwritten with `rank`).
  Membership::Config membership;
  /// This rank's own address, announced to the fleet on join and
  /// carried in every membership view; defaults to `peers[rank]`.
  PeerAddress advertise;
  /// Any live member to dial on startup. Unreachable seeds are retried
  /// from the heartbeat loop.
  std::optional<PeerAddress> join_seed;
  /// Seconds between heartbeat rounds (membership-view exchanges +
  /// failure-detection ticks); <= 0 disables them (tests drive rounds
  /// via heartbeat_now()).
  double heartbeat_interval_seconds = 0.5;
  /// Cache entries per kHandoffChunk frame — bounds both the frame
  /// size and how long the receiving rank's handler holds its cache.
  std::size_t handoff_chunk_entries = 64;

  /// The replica tier (capacity_bytes 0 disables replication).
  ReplicaCache::Config replica;
  /// Seconds between gossip rounds; <= 0 disables them (tests and
  /// benches drive rounds explicitly via gossip_now()).
  double gossip_interval_seconds = 0.0;
  /// At most this many keys per digest, and at most this many
  /// prefetched per received digest.
  std::size_t gossip_top_k = 16;
  /// Keys with fewer hits since the last round are not worth
  /// announcing (a single hit is not "hot").
  std::uint64_t gossip_min_hits = 2;
};

/// Monotonic router counters (snapshot via ShardRouter::stats), each
/// read from the registry counter prts_router_<field>_total.
struct RouterStats {
  std::uint64_t local = 0;      ///< keys this rank owns
  std::uint64_t forwarded = 0;  ///< remote keys answered by their owner
  std::uint64_t forward_hits = 0;      ///< ... that were remote cache hits
  std::uint64_t forward_failures = 0;  ///< peer down or bad reply
  std::uint64_t local_fallbacks = 0;   ///< remote keys solved locally
  std::uint64_t deduplicated = 0;      ///< attached to an in-flight forward
  std::uint64_t replica_hits = 0;   ///< remote keys served from the replica
                                    ///< tier (no network round trip)
  std::uint64_t prefetched = 0;     ///< replica entries pulled via gossip
  std::uint64_t gossip_sent = 0;      ///< digests acknowledged by a peer
  std::uint64_t gossip_failures = 0;  ///< digests a peer never acked
  std::uint64_t gossip_received = 0;  ///< digests received from peers
};

/// Membership counters (snapshot via membership_stats): epoch and
/// members read the live view (mirrored in the prts_membership_epoch
/// and prts_membership_members gauges), every other field the registry
/// counter prts_membership_<field>_total.
struct MembershipStats {
  std::uint64_t epoch = 0;   ///< current membership epoch
  std::size_t members = 0;   ///< current member count (incl. self)
  std::uint64_t joins = 0;   ///< members admitted (seen joining)
  std::uint64_t deaths = 0;  ///< members removed after silence
  std::uint64_t suspects = 0;          ///< healthy -> suspect transitions
  std::uint64_t handoffs_started = 0;  ///< slices this rank began streaming
  std::uint64_t handoffs_completed = 0;  ///< ... streamed to the end
  std::uint64_t handoff_chunks_sent = 0;
  std::uint64_t handoff_chunks_received = 0;
  std::uint64_t handoff_entries_sent = 0;
  std::uint64_t handoff_entries_received = 0;
  /// Answers served for a key the ring now assigns elsewhere, copied to
  /// the new owner (the transition-window write path).
  std::uint64_t double_writes = 0;
};

class ShardRouter {
 public:
  /// The service answers local-shard requests and degraded remote ones;
  /// it must outlive the router. The router records into the service's
  /// telemetry, so traces begun here continue in the engine and the
  /// other way round; per-peer client counters register under
  /// net_client_rank<r>_*.
  ShardRouter(SolveService& service, RouterConfig config);

  /// Stops the fabric timer, shuts every peer client down (which
  /// answers each exchange still in flight), then waits for the
  /// failover solves those answers started.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t rank() const noexcept { return config_.rank; }

  /// The rank owning `key`: its owner on the current membership ring.
  std::size_t shard_of(const CanonicalHash& key) const {
    return membership_.owner_of(key);
  }

  /// True when requests can route to another rank right now (the fleet
  /// has more than one member).
  bool distributed() const { return membership_.member_count() > 1; }

  /// Routes one request; the future resolves exactly like
  /// SolveService::submit's (statuses, never exceptions).
  std::future<SolveReply> submit(SolveRequest request);

  /// True while the peer owning `rank` is inside its backoff window.
  bool peer_suspect(std::size_t rank) const;

  /// Runs one gossip round synchronously: snapshot + reset the hit
  /// counts of this rank's hot owned keys, send one kGossipDigest to
  /// every reachable peer. Peers prefetch asynchronously — their
  /// replica caches fill shortly after their ack, not upon it. Also
  /// called by the interval timer when gossip_interval_seconds > 0.
  void gossip_now();

  /// Handles a digest received from a peer: schedules one background
  /// kReplicaFetch for the hottest announced keys missing from the
  /// replica tier. Never blocks on the network (two ranks gossiping at
  /// each other must not deadlock on their shared per-peer
  /// connections).
  void handle_gossip_digest(GossipDigest digest);

  /// Bookkeeping for a peer's request this rank just answered, on one
  /// membership read: an owned key counts toward the next gossip
  /// digest; a key the ring now assigns elsewhere is copied to its new
  /// owner (one async single-entry handoff chunk — the handoff-window
  /// double-write). The fabric handler calls this for every solve.
  void note_served(const CanonicalHash& key);

  /// Blocks until every scheduled prefetch has completed (test and
  /// bench determinism).
  void wait_prefetches_idle();

  // --- Membership ---

  /// The current membership epoch.
  std::uint64_t epoch() const;
  MembershipView membership_view() const;
  MembershipStats membership_stats() const;

  /// Dials the configured join seed once, synchronously: kJoinRequest
  /// out, the seed's merged view adopted from the reply. True when the
  /// fleet now has more than one member. Called by the constructor and
  /// retried by the heartbeat loop while the rank is still alone.
  bool join_now();

  /// One heartbeat round: failure-detection tick, one join toward every
  /// boot-list rank missing from the view, then one kMembershipUpdate
  /// exchange per live peer. The exchanges are asynchronous — a dead
  /// peer's connect timeout never stalls the caller — and their replies
  /// are merged by the callbacks. Also called by the interval timer.
  void heartbeat_now();

  /// Handles the membership/handoff frame families (kJoinRequest,
  /// kMembershipUpdate, kHandoffBegin/Chunk/Done) — the server half of
  /// the membership protocol, called by make_fabric_handler.
  net::Frame handle_fabric_frame(const net::Frame& request);

  /// Blocks until every scheduled handoff stream has completed (test
  /// and bench determinism).
  void wait_handoffs_idle();

  RouterStats stats() const;
  ReplicaStats replica_stats() const { return replicas_.stats(); }
  static void write_stats_json(std::ostream& out, const RouterStats& stats);
  static void write_membership_stats_json(std::ostream& out,
                                          const MembershipStats& stats);

  /// Per-peer client counters, one (rank, stats) pair per wired
  /// peer (self has no client) — surfaces reconnect/backoff/suspect
  /// churn in the merged stats document.
  std::vector<std::pair<std::size_t, net::FrameClientStats>> client_stats()
      const;

 private:
  /// One forward in flight: the canonical request plus every waiter
  /// attached to it. Each waiter keeps its own label translation and
  /// its own deadline options — failover must not reject a patient
  /// waiter on an impatient stranger's policy.
  struct ForwardWaiter {
    std::promise<SolveReply> promise;
    std::shared_ptr<const CanonicalInstance> canonical;
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    bool deduplicated = false;
    std::uint64_t trace_id = 0;  ///< this waiter's own trace
    std::chrono::steady_clock::time_point submitted{};
  };
  struct Forward {
    std::shared_ptr<const CanonicalInstance> canonical;
    solver::Bounds bounds;
    std::string solver;
    /// The first submitter's deadline options, carried on the wire (a
    /// later waiter's options only matter on the failover path).
    double deadline_seconds;
    DeadlinePolicy deadline_policy;
    CanonicalHash key;
    std::size_t owner = 0;
    /// The owner's client, resolved at submit time for a forward sent
    /// at once; nullptr for one that waits for a slot, which resolves
    /// it when sent (the owner may have been rewired meanwhile).
    net::MuxFrameClient* client = nullptr;
    /// The wire deadline counts from here, the wait for a slot included.
    std::chrono::steady_clock::time_point submitted{};
    std::vector<ForwardWaiter> waiters;
    /// The first submitter's trace id, carried on the wire so the
    /// owner's spans land in the same trace.
    std::uint64_t trace_id = 0;
  };

  struct Handoff;

  /// One asynchronous exchange or solve that calls back into the
  /// router: counted while alive, so the destructor can wait for the
  /// last of them. Move-only; captured by the callback it guards.
  class AsyncOp {
   public:
    explicit AsyncOp(ShardRouter& router);
    AsyncOp(AsyncOp&& other) noexcept;
    AsyncOp& operator=(AsyncOp&&) = delete;
    ~AsyncOp();

   private:
    ShardRouter* router_;
  };

  /// Sends `forward`, then every forward whose slot a completion frees
  /// on this thread meanwhile (a fast-failing peer completes inline), as
  /// a loop instead of a recursion.
  void launch(std::shared_ptr<Forward> forward);
  /// Encodes the forward's request and sends it; the reply (or its
  /// failure) lands in finish_forward on the mux client's thread. A
  /// forward with no client resolves the owner's now.
  void send_forward(std::shared_ptr<Forward> forward);
  void finish_forward(Forward& forward, std::optional<net::Frame> reply,
                      std::chrono::steady_clock::time_point wire_start);
  void count_owned_hit(const CanonicalHash& key);
  void double_write(const CanonicalHash& key, std::size_t owner,
                    const MembershipSnapshot& membership);
  void finish_prefetch(std::size_t fetched);

  /// The client wired to `rank` at its address in `membership`;
  /// nullptr for self and for ranks with no known address.
  net::MuxFrameClient* client_for(std::size_t rank,
                                  const MembershipSnapshot& membership);
  /// The client wired to `rank` at `address`, created on first use.
  /// Created clients live until the router dies (an address change
  /// retires the old client without destroying it — in-flight exchanges
  /// may still hold it). nullptr once the router is shutting down.
  net::MuxFrameClient* client_at(std::size_t rank, const PeerAddress& address);
  /// client_for without the create (health probes).
  net::MuxFrameClient* client_lookup(std::size_t rank) const;

  /// Reacts to a membership change: counters/gauges, client retirement
  /// on address change, and one scheduled handoff stream per joined
  /// member (this rank streams the slice the ring now assigns to the
  /// newcomer).
  void apply_membership_changes(const Membership::ChangeSet& changes);
  void schedule_handoff(const Member& target);
  /// Streams the next chunk of `handoff` (begin, chunks, done), each
  /// sent from the previous one's ack callback.
  void continue_handoff(std::shared_ptr<Handoff> handoff);
  void finish_handoff(bool completed);
  /// Updates the epoch/member-count gauges from the current view.
  void publish_membership_gauges();

  /// join_now toward any address, on a transient client (blocking).
  bool join_via(const PeerAddress& address);
  /// Merges a kMembershipUpdate reply into the membership; false when
  /// it is not one.
  bool adopt_view(const net::Frame& reply);
  /// Sends `frame` (a join or a view update) to `rank` at `address` and
  /// merges the view it answers with, unless an exchange with that rank
  /// is already in flight (the timer must not stack rounds onto a slow
  /// or unreachable peer).
  void exchange_views(std::size_t rank, const PeerAddress& address,
                      net::Frame frame);

  net::Frame handle_join_frame(const net::Frame& request);
  net::Frame handle_membership_frame(const net::Frame& request);
  net::Frame handle_handoff_frame(const net::Frame& request);

  SolveService& service_;
  obs::Telemetry& telemetry_;  ///< the service's
  RouterConfig config_;
  Membership membership_;

  /// Guards the client map only (leaf lock: taken while neither mutex_
  /// nor the membership lock is held... and never the reverse).
  mutable std::mutex clients_mutex_;
  std::unordered_map<std::size_t, std::unique_ptr<net::MuxFrameClient>>
      clients_;
  /// Clients replaced after an address change (a restarted member on a
  /// new port). Kept alive until destruction: a callback in flight may
  /// still hold one.
  std::vector<std::unique_ptr<net::MuxFrameClient>> retired_clients_;
  /// Set (under clients_mutex_) when the destructor starts: no client
  /// is created from then on.
  bool closing_ = false;

  /// Live AsyncOps (guarded by async_mutex_); the destructor waits for
  /// zero on async_cv_.
  std::size_t async_ops_ = 0;
  std::mutex async_mutex_;
  std::condition_variable async_cv_;

  ReplicaCache replicas_;

  /// The router's central lock (in-flight map, hit counts, drains),
  /// contention-profiled as "router_inflight".
  mutable obs::ProfiledMutex mutex_;
  std::unordered_map<CanonicalHash, Forward*, CanonicalKeyHasher> in_flight_;
  /// The forward window: at most kMaxForwardsOnWire forwards are on the
  /// wire at once; later ones wait here, in submit order, until a
  /// completion frees a slot. Under overload the backlog queues on the
  /// requesting rank instead of filling the owners' engine queues past
  /// their admission limit, as the forward pool's threads once bounded
  /// it. The backlog itself is unbounded; its forwards' wire deadlines
  /// run while they wait, and each is sent to the owner's address as it
  /// stands then. fleet_open failed no request at windows of 8, 16, 64
  /// and 256, and failed 72-229 per run in half its runs with none.
  static constexpr std::size_t kMaxForwardsOnWire = 64;
  std::size_t forwards_on_wire_ = 0;
  std::deque<std::shared_ptr<Forward>> waiting_forwards_;
  /// Hits on owned keys since the last gossip round (windowed counts:
  /// gossip_now snapshots and clears, so "hot" means *recently* hot).
  std::unordered_map<CanonicalHash, std::uint64_t, CanonicalKeyHasher> owned_hits_;
  std::size_t outstanding_prefetches_ = 0;
  std::size_t outstanding_handoffs_ = 0;
  /// _any: waits on the ProfiledMutex above (prefetch AND handoff
  /// drains — notify_all covers both predicates).
  std::condition_variable_any prefetch_cv_;
  /// Last epoch a handoff stream was scheduled toward each rank — the
  /// dedup that keeps one membership change from streaming the same
  /// slice twice (equal-epoch updates arrive from several peers).
  std::unordered_map<std::size_t, std::uint64_t> handoff_epochs_;
  /// Ranks with a membership exchange (view or join) currently in
  /// flight (the timer must not stack exchanges onto a slow peer).
  std::unordered_set<std::size_t> heartbeats_in_flight_;

  /// Telemetry handles resolved once at construction. The RouterStats
  /// counters first (replica_hits is the replica tier's own).
  obs::Counter* local_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* forward_hits_ = nullptr;
  obs::Counter* forward_failures_ = nullptr;
  obs::Counter* local_fallbacks_ = nullptr;
  obs::Counter* deduplicated_ = nullptr;
  obs::Counter* prefetched_ = nullptr;
  obs::Counter* gossip_sent_ = nullptr;
  obs::Counter* gossip_failures_ = nullptr;
  obs::Counter* gossip_received_ = nullptr;
  obs::Histogram* wire_hist_ = nullptr;
  obs::Histogram* router_latency_hist_ = nullptr;
  /// Sampled to in_flight_.size() at forward insert/erase.
  obs::Gauge* inflight_gauge_ = nullptr;
  /// Periodic "router_gossip" heartbeat: expected every gossip interval.
  obs::Heartbeat* gossip_heartbeat_ = nullptr;
  /// Profiler components: the wire exchange (blocked time by
  /// construction — no thread of this rank holds the request while it
  /// is on the wire) and the replica-tier probe.
  obs::Profiler::Component* prof_wire_ = nullptr;
  obs::Profiler::Component* prof_replica_ = nullptr;
  /// Contention probes the in-flight and membership mutexes point at.
  obs::ProfiledMutex::Probe inflight_probe_;
  obs::ProfiledMutex::Probe membership_probe_;

  /// The MembershipStats counters and gauges. Gauge writes are
  /// serialized, so the last write carries the latest view.
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* members_gauge_ = nullptr;
  std::mutex membership_gauges_mutex_;
  obs::Counter* joins_ = nullptr;
  obs::Counter* deaths_ = nullptr;
  obs::Counter* suspects_ = nullptr;
  obs::Counter* handoffs_started_ = nullptr;
  obs::Counter* handoffs_completed_ = nullptr;
  obs::Counter* handoff_chunks_sent_ = nullptr;
  obs::Counter* handoff_chunks_received_ = nullptr;
  obs::Counter* handoff_entries_sent_ = nullptr;
  obs::Counter* handoff_entries_received_ = nullptr;
  obs::Counter* double_writes_ = nullptr;
  obs::Histogram* handoff_chunk_hist_ = nullptr;
  /// Periodic "router_membership" heartbeat (heartbeat timer liveness).
  obs::Heartbeat* membership_heartbeat_ = nullptr;

  /// The periodic fabric timer: heartbeat rounds and gossip rounds, each
  /// when its own interval has lapsed.
  std::mutex gossip_mutex_;
  std::condition_variable gossip_cv_;
  bool gossip_stop_ = false;
  std::thread gossip_thread_;
};

}  // namespace prts::service
