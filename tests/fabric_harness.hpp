// In-process multi-rank fabric simulation harness: spins N *real*
// fabric nodes (SolveService + FrameServer + ShardRouter, each with its
// own pools) over loopback sockets inside one process, with
// deterministic fault injection. This is what makes the replication /
// gossip layer testable at all — every network exchange is real TCP,
// but ranks can be killed, revived, paused mid-frame or made to drop
// frames on cue, and every rank's counters and caches are directly
// inspectable.
//
// Deliberately gtest-free: reused verbatim by bench/fabric_replication
// (failures throw std::runtime_error instead of asserting).
//
// Fault injection levers (per rank, applied to *inbound* frames before
// the fabric handler sees them):
//   - pause()/resume(): hold every arriving frame at the gate —
//     freezes a rank so forwards to it stay in flight while the test
//     arranges dedup waiters or kills the rank;
//   - drop_next(n): swallow the next n admitted frames without a reply
//     (the connection closes, exactly like a peer dying mid-exchange);
//   - delay(seconds): sleep every admitted frame at the gate before the
//     handler runs — a *slow* peer (overloaded, GC-pausing, swapping)
//     rather than a dead one, so requesters see long wire round trips
//     that should attribute as blocked time, not compute;
//   - kill()/revive(): stop the rank's FrameServer / restart it on the
//     same port (SO_REUSEADDR makes the rebind reliable).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/frame_server.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"
#include "service/router.hpp"

namespace prts::service::testing {

/// Per-rank switchboard the harness's handler wrapper consults for
/// every inbound frame. Thread-safe; levers can be flipped while frames
/// are in flight.
class FaultInjector {
 public:
  /// Holds subsequent frames at the gate until resume().
  void pause() {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
  }

  /// Releases held frames (they then honor the drop counter).
  void resume() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      paused_ = false;
    }
    cv_.notify_all();
  }

  /// The next `count` admitted frames are dropped: no reply, the
  /// connection closes — indistinguishable from a peer dying
  /// mid-exchange.
  void drop_next(std::size_t count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    drop_remaining_ += count;
  }

  std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Every admitted frame sleeps this long at the gate before the
  /// handler runs (0 restores full speed). Models a slow-but-alive
  /// peer; the delay is inbound, so the *requester's* wire round trip
  /// stretches while its own solver stays idle.
  void delay(double seconds) {
    delay_ns_.store(seconds <= 0.0
                        ? 0
                        : static_cast<std::int64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
  }

  /// Called by the handler wrapper: waits out a pause, then reports
  /// whether the frame may proceed (false = drop it). Admitted frames
  /// additionally serve the configured slow-peer delay.
  bool admit() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return !paused_; });
      if (drop_remaining_ > 0) {
        --drop_remaining_;
        ++dropped_;
        return false;
      }
    }
    // Sleep outside the lock: a slow rank must still be pausable and
    // must not serialize its concurrent inbound frames on the gate.
    const std::int64_t delay = delay_ns_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
    return true;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool paused_ = false;
  std::size_t drop_remaining_ = 0;
  std::uint64_t dropped_ = 0;
  std::atomic<std::int64_t> delay_ns_{0};
};

class FabricHarness {
 public:
  struct Options {
    std::size_t world = 3;
    /// Applied to every rank's SolveService.
    ServiceConfig service;
    /// Template for every rank's router: rank/peers/advertise/join_seed
    /// are overwritten, everything else (replica geometry, gossip and
    /// membership knobs, client timeouts) is taken as configured — but
    /// see `join_founded` for what a boot-list fleet overrides.
    RouterConfig router;
    /// Per-rank FrameServer pool size; must exceed the number of
    /// long-lived inbound peer connections (each occupies a thread).
    /// 0: world + 2 (join-founded: world + 8).
    std::size_t server_threads = 0;
    /// How the fleet is founded. false, the boot list (`--peers`):
    /// every rank boots with all `world` members at epoch 1; the
    /// heartbeat timer is off and no member is ever declared dead, so
    /// the member set stays fixed unless the test calls add_rank() (or
    /// sets detect_failures).
    /// true (`--join`): rank 0 founds the fleet alone and every later
    /// rank joins by dialing rank 0; the router template's membership
    /// and heartbeat knobs apply as configured, and retire() shrinks
    /// the fleet (true process death, unlike kill()). Either way, with
    /// heartbeat_interval_seconds <= 0 the harness drives heartbeat
    /// rounds itself inside wait_for_members().
    bool join_founded = false;
    /// Boot-list fleet only: keep the template's heartbeat and
    /// failure-detection knobs as configured (a `--peers` fleet as
    /// deployed), so silent members are dropped and must heal back.
    bool detect_failures = false;
  };

  FabricHarness() : FabricHarness(Options()) {}

  explicit FabricHarness(Options options) : options_(options) {
    if (options_.world == 0) throw std::runtime_error("world must be >= 1");
    server_threads_ = options_.server_threads
                          ? options_.server_threads
                          : options_.world + (options_.join_founded ? 8 : 2);
    if (options_.join_founded) {
      // Each rank is fully wired (server AND router) before the next
      // joins — the join exchange needs a live seed router.
      for (std::size_t r = 0; r < options_.world; ++r) {
        std::optional<PeerAddress> seed;
        if (r > 0) seed = PeerAddress{"127.0.0.1", ranks_[0]->port};
        attach_router(add_node(), {}, seed);
      }
      // Ranks > 1 learned of each other only via rank 0; let the view
      // spread before the test starts routing.
      wait_for_members(options_.world);
      return;
    }
    // The boot list: no heartbeat traffic and no failure detection,
    // unless asked for.
    if (!options_.detect_failures) {
      options_.router.heartbeat_interval_seconds = 0.0;
      options_.router.membership.suspect_after_seconds = kNeverSeconds;
      options_.router.membership.dead_after_seconds = kNeverSeconds;
    }
    // Every server first (the handler resolves its rank's router
    // lazily — it does not exist yet), then every router from the
    // complete list of ports.
    for (std::size_t r = 0; r < options_.world; ++r) add_node();
    std::vector<PeerAddress> peers;
    for (const auto& rank : ranks_) {
      peers.push_back(PeerAddress{"127.0.0.1", rank->port});
    }
    for (std::size_t r = 0; r < options_.world; ++r) {
      attach_router(r, peers, std::nullopt);
    }
  }

  ~FabricHarness() {
    // Servers first: stop() drains every in-flight handler, so no
    // server-pool thread can still be inside a router (a cleared
    // router_ptr alone would be a check-then-use race against a
    // handler that already loaded it). Routers after that — their
    // draining forwards/prefetches now fail fast against the dead
    // servers and fail over to the still-live local services.
    for (auto& rank : ranks_) rank->router_ptr.store(nullptr);
    for (auto& rank : ranks_) {
      if (rank->server) rank->server->stop();
    }
    for (auto& rank : ranks_) rank->router.reset();
  }

  FabricHarness(const FabricHarness&) = delete;
  FabricHarness& operator=(const FabricHarness&) = delete;

  std::size_t world() const noexcept { return ranks_.size(); }
  SolveService& service(std::size_t rank) { return *ranks_.at(rank)->service; }
  obs::Telemetry& telemetry(std::size_t rank) {
    return *ranks_.at(rank)->telemetry;
  }
  ShardRouter& router(std::size_t rank) { return *ranks_.at(rank)->router; }
  FaultInjector& faults(std::size_t rank) { return ranks_.at(rank)->faults; }
  std::uint16_t port(std::size_t rank) const { return ranks_.at(rank)->port; }

  /// Stops the rank's FrameServer: peers' exchanges with it fail from
  /// now on (their clients mark it suspect). The rank's own router and
  /// service stay alive — a dead rank's *clients* are not the scenario
  /// under test, its unreachable *server* is. Frames must not be held
  /// at the pause gate when killing (stop() waits for handlers).
  void kill(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    if (node.server) {
      node.server->stop();
      node.server.reset();
    }
  }

  /// Restarts a killed rank's server on its original port. Throws when
  /// the port was meanwhile taken by another process.
  void revive(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    if (node.server) return;
    start_server(node, node.port);
  }

  /// True while the rank participates in the fabric (never retired).
  bool alive(std::size_t rank) const {
    return ranks_.at(rank)->router != nullptr;
  }

  /// Spawns one brand-new rank that joins the fleet by dialing `seed`;
  /// returns its index. The caller typically follows with
  /// wait_for_members(expected) — the join reaches the seed
  /// synchronously, the rest of the fleet learns by heartbeat.
  std::size_t add_rank(std::size_t seed = 0) {
    const auto& seed_node = *ranks_.at(seed);
    if (!seed_node.server || !seed_node.router) {
      throw std::runtime_error("add_rank: seed rank is down");
    }
    const PeerAddress seed_address{"127.0.0.1", seed_node.port};
    const std::size_t r = add_node();
    attach_router(r, {}, seed_address);
    return r;
  }

  /// Tears the rank down for good — server, router, heartbeat timer,
  /// peer clients — the real "process died" scenario (kill() only
  /// severs the server; the rank's router keeps heartbeating). The
  /// service and its cache stay inspectable. Peers notice through
  /// silence: suspect after suspect_after_seconds, removed (epoch bump,
  /// ring shrink) after dead_after_seconds.
  void retire(std::size_t rank) {
    auto& node = *ranks_.at(rank);
    // Same ordering as the destructor: stop admitting router lookups,
    // drain in-flight handlers (which may hold the still-live router),
    // only then destroy the router.
    node.router_ptr.store(nullptr);
    if (node.server) {
      node.server->stop();
      node.server.reset();
    }
    node.router.reset();
  }

  /// Blocks until every live rank agrees the fleet has exactly `count`
  /// members (and, when nonzero, an epoch >= `min_epoch` — the
  /// monotonicity handle for join/death assertions). When the router
  /// template disables the heartbeat timer, heartbeat rounds are driven
  /// from here. Throws on timeout.
  void wait_for_members(std::size_t count, double timeout_seconds = 10.0,
                        std::uint64_t min_epoch = 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
      bool converged = false;
      for (auto& rank : ranks_) {
        if (!rank->router) continue;
        if (options_.router.heartbeat_interval_seconds <= 0.0) {
          rank->router->heartbeat_now();
        }
        const MembershipView view = rank->router->membership_view();
        if (view.members.size() == count && view.epoch >= min_epoch) {
          converged = true;  // needs every live rank to agree, see below
        } else {
          converged = false;
          break;
        }
      }
      if (converged) return;
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "fabric harness: fleet never converged to " +
            std::to_string(count) + " member(s)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Scans latency bounds >= 1000 (unconstraining for the tiny test
  /// instances, so every minted key is *solvable*) for one whose
  /// request key lands on `owner`; `salt` de-overlaps scans so repeated
  /// calls mint distinct keys. Other bounds are taken from `base` (set
  /// base.period_bound *before* calling — bounds are part of the key).
  /// Ownership is the ring's *current* opinion (asked of the first
  /// live router) — mint keys after convergence, and expect them to
  /// migrate when the fleet changes.
  solver::Bounds bounds_on_rank(const Instance& instance,
                                const std::string& solver_name,
                                std::size_t owner, double salt = 0.0,
                                solver::Bounds base = {}) const {
    const ShardRouter* ring = nullptr;
    for (const auto& rank : ranks_) {
      if (rank->router) {
        ring = rank->router.get();
        break;
      }
    }
    if (ring == nullptr) {
      throw std::runtime_error("bounds_on_rank: no live rank to ask");
    }
    const CanonicalInstance canonical = canonicalize(instance);
    for (double latency = 1000.0 + salt; latency < 4000.0 + salt;
         latency += 1.0) {
      solver::Bounds bounds = base;
      bounds.latency_bound = latency;
      const CanonicalHash key = request_key(canonical, solver_name, bounds);
      if (ring->shard_of(key) == owner) return bounds;
    }
    throw std::runtime_error("no bounds found landing on rank " +
                             std::to_string(owner));
  }

 private:
  struct Rank {
    /// First member: destroyed last, after every component holding a
    /// pointer into it.
    std::unique_ptr<obs::Telemetry> telemetry;
    std::unique_ptr<SolveService> service;
    std::unique_ptr<ThreadPool> server_pool;
    std::unique_ptr<net::FrameServer> server;
    std::unique_ptr<ShardRouter> router;
    std::atomic<ShardRouter*> router_ptr{nullptr};
    FaultInjector faults;
    std::uint16_t port = 0;
  };

  /// Silence no boot-list member ever reaches (about 31 years).
  static constexpr double kNeverSeconds = 1e9;

  /// Appends one rank with its telemetry, service and a server on an
  /// ephemeral port; returns its index. Its router comes from
  /// attach_router().
  std::size_t add_node() {
    auto rank = std::make_unique<Rank>();
    // Every rank gets its own telemetry (the real deployment shape: one
    // Telemetry per process), shared by its service and router so a
    // forwarded solve's spans land in one trace per rank.
    rank->telemetry = std::make_unique<obs::Telemetry>();
    rank->telemetry->rank = static_cast<int>(ranks_.size());
    ServiceConfig service_config = options_.service;
    service_config.telemetry = rank->telemetry.get();
    rank->service = std::make_unique<SolveService>(service_config);
    rank->server_pool = std::make_unique<ThreadPool>(server_threads_);
    start_server(*rank, /*port=*/0);
    rank->port = rank->server->port();
    ranks_.push_back(std::move(rank));
    return ranks_.size() - 1;
  }

  /// Builds rank r's router from the template: booted from `peers`, or
  /// joining `seed` synchronously inside the router constructor.
  void attach_router(std::size_t r, std::vector<PeerAddress> peers,
                     std::optional<PeerAddress> seed) {
    Rank& node = *ranks_[r];
    RouterConfig config = options_.router;
    config.rank = r;
    config.peers = std::move(peers);
    config.advertise = PeerAddress{"127.0.0.1", node.port};
    config.join_seed = std::move(seed);
    // Hold inbound frames while the router is being born: the seed
    // schedules its handoff stream the moment it admits the join (which
    // happens *inside* this router constructor), so the first
    // kHandoffBegin can beat the router_ptr publication. The pause gate
    // turns that race into a short wait.
    node.faults.pause();
    node.router = std::make_unique<ShardRouter>(*node.service, config);
    node.router_ptr.store(node.router.get());
    node.faults.resume();
  }

  void start_server(Rank& rank, std::uint16_t port) {
    // The wrapper applies the rank's fault levers before the real
    // fabric handler sees the frame. Raw pointers are safe: the Rank
    // outlives its server, and router_ptr is cleared before teardown.
    Rank* node = &rank;
    net::FrameHandler fabric = make_fabric_handler(
        *rank.service, [node] { return node->router_ptr.load(); });
    net::FrameHandler wrapped =
        [node, fabric = std::move(fabric)](
            const net::Frame& frame) -> std::optional<net::Frame> {
      if (!node->faults.admit()) return std::nullopt;  // dropped
      return fabric(frame);
    };
    rank.server = net::FrameServer::start(
        port, std::move(wrapped), *rank.server_pool, net::kDefaultMaxPayload,
        rank.telemetry.get());
    if (!rank.server) {
      throw std::runtime_error("fabric harness: cannot bind port " +
                               std::to_string(port));
    }
  }

  Options options_;
  std::size_t server_threads_ = 0;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace prts::service::testing
