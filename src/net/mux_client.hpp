// The fabric's transport client: pipelined request/reply over ONE
// framed TCP connection, using the request-id multiplexing of
// net/frame.hpp, so many solves, pings, gossip digests and scrapes are
// in flight simultaneously.
//
// Shape (the classic async-transport trio): callers enqueue
// (frame, callback) pairs via call_async(); a writer thread drains the
// queue onto the socket, stamping each frame with a fresh 48-bit id; a
// dedicated reader thread demultiplexes out-of-order replies through an
// id -> callback map and runs each callback itself, so a reply is
// handled where it lands instead of waking a parked caller.
// Per-request deadlines are swept by the reader on a short
// receive-timeout tick, so an abandoned request resolves nullopt
// without poisoning the connection — a late reply is simply dropped by
// id, framing is never lost. Callbacks never run under the client's
// lock, so one may issue the next call_async on the same client.
//
// Failure model: connection death (EOF, IO error, protocol garbage, or
// a peer gone silent past the reply timeout) fails ALL outstanding
// exchanges with nullopt — exactly once per waiter — and arms an
// exponential backoff window during which calls fail fast (the peer is
// *suspect*) instead of paying a connect timeout per request, so a
// dead peer costs the router one timeout, not one per forwarded miss.
// Reply timeouts arm the gentler slow-peer backoff; refused connections
// the full one. A live reply resets the backoff.
//
// Liveness probe: on connect the client sends a kPing and waits (up to
// the connect timeout) for a reply echoing its id before any request
// rides the connection.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/unique_function.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace prts::net {

/// `seconds` scaled by a factor drawn uniformly from
/// [1 - jitter_fraction, 1 + jitter_fraction], advancing `state` with a
/// splitmix64 step — deterministic per seed (testable), different
/// across seeds (herd-breaking). jitter_fraction is clamped to [0, 1].
double jittered_backoff(double seconds, double jitter_fraction,
                        std::uint64_t& state);

/// A stable non-zero jitter seed derived from a peer address (used when
/// FrameClientConfig::backoff_jitter_seed is 0).
std::uint64_t jitter_seed_for(const std::string& host, std::uint16_t port);

struct FrameClientConfig {
  double connect_timeout_seconds = 2.0;
  /// Default per-request deadline; covers the peer's solve time.
  double reply_timeout_seconds = 120.0;
  double backoff_initial_seconds = 0.2;
  /// Initial backoff after a *reply timeout*: the peer answered the
  /// connect, it is slow, not gone — back off more gently than a
  /// refused connection so one long solve does not eclipse a healthy
  /// peer for a full refusal window.
  double backoff_timeout_initial_seconds = 0.05;
  double backoff_max_seconds = 5.0;
  /// Each armed backoff window is multiplied by a factor drawn
  /// uniformly from [1 - jitter, 1 + jitter]: after a rank restart,
  /// its peers' reconnects de-synchronize instead of arriving as one
  /// thundering herd on identical doubled schedules. 0 disables.
  double backoff_jitter = 0.25;
  /// Seed for the jitter stream; 0 derives one from host:port so two
  /// clients of the same peer in one process still diverge.
  std::uint64_t backoff_jitter_seed = 0;
  std::size_t max_payload = kDefaultMaxPayload;

  /// When non-empty, sent as a kAuth frame immediately after every
  /// (re)connect, before any request — the shared-secret handshake of
  /// FrameServer::start's auth_token. A rejected token closes the
  /// connection and arms the normal backoff.
  std::string auth_token;

  /// The registry the client counts in, under `metrics_prefix` +
  /// {calls,failures,connects,fast_failures,suspects,timeouts,
  /// unknown_replies} + "_total" — reconnect churn and suspect
  /// transitions are scrapeable, not silent — with prefix+"inflight"
  /// (gauge) and prefix+"mux_depth" (histogram) kept live. Must outlive
  /// the client; nullptr: the client owns a registry of its own.
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "net_client_";
};

/// Monotonic counters (snapshot via MuxFrameClient::stats), each read
/// from its registry counter but max_inflight, a high-water mark.
struct FrameClientStats {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;  ///< calls answered nullopt
  std::uint64_t connects = 0;  ///< successful (re)connects
  std::uint64_t fast_failures = 0;  ///< rejected inside the backoff window
  std::uint64_t suspects = 0;  ///< healthy -> suspect transitions
  std::uint64_t timeouts = 0;  ///< failures that were reply timeouts
  /// High-water mark of concurrently outstanding exchanges on one
  /// connection; pipelining is only doing its job when it exceeds 1.
  std::uint64_t max_inflight = 0;
};

class MuxFrameClient {
 public:
  /// Receives one exchange's outcome: the peer's reply, or nullopt on
  /// connect failure, connection death, deadline expiry, fast-fail
  /// inside the backoff window, or shutdown. It should not throw: what
  /// one throws is dropped, so the reader (and every other exchange on
  /// the connection) carries on.
  using ReplyCallback = UniqueFunction<void(std::optional<Frame>)>;

  MuxFrameClient(std::string host, std::uint16_t port,
                 FrameClientConfig config = {});
  ~MuxFrameClient();

  MuxFrameClient(const MuxFrameClient&) = delete;
  MuxFrameClient& operator=(const MuxFrameClient&) = delete;

  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Enqueues one exchange with a deadline (seconds from now; <= 0
  /// expires immediately, +inf never). `callback` runs exactly once: on
  /// the reader when the reply arrives, on the deadline sweep or a
  /// connection failure with nullopt, or inline before call_async
  /// returns when the call fails fast. Never blocks on IO.
  void call_async(Frame request, double deadline_seconds,
                  ReplyCallback callback);

  /// Same with the default deadline, config.reply_timeout_seconds.
  void call_async(Frame request, ReplyCallback callback);

  /// call_async resolving a future instead of calling back.
  std::future<std::optional<Frame>> call_async(Frame request);
  std::future<std::optional<Frame>> call_async(Frame request,
                                               double deadline_seconds);

  /// Blocking convenience: call_async + get. Many threads may call
  /// concurrently; their exchanges share the connection in flight. Never
  /// call it from a callback: the reader would wait on itself.
  std::optional<Frame> call(const Frame& request);

  /// True while calls would fail fast (inside the backoff window).
  /// Never waits behind in-flight IO.
  bool suspect() const;

  FrameClientStats stats() const;

  /// Replies that matched no outstanding id (late arrivals after a
  /// deadline expiry, or a confused peer); dropped, connection kept.
  std::uint64_t unknown_replies() const;

  /// Drops the connection, failing all outstanding exchanges, and
  /// clears the backoff (next call reconnects immediately).
  void reset();

  /// Stops the client: joins its threads and answers every outstanding
  /// exchange with nullopt; later calls fail inline. The object stays
  /// valid, so a callback racing the shutdown still finds it.
  /// Idempotent; the destructor calls it.
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Frame frame;
    ReplyCallback callback;
    Clock::time_point deadline;
  };

  struct Pending {
    ReplyCallback callback;
    Clock::time_point deadline;
    Clock::time_point written;
  };

  /// Callbacks owed nullopt, collected under mutex_ and run after it is
  /// released.
  using Failed = std::vector<ReplyCallback>;
  static void fail_all(Failed& failed);
  /// Runs one callback, dropping whatever it throws.
  static void deliver(ReplyCallback& callback,
                      std::optional<Frame> reply) noexcept;

  /// Reader tick: bounds how stale a deadline sweep can be.
  static constexpr double kSweepIntervalSeconds = 0.05;

  void worker_loop();
  void reader_loop(std::shared_ptr<Socket> socket, std::uint64_t generation);

  /// Connect + auth + liveness ping, called unlocked. nullptr on
  /// failure, with `timeout` set when the peer was slow to answer
  /// rather than refusing.
  std::shared_ptr<Socket> connect(bool& timeout);

  /// Sends the configured auth token on a fresh socket and waits for
  /// the server's kPong; true when no token is configured.
  bool authenticate(Socket& socket);

  /// All *_locked helpers require mutex_; they move the callbacks they
  /// fail into `failed` for the caller to run once it has unlocked.
  void fail_connection_locked(std::uint64_t generation, bool timeout,
                              Failed& failed);
  void fail_queue_locked(bool fast, Failed& failed);
  void arm_backoff_locked(bool timeout);
  void update_depth_locked();
  void sweep_deadlines_locked(std::uint64_t generation, Failed& failed);

  const std::string host_;
  const std::uint16_t port_;
  const FrameClientConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  Clock::time_point soonest_deadline_ = Clock::time_point::max();
  std::uint64_t next_id_ = 1;
  std::uint64_t generation_ = 0;  ///< bumped on every connection death
  bool stop_ = false;
  std::shared_ptr<Socket> conn_;  ///< null while disconnected
  Clock::time_point last_rx_{};   ///< last inbound frame on conn_
  double backoff_seconds_ = 0.0;
  Clock::time_point next_attempt_{};
  std::uint64_t jitter_state_;  ///< advanced per armed backoff window
  std::uint64_t max_inflight_ = 0;

  std::thread worker_;
  std::thread reader_;  ///< joined by the worker between connections

  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Registry& metrics_;
  obs::Counter& calls_;
  obs::Counter& failures_;
  obs::Counter& connects_;
  obs::Counter& fast_failures_;
  obs::Counter& suspects_;
  obs::Counter& timeouts_;
  obs::Counter& unknown_replies_;
  obs::Gauge& inflight_gauge_;
  obs::Histogram& depth_histogram_;
};

}  // namespace prts::net
