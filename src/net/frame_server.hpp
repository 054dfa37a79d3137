// The fabric's listening side: one accept thread hands each connection
// to a dedicated reader thread, which runs the handler inline on every
// frame it reads. A handler answers through a Responder, which stamps
// the request id and writes from whatever thread holds it — so a solve
// answers from the engine worker that finished it, out of order with
// its neighbours, while the reader keeps reading the pings, gossip
// digests and scrapes behind it. No thread of the server waits on a
// handler, and no answering thread waits on the peer: a reply the
// socket does not take at once waits in the connection's outbox, which
// its reader flushes as the peer drains (and while the outbox is over
// 1 MiB the reader takes no new requests from that peer). A reader that
// has seen the peer's EOF stays until every reply it owes is written.
//
// Robustness contract (exercised by tests/test_net.cpp): malformed
// magic, version mismatch and oversized length fields are answered with
// one kError frame and a close — never a crash, never a hang, and the
// server keeps accepting new connections. Truncated frames and
// mid-stream disconnects just close the connection.
//
// A handler runs on the connection's reader, so it must not block: work
// that waits (a solve, a slow peer) keeps the Responder and answers
// later from another thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace prts::net {

class FrameServer;

/// The one answer a request frame is owed. Move-only; calling it writes
/// the reply (the request id is stamped here) without blocking, from
/// any thread, exactly once. nullopt closes the
/// connection without a reply, which also aborts the other in-flight
/// exchanges on it (a deliberate peer-death simulation). A Responder
/// destroyed unanswered — say, by a handler that threw — answers one
/// kError frame, so every request gets its answer.
class Responder {
 public:
  Responder() = default;
  Responder(Responder&& other) noexcept;
  Responder& operator=(Responder&& other) noexcept;
  Responder(const Responder&) = delete;
  Responder& operator=(const Responder&) = delete;
  ~Responder();

  void operator()(std::optional<Frame> reply);

  /// True while the answer is still owed.
  explicit operator bool() const noexcept { return server_ != nullptr; }

 private:
  friend class FrameServer;
  struct Connection;

  Responder(FrameServer& server, std::shared_ptr<Connection> connection,
            std::uint64_t request_id) noexcept;

  FrameServer* server_ = nullptr;
  std::shared_ptr<Connection> connection_;
  std::uint64_t request_id_ = 0;
};

/// Answers one request frame through `respond`, now or later. Runs on
/// the connection's reader thread, so it must not block; it must be
/// thread-safe across connections.
using FrameHandler = std::function<void(const Frame&, Responder respond)>;

/// Monotonic counters (snapshot; the server keeps running), each read
/// from the registry counter net_server_<field>_total.
struct FrameServerStats {
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;           ///< well-formed frames handled
  std::uint64_t protocol_errors = 0;  ///< bad magic/version/length
  std::uint64_t auth_failures = 0;    ///< wrong token / missing handshake
};

class FrameServer {
 public:
  /// Binds `port` (0 = ephemeral) and starts the accept thread.
  /// nullptr when the port cannot be bound. The server records into
  /// `telemetry` (which must outlive it; nullptr: the server owns one):
  /// - the net_server_{connections,frames,protocol_errors,
  ///   auth_failures}_total counters;
  /// - a "frame_server" watchdog heartbeat: load tracks requests still
  ///   owed an answer, beats mark accepts and answers, so a request
  ///   wedged on a dead peer shows up as a stall;
  /// - the "frame_handler" profile component, sampled on every handler
  ///   call while the profiler is on (cpu/wall/alloc attribution of
  ///   the inline part of peer traffic).
  /// When `auth_token` is non-empty every connection must present it
  /// in a kAuth frame before anything else: any other first frame (or
  /// a wrong token) is answered with kError, counted as an auth
  /// failure, and the connection is closed.
  static std::unique_ptr<FrameServer> start(
      std::uint16_t port, FrameHandler handler,
      std::size_t max_payload = kDefaultMaxPayload,
      obs::Telemetry* telemetry = nullptr, std::string auth_token = {});

  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (resolves an ephemeral bind).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Stops accepting, wakes every connection's blocked read, and waits
  /// for connection loops and every outstanding Responder to finish.
  /// Idempotent.
  void stop();

  FrameServerStats stats() const;

 private:
  friend class Responder;

  FrameServer(Listener listener, FrameHandler handler,
              std::size_t max_payload, obs::Telemetry* telemetry,
              std::string auth_token);

  void accept_loop();
  void serve_connection(std::uint64_t conn_id,
                        std::shared_ptr<Responder::Connection> connection);

  /// Runs the handler inline on one frame.
  void handle_frame(const Frame& request,
                    const std::shared_ptr<Responder::Connection>& connection);

  /// A Responder was created / has answered.
  void begin_response();
  void end_response();

  /// Joins reader threads whose connections have finished; called from
  /// the accept loop so a long-lived server does not accumulate dead
  /// thread handles.
  void reap_finished();

  Listener listener_;
  FrameHandler handler_;
  const std::size_t max_payload_;
  const std::string auth_token_;  ///< empty = authentication off

  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::unordered_set<int> open_fds_;  ///< live connection descriptors
  std::uint64_t next_conn_id_ = 0;
  std::unordered_map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;  ///< conn ids ready to join
  std::size_t pending_responses_ = 0;    ///< Responders still owed
  /// Handles resolved once at construction.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry& telemetry_;
  obs::Counter& connections_total_;
  obs::Counter& frames_total_;
  obs::Counter& protocol_errors_total_;
  obs::Counter& auth_failures_total_;
  obs::Heartbeat& heartbeat_;  ///< "frame_server" liveness
  obs::Profiler::Component& handler_component_;  ///< "frame_handler"
  std::thread accept_thread_;
};

}  // namespace prts::net
