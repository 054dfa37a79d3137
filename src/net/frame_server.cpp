#include "net/frame_server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <utility>

#include "obs/threads.hpp"

namespace prts::net {

namespace {

/// While a connection's outbox holds more than this, its reader reads
/// no further requests: a peer that does not drain its replies stops
/// being served instead of growing the outbox without bound.
constexpr std::size_t kOutboxHighWater = std::size_t{1} << 20;

}  // namespace

/// One accepted connection. Replies are written without blocking from
/// whichever thread answers; bytes the socket does not take at once
/// wait in the outbox, which the connection's reader flushes as the
/// peer drains. So a peer that stops reading parks no engine worker in
/// send(), only its own reader.
struct Responder::Connection {
  explicit Connection(Socket accepted)
      : socket(std::move(accepted)), wake_fd(::eventfd(0, EFD_CLOEXEC)) {}
  ~Connection() {
    if (wake_fd >= 0) ::close(wake_fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues one frame behind the outbox and sends what the socket takes
  /// now; false when the connection has failed.
  bool write(const Frame& frame) noexcept;

  /// Waits until the socket is readable (or closed), flushing the
  /// outbox meanwhile; with `read` false, until every owed reply has
  /// been answered and written. False on a dead connection.
  bool pump(bool read);

  /// A Responder for this connection was made, or has answered.
  void owe();
  void settle() noexcept;

  Socket socket;
  /// The reader's wake-up, polled beside the socket: write() bumps it
  /// when it leaves bytes in an empty outbox, settle() when the last
  /// owed reply of a draining connection is in. -1 when no eventfd
  /// could be made; write() then fails rather than queue bytes nobody
  /// sends.
  const int wake_fd;
  std::mutex write_mutex;  ///< guards the three below
  std::string outbox;      ///< frames leave whole, in order
  std::size_t owed = 0;    ///< Responders not yet answered
  bool draining = false;   ///< the reader reads no more; it waits on owed

 private:
  /// Sends what the outbox holds without blocking; false on an error.
  bool flush_locked() noexcept;
  void wake() noexcept;
};

void Responder::Connection::wake() noexcept {
  const std::uint64_t one = 1;
  if (::write(wake_fd, &one, sizeof(one)) != sizeof(one)) {
    socket.shutdown();  // the reader must not sleep through its work
  }
}

void Responder::Connection::owe() {
  const std::lock_guard<std::mutex> lock(write_mutex);
  ++owed;
}

void Responder::Connection::settle() noexcept {
  const std::lock_guard<std::mutex> lock(write_mutex);
  if (--owed == 0 && draining && wake_fd >= 0) wake();
}

bool Responder::Connection::write(const Frame& frame) noexcept {
  try {
    const std::string bytes = encode_frame(frame);
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!outbox.empty()) {
      outbox += bytes;
      return true;
    }
    std::size_t sent = 0;
    if (!socket.send_some(bytes.data(), bytes.size(), sent)) return false;
    if (sent == bytes.size()) return true;
    if (wake_fd < 0) return false;
    outbox.assign(bytes, sent);
    wake();
    return true;
  } catch (...) {
    return false;  // out of memory: the connection closes
  }
}

bool Responder::Connection::flush_locked() noexcept {
  if (outbox.empty()) return true;
  std::size_t sent = 0;
  if (!socket.send_some(outbox.data(), outbox.size(), sent)) return false;
  outbox.erase(0, sent);
  return true;
}

bool Responder::Connection::pump(bool read) {
  for (;;) {
    std::size_t queued = 0;
    {
      const std::lock_guard<std::mutex> lock(write_mutex);
      if (!flush_locked()) return false;
      queued = outbox.size();
      if (!read) {
        draining = true;
        if (queued == 0 && owed == 0) return true;
      }
    }
    struct pollfd fds[2] = {};
    fds[0].fd = socket.fd();
    if (read && queued <= kOutboxHighWater) fds[0].events |= POLLIN;
    if (queued > 0) fds[0].events |= POLLOUT;
    fds[1].fd = wake_fd;
    fds[1].events = POLLIN;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      std::uint64_t refills = 0;
      if (::read(wake_fd, &refills, sizeof(refills)) < 0) return false;
    }
    if ((fds[0].revents & POLLNVAL) != 0) return false;
    // Readable, or closed: the receive says which.
    if ((fds[0].events & POLLIN) != 0 &&
        (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      return true;
    }
    if ((fds[0].revents & (POLLHUP | POLLERR)) != 0) return false;
  }
}

Responder::Responder(FrameServer& server,
                     std::shared_ptr<Connection> connection,
                     std::uint64_t request_id) noexcept
    : server_(&server),
      connection_(std::move(connection)),
      request_id_(request_id) {
  server_->begin_response();
  connection_->owe();
}

Responder::Responder(Responder&& other) noexcept
    : server_(std::exchange(other.server_, nullptr)),
      connection_(std::move(other.connection_)),
      request_id_(other.request_id_) {}

namespace {

/// What an abandoned Responder answers.
Frame dropped_request() {
  Frame failure;
  failure.type = FrameType::kError;
  failure.payload = "handler error: request dropped unanswered";
  return failure;
}

}  // namespace

Responder& Responder::operator=(Responder&& other) noexcept {
  if (this != &other) {
    if (server_ != nullptr) (*this)(dropped_request());
    server_ = std::exchange(other.server_, nullptr);
    connection_ = std::move(other.connection_);
    request_id_ = other.request_id_;
  }
  return *this;
}

Responder::~Responder() {
  if (server_ != nullptr) (*this)(dropped_request());
}

void Responder::operator()(std::optional<Frame> reply) {
  if (server_ == nullptr) return;  // answered already
  FrameServer* const server = std::exchange(server_, nullptr);
  const std::shared_ptr<Connection> connection = std::move(connection_);
  obs::hop_probe::touch();
  bool keep = false;
  if (reply) {
    reply->request_id = request_id_;
    keep = connection->write(*reply);
  }
  // A declined request or a failed write closes the connection, which
  // wakes its reader.
  if (!keep) connection->socket.shutdown();
  connection->settle();
  server->end_response();
}

std::unique_ptr<FrameServer> FrameServer::start(std::uint16_t port,
                                                FrameHandler handler,
                                                std::size_t max_payload,
                                                obs::Telemetry* telemetry,
                                                std::string auth_token) {
  auto listener = Listener::open(port);
  if (!listener) return nullptr;
  return std::unique_ptr<FrameServer>(
      new FrameServer(std::move(*listener), std::move(handler), max_payload,
                      telemetry, std::move(auth_token)));
}

FrameServer::FrameServer(Listener listener, FrameHandler handler,
                         std::size_t max_payload, obs::Telemetry* telemetry,
                         std::string auth_token)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      max_payload_(max_payload),
      auth_token_(std::move(auth_token)),
      telemetry_(obs::given_or_owned(telemetry, owned_telemetry_)),
      connections_total_(
          telemetry_.metrics.counter("net_server_connections_total")),
      frames_total_(telemetry_.metrics.counter("net_server_frames_total")),
      protocol_errors_total_(
          telemetry_.metrics.counter("net_server_protocol_errors_total")),
      auth_failures_total_(
          telemetry_.metrics.counter("net_server_auth_failures_total")),
      heartbeat_(telemetry_.watchdog.component("frame_server")),
      handler_component_(telemetry_.profiler.component("frame_handler")),
      accept_thread_([this] {
        obs::name_this_thread("srv-accept");
        accept_loop();
      }) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::accept_loop() {
  while (!stopping_.load()) {
    auto accepted = listener_.accept();
    if (!accepted) break;  // listener closed
    reap_finished();
    auto connection =
        std::make_shared<Responder::Connection>(std::move(*accepted));
    heartbeat_.beat();
    const int fd = connection->socket.fd();
    {
      // Register before the reader thread exists: stop() must be able
      // to wake this connection even if the thread has not started yet.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load()) break;
      connections_total_.add();
      open_fds_.insert(fd);
      const std::uint64_t conn_id = next_conn_id_++;
      connections_.emplace(
          conn_id, std::thread([this, conn_id, connection] {
            obs::name_this_thread("srv-reader");
            serve_connection(conn_id, connection);
          }));
    }
  }
}

void FrameServer::reap_finished() {
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t conn_id : finished_) {
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;
      done.push_back(std::move(it->second));
      connections_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& thread : done) {
    if (thread.joinable()) thread.join();
  }
}

void FrameServer::begin_response() {
  heartbeat_.add_load(1);
  const std::lock_guard<std::mutex> lock(mutex_);
  ++pending_responses_;
}

void FrameServer::end_response() {
  heartbeat_.add_load(-1);
  heartbeat_.beat();
  const std::lock_guard<std::mutex> lock(mutex_);
  --pending_responses_;
  drained_cv_.notify_all();
}

void FrameServer::handle_frame(
    const Frame& request,
    const std::shared_ptr<Responder::Connection>& connection) {
  std::optional<obs::ScopedSample> handler_sample;
  if (telemetry_.profiler.enabled()) handler_sample.emplace();
  try {
    handler_(request, Responder(*this, connection, request.request_id));
  } catch (...) {
    // The handler's Responder, destroyed unanswered by the unwind, has
    // already failed this request alone; the connection carries on.
  }
  if (handler_sample) {
    obs::Profiler::record(handler_component_, handler_sample->finish());
  }
}

void FrameServer::serve_connection(
    std::uint64_t conn_id, std::shared_ptr<Responder::Connection> connection) {
  Socket& socket = connection->socket;
  const int fd = socket.fd();
  bool authed = auth_token_.empty();
  FrameDecoder decoder(max_payload_);
  // One receive takes whatever the peer has sent, often several frames.
  std::string chunk(std::size_t{64} << 10, '\0');
  // Set when the connection must close once the outbox has drained (an
  // error frame is its last word).
  bool closing = false;
  while (!stopping_.load() && !closing && connection->pump(true)) {
    std::size_t got = 0;
    if (socket.recv_some_status(chunk.data(), chunk.size(), got) !=
        Socket::RecvStatus::kOk) {
      // EOF or an error in the middle of a frame: framing is lost.
      if (decoder.buffered() > 0) protocol_errors_total_.add();
      break;
    }
    decoder.feed(std::string_view(chunk.data(), got));
    while (!closing) {
      DecodeResult next = decoder.next();
      if (next.status == DecodeStatus::kNeedMore) break;
      if (next.status != DecodeStatus::kFrame) {
        protocol_errors_total_.add();
        Frame error;
        error.type = FrameType::kError;
        error.payload = next.status == DecodeStatus::kBadMagic ? "bad magic"
                        : next.status == DecodeStatus::kBadVersion
                            ? "unsupported protocol version"
                            : "payload too large";
        closing = true;
        if (!connection->write(error)) break;
        continue;
      }
      const Frame& request = next.frame;
      obs::hop_probe::touch();
      frames_total_.add();
      if (request.type == FrameType::kAuth || !authed) {
        // The auth gate runs before the handler ever sees a frame.
        // kAuth on an open (or already-authed) server is answered
        // benignly, so a token-configured client can talk to a
        // token-free server.
        Frame reply;
        reply.request_id = request.request_id;
        if (request.type == FrameType::kAuth &&
            (authed || request.payload == auth_token_)) {
          authed = true;
          reply.type = FrameType::kPong;
          if (!connection->write(reply)) closing = true;
          continue;
        }
        auth_failures_total_.add();
        reply.type = FrameType::kError;
        reply.payload = "authentication required";
        closing = true;
        connection->write(reply);
        continue;
      }
      // Inline: the handler answers now or hands its Responder to
      // whoever will (a solve's completion); either way the reader goes
      // straight back to reading.
      handle_frame(request, connection);
    }
  }
  // What the connection still owes leaves before the reader lets go:
  // an error frame as its last word, and the replies to requests read
  // before the peer half-closed.
  if (!stopping_.load()) connection->pump(false);
  {
    // Deregister while the socket is still open, so stop() can never
    // shut down a descriptor that has already been recycled. Pending
    // Responders hold their own reference to the connection; their
    // writes fail harmlessly once the peer is gone.
    const std::lock_guard<std::mutex> lock(mutex_);
    open_fds_.erase(fd);
    finished_.push_back(conn_id);
    drained_cv_.notify_all();
  }
}

void FrameServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept thread and join it before the listening fd is
  // released: closing under a blocked accept() could hand a recycled
  // descriptor number to it.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::unique_lock<std::mutex> lock(mutex_);
  for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  drained_cv_.wait(lock, [this] {
    return open_fds_.empty() && pending_responses_ == 0;
  });
  std::vector<std::thread> remaining;
  remaining.reserve(connections_.size());
  for (auto& [conn_id, thread] : connections_) {
    remaining.push_back(std::move(thread));
  }
  connections_.clear();
  finished_.clear();
  lock.unlock();
  for (std::thread& thread : remaining) {
    if (thread.joinable()) thread.join();
  }
}

FrameServerStats FrameServer::stats() const {
  FrameServerStats stats;
  stats.connections = connections_total_.value();
  stats.frames = frames_total_.value();
  stats.protocol_errors = protocol_errors_total_.value();
  stats.auth_failures = auth_failures_total_.value();
  return stats;
}

}  // namespace prts::net
