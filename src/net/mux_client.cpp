#include "net/mux_client.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/threads.hpp"

namespace prts::net {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Clock::time_point deadline_from(double seconds) {
  if (std::isinf(seconds)) return Clock::time_point::max();
  if (seconds < 0.0) seconds = 0.0;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

double jittered_backoff(double seconds, double jitter_fraction,
                        std::uint64_t& state) {
  const double jitter = std::min(std::max(jitter_fraction, 0.0), 1.0);
  if (jitter == 0.0 || seconds <= 0.0) return seconds;
  // 53 uniform bits -> [0, 1) -> [1 - jitter, 1 + jitter).
  const double unit =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return seconds * (1.0 - jitter + 2.0 * jitter * unit);
}

std::uint64_t jitter_seed_for(const std::string& host, std::uint16_t port) {
  // FNV-1a over "host:port"; forced non-zero so it never collides with
  // the "derive me" sentinel.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : host) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  hash = (hash ^ (port & 0xff)) * 1099511628211ULL;
  hash = (hash ^ (port >> 8)) * 1099511628211ULL;
  return hash == 0 ? 1 : hash;
}

MuxFrameClient::MuxFrameClient(std::string host, std::uint16_t port,
                               FrameClientConfig config)
    : host_(std::move(host)),
      port_(port),
      config_(std::move(config)),
      metrics_(obs::given_or_owned(config_.metrics, owned_metrics_)),
      calls_(metrics_.counter(config_.metrics_prefix + "calls_total")),
      failures_(metrics_.counter(config_.metrics_prefix + "failures_total")),
      connects_(metrics_.counter(config_.metrics_prefix + "connects_total")),
      fast_failures_(
          metrics_.counter(config_.metrics_prefix + "fast_failures_total")),
      suspects_(metrics_.counter(config_.metrics_prefix + "suspects_total")),
      timeouts_(metrics_.counter(config_.metrics_prefix + "timeouts_total")),
      unknown_replies_(
          metrics_.counter(config_.metrics_prefix + "unknown_replies_total")),
      inflight_gauge_(metrics_.gauge(config_.metrics_prefix + "inflight")),
      depth_histogram_(
          metrics_.histogram(config_.metrics_prefix + "mux_depth")) {
  jitter_state_ = config_.backoff_jitter_seed != 0
                      ? config_.backoff_jitter_seed
                      : jitter_seed_for(host_, port_);
  worker_ = std::thread(&MuxFrameClient::worker_loop, this);
}

MuxFrameClient::~MuxFrameClient() { shutdown(); }

void MuxFrameClient::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    if (conn_) conn_->shutdown();
    cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  if (reader_.joinable()) reader_.join();
  // Answer whatever is still outstanding: a waiter must see nullopt,
  // never silence.
  Failed failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, pending] : pending_) {
      failed.push_back(std::move(pending.callback));
    }
    pending_.clear();
    for (auto& job : queue_) failed.push_back(std::move(job.callback));
    queue_.clear();
  }
  fail_all(failed);
}

void MuxFrameClient::fail_all(Failed& failed) {
  for (ReplyCallback& callback : failed) deliver(callback, std::nullopt);
  failed.clear();
}

void MuxFrameClient::deliver(ReplyCallback& callback,
                             std::optional<Frame> reply) noexcept {
  try {
    callback(std::move(reply));
  } catch (...) {
    // The exchange is over either way; the thread that ran it is not.
  }
}

namespace {

/// call_async's future adapter; fits ReplyCallback's inline buffer.
struct FulfillPromise {
  std::promise<std::optional<Frame>> promise;
  void operator()(std::optional<Frame>&& reply) {
    promise.set_value(std::move(reply));
  }
};

}  // namespace

std::future<std::optional<Frame>> MuxFrameClient::call_async(Frame request) {
  std::promise<std::optional<Frame>> promise;
  std::future<std::optional<Frame>> future = promise.get_future();
  call_async(std::move(request), FulfillPromise{std::move(promise)});
  return future;
}

std::future<std::optional<Frame>> MuxFrameClient::call_async(
    Frame request, double deadline_seconds) {
  std::promise<std::optional<Frame>> promise;
  std::future<std::optional<Frame>> future = promise.get_future();
  call_async(std::move(request), deadline_seconds,
             FulfillPromise{std::move(promise)});
  return future;
}

void MuxFrameClient::call_async(Frame request, ReplyCallback callback) {
  const double seconds = config_.reply_timeout_seconds > 0.0
                             ? config_.reply_timeout_seconds
                             : std::numeric_limits<double>::infinity();
  call_async(std::move(request), seconds, std::move(callback));
}

void MuxFrameClient::call_async(Frame request, double deadline_seconds,
                                ReplyCallback callback) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    calls_.add();
    const bool fast_fail =
        stop_ || (backoff_seconds_ > 0.0 && Clock::now() < next_attempt_);
    if (!fast_fail) {
      Job job;
      job.frame = std::move(request);
      job.callback = std::move(callback);
      job.deadline = deadline_from(deadline_seconds);
      queue_.push_back(std::move(job));
      const std::size_t depth = queue_.size() + pending_.size();
      max_inflight_ = std::max<std::uint64_t>(max_inflight_, depth);
      inflight_gauge_.set(static_cast<double>(depth));
      depth_histogram_.record(static_cast<double>(depth));
      cv_.notify_all();
      return;
    }
    if (!stop_) fast_failures_.add();
    failures_.add();
  }
  deliver(callback, std::nullopt);
}

std::optional<Frame> MuxFrameClient::call(const Frame& request) {
  return call_async(request).get();
}

bool MuxFrameClient::suspect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return backoff_seconds_ > 0.0 && Clock::now() < next_attempt_;
}

FrameClientStats MuxFrameClient::stats() const {
  FrameClientStats stats;
  stats.calls = calls_.value();
  stats.failures = failures_.value();
  stats.connects = connects_.value();
  stats.fast_failures = fast_failures_.value();
  stats.suspects = suspects_.value();
  stats.timeouts = timeouts_.value();
  const std::lock_guard<std::mutex> lock(mutex_);
  stats.max_inflight = max_inflight_;
  return stats;
}

std::uint64_t MuxFrameClient::unknown_replies() const {
  return unknown_replies_.value();
}

void MuxFrameClient::reset() {
  Failed failed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fail_connection_locked(generation_, /*timeout=*/false, failed);
    backoff_seconds_ = 0.0;  // reconnect immediately on the next call
  }
  fail_all(failed);
}

void MuxFrameClient::worker_loop() {
  obs::name_this_thread("mux-writer");
  std::unique_lock<std::mutex> lock(mutex_);
  Failed failed;
  for (;;) {
    if (!failed.empty()) {
      lock.unlock();
      fail_all(failed);
      lock.lock();
    }
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;

    // Jobs racing a freshly-armed backoff window fail fast here; jobs
    // arriving while the window is open already failed in call_async.
    if (backoff_seconds_ > 0.0 && Clock::now() < next_attempt_) {
      fail_queue_locked(/*fast=*/true, failed);
      continue;
    }

    if (!conn_) {
      lock.unlock();
      if (reader_.joinable()) reader_.join();  // previous generation
      bool timeout = false;
      std::shared_ptr<Socket> socket = connect(timeout);
      lock.lock();
      if (stop_) return;  // shutdown() resolves the queue
      if (!socket) {
        if (timeout) timeouts_.add();
        arm_backoff_locked(timeout);
        fail_queue_locked(/*fast=*/false, failed);
        continue;
      }
      conn_ = std::move(socket);
      last_rx_ = Clock::now();
      connects_.add();
      reader_ = std::thread(&MuxFrameClient::reader_loop, this, conn_,
                            generation_);
    }

    if (queue_.empty()) continue;

    // Stamp a fresh id, move the callback to the pending map *before*
    // the write (the reply can race the write's return), then write
    // without holding the lock.
    Job job = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t id = next_id_++;
    if (next_id_ > kMaxRequestId) next_id_ = 1;
    Frame frame = std::move(job.frame);
    frame.request_id = id;
    Pending pending;
    pending.callback = std::move(job.callback);
    pending.deadline = job.deadline;
    pending.written = Clock::now();
    soonest_deadline_ = std::min(soonest_deadline_, pending.deadline);
    pending_.emplace(id, std::move(pending));
    update_depth_locked();
    const std::uint64_t generation = generation_;
    std::shared_ptr<Socket> socket = conn_;
    lock.unlock();
    obs::hop_probe::touch();
    const bool written = write_frame(*socket, frame);
    lock.lock();
    if (!written) {
      fail_connection_locked(generation, /*timeout=*/false, failed);
    }
  }
}

void MuxFrameClient::reader_loop(std::shared_ptr<Socket> socket,
                                 std::uint64_t generation) {
  obs::name_this_thread("mux-reader");
  Failed failed;
  for (;;) {
    Frame reply;
    const FrameReadStatus status =
        read_frame(*socket, reply, config_.max_payload);
    ReplyCallback answered;
    bool connection_over = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_ || generation_ != generation) return;
      if (status == FrameReadStatus::kOk) {
        last_rx_ = Clock::now();
        auto it = pending_.find(reply.request_id);
        if (it == pending_.end()) {
          // Late reply for an expired request, or a confused peer:
          // drop it, the connection itself is healthy.
          unknown_replies_.add();
        } else {
          answered = std::move(it->second.callback);
          pending_.erase(it);
          backoff_seconds_ = 0.0;  // a live reply proves health
          update_depth_locked();
        }
        if (last_rx_ >= soonest_deadline_) {
          sweep_deadlines_locked(generation, failed);
        }
      } else if (status == FrameReadStatus::kTimeout) {
        // Idle tick: no frame for a sweep interval. Expire overdue
        // requests; a fully silent peer fails the whole connection.
        sweep_deadlines_locked(generation, failed);
      } else {
        fail_connection_locked(generation, /*timeout=*/false, failed);
      }
      connection_over = generation_ != generation;
    }
    if (answered) {
      obs::hop_probe::touch();
      deliver(answered, std::move(reply));
    }
    fail_all(failed);
    if (connection_over) return;
  }
}

std::shared_ptr<Socket> MuxFrameClient::connect(bool& timeout) {
  timeout = false;
  auto connected = tcp_connect(host_, port_, config_.connect_timeout_seconds);
  if (!connected) return nullptr;
  auto socket = std::make_shared<Socket>(std::move(*connected));
  socket->set_receive_timeout(config_.connect_timeout_seconds > 0.0
                                  ? config_.connect_timeout_seconds
                                  : 2.0);
  if (!authenticate(*socket)) return nullptr;

  // Liveness probe, bounded by the connect timeout: the peer must echo
  // the ping's id before any request rides the connection.
  Frame ping;
  ping.type = FrameType::kPing;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ping.request_id = next_id_++;
    if (next_id_ > kMaxRequestId) next_id_ = 1;
  }
  if (!write_frame(*socket, ping)) return nullptr;
  Frame reply;
  const FrameReadStatus status =
      read_frame(*socket, reply, config_.max_payload);
  if (status == FrameReadStatus::kTimeout) {
    timeout = true;
    return nullptr;
  }
  if (status != FrameReadStatus::kOk || reply.request_id != ping.request_id) {
    return nullptr;
  }
  // Short receive timeout so the reader can sweep per-request
  // deadlines between frames.
  socket->set_receive_timeout(kSweepIntervalSeconds);
  return socket;
}

bool MuxFrameClient::authenticate(Socket& socket) {
  if (config_.auth_token.empty()) return true;
  Frame auth;
  auth.type = FrameType::kAuth;
  auth.payload = config_.auth_token;
  Frame reply;
  return write_frame(socket, auth) &&
         read_frame(socket, reply, config_.max_payload) ==
             FrameReadStatus::kOk &&
         reply.type == FrameType::kPong;
}

void MuxFrameClient::fail_connection_locked(std::uint64_t generation,
                                            bool timeout, Failed& failed) {
  if (generation_ != generation) return;  // someone else already did
  ++generation_;
  if (conn_) conn_->shutdown();  // wake the peer thread's blocked IO
  conn_.reset();
  for (auto& [id, pending] : pending_) {
    failures_.add();
    failed.push_back(std::move(pending.callback));
  }
  pending_.clear();
  soonest_deadline_ = Clock::time_point::max();
  fail_queue_locked(/*fast=*/false, failed);
  arm_backoff_locked(timeout);
  update_depth_locked();
  cv_.notify_all();
}

void MuxFrameClient::fail_queue_locked(bool fast, Failed& failed) {
  for (auto& job : queue_) {
    failures_.add();
    if (fast) fast_failures_.add();
    failed.push_back(std::move(job.callback));
  }
  queue_.clear();
  update_depth_locked();
}

void MuxFrameClient::arm_backoff_locked(bool timeout) {
  if (backoff_seconds_ == 0.0) suspects_.add();
  const double initial = timeout ? config_.backoff_timeout_initial_seconds
                                 : config_.backoff_initial_seconds;
  backoff_seconds_ =
      backoff_seconds_ == 0.0
          ? initial
          : std::min(backoff_seconds_ * 2.0, config_.backoff_max_seconds);
  // Jitter only the armed window (not the doubling state): peers of a
  // restarted rank spread their reconnects instead of herding.
  const double window =
      jittered_backoff(backoff_seconds_, config_.backoff_jitter, jitter_state_);
  next_attempt_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window));
}

void MuxFrameClient::update_depth_locked() {
  inflight_gauge_.set(static_cast<double>(queue_.size() + pending_.size()));
}

void MuxFrameClient::sweep_deadlines_locked(std::uint64_t generation,
                                            Failed& failed) {
  const Clock::time_point now = Clock::now();
  if (now < soonest_deadline_) return;
  Clock::time_point soonest = Clock::time_point::max();
  bool silent_peer = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.deadline <= now) {
      if (last_rx_ < it->second.written) {
        // Nothing at all arrived since this request went out: the peer
        // is wedged, not merely slow on one solve — fail the connection
        // (every outstanding waiter, once) instead of trickling
        // expiries while new requests pile onto a dead wire.
        silent_peer = true;
        break;
      }
      timeouts_.add();
      failures_.add();
      failed.push_back(std::move(it->second.callback));
      it = pending_.erase(it);
    } else {
      soonest = std::min(soonest, it->second.deadline);
      ++it;
    }
  }
  if (silent_peer) {
    timeouts_.add();
    fail_connection_locked(generation, /*timeout=*/true, failed);
    return;
  }
  soonest_deadline_ = soonest;
  update_depth_locked();
}

}  // namespace prts::net
