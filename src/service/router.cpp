#include "service/router.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "net/frame.hpp"
#include "obs/threads.hpp"
#include "service/protocol.hpp"

namespace prts::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points, floored at zero.
double seconds_since(Clock::time_point from, Clock::time_point to) noexcept {
  const double elapsed = std::chrono::duration<double>(to - from).count();
  return elapsed < 0.0 ? 0.0 : elapsed;
}

/// The owner serves at most this many keys per kReplicaFetch frame — a
/// hostile or buggy peer must not turn one fetch into a whole-cache
/// dump.
constexpr std::size_t kMaxFetchKeys = 1024;

/// Hot-key hit counts tracked between gossip rounds are capped so the
/// map stays bounded even when gossip never runs to clear it.
constexpr std::size_t kMaxTrackedHotKeys = 4096;

/// Config invariants the rest of the router leans on, applied before
/// any member (the Membership in particular) is constructed from it.
RouterConfig normalize(RouterConfig config) {
  config.membership.self_rank = config.rank;
  if (config.advertise.port == 0 && config.rank < config.peers.size()) {
    config.advertise = config.peers[config.rank];
  }
  if (config.advertise.host.empty()) config.advertise.host = "127.0.0.1";
  return config;
}

}  // namespace

net::FrameHandler make_fabric_handler(SolveService& service,
                                      std::function<ShardRouter*()> router) {
  return [&service, router = std::move(router)](const net::Frame& request,
                                                net::Responder respond) {
    net::Frame reply;
    switch (request.type) {
      case net::FrameType::kPing:
        reply.type = net::FrameType::kPong;
        reply.payload = request.payload;
        break;
      case net::FrameType::kStatsRequest: {
        std::ostringstream out;
        write_merged_stats_json(out, service, router ? router() : nullptr);
        reply.type = net::FrameType::kStatsReply;
        reply.payload = out.str();
        break;
      }
      case net::FrameType::kSolveRequest: {
        std::string error;
        auto decoded = decode_wire_request(request.payload, error);
        if (!decoded) {
          reply.type = net::FrameType::kError;
          reply.payload = "bad solve request: " + error;
          break;
        }
        // Answered by the solve's completion: inline on a hit, from the
        // engine worker that finished the batch otherwise. The reader
        // goes back to reading either way.
        ShardRouter* const owner = router ? router() : nullptr;
        service.submit(
            std::move(*decoded),
            [&service, owner, respond = std::move(respond)](
                SolveReply answer) mutable {
              // Peer traffic is what makes an owned key hot, and an
              // answer for a key the ring has since assigned elsewhere
              // is copied to its new owner.
              if (owner != nullptr) owner->note_served(answer.key);
              // Ship this rank's spans back so the origin can merge them
              // into the one trace the request travels under. The local
              // tracer keeps its copy — `trace <id>` resolves on either
              // rank.
              if (obs::Trace trace;
                  service.telemetry().tracer.find(answer.trace_id, trace)) {
                answer.remote_spans = std::move(trace.spans);
              }
              net::Frame solved;
              solved.type = net::FrameType::kSolveReply;
              solved.payload = encode_wire_reply(answer);
              respond(std::move(solved));
              // Should anything above throw, the engine swallows it and
              // this Responder, destroyed unanswered, answers kError: the
              // peer fails over instead of waiting out its deadline.
            });
        return;
      }
      case net::FrameType::kMetricsRequest: {
        // Any rank can scrape any other: the text exposition of this
        // rank's registry.
        std::ostringstream out;
        write_metrics_text(out, service);
        reply.type = net::FrameType::kMetricsReply;
        reply.payload = out.str();
        break;
      }
      case net::FrameType::kGossipDigest: {
        std::string error;
        auto digest = decode_gossip_digest(request.payload, error);
        if (!digest) {
          reply.type = net::FrameType::kError;
          reply.payload = "bad gossip digest: " + error;
          break;
        }
        if (ShardRouter* receiver = router ? router() : nullptr) {
          receiver->handle_gossip_digest(std::move(*digest));
        }
        // Ack even without a router: gossip is advisory, and the
        // sender only wants to know the frame arrived.
        reply.type = net::FrameType::kPong;
        break;
      }
      case net::FrameType::kReplicaFetch: {
        std::string error;
        const auto keys = decode_replica_fetch(request.payload, error);
        if (!keys) {
          reply.type = net::FrameType::kError;
          reply.payload = "bad replica fetch: " + error;
          break;
        }
        std::vector<std::pair<CanonicalHash, CachedSolution>> entries;
        const std::size_t served = std::min(keys->size(), kMaxFetchKeys);
        for (std::size_t i = 0; i < served; ++i) {
          // peek: a prefetch must not distort the owner's LRU order or
          // hit-rate counters. Missing keys are silently skipped (the
          // fetch is best-effort).
          if (auto value = service.cache().peek((*keys)[i])) {
            entries.emplace_back((*keys)[i], std::move(*value));
          }
        }
        reply.type = net::FrameType::kReplicaFetchReply;
        reply.payload = encode_replica_entries(entries);
        break;
      }
      case net::FrameType::kJoinRequest:
      case net::FrameType::kMembershipUpdate:
      case net::FrameType::kHandoffBegin:
      case net::FrameType::kHandoffChunk:
      case net::FrameType::kHandoffDone: {
        // The membership frame families belong to the router (the
        // Membership merge rules + handoff bookkeeping live there). A
        // node without one cannot host a fleet.
        if (ShardRouter* member = router ? router() : nullptr) {
          reply = member->handle_fabric_frame(request);
          break;
        }
        reply.type = net::FrameType::kError;
        reply.payload = "membership disabled";
        break;
      }
      default:
        reply.type = net::FrameType::kError;
        reply.payload = "unexpected frame type";
        break;
    }
    respond(std::move(reply));
  };
}

std::optional<std::vector<PeerAddress>> parse_peer_list(
    const std::string& text) {
  std::vector<PeerAddress> peers;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(start, comma - start);
    const std::size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      return std::nullopt;
    }
    PeerAddress peer;
    peer.host = entry.substr(0, colon);
    const std::string port_text = entry.substr(colon + 1);
    unsigned long port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    // Full consumption: "76o1" must be rejected, not parsed as 76.
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        port == 0 || port > 65535) {
      return std::nullopt;
    }
    peer.port = static_cast<std::uint16_t>(port);
    peers.push_back(std::move(peer));
    start = comma + 1;
  }
  return peers;
}

ShardRouter::AsyncOp::AsyncOp(ShardRouter& router) : router_(&router) {
  const std::lock_guard<std::mutex> lock(router_->async_mutex_);
  ++router_->async_ops_;
}

ShardRouter::AsyncOp::AsyncOp(AsyncOp&& other) noexcept
    : router_(std::exchange(other.router_, nullptr)) {}

ShardRouter::AsyncOp::~AsyncOp() {
  if (router_ == nullptr) return;
  // Decrement and notify under the lock: the destructor can only see
  // zero once this critical section has released the router's mutex,
  // so nothing here touches a destroyed router.
  const std::lock_guard<std::mutex> lock(router_->async_mutex_);
  if (--router_->async_ops_ == 0) router_->async_cv_.notify_all();
}

ShardRouter::ShardRouter(SolveService& service, RouterConfig config)
    : service_(service),
      telemetry_(service.telemetry()),
      config_(normalize(std::move(config))),
      membership_(config_.membership),
      replicas_(config_.replica, &telemetry_.metrics) {
  obs::Registry& metrics = telemetry_.metrics;
  const auto router_counter = [&metrics](const std::string& field) {
    return &metrics.counter("prts_router_" + field + "_total");
  };
  local_ = router_counter("local");
  forwarded_ = router_counter("forwarded");
  forward_hits_ = router_counter("forward_hits");
  forward_failures_ = router_counter("forward_failures");
  local_fallbacks_ = router_counter("local_fallbacks");
  deduplicated_ = router_counter("deduplicated");
  prefetched_ = router_counter("prefetched");
  gossip_sent_ = router_counter("gossip_sent");
  gossip_failures_ = router_counter("gossip_failures");
  gossip_received_ = router_counter("gossip_received");
  wire_hist_ = &metrics.histogram("router_wire_seconds");
  router_latency_hist_ = &metrics.histogram("router_request_latency_seconds");
  inflight_gauge_ = &metrics.gauge("router_inflight_forwards");
  prof_wire_ = &telemetry_.profiler.component("wire_round_trip");
  prof_replica_ = &telemetry_.profiler.component("replica_lookup");
  inflight_probe_ = obs::ProfiledMutex::make_probe(metrics, "router_inflight");
  mutex_.attach(&inflight_probe_);
  membership_probe_ = obs::ProfiledMutex::make_probe(metrics, "membership");
  membership_.attach_mutex_probe(&membership_probe_);
  const auto membership_counter = [&metrics](const std::string& field) {
    return &metrics.counter("prts_membership_" + field + "_total");
  };
  epoch_gauge_ = &metrics.gauge("prts_membership_epoch");
  members_gauge_ = &metrics.gauge("prts_membership_members");
  joins_ = membership_counter("joins");
  deaths_ = membership_counter("deaths");
  suspects_ = membership_counter("suspects");
  handoffs_started_ = membership_counter("handoffs_started");
  handoffs_completed_ = membership_counter("handoffs_completed");
  handoff_chunks_sent_ = membership_counter("handoff_chunks_sent");
  handoff_chunks_received_ = membership_counter("handoff_chunks_received");
  handoff_entries_sent_ = membership_counter("handoff_entries_sent");
  handoff_entries_received_ = membership_counter("handoff_entries_received");
  double_writes_ = membership_counter("double_writes");
  handoff_chunk_hist_ = &metrics.histogram("handoff_chunk_seconds");
  // Every listed rank at epoch 1 (the boot list), or a fleet of one;
  // the seed (when configured) merges us into the real fleet below, or
  // the heartbeat loop retries while alone.
  std::vector<Member> members;
  for (std::size_t r = 0; r < config_.peers.size(); ++r) {
    if (r != config_.rank) {
      members.push_back(
          Member{r, config_.peers[r].host, config_.peers[r].port});
    }
  }
  members.push_back(Member{config_.rank, config_.advertise.host,
                           config_.advertise.port});
  membership_.bootstrap(std::move(members));
  publish_membership_gauges();
  if (config_.join_seed) join_now();

  // The fabric timer: heartbeat rounds and gossip rounds, each when its
  // own interval has lapsed; it wakes at the shorter of the two.
  const double heartbeat_seconds = config_.heartbeat_interval_seconds;
  const double gossip_seconds = config_.gossip_interval_seconds;
  if (heartbeat_seconds <= 0.0 && gossip_seconds <= 0.0) return;
  const double interval_seconds =
      heartbeat_seconds <= 0.0 ? gossip_seconds
      : gossip_seconds <= 0.0  ? heartbeat_seconds
                               : std::min(heartbeat_seconds, gossip_seconds);
  if (heartbeat_seconds > 0.0) {
    membership_heartbeat_ =
        &telemetry_.watchdog.component("router_membership", heartbeat_seconds);
  }
  if (gossip_seconds > 0.0) {
    gossip_heartbeat_ =
        &telemetry_.watchdog.component("router_gossip", gossip_seconds);
  }
  gossip_thread_ = std::thread([this, interval_seconds, heartbeat_seconds,
                                gossip_seconds] {
    obs::name_this_thread("fabric-timer");
    const std::chrono::duration<double> interval(interval_seconds);
    Clock::time_point last_heartbeat = Clock::now();
    Clock::time_point last_gossip = last_heartbeat;
    std::unique_lock<std::mutex> lock(gossip_mutex_);
    while (!gossip_stop_) {
      if (gossip_cv_.wait_for(lock, interval,
                              [this] { return gossip_stop_; })) {
        break;
      }
      lock.unlock();
      if (heartbeat_seconds > 0.0 &&
          seconds_since(last_heartbeat, Clock::now()) >= heartbeat_seconds) {
        last_heartbeat = Clock::now();
        heartbeat_now();
        membership_heartbeat_->beat();
      }
      if (gossip_seconds > 0.0 &&
          seconds_since(last_gossip, Clock::now()) >= gossip_seconds) {
        last_gossip = Clock::now();
        gossip_now();
        gossip_heartbeat_->beat();
      }
      lock.lock();
    }
  });
}

ShardRouter::~ShardRouter() {
  {
    const std::lock_guard<std::mutex> lock(gossip_mutex_);
    gossip_stop_ = true;
  }
  gossip_cv_.notify_all();
  if (gossip_thread_.joinable()) gossip_thread_.join();
  // Shutting a client down answers every exchange still in flight on
  // it (nullopt: forwards fail over, streams abort) and joins its
  // threads; no client is created from here on.
  std::vector<std::unique_ptr<net::MuxFrameClient>> clients;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    closing_ = true;
    for (auto& [rank, client] : clients_) clients.push_back(std::move(client));
    for (auto& client : retired_clients_) clients.push_back(std::move(client));
    clients_.clear();
    retired_clients_.clear();
  }
  for (const auto& client : clients) client->shutdown();
  // What is left are failover solves on the local engine.
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_cv_.wait(lock, [this] { return async_ops_ == 0; });
}

net::MuxFrameClient* ShardRouter::client_for(
    std::size_t rank, const MembershipSnapshot& membership) {
  if (rank == config_.rank) return nullptr;
  const Member* const member = membership.find(rank);
  if (member == nullptr || member->port == 0) return nullptr;
  return client_at(rank, PeerAddress{member->host.empty() ? "127.0.0.1"
                                                          : member->host,
                                     member->port});
}

net::MuxFrameClient* ShardRouter::client_at(std::size_t rank,
                                            const PeerAddress& address) {
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    if (closing_) return nullptr;
    const auto it = clients_.find(rank);
    if (it != clients_.end()) {
      if (it->second->host() == address.host &&
          it->second->port() == address.port) {
        return it->second.get();
      }
      // The member restarted on a new address: retire (not destroy —
      // a callback in flight may still hold it) and rewire.
      retired_clients_.push_back(std::move(it->second));
      clients_.erase(it);
    }
  }
  // Per-peer counter families: suspect churn toward rank 2 must be
  // attributable to rank 2, not smeared across the fabric. A rewired
  // client re-registers the same family — the counters just continue.
  net::FrameClientConfig client_config = config_.client;
  client_config.metrics = &telemetry_.metrics;
  client_config.metrics_prefix = "net_client_rank" + std::to_string(rank) + "_";
  auto created = std::make_unique<net::MuxFrameClient>(
      address.host, address.port, std::move(client_config));
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  if (closing_) return nullptr;  // `created` has no traffic yet
  // emplace keeps the incumbent on a create race; the loser is simply
  // destroyed (it has no traffic yet).
  const auto [it, inserted] = clients_.emplace(rank, std::move(created));
  return it->second.get();
}

net::MuxFrameClient* ShardRouter::client_lookup(std::size_t rank) const {
  const std::lock_guard<std::mutex> lock(clients_mutex_);
  const auto it = clients_.find(rank);
  return it == clients_.end() ? nullptr : it->second.get();
}

std::future<SolveReply> ShardRouter::submit(SolveRequest request) {
  obs::hop_probe::touch();
  // One membership read routes the whole request.
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  if (membership->member_count() <= 1) {
    local_->add();
    return service_.submit(std::move(request));
  }

  // The local path's allocation bill starts here, canonicalization
  // included, as it does in SolveService::submit.
  const obs::AllocScope entry;
  std::shared_ptr<const CanonicalInstance> canonical =
      service_.canonical_form(request.instance);
  const CanonicalHash key =
      request_key(*canonical, request.solver, request.bounds);
  const std::size_t owner = membership->owner_of(key);
  net::MuxFrameClient* const owner_client =
      owner == config_.rank ? nullptr : client_for(owner, *membership);

  if (owner_client == nullptr) {
    if (owner == config_.rank) count_owned_hit(key);
    local_->add();
    // The canonical form was already computed to pick the shard; the
    // engine must not pay for it twice.
    return service_.submit_canonicalized(std::move(request),
                                         std::move(canonical), key, entry);
  }

  // Remote shard: the router owns this request's trace from here on.
  // Every submitter gets its OWN trace id (dedup twins included — each
  // waiter's latency story differs), minted before the replica probe so
  // locally-absorbed hits are traced too. The engine path above never
  // reaches this: submit_canonicalized mints there.
  const Clock::time_point arrival = Clock::now();
  const std::string label = trace_label(request.solver, key);
  if (request.trace_id == 0) {
    request.trace_id = telemetry_.tracer.start(label);
  } else {
    telemetry_.tracer.start_with_id(request.trace_id, label);
  }

  // Replica tier: a repeat hit on a peer's key that was forwarded (or
  // prefetched) before is answered here, with the same per-waiter label
  // translation a cache hit gets — no network round trip. The replica
  // tier counts the hit; the router takes no lock for it.
  if (replicas_.enabled()) {
    std::optional<obs::ScopedSample> replica_sample;
    if (telemetry_.profiler.enabled()) replica_sample.emplace();
    if (auto cached = replicas_.lookup(key)) {
      SolveReply reply;
      reply.key = key;
      reply.cache_hit = true;
      reply.solver_used = request.solver;
      if (cached->solution) {
        reply.status = ReplyStatus::kSolved;
        reply.solution = to_original_labels(*cached->solution, *canonical);
      } else {
        reply.status = ReplyStatus::kInfeasible;
      }
      const double elapsed = seconds_since(arrival, Clock::now());
      const obs::WorkSample work =
          replica_sample ? replica_sample->finish() : obs::WorkSample{};
      if (replica_sample) obs::Profiler::record(*prof_replica_, work);
      obs::Span span;
      span.name = "replica_lookup";
      span.rank = static_cast<int>(config_.rank);
      span.duration_seconds = elapsed;
      span.cpu_seconds = work.cpu_seconds < elapsed ? work.cpu_seconds
                                                    : elapsed;
      span.alloc_count = work.alloc_count;
      span.alloc_bytes = work.alloc_bytes;
      telemetry_.tracer.record(request.trace_id, std::move(span));
      telemetry_.tracer.finish(request.trace_id, elapsed);
      router_latency_hist_->record(elapsed);
      reply.trace_id = request.trace_id;
      return ready_reply_future(std::move(reply));
    }
  }

  std::unique_lock<obs::ProfiledMutex> lock(mutex_);

  // Router-level dedup: identical remote-shard requests already being
  // forwarded get a waiter on the same exchange.
  if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
    deduplicated_->add();
    it->second->waiters.push_back(
        ForwardWaiter{{}, canonical, request.deadline_seconds,
                      request.deadline_policy, true, request.trace_id,
                      arrival});
    return it->second->waiters.back().promise.get_future();
  }

  auto forward = std::make_shared<Forward>();
  forward->canonical = canonical;
  forward->bounds = request.bounds;
  forward->solver = request.solver;
  forward->deadline_seconds = request.deadline_seconds;
  forward->deadline_policy = request.deadline_policy;
  forward->key = key;
  forward->owner = owner;
  forward->submitted = arrival;
  forward->trace_id = request.trace_id;
  forward->waiters.push_back(ForwardWaiter{{}, canonical,
                                           request.deadline_seconds,
                                           request.deadline_policy, false,
                                           request.trace_id, arrival});
  std::future<SolveReply> future =
      forward->waiters.back().promise.get_future();
  in_flight_.emplace(key, forward.get());
  inflight_gauge_->set(static_cast<double>(in_flight_.size()));
  if (forwards_on_wire_ == kMaxForwardsOnWire) {
    waiting_forwards_.push_back(std::move(forward));
    return future;
  }
  ++forwards_on_wire_;
  lock.unlock();
  forward->client = owner_client;

  launch(std::move(forward));
  return future;
}

void ShardRouter::launch(std::shared_ptr<Forward> forward) {
  thread_local std::vector<std::shared_ptr<Forward>>* successors = nullptr;
  if (successors != nullptr) {
    successors->push_back(std::move(forward));
    return;
  }
  std::vector<std::shared_ptr<Forward>> queue;
  successors = &queue;
  send_forward(std::move(forward));
  while (!queue.empty()) {
    std::shared_ptr<Forward> next = std::move(queue.back());
    queue.pop_back();
    send_forward(std::move(next));
  }
  successors = nullptr;
}

void ShardRouter::send_forward(std::shared_ptr<Forward> forward) {
  net::MuxFrameClient* client = forward->client;
  if (client == nullptr) {
    // It waited for a slot: the owner's address is read now, as it
    // stands. A vanished owner fails over like an unreachable one.
    client = client_for(forward->owner, *membership_.snapshot());
    if (client == nullptr) {
      finish_forward(*forward, std::nullopt, Clock::now());
      return;
    }
  }
  // The forwarded request carries the *canonical* instance, so the
  // owner's reply is already in canonical labels — each waiter then
  // translates into its own processor labels, exactly like the local
  // engine does for deduplicated twins.
  SolveRequest remote_request{forward->canonical->instance, forward->solver,
                              forward->bounds, forward->deadline_seconds,
                              forward->deadline_policy};
  // The first submitter's trace id rides on the wire; the owner records
  // its engine spans under it and ships them back in the reply.
  remote_request.trace_id = forward->trace_id;
  net::Frame frame;
  frame.type = net::FrameType::kSolveRequest;
  frame.payload = encode_wire_request(remote_request);
  const Clock::time_point wire_start = Clock::now();
  // A mux deadline or a dead connection calls back with nullopt, and
  // the forward fails over from there. Time spent waiting for a slot
  // counts against the deadline; one that ran out while waiting fails
  // over without being sent.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  if (config_.client.reply_timeout_seconds > 0.0) {
    deadline_seconds = config_.client.reply_timeout_seconds -
                       seconds_since(forward->submitted, wire_start);
    if (deadline_seconds <= 0.0) {
      finish_forward(*forward, std::nullopt, wire_start);
      return;
    }
  }
  client->call_async(
      std::move(frame), deadline_seconds,
      [this, forward = std::move(forward), wire_start, op = AsyncOp(*this)](
          std::optional<net::Frame> reply) {
        finish_forward(*forward, std::move(reply), wire_start);
      });
}

void ShardRouter::finish_forward(Forward& forward,
                                 std::optional<net::Frame> reply_frame,
                                 Clock::time_point wire_start) {
  const double wire_seconds = seconds_since(wire_start, Clock::now());
  // The wire exchange held no thread of this rank: its sample is
  // blocked time by construction, plus the reply decode's own cost.
  std::optional<obs::ScopedSample> decode_sample;
  if (telemetry_.profiler.enabled()) decode_sample.emplace();
  std::optional<SolveReply> remote;
  if (reply_frame && reply_frame->type == net::FrameType::kSolveReply) {
    std::string error;
    remote = decode_wire_reply(reply_frame->payload, error);
  }
  obs::WorkSample wire_work =
      decode_sample ? decode_sample->finish() : obs::WorkSample{};
  wire_work.wall_seconds += wire_seconds;
  if (decode_sample) obs::Profiler::record(*prof_wire_, wire_work);
  wire_hist_->record(wire_seconds);

  // A remote answer is only authoritative when the owner actually
  // answered the question; rejections and errors degrade to a local
  // solve just like an unreachable peer.
  const bool answered =
      remote && (remote->status == ReplyStatus::kSolved ||
                 remote->status == ReplyStatus::kInfeasible);

  if (answered && replicas_.enabled()) {
    // Replicate: the next repeat hit on this key is served locally
    // until the TTL lapses (the entry is immutable, so the copy can
    // never go stale — only old). The recorded solve cost rides along
    // so the adaptive TTL can keep expensive answers longer.
    replicas_.insert(forward.key,
                     CachedSolution{remote->solution, remote->cost_seconds});
  }
  std::vector<ForwardWaiter> waiters;
  std::shared_ptr<Forward> next;  // takes the freed slot on the wire
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    in_flight_.erase(forward.key);
    inflight_gauge_->set(static_cast<double>(in_flight_.size()));
    waiters = std::move(forward.waiters);
    if (waiting_forwards_.empty()) {
      --forwards_on_wire_;
    } else {
      next = std::move(waiting_forwards_.front());
      waiting_forwards_.pop_front();
    }
  }
  if (next) launch(std::move(next));

  if (answered) {
    forwarded_->add();
    if (remote->cache_hit) forward_hits_->add();
    const Clock::time_point finished_at = Clock::now();
    for (ForwardWaiter& waiter : waiters) {
      SolveReply reply;
      reply.status = remote->status;
      reply.cache_hit = remote->cache_hit;
      reply.near_miss = remote->near_miss;
      reply.downgraded = remote->downgraded;
      reply.deduplicated = waiter.deduplicated;
      reply.solver_used = remote->solver_used;
      reply.cost_seconds = remote->cost_seconds;
      reply.key = forward.key;
      if (remote->solution) {
        reply.solution =
            to_original_labels(*remote->solution, *waiter.canonical);
      }
      // Each waiter's spans are offsets from ITS submit point. The
      // owner's spans came back as offsets from the owner's submit
      // point; shifting them by this waiter's wire-start offset lines
      // the two ranks' work up on one timeline (clock skew between
      // ranks is absorbed — only the origin's clock is used for
      // placement).
      const double wire_offset = seconds_since(waiter.submitted, wire_start);
      obs::Span wire_span;
      wire_span.name = "wire_round_trip";
      wire_span.rank = static_cast<int>(config_.rank);
      wire_span.start_seconds = wire_offset;
      wire_span.duration_seconds = wire_seconds;
      wire_span.cpu_seconds = wire_work.cpu_seconds < wire_seconds
                                  ? wire_work.cpu_seconds
                                  : wire_seconds;
      wire_span.alloc_count = wire_work.alloc_count;
      wire_span.alloc_bytes = wire_work.alloc_bytes;
      telemetry_.tracer.record(waiter.trace_id, std::move(wire_span));
      for (const obs::Span& span : remote->remote_spans) {
        obs::Span shifted = span;
        shifted.start_seconds += wire_offset;
        telemetry_.tracer.record(waiter.trace_id, std::move(shifted));
      }
      const double total = seconds_since(waiter.submitted, finished_at);
      telemetry_.tracer.finish(waiter.trace_id, total);
      router_latency_hist_->record(total);
      reply.trace_id = waiter.trace_id;
      waiter.promise.set_value(std::move(reply));
    }
    return;
  }

  // Failover: solve locally, exactly once. Every waiter is re-submitted
  // with its *own* deadline options (a patient twin must not be
  // rejected on an impatient stranger's policy — the engine handles
  // mixed policies per waiter); the engine's in-flight dedup and cache
  // collapse the N submissions into a single solve. The degraded
  // request *is* the canonical instance (canonicalization is
  // idempotent), so every engine reply speaks canonical labels and the
  // local cache fills under the same key a recovered owner would use.
  forward_failures_->add();
  local_fallbacks_->add();
  // One canonicalization for all waiters: the canonical instance is a
  // fixed point, so its own canonical form is the identity translation
  // under the same key, and replies come back in canonical labels.
  auto identity = std::make_shared<const CanonicalInstance>(
      canonicalize(forward.canonical->instance));
  const Clock::time_point failover_at = Clock::now();
  for (ForwardWaiter& waiter : waiters) {
    // Charge the dead wire exchange against the waiter's budget: the
    // rescue solve gets what REMAINS of the deadline, not a fresh full
    // grant. Floored at zero so an already-expired waiter hits the
    // engine's downgrade/reject policy immediately instead of burning
    // a worker on an answer nobody is waiting for.
    double remaining_seconds = waiter.deadline_seconds;
    if (std::isfinite(remaining_seconds)) {
      remaining_seconds -= seconds_since(waiter.submitted, failover_at);
      if (remaining_seconds < 0.0) remaining_seconds = 0.0;
    }
    SolveRequest local_request{forward.canonical->instance, forward.solver,
                               forward.bounds, remaining_seconds,
                               waiter.deadline_policy};
    // The waiter's own trace follows it onto the failover path: the
    // engine adopts the id, so the trace shows the dead wire exchange
    // AND the local rescue solve — the whole story of the request.
    local_request.trace_id = waiter.trace_id;
    telemetry_.tracer.record(waiter.trace_id, "forward_failover",
                             static_cast<int>(config_.rank),
                             seconds_since(waiter.submitted, wire_start),
                             wire_seconds);
    service_.submit_canonicalized(
        std::move(local_request), identity, forward.key,
        [this, waiter = std::move(waiter), op = AsyncOp(*this)](
            SolveReply reply) mutable {
          reply.deduplicated = waiter.deduplicated;
          if (reply.solution) {
            reply.solution =
                to_original_labels(*reply.solution, *waiter.canonical);
          }
          // The engine finished the trace with only the rescue-solve
          // span's clock; re-finish with the full router-side total
          // (finish keeps the max) and feed the router latency
          // histogram — failover requests must not vanish from the
          // tail.
          const double total = seconds_since(waiter.submitted, Clock::now());
          telemetry_.tracer.finish(waiter.trace_id, total);
          router_latency_hist_->record(total);
          waiter.promise.set_value(std::move(reply));
        });
  }
}

void ShardRouter::note_served(const CanonicalHash& key) {
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  const std::size_t owner = membership->owner_of(key);
  if (owner == config_.rank) {
    if (membership->member_count() > 1) count_owned_hit(key);
    return;
  }
  double_write(key, owner, *membership);
}

void ShardRouter::count_owned_hit(const CanonicalHash& key) {
  const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
  if (const auto it = owned_hits_.find(key); it != owned_hits_.end()) {
    ++it->second;
    return;
  }
  // Bounded tracking window: only gossip_now() clears the map, which a
  // node with gossip disabled never runs — a long uptime over millions
  // of distinct keys must not grow it without limit. Hot keys recur, so
  // dropping first-seen keys past the cap loses nothing a digest (top-K
  // of it) would have kept.
  if (owned_hits_.size() >= kMaxTrackedHotKeys) return;
  owned_hits_.emplace(key, 1);
}

void ShardRouter::gossip_now() {
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  if (membership->member_count() <= 1) return;
  std::vector<GossipDigest::Entry> hot;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    hot.reserve(owned_hits_.size());
    for (const auto& [key, count] : owned_hits_) {
      if (count >= config_.gossip_min_hits) {
        hot.push_back(GossipDigest::Entry{key, count});
      }
    }
    owned_hits_.clear();
  }
  // Only announce keys a peer could actually fetch right now.
  hot.erase(std::remove_if(hot.begin(), hot.end(),
                           [this](const GossipDigest::Entry& entry) {
                             return !service_.cache().contains(entry.key);
                           }),
            hot.end());
  std::sort(hot.begin(), hot.end(),
            [](const GossipDigest::Entry& a, const GossipDigest::Entry& b) {
              return a.hits > b.hits;
            });
  if (hot.size() > config_.gossip_top_k) hot.resize(config_.gossip_top_k);
  if (hot.empty()) return;

  GossipDigest digest;
  digest.rank = config_.rank;
  digest.entries = std::move(hot);
  net::Frame frame;
  frame.type = net::FrameType::kGossipDigest;
  frame.payload = encode_gossip_digest(digest);
  // The caller (the fabric timer, or a test) waits for each ack: a
  // round's counters are final when it returns.
  for (const Member& member : membership->view.members) {
    net::MuxFrameClient* const client = client_for(member.rank, *membership);
    if (client == nullptr) continue;
    const auto ack = client->call(frame);
    const bool acked = ack && ack->type == net::FrameType::kPong;
    (acked ? gossip_sent_ : gossip_failures_)->add();
  }
}

void ShardRouter::handle_gossip_digest(GossipDigest digest) {
  gossip_received_->add();
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  // Only the sender's own keys are prefetchable from the sender; a
  // digest naming an unknown rank (or this one) is ignored.
  if (digest.rank == config_.rank || membership->find(digest.rank) == nullptr ||
      !replicas_.enabled()) {
    return;
  }
  std::sort(digest.entries.begin(), digest.entries.end(),
            [](const GossipDigest::Entry& a, const GossipDigest::Entry& b) {
              return a.hits > b.hits;
            });
  std::vector<CanonicalHash> wanted;
  for (const GossipDigest::Entry& entry : digest.entries) {
    if (wanted.size() >= config_.gossip_top_k) break;
    if (membership->owner_of(entry.key) != digest.rank) continue;
    if (replicas_.contains(entry.key)) continue;
    wanted.push_back(entry.key);
  }
  if (wanted.empty()) return;

  // Prefetch asynchronously: this runs on the FrameServer's connection
  // reader, which must go back to reading.
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    ++outstanding_prefetches_;
  }
  net::MuxFrameClient* const client = client_for(digest.rank, *membership);
  if (client == nullptr) {
    finish_prefetch(0);
    return;
  }
  net::Frame frame;
  frame.type = net::FrameType::kReplicaFetch;
  frame.payload = encode_replica_fetch(wanted);
  client->call_async(
      std::move(frame),
      [this, keys = std::move(wanted), op = AsyncOp(*this)](
          std::optional<net::Frame> reply) {
        std::size_t fetched = 0;
        std::string error;
        if (reply && reply->type == net::FrameType::kReplicaFetchReply) {
          if (auto entries = decode_replica_entries(reply->payload, error)) {
            for (auto& [key, value] : *entries) {
              // Accept only keys this fetch asked for (and hence
              // validated as owned by the sender) — a confused peer
              // must not plant foreign entries in the replica tier.
              if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
                continue;
              }
              replicas_.insert(key, std::move(value));
              ++fetched;
            }
          }
        }
        finish_prefetch(fetched);
      });
}

void ShardRouter::finish_prefetch(std::size_t fetched) {
  prefetched_->add(fetched);
  const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
  --outstanding_prefetches_;
  prefetch_cv_.notify_all();
}

void ShardRouter::wait_prefetches_idle() {
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  prefetch_cv_.wait(lock, [this] { return outstanding_prefetches_ == 0; });
}

bool ShardRouter::peer_suspect(std::size_t rank) const {
  net::MuxFrameClient* const client = client_lookup(rank);
  return client != nullptr && client->suspect();
}

// --- Membership -----------------------------------------------------------

std::uint64_t ShardRouter::epoch() const { return membership_.epoch(); }

MembershipView ShardRouter::membership_view() const {
  return membership_.view();
}

MembershipStats ShardRouter::membership_stats() const {
  MembershipStats out;
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  out.epoch = membership->view.epoch;
  out.members = membership->member_count();
  out.joins = joins_->value();
  out.deaths = deaths_->value();
  out.suspects = suspects_->value();
  out.handoffs_started = handoffs_started_->value();
  out.handoffs_completed = handoffs_completed_->value();
  out.handoff_chunks_sent = handoff_chunks_sent_->value();
  out.handoff_chunks_received = handoff_chunks_received_->value();
  out.handoff_entries_sent = handoff_entries_sent_->value();
  out.handoff_entries_received = handoff_entries_received_->value();
  out.double_writes = double_writes_->value();
  return out;
}

bool ShardRouter::join_now() {
  return config_.join_seed && join_via(*config_.join_seed);
}

namespace {

/// A kJoinRequest announcing this rank at its advertised address.
net::Frame join_frame(const RouterConfig& config) {
  Member self;
  self.rank = config.rank;
  self.host = config.advertise.host;
  self.port = config.advertise.port;
  net::Frame frame;
  frame.type = net::FrameType::kJoinRequest;
  frame.payload = encode_join_request(self);
  return frame;
}

}  // namespace

bool ShardRouter::join_via(const PeerAddress& address) {
  // A transient client: the join is a one-shot exchange with whatever
  // address the operator named, not necessarily a future peer — no
  // counter family, no persistent connection. Its callers (the
  // constructor, the timer while the rank is alone) may block.
  net::FrameClientConfig seed_config = config_.client;
  seed_config.metrics = nullptr;
  net::MuxFrameClient seed(address.host, address.port,
                           std::move(seed_config));
  const auto reply = seed.call(join_frame(config_));
  return reply && adopt_view(*reply) && membership_.member_count() > 1;
}

bool ShardRouter::adopt_view(const net::Frame& reply) {
  if (reply.type != net::FrameType::kMembershipUpdate) return false;
  std::string error;
  const auto update = decode_membership_update(reply.payload, error);
  if (!update) return false;
  const auto changes = membership_.handle_update(update->view);
  membership_.note_heard_from(update->from);
  apply_membership_changes(changes);
  return true;
}

void ShardRouter::heartbeat_now() {
  // A rank still alone keeps dialing its seed — an unreachable seed at
  // startup (rolling restart, slow peer) must not strand the rank
  // outside the fleet forever.
  if (membership_.member_count() <= 1 && config_.join_seed) join_now();

  const auto ticked = membership_.tick();
  if (!ticked.suspected.empty() || !ticked.died.empty()) {
    suspects_->add(ticked.suspected.size());
    deaths_->add(ticked.died.size());
    {
      // A dead rank's handoff dedup is forgotten: if it rejoins later
      // (new epoch) it deserves a fresh stream.
      const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
      for (const std::size_t rank : ticked.died) {
        handoff_epochs_.erase(rank);
      }
    }
    publish_membership_gauges();
  }

  // The boot list doubles as a seed list: a listed rank missing from
  // the view (it, or this rank, was cut off past dead_after) is dialled
  // with a join every round, so a healed partition or a resumed process
  // merges the two sides again without a restart.
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  for (std::size_t r = 0; r < config_.peers.size(); ++r) {
    if (r == config_.rank || membership->find(r) != nullptr) continue;
    exchange_views(r, config_.peers[r], join_frame(config_));
  }

  // One view exchange per live peer.
  MembershipUpdate update;
  update.from = config_.rank;
  update.view = membership->view;
  net::Frame frame;
  frame.type = net::FrameType::kMembershipUpdate;
  frame.payload = encode_membership_update(update);
  for (const Member& member : membership->view.members) {
    if (member.rank == config_.rank || member.port == 0) continue;
    exchange_views(member.rank,
                   PeerAddress{member.host.empty() ? "127.0.0.1"
                                                   : member.host,
                               member.port},
                   frame);
  }
}

void ShardRouter::exchange_views(std::size_t rank, const PeerAddress& address,
                                 net::Frame frame) {
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    if (!heartbeats_in_flight_.insert(rank).second) return;
  }
  const auto done = [this, rank] {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    heartbeats_in_flight_.erase(rank);
  };
  net::MuxFrameClient* const client = client_at(rank, address);
  if (client == nullptr) {
    done();
    return;
  }
  client->call_async(std::move(frame),
                     [this, done, op = AsyncOp(*this)](
                         std::optional<net::Frame> reply) {
                       if (reply) adopt_view(*reply);
                       done();
                     });
}

void ShardRouter::apply_membership_changes(
    const Membership::ChangeSet& changes) {
  if (!changes.changed) return;
  publish_membership_gauges();
  if (!changes.joined.empty() || !changes.left.empty()) {
    for (const Member& member : changes.joined) {
      if (member.rank != config_.rank) joins_->add();
    }
    // Members a higher-epoch view dropped were detected dead by a peer;
    // count them here too so every rank's death counter moves.
    deaths_->add(changes.left.size());
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    for (const std::size_t rank : changes.left) {
      handoff_epochs_.erase(rank);
    }
  }
  for (const Member& member : changes.joined) {
    if (member.rank == config_.rank) continue;
    // Stream the newcomer the slice the ring just assigned it; its
    // client is wired (or rewired, on an address change) on the way.
    schedule_handoff(member);
  }
}

/// One slice streaming to one member: begin, bounded chunks, done, each
/// frame sent from the previous one's ack callback.
struct ShardRouter::Handoff {
  Member target;
  HandoffStamp stamp;
  std::vector<CanonicalHash> slice;
  std::size_t offset = 0;  ///< next slice index to send
  std::size_t sent_entries = 0;
  bool begun = false;      ///< kHandoffBegin acknowledged
  Clock::time_point chunk_start{};
};

void ShardRouter::schedule_handoff(const Member& target) {
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  const std::uint64_t epoch = membership->view.epoch;
  {
    const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
    // Equal-epoch updates naming the same joiner arrive from several
    // peers; one stream per (target, epoch) is enough.
    auto& last = handoff_epochs_[target.rank];
    if (last >= epoch) return;
    last = epoch;
    ++outstanding_handoffs_;
  }
  handoffs_started_->add();
  // The slice: every owned entry the ring now assigns to the newcomer.
  // keys() is a point-in-time snapshot; entries answered during the
  // stream are covered by the double-write path, entries evicted before
  // their chunk simply drop out (peek misses are skipped).
  auto handoff = std::make_shared<Handoff>();
  handoff->target = target;
  for (const CanonicalHash& key : service_.cache().keys()) {
    if (membership->owner_of(key) == target.rank) {
      handoff->slice.push_back(key);
    }
  }
  if (handoff->slice.empty()) {
    finish_handoff(true);
    return;
  }
  handoff->stamp.epoch = epoch;
  handoff->stamp.from = config_.rank;
  handoff->stamp.entries = handoff->slice.size();
  continue_handoff(std::move(handoff));
}

void ShardRouter::continue_handoff(std::shared_ptr<Handoff> handoff) {
  net::MuxFrameClient* const client =
      client_at(handoff->target.rank,
                PeerAddress{handoff->target.host.empty()
                                ? "127.0.0.1"
                                : handoff->target.host,
                            handoff->target.port});
  if (client == nullptr || handoff->target.port == 0) {
    finish_handoff(false);
    return;
  }
  net::Frame frame;
  std::size_t entries = 0;
  if (!handoff->begun) {
    frame.type = net::FrameType::kHandoffBegin;
    frame.payload = encode_handoff_stamp(handoff->stamp);
  } else {
    // Bounded chunks: each frame carries at most handoff_chunk_entries
    // entries, so neither the frame size nor the receiver's cache hold
    // time grows with the slice.
    const std::size_t per_chunk =
        std::max<std::size_t>(1, config_.handoff_chunk_entries);
    HandoffChunk chunk;
    chunk.epoch = handoff->stamp.epoch;
    chunk.from = config_.rank;
    while (chunk.entries.empty() && handoff->offset < handoff->slice.size()) {
      const std::size_t end =
          std::min(handoff->slice.size(), handoff->offset + per_chunk);
      for (; handoff->offset < end; ++handoff->offset) {
        const CanonicalHash& key = handoff->slice[handoff->offset];
        if (auto value = service_.cache().peek(key)) {
          chunk.entries.emplace_back(key, std::move(*value));
        }
      }
    }
    entries = chunk.entries.size();
    if (entries == 0) {
      // Streamed to the end. The done stamp is best-effort: the chunks
      // already landed.
      handoff->stamp.entries = handoff->sent_entries;
      frame.type = net::FrameType::kHandoffDone;
      frame.payload = encode_handoff_stamp(handoff->stamp);
      client->call_async(std::move(frame),
                         [this, op = AsyncOp(*this)](std::optional<net::Frame>) {
                           finish_handoff(true);
                         });
      return;
    }
    frame.type = net::FrameType::kHandoffChunk;
    frame.payload = encode_handoff_chunk(chunk);
  }
  handoff->chunk_start = Clock::now();
  client->call_async(
      std::move(frame),
      [this, handoff, entries, op = AsyncOp(*this)](
          std::optional<net::Frame> ack) mutable {
        if (handoff->begun) {
          handoff_chunk_hist_->record(
              seconds_since(handoff->chunk_start, Clock::now()));
        }
        if (!ack || ack->type != net::FrameType::kPong) {
          finish_handoff(false);
          return;
        }
        if (handoff->begun) {
          handoff_chunks_sent_->add();
          handoff_entries_sent_->add(entries);
          handoff->sent_entries += entries;
        }
        handoff->begun = true;
        continue_handoff(std::move(handoff));
      });
}

void ShardRouter::finish_handoff(bool completed) {
  if (completed) handoffs_completed_->add();
  const std::lock_guard<obs::ProfiledMutex> lock(mutex_);
  --outstanding_handoffs_;
  prefetch_cv_.notify_all();
}

void ShardRouter::wait_handoffs_idle() {
  std::unique_lock<obs::ProfiledMutex> lock(mutex_);
  prefetch_cv_.wait(lock, [this] { return outstanding_handoffs_ == 0; });
}

void ShardRouter::double_write(const CanonicalHash& key, std::size_t owner,
                               const MembershipSnapshot& membership) {
  // The transition-window write path: this rank just answered a key the
  // ring assigns elsewhere (the requester dialed the old owner, or the
  // bulk stream has not reached this entry yet). Copy the answer over
  // asynchronously — the reply to the requester does not wait on it.
  auto value = service_.cache().peek(key);
  if (!value) return;  // evicted already; the new owner will re-solve
  net::MuxFrameClient* const client = client_for(owner, membership);
  if (client == nullptr) return;
  HandoffChunk chunk;
  chunk.epoch = membership.view.epoch;
  chunk.from = config_.rank;
  chunk.entries.emplace_back(key, std::move(*value));
  net::Frame frame;
  frame.type = net::FrameType::kHandoffChunk;
  frame.payload = encode_handoff_chunk(chunk);
  client->call_async(std::move(frame), [this, op = AsyncOp(*this)](
                                           std::optional<net::Frame> ack) {
    if (ack && ack->type == net::FrameType::kPong) double_writes_->add();
  });
}

net::Frame ShardRouter::handle_fabric_frame(const net::Frame& request) {
  switch (request.type) {
    case net::FrameType::kJoinRequest:
      return handle_join_frame(request);
    case net::FrameType::kMembershipUpdate:
      return handle_membership_frame(request);
    case net::FrameType::kHandoffBegin:
    case net::FrameType::kHandoffChunk:
    case net::FrameType::kHandoffDone:
      return handle_handoff_frame(request);
    default: {
      net::Frame reply;
      reply.type = net::FrameType::kError;
      reply.payload = "unexpected membership frame";
      return reply;
    }
  }
}

net::Frame ShardRouter::handle_join_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  const auto member = decode_join_request(request.payload, error);
  if (!member) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad join request: " + error;
    return reply;
  }
  apply_membership_changes(membership_.handle_join(*member));
  // The reply carries the merged view: the joiner adopts it (higher
  // epoch) and learns the whole fleet from this one exchange.
  MembershipUpdate update;
  update.from = config_.rank;
  update.view = membership_.view();
  reply.type = net::FrameType::kMembershipUpdate;
  reply.payload = encode_membership_update(update);
  return reply;
}

net::Frame ShardRouter::handle_membership_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  const auto update = decode_membership_update(request.payload, error);
  if (!update) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad membership update: " + error;
    return reply;
  }
  const auto changes = membership_.handle_update(update->view);
  membership_.note_heard_from(update->from);
  apply_membership_changes(changes);
  // Answer with our (possibly newer) view — a stale sender catches up
  // on the same exchange.
  MembershipUpdate ours;
  ours.from = config_.rank;
  ours.view = membership_.view();
  reply.type = net::FrameType::kMembershipUpdate;
  reply.payload = encode_membership_update(ours);
  return reply;
}

net::Frame ShardRouter::handle_handoff_frame(const net::Frame& request) {
  net::Frame reply;
  std::string error;
  if (request.type == net::FrameType::kHandoffChunk) {
    auto chunk = decode_handoff_chunk(request.payload, error);
    if (!chunk) {
      reply.type = net::FrameType::kError;
      reply.payload = "bad handoff chunk: " + error;
      return reply;
    }
    membership_.note_heard_from(chunk->from);
    const std::size_t count = chunk->entries.size();
    for (auto& [key, value] : chunk->entries) {
      // Entries are immutable under their canonical key, so inserting
      // a chunk replayed by a retrying sender is harmless.
      service_.cache().insert(key, std::move(value));
    }
    handoff_chunks_received_->add();
    handoff_entries_received_->add(count);
    reply.type = net::FrameType::kPong;
    return reply;
  }
  // kHandoffBegin / kHandoffDone: bookkeeping stamps — ack and refresh
  // the sender's heartbeat (a rank mid-stream is certainly alive).
  const auto stamp = decode_handoff_stamp(request.payload, error);
  if (!stamp) {
    reply.type = net::FrameType::kError;
    reply.payload = "bad handoff stamp: " + error;
    return reply;
  }
  membership_.note_heard_from(stamp->from);
  reply.type = net::FrameType::kPong;
  return reply;
}

void ShardRouter::publish_membership_gauges() {
  const std::lock_guard<std::mutex> lock(membership_gauges_mutex_);
  const std::shared_ptr<const MembershipSnapshot> membership =
      membership_.snapshot();
  epoch_gauge_->set(static_cast<double>(membership->view.epoch));
  members_gauge_->set(static_cast<double>(membership->member_count()));
}

RouterStats ShardRouter::stats() const {
  RouterStats stats;
  stats.local = local_->value();
  stats.forwarded = forwarded_->value();
  stats.forward_hits = forward_hits_->value();
  stats.forward_failures = forward_failures_->value();
  stats.local_fallbacks = local_fallbacks_->value();
  stats.deduplicated = deduplicated_->value();
  stats.replica_hits = replicas_.stats().hits;
  stats.prefetched = prefetched_->value();
  stats.gossip_sent = gossip_sent_->value();
  stats.gossip_failures = gossip_failures_->value();
  stats.gossip_received = gossip_received_->value();
  return stats;
}

std::vector<std::pair<std::size_t, net::FrameClientStats>>
ShardRouter::client_stats() const {
  std::vector<std::pair<std::size_t, net::FrameClientStats>> out;
  {
    const std::lock_guard<std::mutex> lock(clients_mutex_);
    out.reserve(clients_.size());
    for (const auto& [rank, client] : clients_) {
      out.emplace_back(rank, client->stats());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ShardRouter::write_stats_json(std::ostream& out,
                                   const RouterStats& stats) {
  out << "{\"local\":" << stats.local
      << ",\"forwarded\":" << stats.forwarded
      << ",\"forward_hits\":" << stats.forward_hits
      << ",\"forward_failures\":" << stats.forward_failures
      << ",\"local_fallbacks\":" << stats.local_fallbacks
      << ",\"deduplicated\":" << stats.deduplicated
      << ",\"replica_hits\":" << stats.replica_hits
      << ",\"prefetched\":" << stats.prefetched
      << ",\"gossip_sent\":" << stats.gossip_sent
      << ",\"gossip_failures\":" << stats.gossip_failures
      << ",\"gossip_received\":" << stats.gossip_received << "}";
}

void ShardRouter::write_membership_stats_json(std::ostream& out,
                                              const MembershipStats& stats) {
  out << "{\"epoch\":" << stats.epoch
      << ",\"members\":" << stats.members
      << ",\"joins\":" << stats.joins
      << ",\"deaths\":" << stats.deaths
      << ",\"suspects\":" << stats.suspects
      << ",\"handoffs_started\":" << stats.handoffs_started
      << ",\"handoffs_completed\":" << stats.handoffs_completed
      << ",\"handoff_chunks_sent\":" << stats.handoff_chunks_sent
      << ",\"handoff_chunks_received\":" << stats.handoff_chunks_received
      << ",\"handoff_entries_sent\":" << stats.handoff_entries_sent
      << ",\"handoff_entries_received\":" << stats.handoff_entries_received
      << ",\"double_writes\":" << stats.double_writes << "}";
}

}  // namespace prts::service
