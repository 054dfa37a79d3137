#include "service/membership.hpp"

#include <algorithm>

namespace prts::service {
namespace {

std::chrono::steady_clock::duration seconds_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

Membership::Membership(Config config) : config_(config) {
  if (config_.dead_after_seconds < config_.suspect_after_seconds) {
    config_.dead_after_seconds = config_.suspect_after_seconds;
  }
}

void Membership::bootstrap(std::vector<Member> members, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  for (Member& member : members) {
    Entry entry;
    entry.member = std::move(member);
    entry.last_heard = now;
    entries_[entry.member.rank] = std::move(entry);
  }
  if (entries_.find(config_.self_rank) == entries_.end()) {
    Entry self;
    self.member.rank = config_.self_rank;
    self.last_heard = now;
    entries_[config_.self_rank] = std::move(self);
  }
  epoch_ = 1;
  rebuild_ring_locked();
}

MembershipView Membership::view() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MembershipView view;
  view.epoch = epoch_;
  view.members = members_locked();
  return view;
}

std::uint64_t Membership::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::size_t Membership::member_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

bool Membership::contains(std::size_t rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(rank) != entries_.end();
}

std::optional<Member> Membership::member(std::size_t rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(rank);
  if (it == entries_.end()) return std::nullopt;
  return it->second.member;
}

bool Membership::is_suspect(std::size_t rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(rank);
  return it != entries_.end() && it->second.suspect;
}

std::size_t Membership::owner_of(const CanonicalHash& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return config_.self_rank;
  return ring_.owner_of(key);
}

Membership::ChangeSet Membership::handle_join(const Member& member,
                                              Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  ChangeSet changes;
  // A join claiming OUR rank is an operator error (duplicate --rank in
  // the fleet). We are authoritative for our own record: ignore it —
  // the reply view carries the real owner back to the confused joiner.
  if (member.rank == config_.self_rank) return changes;
  auto it = entries_.find(member.rank);
  if (it != entries_.end()) {
    it->second.last_heard = now;
    it->second.suspect = false;
    if (it->second.member == member) return changes;  // re-announce, no change
    // Same rank, new address: a restarted process. Its caches start
    // over (or warm from a checkpoint), so treat it as a fresh joiner —
    // re-triggering handoff is safe, entries are immutable.
    it->second.member = member;
  } else {
    Entry entry;
    entry.member = member;
    entry.last_heard = now;
    entries_[member.rank] = std::move(entry);
  }
  epoch_ += 1;
  rebuild_ring_locked();
  changes.joined.push_back(member);
  changes.changed = true;
  return changes;
}

Membership::ChangeSet Membership::handle_update(const MembershipView& incoming,
                                                Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  ChangeSet changes;
  if (incoming.epoch < epoch_) return changes;  // stale; reply re-educates

  if (incoming.epoch == epoch_) {
    // Equal epochs merge by union: two ranks that each admitted a
    // different joiner at the same epoch converge without either
    // needing to win a bump race.
    for (const Member& member : incoming.members) {
      auto it = entries_.find(member.rank);
      if (it != entries_.end()) continue;
      Entry entry;
      entry.member = member;
      entry.last_heard = now;
      entries_[member.rank] = std::move(entry);
      changes.joined.push_back(member);
      changes.changed = true;
    }
    if (changes.changed) rebuild_ring_locked();
    return changes;
  }

  // Higher epoch: adopt wholesale. Keep heartbeat state for members we
  // already knew; newcomers start their silence clock now. Our OWN
  // record is the one exception: we are authoritative for our address,
  // so a view mis-stating it (a duplicate-rank joiner slipped in
  // somewhere) never overwrites it.
  std::unordered_map<std::size_t, Entry> next;
  for (const Member& member : incoming.members) {
    Entry entry;
    const auto it = entries_.find(member.rank);
    if (it != entries_.end()) {
      entry = it->second;
      if (member.rank != config_.self_rank) {
        entry.member = member;  // address may have changed (restart)
      }
    } else {
      entry.member = member;
      entry.last_heard = now;
      changes.joined.push_back(member);
    }
    next[member.rank] = std::move(entry);
  }
  for (const auto& [rank, entry] : entries_) {
    if (next.find(rank) == next.end() && rank != config_.self_rank) {
      changes.left.push_back(rank);
    }
  }
  if (next.find(config_.self_rank) == next.end()) {
    // The fleet dropped us (we were silent past dead_after — e.g. a
    // long stall or partition). Re-add self (keeping our advertise
    // address) and bump PAST the incoming epoch so our presence wins
    // the next exchange.
    Entry self;
    const auto prior = entries_.find(config_.self_rank);
    if (prior != entries_.end()) self.member = prior->second.member;
    self.member.rank = config_.self_rank;
    self.last_heard = now;
    next[config_.self_rank] = std::move(self);
    changes.rejoined_self = true;
  }
  entries_ = std::move(next);
  epoch_ = incoming.epoch + (changes.rejoined_self ? 1 : 0);
  changes.changed = true;
  rebuild_ring_locked();
  return changes;
}

void Membership::note_heard_from(std::size_t rank, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(rank);
  if (it == entries_.end()) return;
  it->second.last_heard = now;
  it->second.suspect = false;
}

Membership::TickResult Membership::tick(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  TickResult result;
  const auto suspect_after = seconds_duration(config_.suspect_after_seconds);
  const auto dead_after = seconds_duration(config_.dead_after_seconds);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first == config_.self_rank) {
      ++it;
      continue;
    }
    const auto silence = now - it->second.last_heard;
    if (silence >= dead_after) {
      result.died.push_back(it->first);
      it = entries_.erase(it);
      continue;
    }
    if (silence >= suspect_after && !it->second.suspect) {
      it->second.suspect = true;
      result.suspected.push_back(it->first);
    }
    ++it;
  }
  if (!result.died.empty()) {
    epoch_ += 1;
    rebuild_ring_locked();
  }
  return result;
}

void Membership::rebuild_ring_locked() {
  std::vector<std::size_t> ranks;
  ranks.reserve(entries_.size());
  for (const auto& [rank, entry] : entries_) ranks.push_back(rank);
  ring_.rebuild(ranks);
}

std::vector<Member> Membership::members_locked() const {
  std::vector<Member> members;
  members.reserve(entries_.size());
  for (const auto& [rank, entry] : entries_) members.push_back(entry.member);
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) { return a.rank < b.rank; });
  return members;
}

}  // namespace prts::service
