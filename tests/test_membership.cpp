// The elastic membership layer, bottom to top: the consistent-hash
// ring's minimal-disruption and balance properties, the epoch-stamped
// anti-entropy protocol (join, union merge, higher-epoch adoption,
// self-rejoin, suspect -> dead ticks against injected clocks), the
// membership/handoff wire codecs, the background checkpointer, and the
// live fabric itself: a rank joining a serving fleet receives its ring
// slice by handoff, a retired rank is detected through silence, and
// answers stay byte-identical across every reshape. Last, the one
// ownership function: a boot-list fleet owns keys exactly as a
// join-founded one does, grows by join, and warm-starts its own slice.
#include "service/membership.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluation.hpp"
#include "fabric_harness.hpp"
#include "service/checkpoint.hpp"
#include "service/ring.hpp"
#include "service/wire.hpp"

namespace prts::service {
namespace {

using testing::FabricHarness;

CanonicalHash key_of(int i) {
  return fingerprint("membership-key-" + std::to_string(i));
}

// ------------------------------------------------------------- ring

std::map<int, std::size_t> owners_under(const HashRing& ring, int keys) {
  std::map<int, std::size_t> owners;
  for (int i = 0; i < keys; ++i) owners[i] = ring.owner_of(key_of(i));
  return owners;
}

TEST(HashRing, IdenticalAcrossIndependentBuilds) {
  // Every rank computes the ring locally from the member set alone;
  // routing only works if the builds agree point for point.
  HashRing a;
  HashRing b;
  a.rebuild({0, 1, 2, 5});
  b.rebuild({5, 2, 1, 0});  // order must not matter
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.owner_of(key_of(i)), b.owner_of(key_of(i)));
  }
}

TEST(HashRing, JoinMovesKeysOnlyToTheNewMember) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  const auto before = owners_under(ring, 2000);
  ring.rebuild({0, 1, 2, 3});
  const auto after = owners_under(ring, 2000);
  std::size_t moved = 0;
  for (const auto& [key, owner] : after) {
    if (owner != before.at(key)) {
      ++moved;
      // Minimal disruption: a reassigned key may only have moved TO the
      // joiner, never between surviving members.
      EXPECT_EQ(owner, 3u);
    }
  }
  // The joiner takes roughly a quarter of the space — definitely some
  // keys, definitely not most of them (mod-world would reshuffle ~75%).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 1000u);
}

TEST(HashRing, LeaveMovesOnlyTheDepartedKeys) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  const auto before = owners_under(ring, 2000);
  ring.rebuild({0, 2});
  const auto after = owners_under(ring, 2000);
  for (const auto& [key, owner] : after) {
    if (before.at(key) != 1) {
      // A surviving member's keys never move on someone else's death.
      EXPECT_EQ(owner, before.at(key));
    } else {
      EXPECT_NE(owner, 1u);
    }
  }
}

TEST(HashRing, BalanceWithinTolerance) {
  HashRing ring;
  ring.rebuild({0, 1, 2});
  std::map<std::size_t, int> share;
  const int keys = 6000;
  for (int i = 0; i < keys; ++i) ++share[ring.owner_of(key_of(i))];
  ASSERT_EQ(share.size(), 3u);
  for (const auto& [rank, count] : share) {
    const double fraction = static_cast<double>(count) / keys;
    // Fair share is 1/3; 64 virtual nodes keep every member well inside
    // a factor-2 band of it.
    EXPECT_GT(fraction, 1.0 / 6.0) << "rank " << rank;
    EXPECT_LT(fraction, 2.0 / 3.0) << "rank " << rank;
  }
}

// ------------------------------------------------------- membership

Member member_at(std::size_t rank, std::uint16_t port = 9000) {
  Member member;
  member.rank = rank;
  member.host = "10.0.0." + std::to_string(rank + 1);
  member.port = port;
  return member;
}

Membership::Config fast_config(std::size_t self) {
  Membership::Config config;
  config.self_rank = self;
  config.suspect_after_seconds = 2.0;
  config.dead_after_seconds = 5.0;
  return config;
}

TEST(MembershipProtocol, BootstrapInstallsSelfAtEpochOne) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_EQ(membership.member_count(), 1u);
  EXPECT_TRUE(membership.contains(0));
}

TEST(MembershipProtocol, JoinBumpsEpochReannounceDoesNot) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});

  const auto joined = membership.handle_join(member_at(1));
  EXPECT_TRUE(joined.changed);
  ASSERT_EQ(joined.joined.size(), 1u);
  EXPECT_EQ(joined.joined[0].rank, 1u);
  EXPECT_EQ(membership.epoch(), 2u);

  // The same announcement again: heartbeat refresh, nothing changes.
  const auto again = membership.handle_join(member_at(1));
  EXPECT_FALSE(again.changed);
  EXPECT_EQ(membership.epoch(), 2u);

  // Same rank, new address: a restarted process — treated as a fresh
  // joiner (handoff re-triggers; entries are immutable so that is safe).
  const auto restarted = membership.handle_join(member_at(1, 9001));
  EXPECT_TRUE(restarted.changed);
  EXPECT_EQ(membership.epoch(), 3u);
  EXPECT_EQ(membership.member(1)->port, 9001);
}

TEST(MembershipProtocol, JoinClaimingSelfRankIsIgnored) {
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0)});
  // A duplicate --rank in the fleet must not overwrite our own record.
  const auto changes = membership.handle_join(member_at(0, 4242));
  EXPECT_FALSE(changes.changed);
  EXPECT_EQ(membership.epoch(), 1u);
  EXPECT_EQ(membership.member(0)->port, 9000);
}

TEST(MembershipProtocol, EqualEpochViewsMergeByUnion) {
  // Two ranks each admitted a different joiner at the same epoch; a
  // view exchange converges both without an epoch-bump race.
  Membership a(fast_config(0));
  Membership b(fast_config(1));
  a.bootstrap({member_at(0), member_at(1)});
  b.bootstrap({member_at(0), member_at(1)});
  a.handle_join(member_at(2));  // a is at epoch 2 with {0,1,2}
  b.handle_join(member_at(3));  // b is at epoch 2 with {0,1,3}

  const auto merged_b = b.handle_update(a.view());
  EXPECT_TRUE(merged_b.changed);
  EXPECT_EQ(b.member_count(), 4u);
  const auto merged_a = a.handle_update(b.view());
  EXPECT_TRUE(merged_a.changed);
  EXPECT_EQ(a.member_count(), 4u);
  EXPECT_EQ(a.view().members, b.view().members);
}

TEST(MembershipProtocol, HigherEpochAdoptedLowerIgnored) {
  Membership a(fast_config(0));
  Membership b(fast_config(1));
  a.bootstrap({member_at(0), member_at(1)});
  b.bootstrap({member_at(0), member_at(1)});
  a.handle_join(member_at(2));
  a.handle_join(member_at(3));  // a: epoch 3

  EXPECT_TRUE(b.handle_update(a.view()).changed);
  EXPECT_EQ(b.epoch(), 3u);
  EXPECT_EQ(b.member_count(), 4u);

  // A stale view (b's old epoch-1 shape) changes nothing on a.
  MembershipView stale;
  stale.epoch = 1;
  stale.members = {member_at(0), member_at(1)};
  EXPECT_FALSE(a.handle_update(stale).changed);
  EXPECT_EQ(a.member_count(), 4u);
}

TEST(MembershipProtocol, DroppedSelfRejoinsAboveIncomingEpoch) {
  Membership membership(fast_config(2));
  membership.bootstrap({member_at(0), member_at(1), member_at(2)});

  // The fleet moved on without us (we were silent past dead_after).
  MembershipView without_us;
  without_us.epoch = 7;
  without_us.members = {member_at(0), member_at(1)};
  const auto changes = membership.handle_update(without_us);
  EXPECT_TRUE(changes.changed);
  EXPECT_TRUE(changes.rejoined_self);
  EXPECT_TRUE(membership.contains(2));
  // Bumped PAST the incoming epoch so our presence wins the next
  // exchange instead of being adopted away again.
  EXPECT_EQ(membership.epoch(), 8u);
}

TEST(MembershipProtocol, SilenceSuspectsThenRemoves) {
  const auto t0 = Membership::Clock::now();
  const auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<Membership::Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  Membership membership(fast_config(0));
  membership.bootstrap({member_at(0), member_at(1), member_at(2)}, t0);
  const std::uint64_t epoch_before = membership.epoch();

  // Rank 1 keeps talking, rank 2 goes silent.
  membership.note_heard_from(1, at(2.5));
  auto ticked = membership.tick(at(3.0));
  ASSERT_EQ(ticked.suspected.size(), 1u);
  EXPECT_EQ(ticked.suspected[0], 2u);
  EXPECT_TRUE(ticked.died.empty());
  EXPECT_TRUE(membership.is_suspect(2));
  EXPECT_EQ(membership.epoch(), epoch_before);  // suspects stay in the ring

  // A suspect that speaks again is cleared — slow is not dead.
  membership.note_heard_from(2, at(3.5));
  EXPECT_FALSE(membership.is_suspect(2));

  // Then it really dies: silent past dead_after, removed, epoch bump.
  membership.note_heard_from(1, at(8.0));
  ticked = membership.tick(at(9.0));
  ASSERT_EQ(ticked.died.size(), 1u);
  EXPECT_EQ(ticked.died[0], 2u);
  EXPECT_FALSE(membership.contains(2));
  EXPECT_EQ(membership.epoch(), epoch_before + 1);
  EXPECT_EQ(membership.member_count(), 2u);
}

// ------------------------------------------------------------ codecs

TEST(MembershipWire, JoinRequestRoundTrip) {
  const Member member = member_at(3, 7777);
  std::string error;
  const auto decoded = decode_join_request(encode_join_request(member), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, member);

  EXPECT_FALSE(decode_join_request("prts-join v9\n", error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(MembershipWire, MembershipUpdateRoundTrip) {
  MembershipUpdate update;
  update.from = 2;
  update.view.epoch = 41;
  update.view.members = {member_at(0), member_at(2, 8081), member_at(5)};
  std::string error;
  const auto decoded =
      decode_membership_update(encode_membership_update(update), error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->from, 2u);
  EXPECT_EQ(decoded->view, update.view);
}

TEST(MembershipWire, HandoffStampAndChunkRoundTrip) {
  HandoffStamp stamp;
  stamp.epoch = 9;
  stamp.from = 1;
  stamp.entries = 128;
  std::string error;
  const auto begin = decode_handoff_stamp(encode_handoff_begin(stamp), error);
  ASSERT_TRUE(begin.has_value()) << error;
  EXPECT_EQ(begin->epoch, 9u);
  EXPECT_EQ(begin->from, 1u);
  EXPECT_EQ(begin->entries, 128u);
  const auto done = decode_handoff_stamp(encode_handoff_done(stamp), error);
  ASSERT_TRUE(done.has_value()) << error;
  EXPECT_EQ(done->entries, 128u);

  HandoffChunk chunk;
  chunk.epoch = 9;
  chunk.from = 1;
  chunk.entries.emplace_back(key_of(1), CachedSolution{});  // infeasible
  chunk.entries.emplace_back(key_of(2), CachedSolution{{}, 0.25});
  const auto round =
      decode_handoff_chunk(encode_handoff_chunk(chunk), error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(round->epoch, 9u);
  EXPECT_EQ(round->from, 1u);
  ASSERT_EQ(round->entries.size(), 2u);
  EXPECT_EQ(round->entries[0].first, key_of(1));
  EXPECT_FALSE(round->entries[0].second.solution.has_value());
  EXPECT_DOUBLE_EQ(round->entries[1].second.cost_seconds, 0.25);

  EXPECT_FALSE(decode_handoff_chunk("garbage", error).has_value());
}

// ------------------------------------------------------ checkpointer

Instance tiny_instance() {
  std::vector<Task> tasks{{5.0, 1.0}, {7.0, 0.0}};
  std::vector<Processor> procs{{1.0, 1e-8}, {1.0, 1e-8}, {1.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

CachedSolution feasible_entry(const Instance& instance) {
  Mapping mapping(IntervalPartition::single(2), {{0, 2}});
  const MappingMetrics metrics =
      evaluate(instance.chain, instance.platform, mapping);
  return CachedSolution{solver::Solution{std::move(mapping), metrics}};
}

std::string temp_checkpoint_path(const char* tag) {
  return ::testing::TempDir() + "prts_checkpoint_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

TEST(Checkpointer, SnapshotReloadsBitIdentically) {
  const Instance instance = tiny_instance();
  ShardedSolutionCache cache;
  const CachedSolution entry = feasible_entry(instance);
  cache.insert(key_of(10), entry);
  cache.insert(key_of(11), CachedSolution{});  // cached infeasible

  const std::string path = temp_checkpoint_path("roundtrip");
  Checkpointer::Config config;
  config.path = path;
  Checkpointer checkpointer(cache, config);  // no timer: interval 0
  std::string error;
  ASSERT_TRUE(checkpointer.checkpoint_now(&error)) << error;
  const Checkpointer::Stats stats = checkpointer.stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.last_entries, 2u);
  EXPECT_GT(stats.last_bytes, 0u);

  ShardedSolutionCache reloaded;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const auto result = reloaded.load_binary(in);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.loaded, 2u);
  const auto warm = reloaded.lookup(key_of(10));
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->solution.has_value());
  EXPECT_EQ(warm->solution->mapping, entry.solution->mapping);
  EXPECT_EQ(warm->solution->metrics, entry.solution->metrics);
  ASSERT_TRUE(reloaded.lookup(key_of(11)).has_value());
  EXPECT_FALSE(reloaded.lookup(key_of(11))->solution.has_value());
  std::remove(path.c_str());
}

TEST(Checkpointer, FailedWriteKeepsThePreviousSnapshot) {
  ShardedSolutionCache cache;
  cache.insert(key_of(20), CachedSolution{});

  const std::string path = temp_checkpoint_path("atomic");
  {
    Checkpointer::Config config;
    config.path = path;
    Checkpointer good(cache, config);
    ASSERT_TRUE(good.checkpoint_now());
  }

  // A checkpointer pointed into a directory that does not exist fails
  // cleanly and counts it; the original file is untouched (the tmp +
  // rename discipline never opens the destination itself).
  Checkpointer::Config broken_config;
  broken_config.path = ::testing::TempDir() +
                       "prts_no_such_dir_xyzzy/checkpoint.bin";
  Checkpointer broken(cache, broken_config);
  std::string error;
  EXPECT_FALSE(broken.checkpoint_now(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(broken.stats().failures, 1u);

  ShardedSolutionCache reloaded;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(reloaded.load_binary(in).loaded, 1u);
  std::remove(path.c_str());
}

TEST(Checkpointer, IntervalTimerSnapshotsInTheBackground) {
  ShardedSolutionCache cache;
  cache.insert(key_of(30), CachedSolution{});
  const std::string path = temp_checkpoint_path("timer");
  Checkpointer::Config config;
  config.path = path;
  config.interval_seconds = 0.05;
  Checkpointer checkpointer(cache, config);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (checkpointer.stats().checkpoints == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(checkpointer.stats().checkpoints, 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------------ live fabric

FabricHarness::Options join_options(std::size_t world) {
  FabricHarness::Options options;
  options.world = world;
  options.join_founded = true;
  options.service.threads = 2;
  options.router.client.connect_timeout_seconds = 1.0;
  options.router.client.reply_timeout_seconds = 10.0;
  options.router.client.backoff_initial_seconds = 0.05;
  options.router.heartbeat_interval_seconds = 0.05;
  options.router.membership.suspect_after_seconds = 0.4;
  options.router.membership.dead_after_seconds = 0.8;
  return options;
}

Instance hom_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 1.0}, {6.0, 0.0}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 2)};
}

TEST(ElasticFabric, FleetConvergesAndRoutesByRing) {
  FabricHarness harness(join_options(3));
  const Instance instance = hom_instance();
  for (std::size_t r = 0; r < 3; ++r) {
    const MembershipView view = harness.router(r).membership_view();
    EXPECT_EQ(view.members.size(), 3u) << "rank " << r;
    EXPECT_TRUE(harness.router(r).distributed());
  }
  // Ring agreement: every rank routes a key to the same owner.
  const SolveRequest request{
      instance, "heur-p",
      harness.bounds_on_rank(instance, "heur-p", /*owner=*/1)};
  const CanonicalHash key =
      request_key(canonicalize(instance), "heur-p", request.bounds);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(harness.router(r).shard_of(key), 1u);
  }
  // And the request is actually answered by its owner.
  const SolveReply reply = harness.router(0).submit(request).get();
  ASSERT_EQ(reply.status, ReplyStatus::kSolved);
  EXPECT_EQ(harness.service(1).stats().submitted, 1u);
  EXPECT_EQ(harness.router(0).stats().forwarded, 1u);
}

/// Grows a serving 2-rank fleet by one joiner: the originals stream the
/// joiner's slice to it, and every answer minted before the join
/// replays byte-identically from whoever owns its key now.
void expect_join_streams_handoff_and_replays(FabricHarness& harness) {
  const Instance instance = hom_instance();

  // Warm both original ranks with answers across the keyspace.
  std::vector<SolveRequest> requests;
  std::vector<SolveReply> before;
  for (int i = 0; i < 24; ++i) {
    const std::size_t owner = static_cast<std::size_t>(i % 2);
    requests.push_back(SolveRequest{
        instance, "heur-p",
        harness.bounds_on_rank(instance, "heur-p", owner, 10.0 * i)});
    before.push_back(harness.router(i % 2).submit(requests.back()).get());
    ASSERT_EQ(before.back().status, ReplyStatus::kSolved);
  }

  // Grow the fleet; the originals stream the joiner's slice to it.
  const std::size_t joined = harness.add_rank();
  harness.wait_for_members(3);
  harness.router(0).wait_handoffs_idle();
  harness.router(1).wait_handoffs_idle();

  std::uint64_t streamed = 0;
  for (std::size_t r = 0; r < 2; ++r) {
    const MembershipStats stats = harness.router(r).membership_stats();
    EXPECT_GE(stats.joins, 1u) << "rank " << r;
    streamed += stats.handoff_entries_sent;
  }
  const MembershipStats joiner = harness.router(joined).membership_stats();
  EXPECT_EQ(joiner.members, 3u);
  // The joiner owns ~1/3 of a 24-key working set; at least one entry
  // must have moved, and whatever was sent arrived.
  EXPECT_GE(streamed, 1u);
  EXPECT_GE(joiner.handoff_entries_received, 1u);
  EXPECT_GE(harness.service(joined).cache().stats().entries, 1u);

  // Every answer minted before the join replays byte-identically from
  // whoever owns the key now — including keys that migrated.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveReply after = harness.router(0).submit(requests[i]).get();
    ASSERT_EQ(after.status, ReplyStatus::kSolved);
    ASSERT_TRUE(after.solution.has_value());
    EXPECT_EQ(after.solution->mapping, before[i].solution->mapping);
    EXPECT_EQ(after.solution->metrics, before[i].solution->metrics);
    EXPECT_EQ(after.key, before[i].key);
  }
}

TEST(ElasticFabric, JoinStreamsHandoffAndAnswersStayByteIdentical) {
  FabricHarness harness(join_options(2));
  expect_join_streams_handoff_and_replays(harness);
}

TEST(ElasticFabric, RetiredRankIsDetectedAndEpochAdvances) {
  FabricHarness harness(join_options(3));
  const std::uint64_t epoch_before = harness.router(0).epoch();

  harness.retire(1);
  harness.wait_for_members(2, /*timeout_seconds=*/10.0,
                           /*min_epoch=*/epoch_before + 1);

  for (const std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    const MembershipStats stats = harness.router(r).membership_stats();
    EXPECT_EQ(stats.members, 2u) << "rank " << r;
    EXPECT_GE(stats.deaths, 1u) << "rank " << r;
    EXPECT_GE(stats.suspects, 1u) << "rank " << r;
    EXPECT_GT(stats.epoch, epoch_before) << "rank " << r;
  }

  // The shrunken fleet still answers; the dead rank owns nothing.
  const Instance instance = hom_instance();
  const SolveRequest request{
      instance, "heur-p",
      harness.bounds_on_rank(instance, "heur-p", /*owner=*/2)};
  EXPECT_EQ(harness.router(0).submit(request).get().status,
            ReplyStatus::kSolved);
  const CanonicalHash key =
      request_key(canonicalize(instance), "heur-p", request.bounds);
  EXPECT_NE(harness.router(0).shard_of(key), 1u);
}

// ----------------------------------------- one ownership function

/// A boot-list fleet, as `prts_cli serve --peers` starts one.
FabricHarness::Options boot_options(std::size_t world) {
  FabricHarness::Options options = join_options(world);
  options.join_founded = false;
  return options;
}

TEST(OneOwnership, BootListAndJoinFoundedFleetsAgreeOnEveryKey) {
  FabricHarness booted(boot_options(3));
  FabricHarness joined(join_options(3));
  std::map<std::size_t, int> owned;
  for (int i = 0; i < 4000; ++i) {
    const CanonicalHash key = key_of(i);
    const std::size_t owner = booted.router(0).shard_of(key);
    ++owned[owner];
    for (std::size_t r = 0; r < 3; ++r) {
      ASSERT_EQ(booted.router(r).shard_of(key), owner) << "key " << i;
      ASSERT_EQ(joined.router(r).shard_of(key), owner) << "key " << i;
    }
  }
  EXPECT_EQ(owned.size(), 3u);
}

TEST(OneOwnership, BootListFleetGrowsByJoin) {
  FabricHarness::Options options = boot_options(2);
  options.server_threads = 10;
  FabricHarness harness(options);
  EXPECT_EQ(harness.router(0).epoch(), 1u);
  expect_join_streams_handoff_and_replays(harness);
}

TEST(OneOwnership, BootListFleetHealsAfterARankIsCutOff) {
  FabricHarness::Options options = boot_options(3);
  options.detect_failures = true;
  // Heartbeat rounds are driven by hand, so "cut off" is exact: rank 0
  // neither answers (server down) nor speaks (no rounds of its own).
  options.router.heartbeat_interval_seconds = 0.0;
  options.router.membership.suspect_after_seconds = 0.1;
  options.router.membership.dead_after_seconds = 0.2;
  FabricHarness harness(options);

  harness.kill(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.router(1).membership_view().members.size() != 2 ||
         harness.router(2).membership_view().members.size() != 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "ranks 1 and 2 never dropped the silent rank 0";
    harness.router(1).heartbeat_now();
    harness.router(2).heartbeat_now();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Rank 0 comes back: its first round drops both silent peers (it is
  // alone), and only the boot list can bring the two sides together.
  harness.revive(0);
  harness.router(0).heartbeat_now();
  harness.wait_for_members(3);
  for (int i = 0; i < 500; ++i) {
    const CanonicalHash key = key_of(i);
    const std::size_t owner = harness.router(0).shard_of(key);
    for (std::size_t r = 1; r < 3; ++r) {
      ASSERT_EQ(harness.router(r).shard_of(key), owner) << "key " << i;
    }
  }
}

TEST(OneOwnership, SelectiveWarmStartKeepsExactlyTheOwnedKeys) {
  FabricHarness harness(boot_options(3));
  constexpr int kKeys = 600;
  ShardedSolutionCache full;
  for (int i = 0; i < kKeys; ++i) full.insert(key_of(i), CachedSolution{});
  std::stringstream file;
  full.save_binary(file);
  // Independently of the router: the boot ring is the ring over the
  // listed ranks.
  HashRing ring;
  ring.rebuild({0, 1, 2});
  for (std::size_t r = 0; r < 3; ++r) {
    ShardRouter& router = harness.router(r);
    ShardedSolutionCache slice;
    std::istringstream in(file.str());
    // The filter `prts_cli serve --peers ... --warm-start FILE.bin`
    // applies.
    const auto loaded =
        slice.load_binary(in, [&](const CanonicalHash& key) {
          return router.shard_of(key) == r;
        });
    std::size_t owned = 0;
    for (int i = 0; i < kKeys; ++i) {
      const bool mine = ring.owner_of(key_of(i)) == r;
      owned += mine ? 1 : 0;
      EXPECT_EQ(slice.lookup(key_of(i)).has_value(), mine) << "key " << i;
    }
    EXPECT_EQ(loaded.loaded, owned) << "rank " << r;
    EXPECT_EQ(loaded.loaded + loaded.skipped, std::size_t{kKeys});
  }
}

}  // namespace
}  // namespace prts::service
