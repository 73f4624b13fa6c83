// Shard-fault tolerance for the sharded serving tier (DESIGN.md §7/§9):
// deterministic stalls and crashes, per-shard circuit breakers, degraded
// scatter/gather over stale fallbacks, and anti-entropy crash recovery.
//
// Two contracts anchor everything here. Inertness: with no armed fault
// plan (or an empty one) the fault-aware frontend answers bit-identical
// to one that never heard of faults — for every query kind, shard
// count, metric and pool size. Determinism: every fault draw is a pure
// hash, so a faulted sharded campaign reproduces bit-for-bit across
// pool sizes and runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity.hpp"
#include "eval/world.hpp"
#include "service/gossip.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"
#include "service/wire.hpp"
#include "sim/fault_plan.hpp"

namespace crp::service {
namespace {

core::RatioMap random_map(Rng& rng, std::uint32_t id_space = 24) {
  std::vector<core::RatioMap::Entry> entries;
  const int k = static_cast<int>(rng.uniform_int(1, 6));
  for (int j = 0; j < k; ++j) {
    entries.emplace_back(
        ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, id_space - 1))},
        rng.uniform(0.05, 1.0));
  }
  return core::RatioMap::from_ratios(entries);
}

PositionReport report_of(std::string id, core::RatioMap map, SimTime when) {
  PositionReport r;
  r.node_id = std::move(id);
  r.when = when;
  r.map = std::move(map);
  return r;
}

void expect_same_ranked(const std::vector<RankedNode>& got,
                        const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

void expect_same_tiered(const TieredAnswer& got, const TieredAnswer& want) {
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.reason, want.reason);
  expect_same_ranked(got.ranked, want.ranked);
}

/// An id that stable-hashes onto `shard` of `shard_count`.
std::string id_on_shard(std::size_t shard, std::size_t shard_count,
                        int salt = 0) {
  for (int i = 0;; ++i) {
    std::string id =
        "sn-" + std::to_string(salt) + "-" + std::to_string(i);
    if (ShardedFrontend::shard_index(id, shard_count) == shard) return id;
  }
}

constexpr SimTime kT0 = SimTime::epoch();

/// The frontend's writer-side checker (shard ownership, breaker state,
/// each shard's tables), run after every write, tick and recovery.
void expect_invariants(const ShardedFrontend& fe) {
  EXPECT_NO_THROW(fe.check_invariants());
}

// ---------------------------------------------------------------------
// Inertness: empty plan + healthy shards == the fault-blind frontend.
// ---------------------------------------------------------------------

void run_inertness_oracle(std::size_t shards, core::SimilarityKind metric,
                          std::size_t workers) {
  SCOPED_TRACE(::testing::Message()
               << "shards=" << shards << " metric=" << static_cast<int>(metric)
               << " workers=" << workers);
  ServiceConfig cfg;
  cfg.metric = metric;
  cfg.stale_usable_bound = Hours(12);
  ShardedFrontendConfig fc;
  fc.shards = shards;
  fc.service = cfg;
  ShardedFrontend plain{fc};  // never hears about faults
  ShardedFrontend armed{fc};  // armed with an empty plan
  const sim::FaultPlan empty_plan{123};
  armed.set_fault_plan(&empty_plan);  // empty ⇒ stays inert
  EXPECT_EQ(armed.fault_plan(), nullptr);

  Rng rng{900 + shards};
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    const std::string id = "in-" + std::to_string(i);
    const auto map = random_map(rng);
    const SimTime when = kT0 + Minutes(i * 11);
    EXPECT_EQ(plain.publish(report_of(id, map, when), when),
              armed.publish(report_of(id, map, when), when));
    expect_invariants(plain);
    expect_invariants(armed);
    ids.push_back(id);
  }
  ThreadPool pool{workers};
  const SimTime now = kT0 + Hours(7);
  const auto pv = plain.view();
  const auto av = armed.view();
  EXPECT_EQ(av.live_nodes(now), pv.live_nodes(now));
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    SCOPED_TRACE("client " + ids[i]);
    expect_same_ranked(av.closest_any(ids[i], 5, now, &pool),
                       pv.closest_any(ids[i], 5, now, &pool));
    // The gathered query is the tiered query plus a completeness
    // vector; on a healthy view the tiered halves must match bit for
    // bit and the completeness must be full.
    const auto gathered = av.closest_any_gathered(ids[i], 5, now, &pool);
    expect_same_tiered(gathered.tiered,
                       pv.closest_any_tiered(ids[i], 5, now, &pool));
    EXPECT_TRUE(gathered.completeness.complete());
    EXPECT_FALSE(gathered.completeness.any_stale());
    EXPECT_EQ(gathered.completeness.shards_answered, shards);
    const auto gathered_cand = av.closest_gathered(ids[i], ids, 5, now);
    expect_same_tiered(gathered_cand.tiered,
                       pv.closest_tiered(ids[i], ids, 5, now));
    EXPECT_TRUE(gathered_cand.completeness.complete());
  }
  // Nothing degraded, nothing counted.
  const auto hs = armed.health_stats();
  EXPECT_EQ(hs.breaker_opens, 0u);
  EXPECT_EQ(hs.writes_shed, 0u);
  EXPECT_EQ(hs.writes_failed, 0u);
  EXPECT_EQ(hs.shard_crashes, 0u);
  EXPECT_EQ(hs.stale_fallback_views, 0u);
  EXPECT_EQ(hs.degraded_answers, 0u);
  EXPECT_EQ(hs.partial_answers, 0u);
}

TEST(ShardedChaos, InertAcrossShardCounts) {
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    run_inertness_oracle(shards, core::SimilarityKind::kCosine, 2);
  }
}

TEST(ShardedChaos, InertAcrossMetricsAndPools) {
  run_inertness_oracle(4, core::SimilarityKind::kJaccard, 2);
  run_inertness_oracle(4, core::SimilarityKind::kWeightedOverlap, 2);
  for (const std::size_t workers :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    run_inertness_oracle(4, core::SimilarityKind::kCosine, workers);
  }
}

// ---------------------------------------------------------------------
// Breaker lifecycle under a scheduled stall.
// ---------------------------------------------------------------------

TEST(ShardedChaos, StallTripsBreakerThenHalfOpenRecloses) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{17};
  // Populate every shard, then stall shard 0 unconditionally for a
  // window long enough that backoff-advanced retries stay inside it.
  std::vector<std::string> on0;
  for (int i = 0; i < 4; ++i) on0.push_back(id_on_shard(0, 4, i));
  const std::string off0 = id_on_shard(1, 4);
  for (const auto& id : on0) {
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), kT0), kT0));
    expect_invariants(fe);
  }
  ASSERT_TRUE(fe.publish(report_of(off0, random_map(rng), kT0), kT0));
  expect_invariants(fe);

  const SimTime stall_from = kT0 + Hours(1);
  const SimTime stall_to = kT0 + Hours(2);
  sim::FaultPlan plan{77};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = stall_from,
            .end = stall_to,
            .probability = 1.0,
            .entity = 0});
  fe.set_fault_plan(&plan);
  ASSERT_EQ(fe.fault_plan(), &plan);

  // Three failed writes (each with its retries exhausted) trip the
  // breaker; the fourth is shed without an attempt.
  SimTime t = stall_from;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fe.shard_health(0), ShardHealth::kClosed);
    EXPECT_FALSE(fe.publish(report_of(on0[0], random_map(rng), t), t));
    expect_invariants(fe);
    t = t + Minutes(1);
  }
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kOpen);
  EXPECT_FALSE(fe.publish(report_of(on0[1], random_map(rng), t), t));
  expect_invariants(fe);
  auto hs = fe.health_stats();
  EXPECT_EQ(hs.breaker_opens, 1u);
  EXPECT_EQ(hs.writes_failed, 3u);
  EXPECT_EQ(hs.write_retries, 6u);  // 2 retries per failed write
  EXPECT_EQ(hs.writes_shed, 1u);
  // Other shards are untouched.
  EXPECT_TRUE(fe.publish(report_of(off0, random_map(rng), t), t));
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(1), ShardHealth::kClosed);

  // Reads keep working: the open shard serves its pre-stall fallback.
  const auto view = fe.view();
  EXPECT_EQ(view.shard_health(0), ShardHealth::kOpen);
  EXPECT_FALSE(view.closest_any(on0[0], 3, t).empty());
  const auto gathered = fe.view().closest_any_gathered(off0, 3, t);
  EXPECT_EQ(gathered.tiered.tier, AnswerTier::kStale);
  EXPECT_EQ(gathered.tiered.reason, DegradedReason::kStaleShard);
  EXPECT_TRUE(gathered.completeness.complete());
  EXPECT_TRUE(gathered.completeness.stale_shards[0]);
  EXPECT_GT(fe.health_stats().stale_fallback_views, 0u);
  EXPECT_GT(fe.health_stats().degraded_answers, 0u);

  // Past the window and the cooldown, a tick moves the breaker to
  // half-open; two probe successes re-close it.
  const SimTime probe_at = stall_to + Hours(1);
  fe.tick(probe_at);
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kHalfOpen);
  EXPECT_TRUE(
      fe.publish(report_of(on0[2], random_map(rng), probe_at), probe_at));
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kHalfOpen);
  EXPECT_TRUE(
      fe.publish(report_of(on0[3], random_map(rng), probe_at), probe_at));
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kClosed);
  hs = fe.health_stats();
  EXPECT_EQ(hs.breaker_half_opens, 1u);
  EXPECT_EQ(hs.breaker_closes, 1u);
  // Healthy again: views stop substituting the fallback.
  const auto healthy = fe.view().closest_any_gathered(off0, 3, probe_at);
  EXPECT_EQ(healthy.tiered.tier, AnswerTier::kFresh);
  EXPECT_FALSE(healthy.completeness.any_stale());
}

// An open breaker sheds a remove (it carries no clock to retry
// against), and an expire sweep skips every shard that is not closed or
// is stalled at the sweep's time, with no breaker transition of its own.
TEST(ShardedChaos, OpenBreakerShedsRemoveAndExpireSkipsFailedShards) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{23};
  std::vector<std::vector<std::string>> on(3);
  for (std::size_t s = 0; s < on.size(); ++s) {
    for (int i = 0; i < 3; ++i) {
      on[s].push_back(id_on_shard(s, 4, i));
      ASSERT_TRUE(
          fe.publish(report_of(on[s].back(), random_map(rng), kT0), kT0));
      expect_invariants(fe);
    }
  }
  // Shard 0 stalls from the first hour and trips its breaker; shard 2
  // stalls only later and, never written to, keeps its breaker closed.
  sim::FaultPlan plan{78};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = kT0 + Hours(1),
            .end = kT0 + Hours(100),
            .probability = 1.0,
            .entity = 0});
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = kT0 + Hours(9),
            .end = kT0 + Hours(100),
            .probability = 1.0,
            .entity = 2});
  fe.set_fault_plan(&plan);
  SimTime t = kT0 + Hours(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(fe.publish(report_of(on[0][0], random_map(rng), t), t));
    expect_invariants(fe);
    t = t + Minutes(1);
  }
  ASSERT_EQ(fe.shard_health(0), ShardHealth::kOpen);

  EXPECT_FALSE(fe.remove(on[0][1]));
  expect_invariants(fe);
  EXPECT_EQ(fe.health_stats().writes_shed, 1u);
  EXPECT_EQ(fe.shard(0).size(), 3u);
  EXPECT_TRUE(fe.map_of(on[0][1]).has_value());

  // Every report is past the 6 h bound by now, but only shard 1 sweeps.
  const SimTime sweep = kT0 + Hours(10);
  EXPECT_EQ(fe.expire(sweep), 3u);
  expect_invariants(fe);
  EXPECT_EQ(fe.shard(0).size(), 3u);
  EXPECT_EQ(fe.shard(1).size(), 0u);
  EXPECT_EQ(fe.shard(2).size(), 3u);
  EXPECT_NE(fe.shard_health(0), ShardHealth::kClosed);
  EXPECT_EQ(fe.shard_health(2), ShardHealth::kClosed);
  const auto hs = fe.health_stats();
  EXPECT_EQ(hs.writes_failed, 3u);
  EXPECT_EQ(hs.breaker_opens, 1u);
}

// A batch advances the fault schedule of every shard, traffic or not: a
// crash due on a shard the batch sends nothing to still wipes it.
TEST(ShardedChaos, BatchAdvancesFaultsOfShardsItDoesNotWrite) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{29};
  std::vector<std::string> frames;
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 2; ++i) {
      const auto bytes = encode(
          report_of(id_on_shard(s, 4, i), random_map(rng), kT0));
      ASSERT_TRUE(bytes.has_value());
      frames.push_back(*bytes);
    }
  }
  ASSERT_EQ(fe.publish_batch(frames, kT0), frames.size());
  expect_invariants(fe);
  ASSERT_EQ(fe.shard(2).size(), 2u);

  const SimTime crash_at = kT0 + Minutes(30);
  sim::FaultPlan plan{79};
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = 2});
  fe.set_fault_plan(&plan);
  std::vector<std::string> to_shard1;
  const auto bytes =
      encode(report_of(id_on_shard(1, 4, 7), random_map(rng), crash_at));
  ASSERT_TRUE(bytes.has_value());
  to_shard1.push_back(*bytes);
  EXPECT_EQ(fe.publish_batch(to_shard1, crash_at), 1u);
  expect_invariants(fe);
  EXPECT_EQ(fe.health_stats().shard_crashes, 1u);
  EXPECT_EQ(fe.shard(2).size(), 0u);
  EXPECT_EQ(fe.shard_health(2), ShardHealth::kOpen);
  EXPECT_EQ(fe.shard(1).size(), 3u);
}

// ---------------------------------------------------------------------
// Crash: keep answering, then rebuild bit-identical by replay.
// ---------------------------------------------------------------------

TEST(ShardedChaos, CrashKeepsAnsweringAndReplayMatchesNeverCrashedTwin) {
  ServiceConfig cfg;
  cfg.stale_usable_bound = Hours(12);
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  ShardedFrontend twin{fc};  // never crashes, same feed

  Rng rng{31};
  std::vector<std::string> ids;
  std::vector<std::string> frames;
  for (int i = 0; i < 48; ++i) {
    const std::string id = "cr-" + std::to_string(i);
    // Feed both frontends through the wire so the replay frames decode
    // to exactly the maps the twin holds (decode re-normalizes, so a
    // raw publish and a wire round trip differ in the ratios' low
    // bits).
    const auto bytes = encode(report_of(id, random_map(rng), kT0));
    ASSERT_TRUE(bytes.has_value());
    ASSERT_TRUE(fe.publish_encoded(*bytes, kT0));
    ASSERT_TRUE(twin.publish_encoded(*bytes, kT0));
    expect_invariants(fe);
    expect_invariants(twin);
    frames.push_back(*bytes);
    ids.push_back(id);
  }
  const std::size_t crashed = 2;
  std::string client_on_crashed;
  std::string client_elsewhere;
  for (const auto& id : ids) {
    if (fe.shard_of(id) == crashed) client_on_crashed = id;
    if (fe.shard_of(id) != crashed) client_elsewhere = id;
  }
  ASSERT_FALSE(client_on_crashed.empty());
  ASSERT_FALSE(client_elsewhere.empty());

  const SimTime crash_at = kT0 + Minutes(30);
  sim::FaultPlan plan{55};
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = crashed});
  fe.set_fault_plan(&plan);

  fe.tick(crash_at);
  expect_invariants(fe);
  EXPECT_EQ(fe.health_stats().shard_crashes, 1u);
  EXPECT_EQ(fe.shard(crashed).size(), 0u);  // state really gone
  EXPECT_EQ(fe.shard_health(crashed), ShardHealth::kOpen);
  ASSERT_EQ(fe.shards_needing_recovery(),
            std::vector<std::size_t>{crashed});

  // Degraded serving: plain answers equal the twin's (the fallback IS
  // the pre-crash snapshot), never empty-by-crash; gathered answers are
  // typed kStale/kStaleShard with the crashed shard flagged.
  const SimTime now = crash_at + Minutes(5);
  expect_same_ranked(fe.view().closest_any(client_on_crashed, 6, now),
                     twin.view().closest_any(client_on_crashed, 6, now));
  expect_same_ranked(fe.view().closest_any(client_elsewhere, 6, now),
                     twin.view().closest_any(client_elsewhere, 6, now));
  const auto degraded =
      fe.view().closest_any_gathered(client_on_crashed, 6, now);
  EXPECT_EQ(degraded.tiered.tier, AnswerTier::kStale);
  EXPECT_EQ(degraded.tiered.reason, DegradedReason::kStaleShard);
  EXPECT_TRUE(degraded.completeness.complete());
  EXPECT_TRUE(degraded.completeness.stale_shards[crashed]);
  expect_same_ranked(
      degraded.tiered.ranked,
      twin.view().closest_any_tiered(client_on_crashed, 6, now).ranked);

  // Recovery: replay the full feed (frames owned by other shards are
  // filtered out), then the rebuilt shard must match the never-crashed
  // twin's shard bit for bit.
  const SimTime recovered_at = kT0 + Hours(1);
  const std::size_t accepted =
      fe.recover_shard(crashed, frames, recovered_at);
  expect_invariants(fe);
  EXPECT_EQ(accepted, twin.shard(crashed).size());
  EXPECT_EQ(fe.shard_health(crashed), ShardHealth::kClosed);
  EXPECT_TRUE(fe.shards_needing_recovery().empty());
  EXPECT_EQ(fe.health_stats().recovery_replays, accepted);
  EXPECT_EQ(fe.shard(crashed).live_nodes(recovered_at),
            twin.shard(crashed).live_nodes(recovered_at));
  const auto fe_snap = fe.shard(crashed).snapshot();
  const auto twin_snap = twin.shard(crashed).snapshot();
  EXPECT_EQ(fe_snap->live_nodes(recovered_at),
            twin_snap->live_nodes(recovered_at));
  // And the whole frontend answers as if the crash never happened.
  for (const auto& c : {client_on_crashed, client_elsewhere}) {
    expect_same_ranked(fe.view().closest_any(c, 8, recovered_at),
                       twin.view().closest_any(c, 8, recovered_at));
    const auto after = fe.view().closest_any_gathered(c, 8, recovered_at);
    EXPECT_EQ(after.tiered.tier, AnswerTier::kFresh);
    EXPECT_TRUE(after.completeness.complete());
    EXPECT_FALSE(after.completeness.any_stale());
  }
}

TEST(ShardedChaos, ExpiredFallbackGoesMissingAndOwnerRefusesTyped) {
  ServiceConfig cfg;  // no stale tier: usable bound == staleness bound
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  Rng rng{41};
  std::vector<std::string> ids;
  for (int i = 0; i < 24; ++i) {
    const std::string id = "mx-" + std::to_string(i);
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), kT0), kT0));
    expect_invariants(fe);
    ids.push_back(id);
  }
  const std::size_t crashed = 1;
  std::string on_crashed, elsewhere;
  for (const auto& id : ids) {
    (fe.shard_of(id) == crashed ? on_crashed : elsewhere) = id;
  }
  ASSERT_FALSE(on_crashed.empty());
  ASSERT_FALSE(elsewhere.empty());
  sim::FaultPlan plan{66};
  const SimTime crash_at = kT0 + Minutes(10);
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = crashed});
  fe.set_fault_plan(&plan);
  fe.tick(crash_at);
  expect_invariants(fe);

  // Far past the usable bound the fallback is too old to serve: the
  // shard goes missing, answers turn partial, and a client owned by it
  // refuses with the typed shard-unavailable reason. The reports
  // elsewhere are expired too by then, so query a time where only the
  // fallback's age (vs the fresher shards' re-published reports)
  // differs: republish the healthy shards first.
  const SimTime later = kT0 + Hours(7);  // past the 6h staleness bound
  for (const auto& id : ids) {
    if (fe.shard_of(id) == crashed) continue;
    ASSERT_TRUE(
        fe.publish(report_of(id, random_map(rng), later), later));
    expect_invariants(fe);
  }
  const auto partial = fe.view().closest_any_gathered(elsewhere, 6, later);
  EXPECT_EQ(partial.tiered.tier, AnswerTier::kFresh);
  EXPECT_FALSE(partial.completeness.complete());
  EXPECT_EQ(partial.completeness.missing_shards,
            std::vector<std::size_t>{crashed});
  EXPECT_FALSE(partial.tiered.ranked.empty());
  EXPECT_GT(fe.health_stats().partial_answers, 0u);

  const auto refused = fe.view().closest_any_gathered(on_crashed, 6, later);
  EXPECT_EQ(refused.tiered.tier, AnswerTier::kRefused);
  EXPECT_EQ(refused.tiered.reason, DegradedReason::kShardUnavailable);
  EXPECT_TRUE(refused.tiered.ranked.empty());
}

// A stale fallback shard answers a gathered read from its stale band:
// its nodes, too old to be live but inside the usable bound, rank
// beside the healthy shards' live ones.
TEST(ShardedChaos, StaleFallbackShardWidensToTheStaleBand) {
  ServiceConfig cfg;
  cfg.stale_usable_bound = Hours(12);
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  Rng rng{43};
  std::vector<std::string> ids;
  std::vector<core::RatioMap> maps;  // each node's latest report
  for (int i = 0; i < 24; ++i) {
    ids.push_back("sb-" + std::to_string(i));
    maps.push_back(random_map(rng));
    ASSERT_TRUE(fe.publish(report_of(ids.back(), maps.back(), kT0), kT0));
    expect_invariants(fe);
  }
  const std::size_t crashed = 1;
  sim::FaultPlan plan{67};
  const SimTime crash_at = kT0 + Minutes(10);
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = crashed});
  fe.set_fault_plan(&plan);
  fe.tick(crash_at);
  expect_invariants(fe);

  // Seven hours on, the crashed shard's fallback (cut at kT0) is inside
  // the 12h usable bound, so it answers, flagged stale; its nodes are
  // past the 6h staleness bound: stale-usable, not live. The healthy
  // shards re-report, so their nodes and the client are live.
  const SimTime later = kT0 + Hours(7);
  std::size_t client = ids.size();
  std::size_t on_crashed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (fe.shard_of(ids[i]) == crashed) {
      ++on_crashed;
      continue;
    }
    maps[i] = random_map(rng);
    ASSERT_TRUE(fe.publish(report_of(ids[i], maps[i], later), later));
    expect_invariants(fe);
    client = i;
  }
  ASSERT_GT(on_crashed, 0u);
  ASSERT_LT(client, ids.size());

  // The naive ranking over the usable set: every other node, the
  // crashed shard's included, by (similarity desc, id asc).
  std::vector<RankedNode> want;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == client) continue;
    want.push_back(RankedNode{
        ids[i], core::similarity(cfg.metric, maps[client], maps[i])});
  }
  std::sort(want.begin(), want.end(),
            [](const RankedNode& a, const RankedNode& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.node_id < b.node_id;
            });

  const std::size_t k = ids.size();
  for (const GatheredAnswer& got :
       {fe.view().closest_any_gathered(ids[client], k, later),
        fe.view().closest_gathered(ids[client], ids, k, later)}) {
    EXPECT_EQ(got.tiered.tier, AnswerTier::kStale);
    EXPECT_EQ(got.tiered.reason, DegradedReason::kStaleShard);
    EXPECT_TRUE(got.completeness.complete());
    for (std::size_t s = 0; s < fe.shard_count(); ++s) {
      EXPECT_EQ(got.completeness.stale_shards[s], s == crashed)
          << "shard " << s;
    }
    expect_same_ranked(got.tiered.ranked, want);
  }
}

// Candidate-list gathered reads under shard_chaos against the naive
// ranking of the usable set. Members re-report every 90 minutes through
// stalls (writes retried, failed or shed) and crashes; a shard crashed
// for 14 hours is recovered from the members' latest reports. The
// reference knows each shard's contents from its writer (`report_of`,
// recorded each step just before the snapshots are cut) and takes the
// View's completeness as given: a stale-fallback shard answers from the
// capture it froze, widened to the stale band, and a missing one sits
// the read out. Every candidate occurrence is scored with per-pair
// similarity() and the list is ranked by (similarity desc, id asc).
TEST(ShardedChaos, CandidateGatheredReadsMatchNaiveUnderShardChaos) {
  using Contents = std::unordered_map<std::string, PositionReport>;
  ServiceConfig cfg;
  cfg.stale_usable_bound = Hours(12);
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  Rng rng{4242};
  std::vector<PositionReport> latest;  // each member's last report sent
  for (int i = 0; i < 48; ++i) {
    latest.push_back(
        report_of("ch-" + std::to_string(i), random_map(rng), kT0));
    ASSERT_TRUE(fe.publish(latest.back(), kT0));
  }
  // Each shard's writer contents at every instant it may have frozen.
  std::vector<std::map<std::int64_t, Contents>> frozen(fc.shards);
  const auto record = [&](SimTime at) {
    for (std::size_t s = 0; s < fc.shards; ++s) {
      Contents held;
      for (const PositionReport& r : latest) {
        if (auto got = fe.shard(s).report_of(r.node_id)) {
          held.emplace(r.node_id, std::move(*got));
        }
      }
      frozen[s][at.micros()] = std::move(held);
    }
  };
  record(kT0);
  fe.publish_snapshots(kT0);

  const SimTime end = kT0 + Hours(30);
  const sim::FaultPlan plan =
      sim::FaultPlan::shard_chaos(4243, 0.9, kT0 + Minutes(30), end);
  fe.set_fault_plan(&plan);
  ThreadPool pool{2};
  std::vector<SimTime> crashed_since(fc.shards, SimTime{-1});
  std::size_t stale_reads = 0;
  std::size_t partial_reads = 0;
  int step = 0;
  for (SimTime now = kT0 + Minutes(30); now < end;
       now = now + Minutes(30), ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    fe.tick(now);
    expect_invariants(fe);
    for (std::size_t i = static_cast<std::size_t>(step) % 3; i < latest.size();
         i += 3) {
      latest[i] = report_of(latest[i].node_id, random_map(rng), now);
      (void)fe.publish(latest[i], now);
    }
    expect_invariants(fe);
    for (const std::size_t s : fe.shards_needing_recovery()) {
      if (crashed_since[s] < kT0) crashed_since[s] = now;
      if (now - crashed_since[s] < Hours(14)) continue;
      std::vector<std::string> frames;
      for (const PositionReport& r : latest) {
        if (auto bytes = encode(r)) frames.push_back(std::move(*bytes));
      }
      (void)fe.recover_shard(s, frames, now, &pool);
      crashed_since[s] = SimTime{-1};
      expect_invariants(fe);
    }
    record(now);
    fe.publish_snapshots(now);

    const auto view = fe.view();
    const ShardCompleteness shape = view.completeness(now);
    std::vector<const Contents*> held(fc.shards, nullptr);
    for (std::size_t s = 0; s < fc.shards; ++s) {
      const auto it = frozen[s].find(view.shard(s).frozen_at().micros());
      ASSERT_NE(it, frozen[s].end()) << "shard " << s;
      held[s] = &it->second;
    }
    // The naive answer of `client` over `list` under the view's bands.
    const auto naive = [&](const std::string& client,
                           std::span<const std::string> list, std::size_t k) {
      TieredAnswer want;
      const auto missing = [&](std::size_t s) {
        return std::find(shape.missing_shards.begin(),
                         shape.missing_shards.end(),
                         s) != shape.missing_shards.end();
      };
      const std::size_t owner = fe.shard_of(client);
      if (missing(owner)) {
        want.reason = DegradedReason::kShardUnavailable;
        return want;
      }
      const auto self = held[owner]->find(client);
      if (self == held[owner]->end()) {
        want.reason = DegradedReason::kUnknownClient;
        return want;
      }
      const Duration age = now - self->second.when;
      const bool fresh = age <= cfg.staleness_bound;
      if (!fresh && age > cfg.stale_usable_bound) {
        want.reason = DegradedReason::kClientExpired;
        return want;
      }
      for (const std::string& id : list) {
        const std::size_t s = fe.shard_of(id);
        if (id == client || missing(s)) continue;
        const auto it = held[s]->find(id);
        if (it == held[s]->end()) continue;
        const Duration cand_age = now - it->second.when;
        const bool stale_band = !fresh || shape.stale_shards[s];
        if (cand_age > (stale_band ? cfg.stale_usable_bound
                                   : cfg.staleness_bound)) {
          continue;
        }
        want.ranked.push_back(RankedNode{
            id, core::similarity(cfg.metric, self->second.map,
                                 it->second.map)});
      }
      std::sort(want.ranked.begin(), want.ranked.end(),
                [](const RankedNode& a, const RankedNode& b) {
                  if (a.similarity != b.similarity) {
                    return a.similarity > b.similarity;
                  }
                  return a.node_id < b.node_id;
                });
      if (want.ranked.size() > k) want.ranked.resize(k);
      if (want.ranked.empty()) {
        want.reason = DegradedReason::kNoUsableCandidates;
        return want;
      }
      want.tier = fresh && !shape.any_stale() ? AnswerTier::kFresh
                                              : AnswerTier::kStale;
      want.reason = !fresh             ? DegradedReason::kStaleClient
                    : shape.any_stale() ? DegradedReason::kStaleShard
                                        : DegradedReason::kNone;
      return want;
    };

    std::vector<std::string> every;  // every member twice
    std::vector<std::string> mix;    // a random mix, duplicates and unknowns
    for (int copy = 0; copy < 2; ++copy) {
      for (const PositionReport& r : latest) every.push_back(r.node_id);
    }
    for (int i = 0; i < 20; ++i) {
      mix.push_back(latest[rng.uniform_int(0, latest.size() - 1)].node_id);
    }
    mix.push_back("never-published");
    for (std::size_t c = static_cast<std::size_t>(step) % 4;
         c < latest.size(); c += 4) {
      const std::string& client = latest[c].node_id;
      SCOPED_TRACE("client " + client);
      std::vector<std::string> bracketed{client};
      bracketed.insert(bracketed.end(), mix.begin(), mix.end());
      bracketed.push_back(client);
      for (const auto& list : {every, mix, bracketed}) {
        for (const std::size_t k : {std::size_t{3}, std::size_t{200}}) {
          const GatheredAnswer got =
              view.closest_gathered(client, list, k, now);
          EXPECT_EQ(got.completeness.missing_shards, shape.missing_shards);
          EXPECT_EQ(got.completeness.stale_shards, shape.stale_shards);
          expect_same_tiered(got.tiered, naive(client, list, k));
          if (got.tiered.answered()) {
            stale_reads += shape.any_stale() ? 1 : 0;
            partial_reads += shape.complete() ? 0 : 1;
          }
        }
      }
    }
  }
  // The chaos bit: answers came from stale fallbacks and from views
  // missing a shard.
  EXPECT_GT(fe.health_stats().shard_crashes, 0u);
  EXPECT_GT(stale_reads, 0u);
  EXPECT_GT(partial_reads, 0u);
}

// ---------------------------------------------------------------------
// Far clocks: a fallback's age and a breaker's cooldown are compared
// without forming now - t (the UBSan job checks that no subtraction
// overflows); in range each holds exactly up to its bound.
// ---------------------------------------------------------------------

// A crashed shard's held snapshot froze at 1 h. At INT64_MIN + 1 it is
// not older than the usable bound, so a gathered read still counts it,
// flagged stale; in range it answers up to the bound and goes missing
// 1 us past it.
TEST(ShardedChaos, FarClockFallbackAgeKeepsTheCrashedShardAnswering) {
  ShardedFrontendConfig fc;
  fc.shards = 2;  // no stale tier: the usable bound is the 6 h staleness
  ShardedFrontend fe{fc};
  Rng rng{47};
  const SimTime at = kT0 + Hours(1);
  const std::size_t crashed = 1;
  const std::string client = id_on_shard(0, 2);
  for (const std::string& id :
       {client, id_on_shard(0, 2, 1), id_on_shard(crashed, 2),
        id_on_shard(crashed, 2, 1)}) {
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), at), at));
    expect_invariants(fe);
  }
  sim::FaultPlan plan{71};
  const SimTime crash_at = at + Minutes(10);
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = crashed});
  fe.set_fault_plan(&plan);
  fe.tick(crash_at);
  expect_invariants(fe);
  ASSERT_EQ(fe.view().shard(crashed).frozen_at(), at);
  ASSERT_EQ(fe.view().shard(crashed).size(), 2u);

  const SimTime far{std::numeric_limits<std::int64_t>::min() + 1};
  const auto got = fe.view().closest_any_gathered(client, 4, far);
  EXPECT_TRUE(got.completeness.complete());
  EXPECT_TRUE(got.completeness.stale_shards[crashed]);
  EXPECT_EQ(got.tiered.reason, DegradedReason::kStaleShard);
  EXPECT_EQ(got.tiered.ranked.size(), 3u);

  const SimTime edge = at + fc.service.staleness_bound;
  const ShardCompleteness at_edge = fe.view().completeness(edge);
  EXPECT_TRUE(at_edge.complete());
  EXPECT_TRUE(at_edge.stale_shards[crashed]);
  EXPECT_EQ(fe.view().completeness(edge + Micros(1)).missing_shards,
            std::vector<std::size_t>{crashed});
}

// A stall opened shard 0's breaker at 1 h 7 min. A tick at INT64_MIN + 1
// is long before the cooldown ends, so the breaker stays open; in range
// it half-opens exactly at the cooldown and not 1 us before.
TEST(ShardedChaos, FarClockTickKeepsTheBreakerOpenUntilItsCooldown) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{53};
  const std::string on0 = id_on_shard(0, 4);
  ASSERT_TRUE(fe.publish(report_of(on0, random_map(rng), kT0), kT0));
  sim::FaultPlan plan{73};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = kT0 + Hours(1),
            .end = kT0 + Hours(2),
            .probability = 1.0,
            .entity = 0});
  fe.set_fault_plan(&plan);
  SimTime t = kT0 + Hours(1) + Minutes(5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(fe.publish(report_of(on0, random_map(rng), t), t));
    t = t + Minutes(1);
  }
  const SimTime opened_at = kT0 + Hours(1) + Minutes(7);
  ASSERT_EQ(fe.shard_health(0), ShardHealth::kOpen);

  fe.tick(SimTime{std::numeric_limits<std::int64_t>::min() + 1});
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kOpen);

  const SimTime cooled = opened_at + fc.breaker.open_cooldown;
  fe.tick(cooled - Micros(1));
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kOpen);
  fe.tick(cooled);
  expect_invariants(fe);
  EXPECT_EQ(fe.shard_health(0), ShardHealth::kHalfOpen);
  EXPECT_EQ(fe.health_stats().breaker_half_opens, 1u);
}

// A write within the retry backoff of the clock's end, on a stalled
// shard: retry 1 would draw past INT64_MAX, so it is not attempted, and
// the write fails like one whose every retry drew a stall.
TEST(ShardedChaos, FarClockRetryPastTheClockEndIsNotAttempted) {
  ShardedFrontendConfig fc;
  fc.shards = 1;
  ShardedFrontend fe{fc};
  Rng rng{57};
  const SimTime end{std::numeric_limits<std::int64_t>::max()};
  sim::FaultPlan plan{77};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = end - Hours(1),
            .end = end,
            .probability = 1.0,
            .entity = 0});
  fe.set_fault_plan(&plan);
  const SimTime now = end - Seconds(1);
  EXPECT_FALSE(fe.publish(report_of("n", random_map(rng), now), now));
  expect_invariants(fe);
  const FrontendHealthStats h = fe.health_stats();
  EXPECT_EQ(h.writes_failed, 1u);
  EXPECT_EQ(h.write_retries, 0u);
  EXPECT_EQ(fe.size(), 0u);
}

// 70 retries allowed under a stall over every clock value, from a clock
// at 0. Retry r would draw at 2^(r-1) * backoff: the retries stop at the
// last r whose draw is at most INT64_MAX (no shift past 63 bits, and no
// draw at a saturated INT64_MAX, which the stall window leaves out).
TEST(ShardedChaos, FarClockRetriesStopBeforeTheBackoffLeavesTheClock) {
  ShardedFrontendConfig fc;
  fc.shards = 1;
  fc.breaker.max_retries = 70;
  ShardedFrontend fe{fc};
  Rng rng{58};
  sim::FaultPlan plan{78};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = SimTime{std::numeric_limits<std::int64_t>::min()},
            .end = SimTime{std::numeric_limits<std::int64_t>::max()},
            .probability = 1.0,
            .entity = 0});
  fe.set_fault_plan(&plan);
  EXPECT_FALSE(fe.publish(report_of("n", random_map(rng), kT0), kT0));
  expect_invariants(fe);
  const FrontendHealthStats h = fe.health_stats();
  EXPECT_EQ(h.writes_failed, 1u);
  // 2^(r-1) * backoff <= INT64_MAX - kT0 holds for r = 1 .. bit_width(q).
  const auto q = static_cast<std::uint64_t>(
      (std::numeric_limits<std::int64_t>::max() - kT0.micros()) /
      fc.breaker.retry_backoff.micros());
  EXPECT_EQ(h.write_retries, static_cast<std::uint64_t>(std::bit_width(q)));
  EXPECT_LT(h.write_retries, fc.breaker.max_retries);
}

// ---------------------------------------------------------------------
// Anti-entropy repair over the gossip wire path.
// ---------------------------------------------------------------------

TEST(ShardedChaos, GossipRepairRebuildsCrashedShardFromPeers) {
  GossipConfig gc;
  gc.seed = 5;
  gc.fanout = 2;
  gc.reports_per_message = 16;
  gc.store_shards = 4;
  GossipMesh mesh{gc};
  for (const char* id : {"alpha", "beta", "gamma"}) mesh.add_node(id);
  mesh.fully_connect();
  Rng rng{77};
  std::vector<std::string> members;
  for (int i = 0; i < 18; ++i) {
    members.push_back("g-" + std::to_string(i));
  }
  // Publish each member's report into every node's store, as a
  // converged mesh would hold it.
  for (const auto& id : members) {
    const auto map = random_map(rng);
    for (const char* nid : {"alpha", "beta", "gamma"}) {
      ASSERT_TRUE(mesh.sharded_store(nid).publish(report_of(id, map, kT0),
                                                  kT0));
      expect_invariants(mesh.sharded_store(nid));
    }
  }
  ShardedFrontend& alpha = mesh.sharded_store("alpha");
  const std::size_t crashed = 3;
  sim::FaultPlan plan{88};
  const SimTime crash_at = kT0 + Minutes(20);
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = crash_at,
            .end = crash_at + Minutes(1),
            .probability = 1.0,
            .entity = crashed});
  alpha.set_fault_plan(&plan);
  alpha.tick(crash_at);
  expect_invariants(alpha);
  ASSERT_EQ(alpha.shards_needing_recovery(),
            std::vector<std::size_t>{crashed});
  const auto want = mesh.sharded_store("beta").shard(crashed).live_nodes(
      crash_at);
  ASSERT_FALSE(want.empty());

  const std::size_t accepted = mesh.repair_shards("alpha", crash_at);
  expect_invariants(alpha);
  // Both peers contribute a copy of every owned report; duplicates are
  // accepted (equal timestamps re-publish) and the freshness rules keep
  // one per id, so the replay count is a multiple of the population.
  EXPECT_GE(accepted, want.size());
  EXPECT_TRUE(alpha.shards_needing_recovery().empty());
  EXPECT_EQ(alpha.shard_health(crashed), ShardHealth::kClosed);
  EXPECT_EQ(alpha.shard(crashed).live_nodes(crash_at), want);
  const auto& gs = mesh.stats();
  EXPECT_GT(gs.repair_reports_sent, 0u);
  EXPECT_GT(gs.repair_bytes, 0u);
  // Nothing to repair ⇒ a second call is a no-op.
  EXPECT_EQ(mesh.repair_shards("alpha", crash_at), 0u);
}

// ---------------------------------------------------------------------
// Faulted sharded campaign: bit-identical across pools and per seed.
// ---------------------------------------------------------------------

struct ChaosDigest {
  std::vector<std::size_t> accepted;
  std::vector<std::uint64_t> shed;
  std::vector<std::uint64_t> failed;
  std::uint64_t crashes = 0;
  std::uint64_t opens = 0;
  std::vector<std::string> live;
  std::vector<RankedNode> ranked;

  bool operator==(const ChaosDigest& o) const {
    if (accepted != o.accepted || shed != o.shed || failed != o.failed ||
        crashes != o.crashes || opens != o.opens || live != o.live ||
        ranked.size() != o.ranked.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].node_id != o.ranked[i].node_id ||
          ranked[i].similarity != o.ranked[i].similarity) {
        return false;
      }
    }
    return true;
  }
};

ChaosDigest run_faulted_campaign(std::uint64_t seed, std::size_t workers) {
  eval::WorldConfig config;
  config.seed = seed;
  config.num_candidates = 8;
  config.num_dns_servers = 12;
  config.cdn.target_replicas = 100;
  const SimTime end = kT0 + Hours(4);
  config.faults =
      sim::FaultPlan::shard_chaos(seed + 9, 0.9, kT0 + Minutes(30), end);
  eval::World world{std::move(config)};
  ThreadPool pool{workers};
  world.run_probing_parallel(kT0, kT0 + Hours(1), Minutes(20), &pool);

  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  ChaosDigest digest;
  SimTime t = kT0 + Hours(1);
  for (int round = 0; round < 8; ++round) {
    const auto delivery = world.report_positions(fe, t, &pool);
    expect_invariants(fe);
    digest.accepted.push_back(delivery.accepted);
    digest.shed.push_back(delivery.shard_writes_shed);
    digest.failed.push_back(delivery.shard_writes_failed);
    t = t + Minutes(15);
  }
  const auto hs = fe.health_stats();
  digest.crashes = hs.shard_crashes;
  digest.opens = hs.breaker_opens;
  digest.live = fe.view().live_nodes(t);
  if (!digest.live.empty()) {
    digest.ranked = fe.view().closest_any(digest.live[0], 8, t, &pool);
  }
  return digest;
}

TEST(ShardedChaos, FaultedCampaignBitIdenticalAcrossPoolsAndSeeds) {
  for (const std::uint64_t seed : {9001ULL, 77017ULL}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const ChaosDigest sequential = run_faulted_campaign(seed, 0);
    // Faults must actually bite for the determinism claim to mean
    // anything.
    EXPECT_GT(sequential.opens + sequential.crashes, 0u);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "workers=" << workers);
      EXPECT_TRUE(run_faulted_campaign(seed, workers) == sequential);
    }
  }
}

// ---------------------------------------------------------------------
// Breaker transitions under concurrent readers (TSan's target).
// ---------------------------------------------------------------------

TEST(ShardedChaos, BreakerTransitionsUnderConcurrentReaders) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{1234};
  std::vector<std::string> ids;
  for (int i = 0; i < 24; ++i) {
    const std::string id = "t-" + std::to_string(i);
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), kT0), kT0));
    expect_invariants(fe);
    ids.push_back(id);
  }
  const SimTime stall_from = kT0 + Minutes(10);
  sim::FaultPlan plan{3};
  plan.add({.kind = sim::FaultKind::kShardStall,
            .start = stall_from,
            .end = stall_from + Minutes(30),
            .probability = 1.0,
            .entity = 0});
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = stall_from + Minutes(40),
            .end = stall_from + Minutes(41),
            .probability = 1.0,
            .entity = 2});
  fe.set_fault_plan(&plan);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rd{static_cast<std::uint64_t>(100 + r)};
      while (!stop.load(std::memory_order_acquire)) {
        const auto view = fe.view();
        const auto& client = ids[static_cast<std::size_t>(
            rd.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
        const SimTime now = kT0 + Hours(2);
        (void)view.closest_any(client, 4, now);
        (void)view.closest_any_gathered(client, 4, now);
        (void)view.completeness(now);
        (void)fe.health_stats();
        (void)fe.shard_health(0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer drives the breaker through open (stall), crash, half-open
  // and close while the readers churn.
  SimTime t = stall_from;
  for (int i = 0; i < 6; ++i) {
    (void)fe.publish(report_of(ids[0], random_map(rng), t), t);
    expect_invariants(fe);
    t = t + Minutes(2);
  }
  fe.tick(stall_from + Minutes(40));  // crash shard 2
  expect_invariants(fe);
  std::vector<std::string> frames;
  for (const auto& id : ids) {
    const auto rep = fe.report_of(id);
    if (!rep.has_value()) continue;
    if (auto bytes = encode(*rep)) frames.push_back(std::move(*bytes));
  }
  (void)fe.recover_shard(2, frames, stall_from + Minutes(42));
  expect_invariants(fe);
  t = stall_from + Hours(1);
  fe.tick(t);  // half-open shard 0
  expect_invariants(fe);
  for (int i = 0; i < 4; ++i) {
    (void)fe.publish(report_of(ids[1], random_map(rng), t), t);
    expect_invariants(fe);
    t = t + Minutes(1);
  }
  while (reads.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(fe.shard_health(2), ShardHealth::kClosed);
}

}  // namespace
}  // namespace crp::service
