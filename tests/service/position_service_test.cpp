#include "service/position_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/similarity.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::service {
namespace {

core::RatioMap map_of(std::vector<std::pair<ReplicaId, double>> entries) {
  return core::RatioMap::from_ratios(entries);
}

PositionReport report(const std::string& id,
                      std::vector<std::pair<ReplicaId, double>> entries,
                      SimTime when = SimTime::epoch()) {
  PositionReport r;
  r.node_id = id;
  r.when = when;
  r.map = map_of(std::move(entries));
  return r;
}

class PositionServiceTest : public ::testing::Test {
 protected:
  PositionServiceTest() {
    // Two groups: a/b/c around replicas {1,2}, d/e around {8,9}.
    const SimTime t0 = SimTime::epoch();
    service_.publish(report("a", {{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}},
                            t0),
                     t0);
    service_.publish(report("b", {{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}},
                            t0),
                     t0);
    service_.publish(report("c", {{ReplicaId{1}, 0.8}, {ReplicaId{2}, 0.2}},
                            t0),
                     t0);
    service_.publish(report("d", {{ReplicaId{8}, 0.5}, {ReplicaId{9}, 0.5}},
                            t0),
                     t0);
    service_.publish(report("e", {{ReplicaId{8}, 0.4}, {ReplicaId{9}, 0.6}},
                            t0),
                     t0);
  }

  PositionService service_;
};

TEST_F(PositionServiceTest, PublishAndInspect) {
  EXPECT_EQ(service_.size(), 5u);
  EXPECT_TRUE(service_.map_of("a").has_value());
  EXPECT_FALSE(service_.map_of("z").has_value());
  EXPECT_EQ(service_.live_nodes(SimTime::epoch()),
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(service_.reports_accepted(), 5u);
}

TEST_F(PositionServiceTest, RejectsBadReports) {
  const SimTime now = SimTime::epoch();
  EXPECT_FALSE(service_.publish(report("", {{ReplicaId{1}, 1.0}}), now));
  EXPECT_FALSE(service_.publish(report("x", {}), now));  // empty map
  // Future-dated report.
  EXPECT_FALSE(service_.publish(
      report("x", {{ReplicaId{1}, 1.0}}, now + Hours(1)), now));
  // Stale on arrival.
  EXPECT_FALSE(service_.publish(report("x", {{ReplicaId{1}, 1.0}},
                                       SimTime::epoch()),
                                SimTime::epoch() + Hours(100)));
  EXPECT_EQ(service_.reports_rejected(), 4u);
}

TEST_F(PositionServiceTest, RejectsOutOfOrderOlderReport) {
  const SimTime later = SimTime::epoch() + Hours(1);
  ASSERT_TRUE(service_.publish(
      report("a", {{ReplicaId{5}, 1.0}}, later), later));
  // An older report for the same node must not clobber the newer one.
  EXPECT_FALSE(service_.publish(
      report("a", {{ReplicaId{6}, 1.0}}, SimTime::epoch()), later));
  EXPECT_TRUE(service_.map_of("a")->contains(ReplicaId{5}));
}

TEST_F(PositionServiceTest, NewerReportReplaces) {
  const SimTime later = SimTime::epoch() + Minutes(5);
  ASSERT_TRUE(service_.publish(
      report("a", {{ReplicaId{42}, 1.0}}, later), later));
  EXPECT_TRUE(service_.map_of("a")->contains(ReplicaId{42}));
  EXPECT_EQ(service_.size(), 5u);
}

TEST_F(PositionServiceTest, ClosestRanksBySimilarity) {
  const std::vector<std::string> candidates{"b", "c", "d", "e"};
  const auto ranked =
      service_.closest("a", candidates, 4, SimTime::epoch());
  ASSERT_EQ(ranked.size(), 4u);
  // c (0.8/0.2) is most similar to a (0.7/0.3); d/e share nothing.
  EXPECT_EQ(ranked[0].node_id, "c");
  EXPECT_DOUBLE_EQ(ranked[2].similarity, 0.0);
  EXPECT_DOUBLE_EQ(ranked[3].similarity, 0.0);
}

TEST_F(PositionServiceTest, ClosestSkipsSelfUnknownAndLimitsK) {
  const std::vector<std::string> candidates{"a", "b", "zz"};
  const auto ranked =
      service_.closest("a", candidates, 10, SimTime::epoch());
  ASSERT_EQ(ranked.size(), 1u);  // self and unknown dropped
  EXPECT_EQ(ranked[0].node_id, "b");
  EXPECT_TRUE(service_.closest("zz", candidates, 3, SimTime::epoch())
                  .empty());
}

TEST_F(PositionServiceTest, ClosestAnyUsesAllLiveNodes) {
  const auto ranked = service_.closest_any("a", 2, SimTime::epoch());
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].node_id, "c");
  EXPECT_EQ(ranked[1].node_id, "b");
}

TEST_F(PositionServiceTest, SameClusterQuery) {
  const auto mates = service_.same_cluster("a", SimTime::epoch());
  EXPECT_EQ(mates, (std::vector<std::string>{"b", "c"}));
  const auto other = service_.same_cluster("d", SimTime::epoch());
  EXPECT_EQ(other, (std::vector<std::string>{"e"}));
  EXPECT_TRUE(service_.same_cluster("zz", SimTime::epoch()).empty());
}

TEST_F(PositionServiceTest, ClusterAssignmentCoversLiveNodes) {
  const auto assignment = service_.cluster_assignment(SimTime::epoch());
  EXPECT_EQ(assignment.size(), 5u);
  EXPECT_EQ(assignment.at("a"), assignment.at("b"));
  EXPECT_NE(assignment.at("a"), assignment.at("d"));
}

TEST_F(PositionServiceTest, DiverseSetPicksAcrossClusters) {
  const auto set = service_.diverse_set(2, SimTime::epoch(), 1);
  ASSERT_EQ(set.size(), 2u);
  const auto assignment = service_.cluster_assignment(SimTime::epoch());
  EXPECT_NE(assignment.at(set[0]), assignment.at(set[1]));
  // Requesting more than there are clusters returns one per cluster.
  const auto all = service_.diverse_set(10, SimTime::epoch(), 1);
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(PositionServiceTest, ClusteringCacheInvalidatedByPublish) {
  (void)service_.same_cluster("a", SimTime::epoch());
  // New node joins group 2.
  service_.publish(report("f", {{ReplicaId{8}, 0.45}, {ReplicaId{9}, 0.55}},
                          SimTime::epoch() + Minutes(1)),
                   SimTime::epoch() + Minutes(1));
  const auto mates =
      service_.same_cluster("d", SimTime::epoch() + Minutes(1));
  EXPECT_EQ(mates, (std::vector<std::string>{"e", "f"}));
}

TEST_F(PositionServiceTest, StaleReportsExpireAndDropFromQueries) {
  const SimTime later = SimTime::epoch() + Hours(7);  // staleness 6 h
  EXPECT_TRUE(service_.closest_any("a", 5, later).empty());  // all stale
  EXPECT_EQ(service_.expire(later), 5u);
  EXPECT_EQ(service_.size(), 0u);
}

TEST_F(PositionServiceTest, RemoveDropsNode) {
  service_.remove("a");
  EXPECT_EQ(service_.size(), 4u);
  EXPECT_FALSE(service_.map_of("a").has_value());
  service_.remove("a");  // idempotent
}

TEST_F(PositionServiceTest, PublishEncodedAcceptsWireAndRejectsJunk) {
  PositionReport r = report("wire-node", {{ReplicaId{1}, 1.0}},
                            SimTime::epoch());
  EXPECT_TRUE(service_.publish_encoded(*encode(r), SimTime::epoch()));
  EXPECT_TRUE(service_.map_of("wire-node").has_value());
  EXPECT_FALSE(service_.publish_encoded("garbage", SimTime::epoch()));
}

TEST_F(PositionServiceTest, QueryCounterAdvances) {
  const auto before = service_.queries_served();
  (void)service_.closest_any("a", 1, SimTime::epoch());
  (void)service_.same_cluster("a", SimTime::epoch());
  (void)service_.diverse_set(1, SimTime::epoch());
  EXPECT_EQ(service_.queries_served(), before + 3);
}

TEST_F(PositionServiceTest, StatsTrackServingAndEngineChurn) {
  const SimTime t0 = SimTime::epoch();
  (void)service_.closest_any("a", 2, t0);
  (void)service_.same_cluster("a", t0);  // builds the clustering
  (void)service_.same_cluster("b", t0);  // served from cache
  service_.remove("d");
  (void)service_.publish(report("", {{ReplicaId{1}, 1.0}}), t0);

  const ServiceStats stats = service_.stats();
  EXPECT_EQ(stats.reports_accepted, 5u);
  EXPECT_EQ(stats.reports_rejected, 1u);
  EXPECT_EQ(stats.queries_served, 3u);
  EXPECT_EQ(stats.engine_rebuilds_avoided, 1u);
  EXPECT_EQ(stats.clustering_cache_hits, 1u);
  // remove("d") removed d's two postings.
  EXPECT_EQ(stats.postings_tombstoned, 2u);
  // closest_any issued exactly one engine query, and only a/b/c share
  // replicas with a — the inverted index never touched d/e.
  EXPECT_EQ(stats.similarity_queries, 1u);
  EXPECT_EQ(stats.maps_touched, 3u);
  // Exactly one SMF rebuild ran (the second cluster query hit the
  // cache), its wall time was measured, and the center-indexed pass
  // recorded the candidate rows it touched.
  EXPECT_EQ(stats.reclusters, 1u);
  EXPECT_GT(stats.recluster_seconds, 0.0);
  EXPECT_GT(stats.recluster_maps_touched, 0u);
}

TEST_F(PositionServiceTest, ReclusterCountersAccumulateAcrossRebuilds) {
  const SimTime t0 = SimTime::epoch();
  (void)service_.same_cluster("a", t0);
  // Membership change invalidates the cache; the next cluster query
  // reclusters through the same long-lived SmfClusterer.
  service_.remove("e");
  (void)service_.same_cluster("a", t0);
  const ServiceStats stats = service_.stats();
  EXPECT_EQ(stats.reclusters, 2u);
  EXPECT_EQ(stats.clustering_cache_hits, 0u);
  EXPECT_GT(stats.recluster_seconds, 0.0);
}

TEST_F(PositionServiceTest, RemoveThenRepublishReusesEngineSlot) {
  const std::size_t slots_before = service_.engine_slots();
  service_.remove("c");
  EXPECT_EQ(service_.engine_slots(), slots_before);  // tombstoned, kept
  const SimTime later = SimTime::epoch() + Minutes(1);
  ASSERT_TRUE(service_.publish(
      report("fresh", {{ReplicaId{1}, 0.9}, {ReplicaId{2}, 0.1}}, later),
      later));
  // The new node took the tombstoned row instead of growing the corpus.
  EXPECT_EQ(service_.engine_slots(), slots_before);
  // The reused row serves the new occupant: b (0.6/0.4) stays closest to
  // a (0.7/0.3), with fresh (0.9/0.1) ranked right behind it.
  const auto ranked = service_.closest_any("a", 2, later);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].node_id, "b");
  EXPECT_EQ(ranked[1].node_id, "fresh");
}

// Regression: a cached clustering must never serve nodes whose reports
// went stale since it was computed, even if expire() was never called.
TEST(PositionServiceStaleness, CachedClusterAnswersFilterStaleMembers) {
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  config.recluster_after = Hours(24);  // cache far outlives staleness
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  const SimTime t30 = t0 + Minutes(30);
  ASSERT_TRUE(service.publish(
      report("c", {{ReplicaId{1}, 0.75}, {ReplicaId{2}, 0.25}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}, t30), t30));
  ASSERT_TRUE(service.publish(
      report("b", {{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}, t30), t30));

  // Warm the clustering cache while everyone is live.
  EXPECT_EQ(service.same_cluster("a", t30),
            (std::vector<std::string>{"b", "c"}));

  // 70 minutes in, c's report (from t0) is past the 1-hour bound while
  // a/b are still live. No expire() call — same membership epoch, cache
  // still fresh — yet c must vanish from every answer.
  const SimTime t70 = t0 + Minutes(70);
  EXPECT_EQ(service.same_cluster("a", t70),
            (std::vector<std::string>{"b"}));
  EXPECT_TRUE(service.same_cluster("c", t70).empty());

  const auto assignment = service.cluster_assignment(t70);
  EXPECT_EQ(assignment.size(), 2u);
  EXPECT_FALSE(assignment.contains("c"));

  for (std::uint64_t seed : {0u, 1u, 2u, 3u}) {
    for (const std::string& id : service.diverse_set(10, t70, seed)) {
      EXPECT_NE(id, "c") << "stale node served from diverse_set";
    }
  }

  // closest paths drop it too.
  const std::vector<std::string> candidates{"b", "c"};
  for (const auto& ranked : {service.closest("a", candidates, 5, t70),
                             service.closest_any("a", 5, t70)}) {
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].node_id, "b");
  }

  // The report itself was not dropped — only filtered.
  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.expire(t70), 1u);
}

// live_nodes() sortedness is a documented contract (GossipMesh::coverage
// binary-searches the result); regression-pin it under churny, decidedly
// non-lexicographic insertion orders.
TEST(PositionServiceContracts, LiveNodesStaysSortedUnderChurn) {
  Rng rng{20260808};
  PositionService service;
  SimTime now = SimTime::epoch();
  for (int step = 0; step < 200; ++step) {
    now = now + Minutes(1);
    std::string id = "n";
    id += std::to_string(rng.uniform_int(0, 60));
    if (rng.uniform(0.0, 1.0) < 0.8) {
      (void)service.publish(report(id, {{ReplicaId{1}, 1.0}}, now), now);
    } else {
      service.remove(id);
    }
    const auto live = service.live_nodes(now);
    ASSERT_TRUE(std::is_sorted(live.begin(), live.end())) << "step " << step;
  }
}

// A wire frame stamped in the far past is stale on arrival on every
// write path. Ages are compared as `when >= now - bound`; computed as
// `now - when` they wrapped negative for INT64_MIN, so such a report was
// accepted and never expired (and the subtraction overflowed).
TEST(PositionServiceContracts, FarPastWireReportsAreRejected) {
  const ServiceConfig config;  // staleness_bound 6h, no stale tier
  const SimTime now = SimTime::epoch() + Hours(1);
  const SimTime later = now + Hours(24 * 365);
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const SimTime stamps[] = {SimTime{min}, SimTime{min + 1},
                            now - config.staleness_bound - Micros(1)};
  std::vector<std::string> frames;
  std::vector<std::string> ids;
  for (const SimTime when : stamps) {
    std::string id = "far-";
    id += std::to_string(ids.size());
    frames.push_back(*encode(report(id, {{ReplicaId{1}, 1.0}}, when)));
    ids.push_back(std::move(id));
  }
  const auto expect_none_live = [&](const std::vector<std::string>& live) {
    for (const std::string& id : ids) {
      EXPECT_EQ(std::count(live.begin(), live.end(), id), 0) << id;
    }
  };

  PositionService one_by_one{config};
  for (const std::string& frame : frames) {
    EXPECT_FALSE(one_by_one.publish_encoded(frame, now));
  }
  PositionService batched{config};
  EXPECT_EQ(batched.publish_batch(frames, now), 0u);
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = config;
  ShardedFrontend sharded{fc};
  EXPECT_EQ(sharded.publish_batch(frames, now), 0u);

  for (PositionService* service : {&one_by_one, &batched}) {
    EXPECT_EQ(service->reports_rejected(), frames.size());
    EXPECT_EQ(service->size(), 0u);
    expect_none_live(service->live_nodes(now));
    expect_none_live(service->live_nodes(later));
    EXPECT_EQ(service->expire(later), 0u);
  }
  EXPECT_EQ(sharded.stats().reports_rejected, frames.size());
  EXPECT_EQ(sharded.size(), 0u);
  expect_none_live(sharded.view().live_nodes(now));
  expect_none_live(sharded.view().live_nodes(later));
}

// Clocks and stamps at the edges of the int64 range. The age test
// compares a stamp with now - bound without forming it where it leaves
// the range (the UBSan job checks that no subtraction overflows): at the
// bottom every stamp up to now is fresh, at the top a stamp of now is.
// A stamp 1 us in the future is rejected and changes nothing, and a
// frame that repeats a replica id is stored as its merged map.
TEST(PositionServiceContracts, EdgeClocksFutureStampsAndRepeatedReplicas) {
  using Limits = std::numeric_limits<std::int64_t>;
  const ServiceConfig config;  // staleness_bound 6h, no stale tier
  {
    SCOPED_TRACE("now = INT64_MIN + 1");
    PositionService service{config};
    const SimTime now{Limits::min() + 1};
    ASSERT_TRUE(service.publish(report("a", {{ReplicaId{1}, 1.0}}, now), now));
    ASSERT_TRUE(service.publish(
        report("b", {{ReplicaId{1}, 0.5}, {ReplicaId{2}, 0.5}},
               SimTime{Limits::min()}),
        now));
    EXPECT_NO_THROW(service.check_invariants());
    EXPECT_EQ(service.live_nodes(now), (std::vector<std::string>{"a", "b"}));
    const auto ranked = service.closest_any("a", 5, now);
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].node_id, "b");
    EXPECT_EQ(service.closest_any_tiered("b", 5, now).tier,
              AnswerTier::kFresh);
    EXPECT_EQ(service.expire(now), 0u);
  }
  {
    SCOPED_TRACE("now = INT64_MAX");
    PositionService service{config};
    const SimTime now{Limits::max()};
    ASSERT_TRUE(service.publish(report("y", {{ReplicaId{3}, 1.0}},
                                       now - config.staleness_bound),
                                now));
    ASSERT_TRUE(service.publish(report("z", {{ReplicaId{3}, 1.0}}, now), now));
    EXPECT_NO_THROW(service.check_invariants());
    EXPECT_EQ(service.live_nodes(now), (std::vector<std::string>{"y", "z"}));
    const auto ranked = service.closest_any("z", 5, now);
    ASSERT_EQ(ranked.size(), 1u);
    EXPECT_EQ(ranked[0].node_id, "y");
    EXPECT_EQ(service.expire(now), 0u);
  }
  for (const SimTime now :
       {SimTime{Limits::min() + 1}, SimTime::epoch() + Hours(1)}) {
    SCOPED_TRACE(::testing::Message() << "future stamp at " << now.micros());
    PositionService service{config};
    const PositionReport accepted = report("a", {{ReplicaId{1}, 1.0}}, now);
    ASSERT_TRUE(service.publish(accepted, now));
    const std::uint64_t epoch = service.membership_epoch();
    const SimTime future = now + Micros(1);
    EXPECT_FALSE(service.publish(report("a", {{ReplicaId{2}, 1.0}}, future),
                                 now));
    EXPECT_FALSE(service.publish(report("f", {{ReplicaId{1}, 1.0}}, future),
                                 now));
    EXPECT_EQ(service.reports_rejected(), 2u);
    EXPECT_EQ(service.membership_epoch(), epoch);
    EXPECT_NO_THROW(service.check_invariants());
    EXPECT_EQ(service.live_nodes(now), std::vector<std::string>{"a"});
    EXPECT_EQ(service.report_of("a"), accepted);
  }
  {
    SCOPED_TRACE("repeated replica id");
    const SimTime now = SimTime::epoch() + Hours(1);
    std::string frame = *encode(
        report("dup", {{ReplicaId{4}, 0.25}, {ReplicaId{9}, 0.75}}, now));
    // The second entry's replica id (little-endian u32, after the
    // 3-byte magic, version, id length, id, stamp and entry count)
    // becomes the first's.
    const std::size_t entries = 3 + 1 + 2 + 3 + 8 + 4;
    frame[entries + 12] = 4;
    const auto decoded = decode(frame);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->map.size(), 1u);
    PositionService service{config};
    ASSERT_TRUE(service.publish_encoded(frame, now));
    const auto stored = service.report_of("dup");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, *decoded);
    const core::RatioMap::Entry repeated[] = {{ReplicaId{4}, 0.25},
                                              {ReplicaId{4}, 0.75}};
    EXPECT_EQ(stored->map, core::RatioMap::from_ratios(repeated));
  }
}

// The clustering cache's age test at a far-past clock: a cluster query
// and a freeze compare the cut time with now - recluster_after without
// forming now - clustered_at (the UBSan job checks that no subtraction
// overflows). A clustering cut at 1 h is not older than the bound at
// INT64_MIN + 1, so the query answers from the cache and the snapshot
// carries it; in range the cache holds exactly up to recluster_after.
TEST(PositionServiceContracts, FarClockClusterCacheAgeDoesNotOverflow) {
  const ServiceConfig config;  // recluster_after 30 min, snapshots off
  const SimTime at = SimTime::epoch() + Hours(1);
  const SimTime far{std::numeric_limits<std::int64_t>::min() + 1};
  const auto cluster_at = [&](PositionService& service) {
    for (std::uint32_t i = 0; i < 6; ++i) {
      std::string id = "c";
      id += std::to_string(i);
      ASSERT_TRUE(
          service.publish(report(id, {{ReplicaId{i % 2}, 1.0}}, at), at));
    }
    EXPECT_EQ(service.cluster_assignment(at).size(), 6u);
    EXPECT_EQ(service.stats().reclusters, 1u);
  };
  {
    SCOPED_TRACE("cluster_assignment at INT64_MIN + 1");
    PositionService service{config};
    cluster_at(service);
    // Every stamp is fresh this far before it, so all six answer.
    EXPECT_EQ(service.cluster_assignment(far).size(), 6u);
    EXPECT_EQ(service.stats().reclusters, 1u);
    EXPECT_EQ(service.stats().clustering_cache_hits, 1u);
  }
  {
    SCOPED_TRACE("publish_snapshot at INT64_MIN + 1");
    PositionService service{config};
    cluster_at(service);
    EXPECT_TRUE(service.publish_snapshot(far)->has_clustering());
    EXPECT_EQ(service.stats().reclusters, 1u);
  }
  {
    SCOPED_TRACE("at recluster_after and 1 us past it");
    PositionService service{config};
    cluster_at(service);
    const SimTime edge = at + config.recluster_after;
    EXPECT_TRUE(service.publish_snapshot(edge)->has_clustering());
    EXPECT_EQ(service.cluster_assignment(edge).size(), 6u);
    EXPECT_EQ(service.stats().reclusters, 1u);
    const SimTime past = edge + Micros(1);
    EXPECT_FALSE(service.publish_snapshot(past)->has_clustering());
    EXPECT_EQ(service.cluster_assignment(past).size(), 6u);
    EXPECT_EQ(service.stats().reclusters, 2u);
  }
}

/// 16-entry maps that renormalizing again would change: their ratios do
/// not sum to exactly 1, so only a verbatim copy keeps their bits.
std::vector<core::RatioMap> renormalization_sensitive_maps(Rng& rng,
                                                           std::size_t n) {
  std::vector<core::RatioMap> maps;
  while (maps.size() < n) {
    std::vector<core::RatioMap::Entry> entries;
    for (std::uint32_t r = 0; r < 16; ++r) {
      entries.emplace_back(ReplicaId{r * 7 + static_cast<std::uint32_t>(
                                                 rng.uniform_int(0, 6))},
                           rng.uniform(0.01, 1.0));
    }
    core::RatioMap map = core::RatioMap::from_ratios(entries);
    if (core::RatioMap::from_ratios(map.entries()) != map) {
      maps.push_back(std::move(map));
    }
  }
  return maps;
}

std::size_t engine_slots(const PositionService& service) {
  return service.engine_slots();
}
std::size_t engine_slots(const ShardedFrontend& fe) {
  std::size_t total = 0;
  for (std::size_t s = 0; s < fe.shard_count(); ++s) {
    total += fe.shard(s).engine_slots();
  }
  return total;
}
void reset_all(PositionService& service, SimTime now) { service.reset(now); }
void reset_all(ShardedFrontend& fe, SimTime now) {
  for (std::size_t s = 0; s < fe.shard_count(); ++s) fe.shard(s).reset(now);
}

/// Drives `store` through every write that reshapes a node's record and
/// compares report_of/map_of with the accepted reports after each one.
template <typename Store>
void expect_report_of_is_accepted(Store& store) {
  Rng rng{20261018};
  const std::vector<core::RatioMap> maps =
      renormalization_sensitive_maps(rng, 32);
  std::size_t next_map = 0;
  std::map<std::string, PositionReport> accepted;
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.push_back("r-" + std::to_string(i));

  const auto publish = [&](const std::string& id, SimTime when) {
    PositionReport r;
    r.node_id = id;
    r.when = when;
    r.map = maps[next_map++ % maps.size()];
    const bool ok = store.publish(r, when);
    if (ok) accepted[id] = std::move(r);
    return ok;
  };
  const auto expect_held = [&](const std::string& step) {
    SCOPED_TRACE(step);
    ASSERT_NO_THROW(store.check_invariants());
    EXPECT_EQ(store.size(), accepted.size());
    for (const std::string& id : ids) {
      const auto it = accepted.find(id);
      const auto report = store.report_of(id);
      const auto map = store.map_of(id);
      if (it == accepted.end()) {
        EXPECT_FALSE(report.has_value()) << id;
        EXPECT_FALSE(map.has_value()) << id;
        continue;
      }
      ASSERT_TRUE(report.has_value()) << id;
      ASSERT_TRUE(map.has_value()) << id;
      EXPECT_TRUE(*report == it->second) << id;
      EXPECT_TRUE(*map == it->second.map) << id;
    }
  };

  SimTime t = SimTime::epoch();
  for (const std::string& id : ids) ASSERT_TRUE(publish(id, t));
  expect_held("joins");

  t = t + Minutes(1);
  ASSERT_TRUE(publish(ids[0], t));
  expect_held("update");

  // Older than the held report: rejected, and the held one stays.
  PositionReport older;
  older.node_id = ids[0];
  older.when = t - Minutes(2);
  older.map = maps[next_map++ % maps.size()];
  ASSERT_FALSE(store.publish(older, t));
  expect_held("out-of-order report");

  // A leave frees a slot that the next join takes back.
  ASSERT_TRUE(store.remove(ids[3]));
  accepted.erase(ids[3]);
  expect_held("remove");
  const std::size_t slots = engine_slots(store);
  ASSERT_TRUE(publish(ids[3], t));
  EXPECT_EQ(engine_slots(store), slots);
  expect_held("republish into the freed slot");

  // Updates orphan arena entries until the engine compacts.
  const std::uint64_t compactions = store.stats().compactions;
  for (int step = 0; step < 4000 && store.stats().compactions == compactions;
       ++step) {
    t = t + Seconds(1);
    ASSERT_TRUE(publish(ids[static_cast<std::size_t>(step) % ids.size()], t));
  }
  ASSERT_GT(store.stats().compactions, compactions);
  expect_held("compaction");

  // The even ids re-report late; the odd ones age out.
  const SimTime late = t + Hours(5);
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(publish(ids[i], late));
  }
  const SimTime sweep = t + Hours(7);
  EXPECT_EQ(store.expire(sweep), ids.size() / 2);
  for (std::size_t i = 1; i < ids.size(); i += 2) accepted.erase(ids[i]);
  expect_held("expire");

  reset_all(store, sweep);
  accepted.clear();
  expect_held("reset");
  ASSERT_TRUE(publish(ids[5], sweep));
  ASSERT_TRUE(publish(ids[6], sweep));
  expect_held("republish after reset");
}

// report_of and map_of rebuild the report from the node's engine row and
// slot; both must equal the accepted report bit for bit (gossip forwards
// it) through updates, rejections, slot reuse, compaction, expire and
// reset.
TEST(PositionServiceContracts, ReportOfIsTheAcceptedReport) {
  {
    SCOPED_TRACE("PositionService");
    PositionService service;
    expect_report_of_is_accepted(service);
  }
  {
    SCOPED_TRACE("ShardedFrontend, 4 shards");
    ShardedFrontendConfig fc;
    fc.shards = 4;
    ShardedFrontend fe{fc};
    expect_report_of_is_accepted(fe);
  }
}

TEST(PositionServiceTiers, FreshStaleAndRefusedTiers) {
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  config.stale_usable_bound = Hours(3);
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("b", {{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}, t0), t0));

  // Inside the staleness bound: a first-class fresh answer.
  const auto fresh = service.closest_any_tiered("a", 5, t0 + Minutes(30));
  EXPECT_TRUE(fresh.answered());
  EXPECT_EQ(fresh.tier, AnswerTier::kFresh);
  EXPECT_EQ(fresh.reason, DegradedReason::kNone);
  ASSERT_EQ(fresh.ranked.size(), 1u);
  EXPECT_EQ(fresh.ranked[0].node_id, "b");

  // Between the bounds: the plain query refuses, the tiered one serves
  // a clearly-labelled degraded answer from the same corpus.
  const SimTime t2h = t0 + Hours(2);
  EXPECT_TRUE(service.closest_any("a", 5, t2h).empty());
  const auto stale = service.closest_any_tiered("a", 5, t2h);
  EXPECT_TRUE(stale.answered());
  EXPECT_EQ(stale.tier, AnswerTier::kStale);
  EXPECT_EQ(stale.reason, DegradedReason::kStaleClient);
  ASSERT_EQ(stale.ranked.size(), 1u);
  EXPECT_EQ(stale.ranked[0].node_id, "b");

  // Past the stale tier: typed refusal, not an empty vector.
  const auto expired = service.closest_any_tiered("a", 5, t0 + Hours(4));
  EXPECT_FALSE(expired.answered());
  EXPECT_EQ(expired.tier, AnswerTier::kRefused);
  EXPECT_EQ(expired.reason, DegradedReason::kClientExpired);
  EXPECT_TRUE(expired.ranked.empty());

  // Unknown client refuses with its own reason.
  const auto unknown = service.closest_any_tiered("ghost", 5, t0);
  EXPECT_EQ(unknown.reason, DegradedReason::kUnknownClient);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fresh_answers, 1u);
  EXPECT_EQ(stats.stale_answers, 1u);
  EXPECT_EQ(stats.refused_queries, 2u);
}

TEST(PositionServiceTiers, CandidateFormMatchesPlainQueryWhenFresh) {
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  config.stale_usable_bound = Hours(3);
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("b", {{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("c", {{ReplicaId{1}, 0.8}, {ReplicaId{2}, 0.2}}, t0), t0));

  const std::vector<std::string> candidates{"b", "c", "ghost"};
  const auto tiered = service.closest_tiered("a", candidates, 5, t0);
  const auto plain = service.closest("a", candidates, 5, t0);
  EXPECT_EQ(tiered.tier, AnswerTier::kFresh);
  ASSERT_EQ(tiered.ranked.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(tiered.ranked[i].node_id, plain[i].node_id);
    EXPECT_EQ(tiered.ranked[i].similarity, plain[i].similarity);
  }
}

TEST(PositionServiceTiers, StaleClientSeesStaleCandidates) {
  // A degraded client deserves whatever usable information remains:
  // the stale tier ranks stale-but-usable candidates the fresh tier
  // would hide.
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  config.stale_usable_bound = Hours(3);
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("b", {{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}, t0), t0));

  const auto stale = service.closest_any_tiered("a", 5, t0 + Hours(2));
  ASSERT_EQ(stale.ranked.size(), 1u);
  EXPECT_EQ(stale.ranked[0].node_id, "b");
  EXPECT_EQ(stale.tier, AnswerTier::kStale);

  // No candidate at all in the usable band -> typed refusal.
  service.remove("b");
  const auto alone = service.closest_any_tiered("a", 5, t0 + Hours(2));
  EXPECT_FALSE(alone.answered());
  EXPECT_EQ(alone.reason, DegradedReason::kNoUsableCandidates);
}

TEST(PositionServiceTiers, ExpireKeepsStaleUsableReports) {
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  config.stale_usable_bound = Hours(3);
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 1.0}}, t0), t0));
  // 2 hours in: past staleness, inside the stale tier — expire() must
  // keep it (it still serves degraded answers).
  EXPECT_EQ(service.expire(t0 + Hours(2)), 0u);
  EXPECT_EQ(service.size(), 1u);
  // Past the stale tier it finally drops.
  EXPECT_EQ(service.expire(t0 + Hours(4)), 1u);
  EXPECT_EQ(service.size(), 0u);
}

TEST(PositionServiceTiers, DisabledStaleTierPreservesOldBehavior) {
  // stale_usable_bound = 0 (the default): tiered queries refuse exactly
  // where the plain queries go empty, and expire() uses the staleness
  // bound as before.
  ServiceConfig config;
  config.staleness_bound = Hours(1);
  PositionService service{config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(service.publish(
      report("a", {{ReplicaId{1}, 1.0}}, t0), t0));
  ASSERT_TRUE(service.publish(
      report("b", {{ReplicaId{1}, 0.9}, {ReplicaId{2}, 0.1}}, t0), t0));

  const auto late = service.closest_any_tiered("a", 5, t0 + Hours(2));
  EXPECT_FALSE(late.answered());
  EXPECT_EQ(late.reason, DegradedReason::kClientExpired);
  EXPECT_EQ(service.expire(t0 + Hours(2)), 2u);
}

// The engine rewire must not change a single ranking byte: compare
// closest/closest_any against a naive per-pair reference across a
// randomized publish/remove/expire history.
TEST(PositionServiceEquivalence, ClosestMatchesNaivePerPairReference) {
  Rng rng{20260806};
  ServiceConfig config;
  config.staleness_bound = Hours(6);
  PositionService service{config};

  std::unordered_map<std::string, PositionReport> shadow;
  SimTime now = SimTime::epoch();

  const auto random_report = [&rng](const std::string& id, SimTime when) {
    std::vector<core::RatioMap::Entry> entries;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      entries.emplace_back(
          ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 30))},
          rng.uniform(0.05, 1.0));
    }
    PositionReport r;
    r.node_id = id;
    r.when = when;
    r.map = core::RatioMap::from_ratios(entries);
    return r;
  };

  const auto naive_rank = [&](const std::string& client,
                              std::vector<std::string> ids, std::size_t k) {
    std::vector<RankedNode> ranked;
    const auto& client_map = shadow.at(client).map;
    for (std::string& id : ids) {
      if (id == client || !shadow.contains(id)) continue;
      const double sim =
          core::similarity(config.metric, client_map, shadow.at(id).map);
      ranked.push_back(RankedNode{std::move(id), sim});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedNode& a, const RankedNode& b) {
                       if (a.similarity != b.similarity) {
                         return a.similarity > b.similarity;
                       }
                       return a.node_id < b.node_id;
                     });
    if (ranked.size() > k) ranked.resize(k);
    return ranked;
  };

  std::uint64_t epoch = service.membership_epoch();
  for (int step = 0; step < 300; ++step) {
    now = now + Minutes(1);
    const std::string id =
        "node-" + std::to_string(rng.uniform_int(0, 39));
    const double action = rng.uniform(0.0, 1.0);
    if (action < 0.70) {
      auto r = random_report(id, now);
      if (service.publish(r, now)) shadow[id] = r;
    } else if (action < 0.85) {
      service.remove(id);
      shadow.erase(id);
    } else {
      service.expire(now);
      std::erase_if(shadow, [&](const auto& kv) {
        return now - kv.second.when > config.staleness_bound;
      });
    }
    ASSERT_NO_THROW(service.check_invariants()) << "step " << step;
    ASSERT_GE(service.membership_epoch(), epoch) << "step " << step;
    epoch = service.membership_epoch();

    if (step % 10 != 9 || shadow.empty()) continue;

    // Pick a live client and compare both query paths byte for byte.
    std::vector<std::string> live;
    for (const auto& [nid, r] : shadow) live.push_back(nid);
    std::sort(live.begin(), live.end());
    const std::string& client =
        live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1))];
    const std::size_t k =
        static_cast<std::size_t>(rng.uniform_int(1, 12));

    const auto got_any = service.closest_any(client, k, now);
    const auto want_any = naive_rank(client, live, k);
    ASSERT_EQ(got_any.size(), want_any.size()) << "step " << step;
    for (std::size_t i = 0; i < got_any.size(); ++i) {
      ASSERT_EQ(got_any[i].node_id, want_any[i].node_id) << "step " << step;
      ASSERT_EQ(got_any[i].similarity, want_any[i].similarity)
          << "step " << step;  // EQ, not NEAR: bit-identical contract
    }

    // A candidate list mixing live, unknown, and the client itself.
    std::vector<std::string> candidates = live;
    candidates.push_back("never-published");
    candidates.push_back(client);
    const auto got = service.closest(client, candidates, k, now);
    const auto want = naive_rank(client, live, k);
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].node_id, want[i].node_id) << "step " << step;
      ASSERT_EQ(got[i].similarity, want[i].similarity) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace crp::service
