#include "service/gossip.hpp"

#include <gtest/gtest.h>

#include <string>

#include "service/wire.hpp"

namespace crp::service {
namespace {

/// "n<i>", built with += (a "literal" + std::to_string(i) temporary
/// trips GCC 12's -Wrestrict false positive).
std::string node_name(int i) {
  std::string id = "n";
  id += std::to_string(i);
  return id;
}

core::RatioMap map_of(std::uint32_t replica) {
  return core::RatioMap::from_ratios(
      std::vector<core::RatioMap::Entry>{{ReplicaId{replica}, 1.0}});
}

TEST(GossipMesh, AddNodeRejectsDuplicatesAndEmpty) {
  GossipMesh mesh;
  mesh.add_node("a");
  EXPECT_THROW(mesh.add_node("a"), std::invalid_argument);
  EXPECT_THROW(mesh.add_node(""), std::invalid_argument);
}

TEST(GossipMesh, LinksRequireKnownNodes) {
  GossipMesh mesh;
  mesh.add_node("a");
  EXPECT_THROW(mesh.add_link("a", "zz"), std::invalid_argument);
  EXPECT_THROW((void)mesh.store("zz"), std::invalid_argument);
}

TEST(GossipMesh, PublishLocalVisibleInOwnStoreOnly) {
  GossipMesh mesh;
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");
  EXPECT_TRUE(mesh.publish_local("a", map_of(1), SimTime::epoch()));
  EXPECT_TRUE(mesh.store("a").map_of("a").has_value());
  EXPECT_FALSE(mesh.store("b").map_of("a").has_value());
}

TEST(GossipMesh, OneRoundPropagatesToDirectPeers) {
  GossipMesh mesh;
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");
  mesh.publish_local("a", map_of(1), SimTime::epoch());
  const std::size_t sent = mesh.round(SimTime::epoch() + Minutes(1));
  EXPECT_GT(sent, 0u);
  EXPECT_TRUE(mesh.store("b").map_of("a").has_value());
  EXPECT_GT(mesh.bytes_gossiped(), 0u);
}

TEST(GossipMesh, ConvergesOnSparseRandomGraph) {
  GossipConfig config;
  config.seed = 9;
  GossipMesh mesh{config};
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    mesh.add_node("node" + std::to_string(i));
  }
  // Ring plus a few chords: connected but sparse.
  Rng rng{4};
  for (int i = 0; i < n; ++i) {
    mesh.add_link("node" + std::to_string(i),
                  "node" + std::to_string((i + 1) % n));
  }
  for (int c = 0; c < n / 3; ++c) {
    mesh.add_link(
        "node" + std::to_string(rng.uniform_int(0, n - 1)),
        "node" + std::to_string(rng.uniform_int(0, n - 1)));
  }
  for (int i = 0; i < n; ++i) {
    mesh.publish_local("node" + std::to_string(i),
                       map_of(static_cast<std::uint32_t>(i)),
                       SimTime::epoch());
  }
  EXPECT_LT(mesh.coverage(SimTime::epoch()), 0.2);
  SimTime t = SimTime::epoch();
  for (int round = 0; round < 40; ++round) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  EXPECT_GT(mesh.coverage(t), 0.95);
}

TEST(GossipMesh, FresherReportWinsAcrossHops) {
  GossipMesh mesh;
  for (const char* id : {"a", "b", "c"}) mesh.add_node(id);
  mesh.add_link("a", "b");
  mesh.add_link("b", "c");

  mesh.publish_local("a", map_of(1), SimTime::epoch());
  SimTime t = SimTime::epoch();
  for (int i = 0; i < 6; ++i) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  ASSERT_TRUE(mesh.store("c").map_of("a").has_value());
  EXPECT_TRUE(mesh.store("c").map_of("a")->contains(ReplicaId{1}));

  // Node a republishes a newer map; it must replace the old one at c.
  mesh.publish_local("a", map_of(2), t + Minutes(1));
  for (int i = 0; i < 6; ++i) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  EXPECT_TRUE(mesh.store("c").map_of("a")->contains(ReplicaId{2}));
}

TEST(GossipMesh, StaleReportsAreNotAccepted) {
  GossipConfig config;
  config.store.staleness_bound = Hours(1);
  GossipMesh mesh{config};
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");
  mesh.publish_local("a", map_of(1), SimTime::epoch());
  // Two hours later, a's old report is stale: gossip must not spread it.
  mesh.round(SimTime::epoch() + Hours(2));
  EXPECT_FALSE(mesh.store("b").map_of("a").has_value());
}

TEST(GossipMesh, LocalStoreAnswersQueriesAfterConvergence) {
  GossipMesh mesh;
  for (int i = 0; i < 6; ++i) mesh.add_node(node_name(i));
  mesh.fully_connect();
  // Two groups by replica overlap.
  for (int i = 0; i < 3; ++i) {
    mesh.publish_local(node_name(i), map_of(1),
                       SimTime::epoch());
  }
  for (int i = 3; i < 6; ++i) {
    mesh.publish_local(node_name(i), map_of(9),
                       SimTime::epoch());
  }
  SimTime t = SimTime::epoch();
  for (int r = 0; r < 10; ++r) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  // n0 answers a cluster query locally, with no service round-trip.
  const auto mates = mesh.store("n0").same_cluster("n0", t);
  EXPECT_EQ(mates, (std::vector<std::string>{"n1", "n2"}));
}

TEST(GossipMesh, ScheduledRoundsRun) {
  GossipMesh mesh;
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");
  mesh.publish_local("a", map_of(1), SimTime::epoch());
  sim::EventScheduler sched;
  mesh.schedule(sched, SimTime::epoch() + Minutes(5),
                SimTime::epoch() + Hours(1));
  sched.run_until(SimTime::epoch() + Hours(1));
  EXPECT_TRUE(mesh.store("b").map_of("a").has_value());
}

TEST(GossipMesh, CoverageEmptyCases) {
  GossipMesh mesh;
  EXPECT_DOUBLE_EQ(mesh.coverage(SimTime::epoch()), 0.0);
  mesh.add_node("a");
  EXPECT_DOUBLE_EQ(mesh.coverage(SimTime::epoch()), 0.0);  // none published
}

TEST(GossipMesh, OversizedNodeIdCountsAsEncodeRejected) {
  // publish_local accepts ids the wire format refuses; such reports
  // used to vanish silently in round(). They still don't gossip, but
  // the drop is now visible in stats().
  GossipMesh mesh;
  const std::string huge(kMaxNodeIdBytes + 1, 'x');
  mesh.add_node(huge);
  mesh.add_node("b");
  mesh.add_link(huge, "b");
  ASSERT_TRUE(mesh.publish_local(huge, map_of(1), SimTime::epoch()));

  const std::size_t sent = mesh.round(SimTime::epoch() + Minutes(1));
  EXPECT_EQ(sent, 0u);
  EXPECT_FALSE(mesh.store("b").map_of(huge).has_value());
  EXPECT_GT(mesh.stats().encode_rejected, 0u);
  EXPECT_EQ(mesh.stats().reports_sent, 0u);
  EXPECT_EQ(mesh.stats().bytes, 0u);
}

TEST(GossipMesh, StatsCountSentAndPublishRejected) {
  GossipConfig config;
  config.fanout = 1;
  GossipMesh mesh{config};
  // b inserted first: rounds visit b before a, so in the second round b
  // pushes its (by then outdated) copy of a's report before a can
  // refresh it in-round.
  mesh.add_node("b");
  mesh.add_node("a");
  mesh.add_link("a", "b");
  mesh.publish_local("a", map_of(1), SimTime::epoch());

  mesh.round(SimTime::epoch() + Minutes(1));
  const GossipStats after_first = mesh.stats();
  EXPECT_EQ(after_first.rounds, 1u);
  EXPECT_GT(after_first.reports_sent, 0u);
  EXPECT_EQ(after_first.encode_rejected, 0u);
  EXPECT_GT(after_first.bytes, 0u);
  EXPECT_EQ(after_first.bytes, mesh.bytes_gossiped());

  // a republishes a fresher report; b's next push of its older copy
  // back to a is a rejected publish (a already holds the newer one).
  mesh.publish_local("a", map_of(2), SimTime::epoch() + Minutes(2));
  mesh.round(SimTime::epoch() + Minutes(3));
  const GossipStats after_second = mesh.stats();
  EXPECT_EQ(after_second.rounds, 2u);
  EXPECT_GT(after_second.publish_rejected, 0u);
}

TEST(GossipMesh, RemoveNodeDropsLinksAndKeepsMeshRunning) {
  GossipMesh mesh;
  for (const char* id : {"a", "b", "c"}) mesh.add_node(id);
  mesh.fully_connect();
  mesh.publish_local("a", map_of(1), SimTime::epoch());
  mesh.publish_local("b", map_of(2), SimTime::epoch());
  mesh.publish_local("c", map_of(3), SimTime::epoch());

  SimTime t = SimTime::epoch();
  for (int r = 0; r < 6; ++r) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  ASSERT_TRUE(mesh.store("c").map_of("a").has_value());

  mesh.remove_node("b");
  EXPECT_EQ(mesh.num_nodes(), 2u);
  EXPECT_THROW((void)mesh.store("b"), std::invalid_argument);
  EXPECT_THROW(mesh.remove_node("b"), std::invalid_argument);

  // Rounds keep working on the surviving links; the departed node's
  // reports stay in peers' stores until they age out.
  for (int r = 0; r < 3; ++r) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  EXPECT_TRUE(mesh.store("a").map_of("b").has_value());
  const SimTime cold = t + Hours(12);
  mesh.store("a").expire(cold);
  EXPECT_FALSE(mesh.store("a").map_of("b").has_value());
}

TEST(GossipMesh, ChurnMidGossipStillConverges) {
  // Nodes joining and leaving between rounds: the mesh must keep
  // propagating among the survivors and fold latecomers in.
  GossipConfig config;
  config.seed = 17;
  GossipMesh mesh{config};
  const int n = 12;
  for (int i = 0; i < n; ++i) mesh.add_node(node_name(i));
  mesh.fully_connect();
  for (int i = 0; i < n; ++i) {
    mesh.publish_local(node_name(i),
                       map_of(static_cast<std::uint32_t>(i)),
                       SimTime::epoch());
  }

  SimTime t = SimTime::epoch();
  for (int r = 0; r < 3; ++r) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  // Churn: two nodes leave, one joins and links to a few survivors.
  mesh.remove_node("n3");
  mesh.remove_node("n7");
  mesh.add_node("late");
  for (const char* peer : {"n0", "n1", "n2"}) mesh.add_link("late", peer);
  mesh.publish_local("late", map_of(99), t);

  for (int r = 0; r < 25; ++r) {
    t = t + Minutes(5);
    mesh.round(t);
  }
  // Every survivor learned the latecomer's report and vice versa.
  for (int i = 0; i < n; ++i) {
    if (i == 3 || i == 7) continue;
    const std::string id = node_name(i);
    EXPECT_TRUE(mesh.store(id).map_of("late").has_value()) << id;
    EXPECT_TRUE(mesh.store("late").map_of(id).has_value()) << id;
  }
  EXPECT_GT(mesh.coverage(t), 0.95);
}

TEST(GossipMesh, ExpiredReportCanRepropagateAfterRepublish) {
  // A report ages out of every store, the node republishes, and gossip
  // spreads the new incarnation — expiry must not poison future rounds.
  GossipConfig config;
  config.store.staleness_bound = Hours(1);
  GossipMesh mesh{config};
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");

  mesh.publish_local("a", map_of(1), SimTime::epoch());
  mesh.round(SimTime::epoch() + Minutes(5));
  ASSERT_TRUE(mesh.store("b").map_of("a").has_value());

  // Age everything out on both stores.
  const SimTime later = SimTime::epoch() + Hours(3);
  mesh.store("a").expire(later);
  mesh.store("b").expire(later);
  ASSERT_FALSE(mesh.store("b").map_of("a").has_value());

  mesh.publish_local("a", map_of(2), later);
  mesh.round(later + Minutes(5));
  ASSERT_TRUE(mesh.store("b").map_of("a").has_value());
  EXPECT_TRUE(mesh.store("b").map_of("a")->contains(ReplicaId{2}));
}

TEST(GossipMesh, ScheduleRunsRoundAtExactEndBoundary) {
  // round_interval divides the window exactly: the round scheduled at
  // precisely `end` must still run (the guard is now > end, not >= end).
  GossipConfig config;
  config.round_interval = Minutes(5);
  GossipMesh mesh{config};
  mesh.add_node("a");
  mesh.add_node("b");
  mesh.add_link("a", "b");

  sim::EventScheduler sched;
  const SimTime start = SimTime::epoch() + Minutes(5);
  const SimTime end = SimTime::epoch() + Minutes(15);
  mesh.schedule(sched, start, end);
  // Publish just before the final scheduled round so only the round at
  // exactly t = end can deliver it.
  sched.at(end - Minutes(1), [&] {
    mesh.publish_local("a", map_of(7), sched.now());
  });
  sched.run_until(end);
  EXPECT_TRUE(mesh.store("b").map_of("a").has_value());
  // Rounds at start, start+5, end — and none after.
  EXPECT_EQ(mesh.stats().rounds, 3u);
  sched.run_until(end + Hours(1));
  EXPECT_EQ(mesh.stats().rounds, 3u);
}

}  // namespace
}  // namespace crp::service
