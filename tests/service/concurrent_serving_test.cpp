// Concurrent serving (DESIGN.md §8): ServingSnapshot bit-identity
// oracle against the mutable service, structural sharing and republish
// pacing, and the ConcurrentServing stress suite (readers + writer +
// stats polling) the TSan CI job runs.
#include "service/serving_snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::service {
namespace {

/// "n<i>", built with += (a "literal" + std::to_string(i) temporary
/// trips GCC 12's -Wrestrict false positive).
std::string node_name(int i) {
  std::string id = "n";
  id += std::to_string(i);
  return id;
}

PositionReport report(const std::string& id,
                      std::vector<std::pair<ReplicaId, double>> entries,
                      SimTime when) {
  PositionReport r;
  r.node_id = id;
  r.when = when;
  r.map = core::RatioMap::from_ratios(entries);
  return r;
}

PositionReport random_report(Rng& rng, const std::string& id, SimTime when,
                             std::uint32_t id_space = 24) {
  std::vector<std::pair<ReplicaId, double>> entries;
  const int k = static_cast<int>(rng.uniform_int(1, 6));
  const std::uint32_t lo = rng.uniform(0.0, 1.0) < 0.5 ? id_space / 2 : 0;
  for (int j = 0; j < k; ++j) {
    entries.emplace_back(
        ReplicaId{lo + static_cast<std::uint32_t>(
                           rng.uniform_int(0, id_space / 2 - 1))},
        rng.uniform(0.05, 1.0));
  }
  return report(id, std::move(entries), when);
}

void expect_same_ranking(const std::vector<RankedNode>& got,
                         const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id);
    EXPECT_EQ(got[i].similarity, want[i].similarity);  // bit-identical
  }
}

void expect_same_tiered(const TieredAnswer& got, const TieredAnswer& want) {
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.reason, want.reason);
  expect_same_ranking(got.ranked, want.ranked);
}

// --- randomized oracle: every snapshot query bit-identical to the
// --- mutable service at the same epoch ---

class SnapshotOracleTest
    : public ::testing::TestWithParam<core::SimilarityKind> {};

TEST_P(SnapshotOracleTest, SnapshotMatchesMutableServiceBitForBit) {
  const core::SimilarityKind kind = GetParam();
  Rng rng{9107 + static_cast<std::uint64_t>(kind)};
  for (const std::size_t threads : {0u, 1u, 4u}) {
    ThreadPool pool{threads};
    ServiceConfig cfg;
    cfg.metric = kind;
    cfg.staleness_bound = Hours(6);
    cfg.stale_usable_bound = Hours(12);
    cfg.recluster_after = Hours(48);  // cache survives every query time
    cfg.snapshots.clustering = true;  // freeze attaches a clustering
    PositionService service{cfg};

    // Random membership: publishes spread over six hours (some updates
    // clobbering earlier reports), then a few removals — so the frozen
    // corpus carries tombstoned slots and mixed-age reports. After every
    // write the service's tables hold their invariants, its epoch has not
    // gone back, and a freeze's node table holds its invariants too.
    const SimTime t0 = SimTime::epoch();
    std::vector<std::string> ids;
    for (int i = 0; i < 48; ++i) {
      ids.push_back(node_name(100 + i));
    }
    std::uint64_t epoch = service.membership_epoch();
    const auto check_write = [&](SimTime now) {
      EXPECT_NO_THROW(service.check_invariants());
      EXPECT_GE(service.membership_epoch(), epoch);
      epoch = service.membership_epoch();
      EXPECT_NO_THROW(service.publish_snapshot(now)->check_invariants());
    };
    for (int round = 0; round < 64; ++round) {
      const std::string& id = ids[rng.uniform_int(0, ids.size() - 1)];
      const SimTime when =
          t0 + Minutes(static_cast<std::int64_t>(rng.uniform_int(0, 360)));
      (void)service.publish(random_report(rng, id, when), when + Minutes(1));
      check_write(when + Minutes(1));
    }
    for (int drops = 0; drops < 4; ++drops) {
      (void)service.remove(ids[rng.uniform_int(0, ids.size() - 1)]);
      check_write(t0 + Hours(6));
    }

    const SimTime frozen = t0 + Hours(6);
    const auto snap = service.publish_snapshot(frozen);
    ASSERT_NE(snap, nullptr);
    EXPECT_NO_THROW(snap->check_invariants());
    EXPECT_EQ(snap->membership_epoch(), service.membership_epoch());
    EXPECT_EQ(snap->frozen_at(), frozen);
    ASSERT_TRUE(snap->has_clustering());

    // Query times straddling the freshness tiers: everything usable,
    // some reports in the stale band, some expired outright.
    for (const SimTime now :
         {frozen, frozen + Hours(4), frozen + Hours(9)}) {
      EXPECT_EQ(service.live_nodes(now), snap->live_nodes(now));

      std::vector<std::string> clients = {ids[0], ids[7], ids[23],
                                          "unknown-node", ids[41]};
      std::vector<std::string> candidates;
      for (int c = 0; c < 20; ++c) {
        candidates.push_back(ids[rng.uniform_int(0, ids.size() - 1)]);
      }
      candidates.push_back("unknown-node");
      candidates.push_back(clients[0]);  // self for the first client

      for (const std::string& client : clients) {
        expect_same_ranking(snap->closest(client, candidates, 5, now),
                            service.closest(client, candidates, 5, now));
        expect_same_ranking(snap->closest(client, candidates, 0, now),
                            service.closest(client, candidates, 0, now));
        expect_same_ranking(snap->closest_any(client, 8, now),
                            service.closest_any(client, 8, now));
        expect_same_tiered(snap->closest_any_tiered(client, 8, now),
                           service.closest_any_tiered(client, 8, now));
        expect_same_tiered(
            snap->closest_tiered(client, candidates, 5, now),
            service.closest_tiered(client, candidates, 5, now));
      }

      const auto batch_any = snap->closest_batch(clients, 6, now, &pool);
      const auto batch_any_want =
          service.closest_batch(clients, 6, now, &pool);
      ASSERT_EQ(batch_any.size(), batch_any_want.size());
      for (std::size_t i = 0; i < batch_any.size(); ++i) {
        expect_same_ranking(batch_any[i], batch_any_want[i]);
      }
      const auto batch_cand =
          snap->closest_batch(clients, candidates, 6, now, &pool);
      const auto batch_cand_want =
          service.closest_batch(clients, candidates, 6, now, &pool);
      ASSERT_EQ(batch_cand.size(), batch_cand_want.size());
      for (std::size_t i = 0; i < batch_cand.size(); ++i) {
        expect_same_ranking(batch_cand[i], batch_cand_want[i]);
      }

      // Cluster queries: the service recomputes nothing (its cache is
      // current at the snapshot's epoch), so both sides answer from the
      // same clustering generation.
      for (const std::string& id :
           {ids[3], ids[19], std::string{"unknown-node"}}) {
        EXPECT_EQ(service.same_cluster(id, now), snap->same_cluster(id, now));
      }
      EXPECT_EQ(service.cluster_assignment(now),
                snap->cluster_assignment(now));
      for (const std::uint64_t seed : {0ull, 7ull}) {
        EXPECT_EQ(service.diverse_set(5, now, seed),
                  snap->diverse_set(5, now, seed));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SnapshotOracleTest,
                         ::testing::Values(core::SimilarityKind::kCosine,
                                           core::SimilarityKind::kWeightedOverlap,
                                           core::SimilarityKind::kJaccard));

// --- immutability, sharing and pacing ---

TEST(ServingSnapshotTest, SnapshotUnchangedByLaterWrites) {
  Rng rng{551};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 12; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0),
                          t0);
  }
  const auto snap = service.publish_snapshot(t0);
  const auto before_nodes = snap->live_nodes(t0);
  const auto before_ranked = snap->closest_any("n3", 5, t0);

  for (int i = 0; i < 12; ++i) {
    (void)service.publish(
        random_report(rng, node_name(i), t0 + Minutes(5)),
        t0 + Minutes(5));
  }
  (void)service.remove("n3");
  (void)service.publish(random_report(rng, "extra", t0 + Minutes(5)),
                        t0 + Minutes(5));

  EXPECT_EQ(snap->live_nodes(t0), before_nodes);
  expect_same_ranking(snap->closest_any("n3", 5, t0), before_ranked);
  EXPECT_EQ(snap->size(), 12u);
}

TEST(ServingSnapshotTest, RepublishWithoutWritesSharesEverything) {
  Rng rng{552};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 8; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0),
                          t0);
  }
  const auto s1 = service.publish_snapshot(t0);
  const auto s2 = service.publish_snapshot(t0 + Minutes(10));
  EXPECT_NE(s1, s2);
  EXPECT_EQ(s2->frozen_at(), t0 + Minutes(10));
  // Same membership epoch: node table, engine snapshot (freeze-cache
  // hit) and counters are all shared, not copied.
  EXPECT_EQ(s1->nodes_identity(), s2->nodes_identity());
  EXPECT_EQ(s1->engine().get(), s2->engine().get());
  EXPECT_EQ(s1->counters_identity(), s2->counters_identity());

  // An update moves the epoch: the stamps are rebuilt, and the id table
  // is shared (no node joined or left).
  (void)service.publish(random_report(rng, "n0", t0 + Minutes(11)),
                        t0 + Minutes(11));
  const auto s3 = service.publish_snapshot(t0 + Minutes(11));
  EXPECT_EQ(s3->nodes_identity(), s2->nodes_identity());
  EXPECT_NE(s3->stamps_identity(), s2->stamps_identity());
  EXPECT_EQ(s3->counters_identity(), s2->counters_identity());
}

// The id table is copied only when a node joined or left (or a reset
// ran) since the last snapshot; update-only republishes share it, on a
// service and on a frontend that republishes after every write. Every
// snapshot keeps answering from its own frozen ids and stamps.
TEST(ServingSnapshotTest, UpdateOnlyRepublishSharesTheIdTable) {
  Rng rng{554};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 8; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0), t0);
  }
  const auto joined = service.publish_snapshot(t0);
  (void)service.publish(random_report(rng, "n1", t0 + Minutes(1)),
                        t0 + Minutes(1));
  (void)service.publish(random_report(rng, "n2", t0 + Minutes(2)),
                        t0 + Minutes(2));
  const auto updated = service.publish_snapshot(t0 + Minutes(2));
  EXPECT_EQ(updated->nodes_identity(), joined->nodes_identity());
  EXPECT_NE(updated->stamps_identity(), joined->stamps_identity());
  EXPECT_EQ(updated->live_nodes(t0 + Minutes(2)),
            joined->live_nodes(t0 + Minutes(2)));
  ASSERT_NO_THROW(updated->check_invariants());

  (void)service.publish(random_report(rng, "late", t0 + Minutes(3)),
                        t0 + Minutes(3));
  const auto grown = service.publish_snapshot(t0 + Minutes(3));
  EXPECT_NE(grown->nodes_identity(), updated->nodes_identity());
  EXPECT_EQ(grown->size(), 9u);
  EXPECT_EQ(updated->size(), 8u);

  (void)service.remove("n4");
  const auto shrunk = service.publish_snapshot(t0 + Minutes(3));
  EXPECT_NE(shrunk->nodes_identity(), grown->nodes_identity());
  EXPECT_EQ(shrunk->size(), 8u);
  EXPECT_EQ(grown->size(), 9u);
  ASSERT_NO_THROW(shrunk->check_invariants());
  ASSERT_NO_THROW(service.check_invariants());

  // The republish inside reset() copies the (now empty) table.
  service.reset(t0 + Minutes(4));
  const auto wiped = service.snapshot();
  EXPECT_NE(wiped->nodes_identity(), shrunk->nodes_identity());
  EXPECT_EQ(wiped->size(), 0u);
  EXPECT_EQ(shrunk->size(), 8u);

  ShardedFrontendConfig fc;
  fc.shards = 2;
  ShardedFrontend fe{fc};
  for (int i = 0; i < 8; ++i) {
    (void)fe.publish(random_report(rng, node_name(i), t0), t0);
  }
  const ShardedFrontend::View before = fe.view();
  (void)fe.publish(random_report(rng, "n3", t0 + Minutes(1)),
                   t0 + Minutes(1));
  ASSERT_NO_THROW(fe.check_invariants());
  const ShardedFrontend::View after = fe.view();
  const std::size_t s = fe.shard_of("n3");
  EXPECT_EQ(after.shard(s).nodes_identity(),
            before.shard(s).nodes_identity());
  EXPECT_NE(after.shard(s).stamps_identity(),
            before.shard(s).stamps_identity());
  (void)fe.remove("n3");
  ASSERT_NO_THROW(fe.check_invariants());
  EXPECT_NE(fe.view().shard(s).nodes_identity(),
            after.shard(s).nodes_identity());
  EXPECT_EQ(fe.view().size(), 7u);
}

TEST(ServingSnapshotTest, DisabledConfigNeverAutopublishes) {
  Rng rng{553};
  PositionService service;  // snapshots.enabled defaults to false
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 20; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0),
                          t0);
  }
  (void)service.remove("n0");
  (void)service.expire(t0 + Hours(100));
  service.maybe_publish_snapshot(t0 + Hours(100));
  EXPECT_EQ(service.snapshot(), nullptr);
  // Explicit cuts work regardless of the master switch.
  EXPECT_NE(service.publish_snapshot(t0 + Hours(100)), nullptr);
  EXPECT_NE(service.snapshot(), nullptr);
}

TEST(ServingSnapshotTest, EpochLagBoundaryPacesRepublish) {
  Rng rng{554};
  ServiceConfig cfg;
  cfg.snapshots.enabled = true;
  cfg.snapshots.max_epoch_lag = 4;
  cfg.snapshots.max_age = Hours(1000);  // age never triggers here
  PositionService service{cfg};
  const SimTime t0 = SimTime::epoch();

  // First accepted write publishes (there is nothing yet).
  (void)service.publish(random_report(rng, "n0", t0), t0);
  const auto first = service.snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->membership_epoch(), service.membership_epoch());

  // The next three epochs stay within the lag bound: no republish.
  for (int i = 1; i <= 3; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0),
                          t0);
    EXPECT_EQ(service.snapshot(), first) << "republished at lag " << i;
  }
  // The fourth hits max_epoch_lag.
  (void)service.publish(random_report(rng, "n4", t0), t0);
  const auto second = service.snapshot();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->membership_epoch(), service.membership_epoch());

  // Rejected publishes do not advance the epoch, so they never trip
  // the lag boundary.
  for (int i = 0; i < 10; ++i) {
    (void)service.publish(report("", {}, t0), t0);
  }
  EXPECT_EQ(service.snapshot(), second);
}

// Paced republish under publish/remove churn: after every write the
// published snapshot trails the writer by fewer than max_epoch_lag
// membership epochs. A removal advances the epoch like a publish, and
// remove() paces at the writer's clock.
TEST(ServingSnapshotTest, EpochLagStaysBelowTheBoundUnderPublishRemoveChurn) {
  Rng rng{556};
  ServiceConfig cfg;
  cfg.snapshots.enabled = true;
  cfg.snapshots.max_epoch_lag = 8;
  cfg.snapshots.max_age = Hours(1000);  // only the lag paces here
  PositionService service{cfg};
  SimTime now = SimTime::epoch();
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(node_name(i));
    ASSERT_TRUE(service.publish(random_report(rng, ids.back(), now), now));
  }
  auto last = service.snapshot();
  std::size_t removals = 0;
  std::size_t republishes = 0;
  for (int round = 0; round < 400; ++round) {
    now = now + Seconds(1);
    const std::string& id = ids[rng.uniform_int(0, ids.size() - 1)];
    if (round % 9 == 0) {
      removals += service.remove(id) ? 1 : 0;
    } else {
      ASSERT_TRUE(service.publish(random_report(rng, id, now), now));
    }
    const auto snap = service.snapshot();
    ASSERT_NE(snap, nullptr);
    ASSERT_LT(service.membership_epoch() - snap->membership_epoch(),
              cfg.snapshots.max_epoch_lag)
        << "round " << round;
    if (snap != last) ++republishes;
    last = snap;
  }
  EXPECT_GT(removals, 0u);
  EXPECT_GE(republishes, 40u);  // at least 355 publishes, paced every 8
}

TEST(ServingSnapshotTest, MaxAgeBoundaryPacesRepublish) {
  Rng rng{555};
  ServiceConfig cfg;
  cfg.snapshots.enabled = true;
  cfg.snapshots.max_epoch_lag = 1000000;  // lag never triggers here
  cfg.snapshots.max_age = Minutes(10);
  PositionService service{cfg};
  const SimTime t0 = SimTime::epoch();

  (void)service.publish(random_report(rng, "n0", t0), t0);
  const auto first = service.snapshot();
  ASSERT_NE(first, nullptr);

  // Writes within the age bound reuse the published snapshot.
  (void)service.publish(random_report(rng, "n1", t0 + Minutes(5)),
                        t0 + Minutes(5));
  EXPECT_EQ(service.snapshot(), first);

  // Even a write-free boundary check republishes once the snapshot has
  // aged out — liveness filtering must not run on an arbitrarily old
  // frozen clock.
  service.maybe_publish_snapshot(t0 + Minutes(12));
  const auto second = service.snapshot();
  EXPECT_NE(second, first);
  // The un-republished epoch-lagged state is in the new snapshot now.
  EXPECT_EQ(second->membership_epoch(), service.membership_epoch());
}

TEST(ServingSnapshotTest, ClusteringAttachesWhenCachedOrForced) {
  Rng rng{556};
  PositionService service;  // snapshots.clustering defaults to false
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 10; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0),
                          t0);
  }
  // No clustering cached, none requested: cluster queries answer empty.
  const auto bare = service.publish_snapshot(t0);
  EXPECT_FALSE(bare->has_clustering());
  EXPECT_TRUE(bare->same_cluster("n1", t0).empty());
  EXPECT_TRUE(bare->cluster_assignment(t0).empty());
  EXPECT_TRUE(bare->diverse_set(3, t0).empty());

  // A cluster query on the service warms the cache; the next freeze
  // attaches it for free.
  (void)service.cluster_assignment(t0);
  const auto warmed = service.publish_snapshot(t0);
  ASSERT_TRUE(warmed->has_clustering());
  EXPECT_EQ(warmed->cluster_assignment(t0), service.cluster_assignment(t0));

  // snapshots.clustering = true forces the computation at freeze time.
  ServiceConfig cfg;
  cfg.snapshots.clustering = true;
  PositionService forced{cfg};
  for (int i = 0; i < 10; ++i) {
    (void)forced.publish(random_report(rng, node_name(i), t0),
                         t0);
  }
  const auto always = forced.publish_snapshot(t0);
  ASSERT_TRUE(always->has_clustering());
  EXPECT_EQ(always->cluster_assignment(t0), forced.cluster_assignment(t0));
}

// --- ConcurrentServing: the TSan stress suite ---
//
// One writer mutating the service and republishing snapshots, several
// reader threads answering the full query mix from whatever snapshot is
// current, plus a stats poller hammering stats() throughout. Under
// TSan this proves the single-writer/lock-free-reader contract holds;
// under a plain build it still checks snapshot monotonicity and that
// the counters aggregate sanely once traffic quiesces.

TEST(ConcurrentServing, ReadersWriterAndStatsPolling) {
  Rng rng{7411};
  ServiceConfig cfg;
  cfg.snapshots.enabled = true;
  cfg.snapshots.max_epoch_lag = 8;
  cfg.snapshots.max_age = Minutes(2);
  cfg.snapshots.clustering = true;
  cfg.stale_usable_bound = Hours(12);
  PositionService service{cfg};

  const SimTime t0 = SimTime::epoch();
  std::vector<std::string> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(node_name(i));
  for (const std::string& id : ids) {
    (void)service.publish(random_report(rng, id, t0), t0);
  }
  (void)service.publish_snapshot(t0);

  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&service, &ids, r, &stop] {
      Rng reader_rng{100 + static_cast<std::uint64_t>(r)};
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = service.snapshot();
        ASSERT_NE(snap, nullptr);
        // Epochs only move forward through the handle.
        const std::uint64_t epoch = snap->membership_epoch();
        ASSERT_GE(epoch, last_epoch);
        last_epoch = epoch;
        const SimTime now = snap->frozen_at();
        const std::string& client =
            ids[reader_rng.uniform_int(0, ids.size() - 1)];
        const auto any = snap->closest_any(client, 5, now);
        ASSERT_LE(any.size(), 5u);
        std::vector<std::string> candidates{ids[0], ids[7], ids[13],
                                            "unknown-node"};
        const auto some = snap->closest(client, candidates, 3, now);
        ASSERT_LE(some.size(), 3u);
        const auto tiered = snap->closest_any_tiered(client, 4, now);
        if (tiered.answered()) {
          ASSERT_FALSE(tiered.ranked.empty());
        }
        std::vector<std::string> clients{client, ids[3], "unknown-node"};
        const auto batch = snap->closest_batch(clients, 4, now);
        ASSERT_EQ(batch.size(), clients.size());
        if (snap->has_clustering()) {
          (void)snap->same_cluster(client, now);
          (void)snap->diverse_set(3, now);
        }
        (void)snap->live_nodes(now);
      }
    });
  }

  threads.emplace_back([&service, &stop] {
    // The stats hammer: every field must be readable mid-burst without
    // tearing, and the per-thread view must be monotonic.
    std::uint64_t last_queries = 0;
    std::uint64_t last_accepted = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceStats s = service.stats();
      ASSERT_GE(s.queries_served, last_queries);
      ASSERT_GE(s.reports_accepted, last_accepted);
      last_queries = s.queries_served;
      last_accepted = s.reports_accepted;
    }
  });

  // The single writer: publish bursts, churn, expiry, explicit pacing.
  SimTime now = t0;
  for (int round = 0; round < 400; ++round) {
    now = now + Minutes(1);
    const std::string& id = ids[rng.uniform_int(0, ids.size() - 1)];
    (void)service.publish(random_report(rng, id, now), now);
    if (round % 7 == 0) {
      (void)service.remove(ids[rng.uniform_int(0, ids.size() - 1)]);
    }
    if (round % 31 == 0) (void)service.expire(now);
    if (round % 13 == 0) (void)service.cluster_assignment(now);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  // Quiesced coherence: the aggregated counters reflect both the
  // readers' traffic and the writer's.
  const ServiceStats s = service.stats();
  EXPECT_GT(s.queries_served, 0u);
  EXPECT_GT(s.similarity_queries, 0u);
  EXPECT_GE(s.reports_accepted, 32u);
  const auto snap = service.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_LE(snap->membership_epoch(), service.membership_epoch());
}

}  // namespace
}  // namespace crp::service
