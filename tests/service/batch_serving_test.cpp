// Oracles for the batch serving path (DESIGN.md §6): closest_batch and
// publish_batch must reproduce their element-wise twins bit-for-bit —
// same rankings, same end state, same counter accounting — for any pool
// size, with unknown/stale clients and malformed wire bytes mixed in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "service/position_service.hpp"
#include "service/wire.hpp"

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

/// A service with live nodes, one stale node, plus client lists that mix
/// in unknown and stale ids — the shapes the batch path must mirror.
class BatchServingTest : public ::testing::Test {
 protected:
  BatchServingTest() {
    Rng rng{90210};
    const SimTime t0 = SimTime::epoch();
    for (int i = 0; i < 40; ++i) {
      const std::string id = "n-" + std::to_string(i);
      service_.publish(report_of(id, random_map(rng), t0 + Minutes(i)), t0 + Minutes(i));
      ids_.push_back(id);
    }
    // "old" goes stale well before now_ (staleness bound 6h).
    service_.publish(report_of("old", random_map(rng), t0), t0);
    clients_ = ids_;
    clients_.push_back("old");        // stale at now_: empty answer
    clients_.push_back("unknown");    // never published: empty answer
    clients_.push_back(ids_.front()); // duplicate client
  }

  PositionService service_;
  std::vector<std::string> ids_;
  std::vector<std::string> clients_;
  const SimTime now_ = SimTime::epoch() + Hours(7);
};

TEST_F(BatchServingTest, ClosestBatchMatchesClosestAnyLoop) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::size_t{100}}) {
    std::vector<std::vector<RankedNode>> expected;
    for (const std::string& c : clients_) {
      expected.push_back(service_.closest_any(c, k, now_));
    }
    for (const std::size_t workers :
         {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool{workers};
      const auto got = service_.closest_batch(clients_, k, now_, &pool);
      ASSERT_EQ(got.size(), expected.size()) << "k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " workers="
                                          << workers << " client "
                                          << clients_[i]);
        expect_same_ranked(got[i], expected[i]);
      }
    }
  }
}

TEST_F(BatchServingTest, CandidateClosestBatchMatchesClosestLoop) {
  // Candidates mix live, stale, unknown, duplicates and the clients
  // themselves (a client never recommends itself).
  std::vector<std::string> candidates{ids_[0], ids_[3], ids_[7], ids_[3],
                                      "old", "unknown", ids_[11]};
  for (const std::size_t k : {std::size_t{2}, std::size_t{10}}) {
    std::vector<std::vector<RankedNode>> expected;
    for (const std::string& c : clients_) {
      expected.push_back(service_.closest(c, candidates, k, now_));
    }
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
      ThreadPool pool{workers};
      const auto got =
          service_.closest_batch(clients_, candidates, k, now_, &pool);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " workers="
                                          << workers << " client "
                                          << clients_[i]);
        expect_same_ranked(got[i], expected[i]);
      }
    }
  }
}

TEST_F(BatchServingTest, BatchAndLoopAccountIdentically) {
  // Two identical services; one answers per query, one in batch. Every
  // serving counter must land on the same totals.
  PositionService loop_svc;
  PositionService batch_svc;
  Rng rng{5150};
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 20; ++i) {
    const auto r = report_of("n-" + std::to_string(i), random_map(rng), t0);
    loop_svc.publish(r, t0);
    batch_svc.publish(r, t0);
  }
  const SimTime when = t0 + Hours(1);
  std::vector<std::string> clients{"n-0", "n-7", "unknown", "n-7", "n-19"};

  for (const std::string& c : clients) {
    (void)loop_svc.closest_any(c, 3, when);
  }
  (void)batch_svc.closest_batch(clients, 3, when);

  const auto a = loop_svc.stats();
  const auto b = batch_svc.stats();
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_EQ(a.similarity_queries, b.similarity_queries);
  EXPECT_EQ(a.maps_touched, b.maps_touched);

  // Candidate variant accounts like the scalar loop too, including the
  // all-vetted-away case: an empty vetted list runs no engine read,
  // scalar or batched (the rule every shard partial follows).
  std::vector<std::string> no_candidates{"unknown", "old"};
  const std::vector<std::string> empty_candidates;
  for (const std::string& c : clients) {
    (void)loop_svc.closest(c, empty_candidates, 2, when);
  }
  (void)batch_svc.closest_batch(clients, empty_candidates, 2, when);
  for (const std::string& c : clients) {
    (void)loop_svc.closest(c, no_candidates, 2, when);
  }
  (void)batch_svc.closest_batch(clients, no_candidates, 2, when);
  // Re-align: scalar loop above ran `closest` with an implicit empty
  // span and with dead candidates; mirror on the loop service done, so
  // totals must again agree.
  EXPECT_EQ(loop_svc.stats().queries_served,
            batch_svc.stats().queries_served);
  EXPECT_EQ(loop_svc.stats().similarity_queries,
            batch_svc.stats().similarity_queries);
  EXPECT_EQ(loop_svc.stats().maps_touched, batch_svc.stats().maps_touched);
}

TEST_F(BatchServingTest, TieBreakIsSimilarityDescThenNodeIdAsc) {
  // Identical maps force exact similarity ties; ranking must then be
  // lexicographic by node id, matching a full sort with the same key.
  PositionService svc;
  const SimTime t0 = SimTime::epoch();
  const auto shared = core::RatioMap::from_ratios(
      std::vector<core::RatioMap::Entry>{{ReplicaId{1}, 0.5},
                                         {ReplicaId{2}, 0.5}});
  for (const char* id : {"zeta", "alpha", "mid", "beta"}) {
    svc.publish(report_of(id, shared, t0), t0);
  }
  svc.publish(report_of(
                  "probe",
                  core::RatioMap::from_ratios(std::vector<core::RatioMap::Entry>{
                      {ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}),
                  t0),
              t0);

  const auto full = svc.closest_any("probe", 10, t0);
  ASSERT_EQ(full.size(), 4u);
  EXPECT_EQ(full[0].node_id, "alpha");
  EXPECT_EQ(full[1].node_id, "beta");
  EXPECT_EQ(full[2].node_id, "mid");
  EXPECT_EQ(full[3].node_id, "zeta");
  // Bounded k keeps the same prefix, scalar and batched.
  const auto top2 = svc.closest_any("probe", 2, t0);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].node_id, "alpha");
  EXPECT_EQ(top2[1].node_id, "beta");
  const auto batched =
      svc.closest_batch(std::vector<std::string>{"probe"}, 2, t0);
  ASSERT_EQ(batched.size(), 1u);
  expect_same_ranked(batched[0], top2);
}

TEST_F(BatchServingTest, ConcurrentConstQueriesAreSafe) {
  // Const query paths (including the sharded counters) under real
  // concurrency — the ThreadSanitizer CI job drives this test.
  std::vector<std::thread> threads;
  std::vector<std::vector<std::vector<RankedNode>>> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t, &results] {
      ThreadPool pool{2};
      for (int round = 0; round < 5; ++round) {
        results[t] = service_.closest_batch(clients_, 3, now_, &pool);
        (void)service_.closest_any(ids_[t], 2, now_);
        (void)service_.stats();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < 4; ++t) {
    ASSERT_EQ(results[t].size(), results[0].size());
    for (std::size_t i = 0; i < results[t].size(); ++i) {
      expect_same_ranked(results[t][i], results[0][i]);
    }
  }
  EXPECT_EQ(service_.queries_served(),
            4u * 5u * (clients_.size() + 1));
}

class PublishBatchTest : public ::testing::Test {
 protected:
  static std::string valid_wire(const std::string& id, Rng& rng,
                                SimTime when) {
    const auto bytes = encode(report_of(id, random_map(rng), when));
    return *bytes;
  }
};

TEST_F(PublishBatchTest, MatchesElementWisePublishEncoded) {
  Rng rng{777};
  const SimTime t0 = SimTime::epoch();
  std::vector<std::string> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back(valid_wire("n-" + std::to_string(i), rng, t0));
  }
  // Corrupt a spread of entries: bad magic, truncated, empty, garbage.
  batch[3][0] = 'X';
  batch[9].resize(batch[9].size() / 2);
  batch[17].clear();
  batch[25] = "not a report";

  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    ThreadPool pool{workers};
    PositionService control;
    std::size_t control_accepted = 0;
    for (const std::string& bytes : batch) {
      if (control.publish_encoded(bytes, t0)) ++control_accepted;
    }
    PositionService batched;
    EXPECT_EQ(batched.publish_batch(batch, t0, &pool), control_accepted);
    EXPECT_EQ(batched.live_nodes(t0), control.live_nodes(t0));
    EXPECT_EQ(batched.reports_accepted(), control.reports_accepted());
    EXPECT_EQ(batched.reports_rejected(), control.reports_rejected());
    for (const std::string& id : control.live_nodes(t0)) {
      EXPECT_EQ(batched.map_of(id), control.map_of(id)) << id;
    }
  }
}

// Wide maps: 16 entries over a 2,000-replica id space at 60, 120 and
// 240 nodes, so posting lists are long and a query touches much of the
// corpus (the fixtures above draw 1-6 entries over 24 ids). Batched
// ingest and batched closest must equal their element-wise loops.
TEST(BatchServingWideMaps, BatchesMatchElementWiseLoops) {
  for (const std::size_t n :
       {std::size_t{60}, std::size_t{120}, std::size_t{240}}) {
    SCOPED_TRACE(::testing::Message() << "nodes=" << n);
    Rng rng{hash_combine({91, n})};
    const SimTime now = SimTime::epoch() + Hours(1);
    std::vector<std::string> ids;
    std::vector<std::string> wire;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<core::RatioMap::Entry> entries;
      for (int j = 0; j < 16; ++j) {
        entries.emplace_back(
            ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 1999))},
            rng.uniform(0.05, 1.0));
      }
      ids.push_back("node-" + std::to_string(i));
      const auto bytes = encode(report_of(
          ids.back(), core::RatioMap::from_ratios(entries), now));
      ASSERT_TRUE(bytes.has_value());
      wire.push_back(*bytes);
    }
    PositionService loop_svc;
    for (const std::string& bytes : wire) {
      EXPECT_TRUE(loop_svc.publish_encoded(bytes, now));
    }
    std::vector<std::string> clients;
    const std::size_t batch = std::min<std::size_t>(256, n);
    for (std::size_t j = 0; j < batch; ++j) {
      clients.push_back(ids[j * n / batch]);
    }
    for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "workers=" << workers);
      ThreadPool pool{workers};
      PositionService svc;
      EXPECT_EQ(svc.publish_batch(wire, now, &pool), n);
      EXPECT_EQ(svc.live_nodes(now), loop_svc.live_nodes(now));
      for (const std::string& id : ids) {
        EXPECT_EQ(svc.map_of(id), loop_svc.map_of(id)) << id;
      }
      const auto got = svc.closest_batch(clients, 5, now, &pool);
      ASSERT_EQ(got.size(), clients.size());
      for (std::size_t j = 0; j < clients.size(); ++j) {
        SCOPED_TRACE("client " + clients[j]);
        expect_same_ranked(got[j], svc.closest_any(clients[j], 5, now));
      }
    }
  }
}

TEST_F(PublishBatchTest, TruncationSweepNeverPoisonsNeighbours) {
  // Property: a report truncated at *any* byte boundary is rejected (or,
  // if still decodable, accepted) exactly as publish_encoded decides,
  // and the surrounding valid reports always land.
  Rng rng{31415};
  const SimTime t0 = SimTime::epoch();
  const std::string before = valid_wire("before", rng, t0);
  const std::string victim = valid_wire("victim", rng, t0);
  const std::string after = valid_wire("after", rng, t0);

  for (std::size_t len = 0; len < victim.size(); ++len) {
    PositionService control;
    (void)control.publish_encoded(before, t0);
    const bool victim_ok =
        control.publish_encoded(victim.substr(0, len), t0);
    (void)control.publish_encoded(after, t0);
    // A strict prefix can never round-trip the full report.
    EXPECT_FALSE(victim_ok) << "len=" << len;

    PositionService batched;
    const std::vector<std::string> batch{before, victim.substr(0, len),
                                         after};
    EXPECT_EQ(batched.publish_batch(batch, t0), 2u) << "len=" << len;
    EXPECT_EQ(batched.live_nodes(t0), control.live_nodes(t0))
        << "len=" << len;
    EXPECT_EQ(batched.reports_rejected(), control.reports_rejected());
  }
}

TEST(BatchServingExpireTest, NoOpExpireKeepsCachedClustering) {
  // Regression: expire() that drops nothing must not bump the membership
  // epoch — the cached clustering stays valid and the next cluster query
  // is a cache hit, not a recluster.
  PositionService svc;
  Rng rng{2024};
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 12; ++i) {
    svc.publish(report_of("n-" + std::to_string(i), random_map(rng), t0),
                t0);
  }
  const SimTime fresh = t0 + Minutes(5);
  (void)svc.cluster_assignment(fresh);
  ASSERT_EQ(svc.stats().reclusters, 1u);

  EXPECT_EQ(svc.expire(fresh), 0u);  // nothing is stale yet
  (void)svc.cluster_assignment(fresh);
  EXPECT_EQ(svc.stats().reclusters, 1u) << "no-op expire invalidated cache";
  EXPECT_EQ(svc.stats().clustering_cache_hits, 1u);

  // Unknown-node removal is a no-op too.
  EXPECT_FALSE(svc.remove("never-published"));
  (void)svc.cluster_assignment(fresh);
  EXPECT_EQ(svc.stats().reclusters, 1u);

  // A drop that actually removes something must recluster.
  EXPECT_TRUE(svc.remove("n-3"));
  (void)svc.cluster_assignment(fresh);
  EXPECT_EQ(svc.stats().reclusters, 2u);

  // And an expire that really drops reports does as well.
  const SimTime later = t0 + Hours(7);
  EXPECT_EQ(svc.expire(later), 11u);
  EXPECT_TRUE(svc.live_nodes(later).empty());
}

}  // namespace
}  // namespace crp::service
