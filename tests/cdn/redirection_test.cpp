#include "cdn/redirection.hpp"

#include <gtest/gtest.h>

#include <set>

#include "../test_util.hpp"

namespace crp::cdn {
namespace {

class RedirectionTest : public ::testing::Test {
 protected:
  RedirectionTest() : world_{31} {}
  test::MiniWorld world_;
};

TEST_F(RedirectionTest, LatencyPolicyReturnsRequestedCount) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const auto picks = policy.select(world_.clients[0],
                                   world_.catalog.customer(0),
                                   SimTime::epoch(), 2);
  EXPECT_EQ(picks.size(), 2u);
  EXPECT_NE(picks[0], picks[1]);
}

TEST_F(RedirectionTest, LatencyPolicyPicksNearbyReplicas) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  // The chosen replica should be much closer than the median replica.
  for (std::size_t c = 0; c < 10; ++c) {
    const HostId client = world_.clients[c];
    const auto picks = policy.select(client, world_.catalog.customer(0),
                                     SimTime::epoch(), 1);
    ASSERT_FALSE(picks.empty());
    if (world_.deployment.is_origin_fallback(picks[0])) continue;
    const double chosen_rtt = world_.oracle->base_rtt_ms(
        client, world_.deployment.replica(picks[0]).host);

    std::vector<double> all;
    for (const ReplicaServer& r : world_.deployment.replicas()) {
      all.push_back(world_.oracle->base_rtt_ms(client, r.host));
    }
    std::sort(all.begin(), all.end());
    EXPECT_LT(chosen_rtt, all[all.size() / 2]) << "client " << c;
  }
}

TEST_F(RedirectionTest, StableWithinRotationEpoch) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const auto a = policy.select(world_.clients[0], world_.catalog.customer(0),
                               SimTime::epoch() + Seconds(1), 2);
  const auto b = policy.select(world_.clients[0], world_.catalog.customer(0),
                               SimTime::epoch() + Seconds(19), 2);
  EXPECT_EQ(a, b);
}

TEST_F(RedirectionTest, RotatesAcrossEpochs) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  std::set<ReplicaId> seen;
  for (int e = 0; e < 40; ++e) {
    for (ReplicaId id :
         policy.select(world_.clients[0], world_.catalog.customer(0),
                       SimTime::epoch() + Seconds(20 * e), 2)) {
      seen.insert(id);
    }
  }
  // Rotation should surface more than one answer pair over 40 epochs...
  EXPECT_GT(seen.size(), 2u);
  // ...but stay restricted to a small working set (paper: < 20 frequent).
  EXPECT_LE(seen.size(), 20u);
}

TEST_F(RedirectionTest, RespectsCustomerSubset) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const Customer& customer = world_.catalog.customer(1);
  for (int e = 0; e < 20; ++e) {
    for (ReplicaId id :
         policy.select(world_.clients[1], customer,
                       SimTime::epoch() + Seconds(20 * e), 2)) {
      EXPECT_TRUE(customer.serves(id) ||
                  world_.deployment.is_origin_fallback(id));
    }
  }
}

TEST_F(RedirectionTest, CandidateListSortedByProximity) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const auto& candidates = policy.candidates(world_.clients[0]);
  ASSERT_GT(candidates.size(), 10u);
  double prev = -1.0;
  for (const LatencyDrivenPolicy::Candidate& c : candidates) {
    const HostId host = world_.deployment.replica(c.id).host;
    EXPECT_EQ(c.key.far.host, host);
    EXPECT_EQ(c.key.far.pop, world_.topo.host(host).pop);
    EXPECT_FALSE(world_.deployment.is_origin_fallback(c.id));
    const double rtt = world_.oracle->base_rtt_ms(world_.clients[0], host);
    // The carried base RTT is the oracle's value, bit for bit.
    EXPECT_EQ(c.base_rtt_ms, rtt);
    EXPECT_GE(rtt, prev);
    prev = rtt;
  }
}

TEST_F(RedirectionTest, ZeroCountReturnsEmpty) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  EXPECT_TRUE(policy.select(world_.clients[0], world_.catalog.customer(0),
                            SimTime::epoch(), 0)
                  .empty());
}

TEST_F(RedirectionTest, GeoStaticIsTimeInvariant) {
  GeoStaticPolicy policy{world_.topo, world_.deployment};
  const auto a = policy.select(world_.clients[0], world_.catalog.customer(0),
                               SimTime::epoch(), 2);
  const auto b = policy.select(world_.clients[0], world_.catalog.customer(0),
                               SimTime::epoch() + Hours(100), 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
}

TEST_F(RedirectionTest, RandomPolicyCoversSubsetBroadly) {
  RandomPolicy policy{world_.deployment, 7};
  std::set<ReplicaId> seen;
  for (int e = 0; e < 100; ++e) {
    for (ReplicaId id :
         policy.select(world_.clients[0], world_.catalog.customer(0),
                       SimTime::epoch() + Seconds(20 * e), 2)) {
      seen.insert(id);
      EXPECT_TRUE(world_.catalog.customer(0).serves(id));
    }
  }
  // Uniform selection roams far wider than the latency-driven pool.
  EXPECT_GT(seen.size(), 50u);
}

TEST_F(RedirectionTest, StickyPolicyNeverChanges) {
  StickyPolicy policy{*world_.oracle, world_.deployment,
                      *world_.measurement};
  const auto a = policy.select(world_.clients[2], world_.catalog.customer(0),
                               SimTime::epoch(), 2);
  for (int e = 1; e < 20; ++e) {
    EXPECT_EQ(policy.select(world_.clients[2], world_.catalog.customer(0),
                            SimTime::epoch() + Minutes(e * 7), 2),
              a);
  }
}

TEST_F(RedirectionTest, PolicyNames) {
  LatencyDrivenPolicy lat{*world_.oracle, world_.deployment,
                          *world_.measurement};
  GeoStaticPolicy geo{world_.topo, world_.deployment};
  RandomPolicy rnd{world_.deployment, 1};
  StickyPolicy sticky{*world_.oracle, world_.deployment,
                      *world_.measurement};
  EXPECT_STREQ(lat.name(), "latency-driven");
  EXPECT_STREQ(geo.name(), "geo-static");
  EXPECT_STREQ(rnd.name(), "random");
  EXPECT_STREQ(sticky.name(), "sticky");
}

TEST_F(RedirectionTest, NearbyClientsShareAnswers) {
  // Two clients at the same PoP must see heavily overlapping answer sets —
  // the foundation of CRP.
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  // Find two clients sharing a PoP (or at least an AS).
  HostId a;
  HostId b;
  for (std::size_t i = 0; i < world_.clients.size() && !b.valid(); ++i) {
    for (std::size_t j = i + 1; j < world_.clients.size(); ++j) {
      if (world_.topo.host(world_.clients[i]).region ==
          world_.topo.host(world_.clients[j]).region) {
        a = world_.clients[i];
        b = world_.clients[j];
        break;
      }
    }
  }
  ASSERT_TRUE(a.valid() && b.valid());

  std::set<ReplicaId> seen_a;
  std::set<ReplicaId> seen_b;
  for (int e = 0; e < 50; ++e) {
    const SimTime t = SimTime::epoch() + Seconds(20 * e);
    for (ReplicaId id :
         policy.select(a, world_.catalog.customer(0), t, 2)) {
      seen_a.insert(id);
    }
    for (ReplicaId id :
         policy.select(b, world_.catalog.customer(0), t, 2)) {
      seen_b.insert(id);
    }
  }
  std::size_t common = 0;
  for (ReplicaId id : seen_a) {
    if (seen_b.contains(id)) ++common;
  }
  EXPECT_GT(common, 0u);
}

TEST_F(RedirectionTest, HealthFilterExcludesDownReplicas) {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  HealthConfig health_config;
  health_config.seed = 5;
  health_config.outage_probability = 0.5;
  const ReplicaHealth health{health_config};
  policy.set_health(&health);
  for (int e = 0; e < 30; ++e) {
    const SimTime t = SimTime::epoch() + Hours(6 * e);
    for (ReplicaId id :
         policy.select(world_.clients[0], world_.catalog.customer(0), t,
                       2)) {
      if (world_.deployment.is_origin_fallback(id)) continue;
      EXPECT_TRUE(health.available(id, t));
    }
  }
  // Detaching restores the full candidate set.
  policy.set_health(nullptr);
  EXPECT_FALSE(policy.select(world_.clients[0], world_.catalog.customer(0),
                             SimTime::epoch(), 2)
                   .empty());
}

}  // namespace
}  // namespace crp::cdn
