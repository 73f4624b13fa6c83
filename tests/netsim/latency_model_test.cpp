#include "netsim/latency_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.hpp"
#include "netsim/topology_builder.hpp"

namespace crp::netsim {
namespace {

class LatencyModelTest : public ::testing::Test {
 protected:
  LatencyModelTest() {
    TopologyConfig config;
    config.seed = 21;
    topo_ = build_topology(config);
    Rng rng{99};
    hosts_ = place_hosts(topo_, HostKind::kClient, 200, rng);
    LatencyConfig lat;
    lat.seed = 77;
    oracle_ = std::make_unique<LatencyOracle>(topo_, lat);
  }

  Topology topo_;
  std::vector<HostId> hosts_;
  std::unique_ptr<LatencyOracle> oracle_;
};

TEST_F(LatencyModelTest, SelfRttIsZero) {
  EXPECT_DOUBLE_EQ(oracle_->base_rtt_ms(hosts_[0], hosts_[0]), 0.0);
  EXPECT_DOUBLE_EQ(
      oracle_->rtt_ms(hosts_[0], hosts_[0], SimTime::epoch()), 0.0);
}

TEST_F(LatencyModelTest, BaseRttSymmetric) {
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(oracle_->base_rtt_ms(hosts_[i], hosts_[j]),
                       oracle_->base_rtt_ms(hosts_[j], hosts_[i]));
    }
  }
}

TEST_F(LatencyModelTest, DynamicRttSymmetric) {
  const SimTime t = SimTime::epoch() + Minutes(42);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(oracle_->rtt_ms(hosts_[i], hosts_[j], t),
                       oracle_->rtt_ms(hosts_[j], hosts_[i], t));
    }
  }
}

TEST_F(LatencyModelTest, RttPositiveForDistinctHosts) {
  for (std::size_t i = 1; i < hosts_.size(); ++i) {
    ASSERT_GT(oracle_->base_rtt_ms(hosts_[0], hosts_[i]), 0.0);
  }
}

TEST_F(LatencyModelTest, GeographyDominates) {
  // Average intra-region RTT must be far below average inter-region RTT.
  double intra_sum = 0.0;
  std::size_t intra_n = 0;
  double inter_sum = 0.0;
  std::size_t inter_n = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = i + 1; j < 60; ++j) {
      const double rtt = oracle_->base_rtt_ms(hosts_[i], hosts_[j]);
      if (topo_.host(hosts_[i]).region == topo_.host(hosts_[j]).region) {
        intra_sum += rtt;
        ++intra_n;
      } else {
        inter_sum += rtt;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0u);
  ASSERT_GT(inter_n, 0u);
  EXPECT_LT(intra_sum / static_cast<double>(intra_n),
            0.5 * inter_sum / static_cast<double>(inter_n));
}

TEST_F(LatencyModelTest, DeterministicAcrossInstances) {
  LatencyConfig lat;
  lat.seed = 77;
  const LatencyOracle other{topo_, lat};
  const SimTime t = SimTime::epoch() + Hours(3);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(oracle_->rtt_ms(hosts_[0], hosts_[i], t),
                     other.rtt_ms(hosts_[0], hosts_[i], t));
  }
}

TEST_F(LatencyModelTest, SeedChangesQuirks) {
  LatencyConfig lat;
  lat.seed = 78;
  const LatencyOracle other{topo_, lat};
  bool any_differs = false;
  for (std::size_t i = 1; i < 50 && !any_differs; ++i) {
    any_differs = oracle_->base_rtt_ms(hosts_[0], hosts_[i]) !=
                  other.base_rtt_ms(hosts_[0], hosts_[i]);
  }
  EXPECT_TRUE(any_differs);
}

TEST_F(LatencyModelTest, JitterVariesOverTimeAroundBase) {
  const HostId a = hosts_[0];
  const HostId b = hosts_[1];
  const double base = oracle_->base_rtt_ms(a, b);
  bool saw_different = false;
  double prev = -1.0;
  for (int i = 0; i < 20; ++i) {
    const double rtt =
        oracle_->rtt_ms(a, b, SimTime::epoch() + Seconds(10 * i));
    EXPECT_GT(rtt, base * 0.5);
    EXPECT_LT(rtt, base * 3.5);
    if (prev >= 0.0 && rtt != prev) saw_different = true;
    prev = rtt;
  }
  EXPECT_TRUE(saw_different);
}

TEST_F(LatencyModelTest, JitterStableWithinEpoch) {
  const SimTime t = SimTime::epoch() + Seconds(100);
  // Same jitter epoch (10 s) -> identical values.
  EXPECT_DOUBLE_EQ(oracle_->rtt_ms(hosts_[0], hosts_[1], t),
                   oracle_->rtt_ms(hosts_[0], hosts_[1], t + Seconds(5)));
}

TEST_F(LatencyModelTest, CongestionSometimesPresent) {
  // Over many pops and epochs, congestion must appear with roughly the
  // configured probability.
  std::size_t congested = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    for (int e = 0; e < 40; ++e) {
      ++total;
      if (oracle_->congestion_extra(hosts_[i],
                                    SimTime::epoch() + Minutes(30 * e)) >
          0.0) {
        ++congested;
      }
    }
  }
  const double frac = static_cast<double>(congested) /
                      static_cast<double>(total);
  EXPECT_GT(frac, 0.03);
  EXPECT_LT(frac, 0.20);
}

TEST_F(LatencyModelTest, NoJitterWhenSigmaZero) {
  LatencyConfig lat;
  lat.seed = 77;
  lat.jitter_sigma = 0.0;
  lat.congestion_probability = 0.0;
  const LatencyOracle quiet{topo_, lat};
  const double base = quiet.base_rtt_ms(hosts_[0], hosts_[1]);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(
        quiet.rtt_ms(hosts_[0], hosts_[1], SimTime::epoch() + Minutes(i)),
        base);
  }
}

TEST_F(LatencyModelTest, SomeTriangleInequalityViolationsExist) {
  // Routing quirks should produce occasional TIV — a real-Internet
  // property coordinate systems struggle with.
  std::size_t violations = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      for (std::size_t k = 0; k < 40; k += 7) {
        if (k == i || k == j) continue;
        ++checked;
        const double direct = oracle_->base_rtt_ms(hosts_[i], hosts_[j]);
        const double via = oracle_->base_rtt_ms(hosts_[i], hosts_[k]) +
                           oracle_->base_rtt_ms(hosts_[k], hosts_[j]);
        if (via < direct) ++violations;
      }
    }
  }
  EXPECT_GT(violations, 0u);
  EXPECT_LT(violations, checked / 2);
}

TEST_F(LatencyModelTest, RttsInPlausibleInternetRange) {
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = i + 1; j < 50; ++j) {
      const double rtt = oracle_->base_rtt_ms(hosts_[i], hosts_[j]);
      EXPECT_GT(rtt, 0.1);
      EXPECT_LT(rtt, 1200.0);
    }
  }
}

TEST_F(LatencyModelTest, RouteShiftOffByDefault) {
  EXPECT_DOUBLE_EQ(
      oracle_->route_shift_factor(hosts_[0], hosts_[1], SimTime::epoch()),
      1.0);
}

TEST_F(LatencyModelTest, RouteShiftDriftsAcrossEpochsOnly) {
  LatencyConfig lat;
  lat.seed = 77;
  lat.route_shift_sigma = 0.4;
  lat.route_shift_epoch = Hours(12);
  const LatencyOracle drifting{topo_, lat};
  const double f0 = drifting.route_shift_factor(hosts_[0], hosts_[1],
                                                SimTime::epoch());
  const double f0b = drifting.route_shift_factor(
      hosts_[0], hosts_[1], SimTime::epoch() + Hours(11));
  EXPECT_DOUBLE_EQ(f0, f0b);  // same epoch -> frozen
  bool changed = false;
  for (int e = 1; e < 6 && !changed; ++e) {
    changed = drifting.route_shift_factor(
                  hosts_[0], hosts_[1], SimTime::epoch() + Hours(12 * e)) !=
              f0;
  }
  EXPECT_TRUE(changed);
  // Symmetric and positive.
  EXPECT_DOUBLE_EQ(
      drifting.route_shift_factor(hosts_[1], hosts_[0], SimTime::epoch()),
      f0);
  EXPECT_GT(f0, 0.0);
}

TEST_F(LatencyModelTest, RouteShiftReranksNeighbours) {
  // With strong drift, the closest host to a reference point changes
  // across epochs for at least some references.
  LatencyConfig lat;
  lat.seed = 77;
  lat.route_shift_sigma = 0.5;
  lat.route_shift_epoch = Hours(12);
  lat.jitter_sigma = 0.0;
  lat.congestion_probability = 0.0;
  const LatencyOracle drifting{topo_, lat};
  int changed = 0;
  for (std::size_t ref = 0; ref < 20; ++ref) {
    auto closest_at = [&](SimTime t) {
      std::size_t best = 0;
      double best_rtt = 1e18;
      for (std::size_t i = 20; i < 60; ++i) {
        const double rtt = drifting.rtt_ms(hosts_[ref], hosts_[i], t);
        if (rtt < best_rtt) {
          best_rtt = rtt;
          best = i;
        }
      }
      return best;
    };
    if (closest_at(SimTime::epoch()) !=
        closest_at(SimTime::epoch() + Hours(24 * 4))) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 0);
}

TEST_F(LatencyModelTest, BaseRttFormMatchesThreeArgumentForm) {
  LatencyConfig lat;
  lat.seed = 77;
  lat.route_shift_sigma = 0.3;
  lat.congestion_probability = 0.5;
  const LatencyOracle oracle{topo_, lat};
  std::size_t congested = 0;
  std::size_t shifted = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 30; ++j) {  // includes a == b
      const HostId a = hosts_[i];
      const HostId b = hosts_[j];
      for (int k = 0; k < 4; ++k) {
        const SimTime t = SimTime::epoch() + Hours(13 * k) +
                          Minutes(7 * static_cast<int>(i));
        const double base = oracle.base_rtt_ms(a, b);
        const LatencyOracle::Origin from = oracle.origin(a, t);
        EXPECT_EQ(oracle.rtt_ms(from, b, base), oracle.rtt_ms(a, b, t));
        if (a == b) continue;
        // The carried value is the one used: doubling it doubles the RTT
        // exactly (scaling by two commutes with rounding).
        EXPECT_EQ(oracle.rtt_ms(from, b, 2.0 * base),
                  2.0 * oracle.rtt_ms(a, b, t));
        if (oracle.congestion_extra(a, t) > 0.0) ++congested;
        if (oracle.route_shift_factor(a, b, t) != 1.0) ++shifted;
      }
    }
  }
  EXPECT_GT(congested, 0u);
  EXPECT_GT(shifted, 0u);
}

// The origin form against the model recomputed from scratch with full
// hash_combine keys (test::reference_rtt_ms): one origin per (a, t),
// reused for several far ends, over negative and positive times, a == b,
// route shift on and off, and no jitter.
TEST_F(LatencyModelTest, OriginFormMatchesReferenceModel) {
  std::vector<LatencyConfig> configs(3);
  for (LatencyConfig& c : configs) c.seed = 77;
  configs[0].route_shift_sigma = 0.3;
  configs[0].congestion_probability = 0.5;
  configs[1].jitter_sigma = 0.0;
  configs[1].route_shift_sigma = 0.2;
  configs[1].route_shift_epoch = Minutes(90);
  configs[1].congestion_probability = 0.3;
  Rng rng{404};
  std::size_t checked = 0;
  std::size_t congested = 0;
  std::size_t shifted = 0;
  for (const LatencyConfig& config : configs) {
    const LatencyOracle oracle{topo_, config};
    for (int i = 0; i < 1200; ++i) {
      const HostId a = rng.pick(hosts_);
      const SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                      Hours(24 * 40).micros())};
      const LatencyOracle::Origin from = oracle.origin(a, t);
      for (int j = 0; j < 3; ++j) {
        const HostId b = rng.uniform() < 0.125 ? a : rng.pick(hosts_);
        const double base = oracle.base_rtt_ms(a, b);
        ASSERT_EQ(oracle.rtt_ms(from, b, base),
                  test::reference_rtt_ms(topo_, config, a, b, t, base))
            << "a " << a.value() << " b " << b.value() << " t "
            << t.micros();
        ++checked;
        if (a == b) continue;
        if (oracle.congestion_extra(b, t) > 0.0) ++congested;
        if (oracle.route_shift_factor(a, b, t) != 1.0) ++shifted;
      }
    }
  }
  EXPECT_GE(checked, 10000u);
  EXPECT_GT(congested, 1000u);
  EXPECT_GT(shifted, 1000u);
}

// The far form against the model recomputed from scratch with full
// hash_combine keys (test::reference_rtt_ms): one far end per (a, b),
// built once and reused at six times each, negative ones included, with
// a == b, over the swept models. At a bar equal to the reference value,
// the bar form must return that value.
TEST_F(LatencyModelTest, FarFormMatchesReferenceModel) {
  Rng rng{408};
  std::size_t checked = 0;
  for (const LatencyConfig& config : test::swept_latency_configs(77)) {
    const LatencyOracle oracle{topo_, config};
    for (int i = 0; i < 600; ++i) {
      const HostId a = rng.pick(hosts_);
      const HostId b = rng.uniform() < 0.125 ? a : rng.pick(hosts_);
      const LatencyOracle::Far far = oracle.far(a, b);
      ASSERT_EQ(far.host, b);
      ASSERT_EQ(far.pop, topo_.host(b).pop);
      const double base = oracle.base_rtt_ms(a, b);
      for (int j = 0; j < 6; ++j) {
        const SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                        Hours(24 * 40).micros())};
        const double want =
            test::reference_rtt_ms(topo_, config, a, b, t, base);
        const LatencyOracle::Origin from = oracle.origin(a, t);
        ASSERT_EQ(oracle.rtt_ms(from, far, base), want)
            << "a " << a.value() << " b " << b.value() << " t "
            << t.micros();
        ASSERT_EQ(oracle.rtt_ms(from, far, base, want), want)
            << "a " << a.value() << " b " << b.value() << " t "
            << t.micros();
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 10800u);
}

// The RTT floor against the model recomputed from scratch: at a bar equal
// to test::reference_rtt_ms, the bar form must return that RTT, since a
// floor above it would return +infinity. The swept latency models, over
// negative and positive times and a == b; three in four jitter draws (on
// half the samples) and route-shift draws (on the other half) are forced
// into the smallest-u1 cell, the cells around u2 = 1/2, or both, by
// stepping t through the term's epochs.
TEST_F(LatencyModelTest, RttFloorNeverExceedsTheRtt) {
  Rng rng{407};
  for (const LatencyConfig& config : test::swept_latency_configs(77)) {
    const LatencyOracle oracle{topo_, config};
    std::size_t forced = 0;
    std::size_t pruned_at_half = 0;
    for (int i = 0; i < 12000; ++i) {
      const HostId a = rng.pick(hosts_);
      const HostId b = rng.uniform() < 0.125 ? a : rng.pick(hosts_);
      SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                Hours(24 * 40).micros())};
      const test::DrawCell cell = test::kDrawCells[i % 4];
      const std::uint64_t pa = topo_.host(a).pop.value();
      const std::uint64_t pb = topo_.host(b).pop.value();
      if (a != b && i % 8 < 4 && config.jitter_sigma > 0.0) {
        while (!test::draw_in(cell,
                              test::reference_jitter_hash(config, a, b, t),
                              test::kLatencySalt)) {
          t = t + config.jitter_epoch;
        }
        ++forced;
      } else if (i % 8 >= 4 && config.route_shift_sigma > 0.0 && pa != pb) {
        while (!test::draw_in(cell,
                              test::reference_route_hash(config, pa, pb, t),
                              test::kLatencySalt)) {
          t = t + config.route_shift_epoch;
        }
        ++forced;
      }
      const double base = oracle.base_rtt_ms(a, b);
      const double want = test::reference_rtt_ms(topo_, config, a, b, t, base);
      const LatencyOracle::Origin from = oracle.origin(a, t);
      ASSERT_EQ(oracle.rtt_ms(from, b, base, want), want)
          << "a " << a.value() << " b " << b.value() << " t " << t.micros();
      const double half = oracle.rtt_ms(from, b, base, want / 2.0);
      if (std::isinf(half)) {
        ++pruned_at_half;
      } else {
        ASSERT_EQ(half, want);
      }
    }
    EXPECT_GT(forced, 3000u);
    // The floors are tight enough to prune.
    EXPECT_GT(pruned_at_half, 3000u);
  }
}

TEST_F(LatencyModelTest, PairCacheIsResultNeutral) {
  LatencyConfig uncached_config = oracle_->config();
  uncached_config.pair_cache = false;
  const LatencyOracle uncached{topo_, uncached_config};
  const SimTime t = SimTime::epoch() + Minutes(7);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 40; ++j) {
      EXPECT_EQ(oracle_->base_rtt_ms(hosts_[i], hosts_[j]),
                uncached.base_rtt_ms(hosts_[i], hosts_[j]));
      EXPECT_EQ(oracle_->rtt_ms(hosts_[i], hosts_[j], t),
                uncached.rtt_ms(hosts_[i], hosts_[j], t));
    }
  }
}

TEST_F(LatencyModelTest, PairCacheCountsHitsOnRepeatedPairs) {
  const PairCacheStats before = LatencyOracle::pair_cache_stats();
  const double first = oracle_->base_rtt_ms(hosts_[0], hosts_[1]);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(oracle_->base_rtt_ms(hosts_[0], hosts_[1]), first);
    EXPECT_EQ(oracle_->base_rtt_ms(hosts_[1], hosts_[0]), first);
  }
  const PairCacheStats after = LatencyOracle::pair_cache_stats();
  // The 20 repeats (symmetric, so one cache entry) must all hit.
  EXPECT_GE(after.hits - before.hits, 20u);
  EXPECT_GE(after.misses - before.misses, 1u);
  EXPECT_GT(after.hit_rate(), 0.0);
}

TEST_F(LatencyModelTest, PairCacheKeepsOraclesDistinct) {
  // Same topology, different seed: cached answers must not leak between
  // oracle instances.
  LatencyConfig other_config = oracle_->config();
  other_config.seed = oracle_->config().seed + 1;
  const LatencyOracle other{topo_, other_config};
  bool any_difference = false;
  for (std::size_t i = 0; i < 20; ++i) {
    const double ours = oracle_->base_rtt_ms(hosts_[i], hosts_[i + 20]);
    const double theirs = other.base_rtt_ms(hosts_[i], hosts_[i + 20]);
    // Re-query ours after theirs populated the shared thread cache.
    EXPECT_EQ(oracle_->base_rtt_ms(hosts_[i], hosts_[i + 20]), ours);
    any_difference |= ours != theirs;
  }
  // Different quirk seeds should disagree on at least one pair.
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace crp::netsim
