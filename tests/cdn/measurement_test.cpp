#include "cdn/measurement.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.hpp"

namespace crp::cdn {
namespace {

TEST(MeasurementSystem, EstimateTracksTrueRtt) {
  test::MiniWorld world{21};
  const HostId client = world.clients[0];
  double sum_ratio = 0.0;
  int n = 0;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    const double est = world.measurement->estimate_ms(client, r.host,
                                                      SimTime::epoch());
    const double truth =
        world.oracle->rtt_ms(client, r.host, SimTime::epoch());
    ASSERT_GT(est, 0.0);
    sum_ratio += est / truth;
    ++n;
  }
  // Noise is multiplicative log-normal with sigma 0.12: mean ratio ~ 1.
  EXPECT_NEAR(sum_ratio / n, 1.0, 0.05);
}

TEST(MeasurementSystem, FrozenWithinRefreshEpoch) {
  test::MiniWorld world{22};
  const HostId client = world.clients[0];
  const HostId replica = world.deployment.replicas()[0].host;
  const double a = world.measurement->estimate_ms(
      client, replica, SimTime::epoch() + Seconds(1));
  const double b = world.measurement->estimate_ms(
      client, replica, SimTime::epoch() + Seconds(29));
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(MeasurementSystem, RefreshesAcrossEpochs) {
  test::MiniWorld world{23};
  const HostId client = world.clients[0];
  const HostId replica = world.deployment.replicas()[0].host;
  bool saw_change = false;
  double prev = world.measurement->estimate_ms(client, replica,
                                               SimTime::epoch());
  for (int e = 1; e < 10 && !saw_change; ++e) {
    const double cur = world.measurement->estimate_ms(
        client, replica, SimTime::epoch() + Seconds(30 * e));
    saw_change = cur != prev;
    prev = cur;
  }
  EXPECT_TRUE(saw_change);
}

TEST(MeasurementSystem, DeterministicAcrossInstances) {
  test::MiniWorld world{24};
  MeasurementConfig config;
  config.seed = 28;  // matches MiniWorld's seed + 4
  const MeasurementSystem other{*world.oracle, config};
  const HostId client = world.clients[1];
  const HostId replica = world.deployment.replicas()[3].host;
  const SimTime t = SimTime::epoch() + Minutes(7);
  EXPECT_DOUBLE_EQ(world.measurement->estimate_ms(client, replica, t),
                   other.estimate_ms(client, replica, t));
}

TEST(MeasurementSystem, BaseRttFormMatchesThreeArgumentForm) {
  test::MiniWorld world{26};
  netsim::LatencyConfig lat;
  lat.seed = 9;
  lat.route_shift_sigma = 0.3;
  lat.congestion_probability = 0.5;
  const netsim::LatencyOracle oracle{world.topo, lat};
  const MeasurementSystem measurement{oracle, MeasurementConfig{}};
  for (std::size_t c = 0; c < 10; ++c) {
    const HostId client = world.clients[c];
    for (const ReplicaServer& r : world.deployment.replicas()) {
      for (int k = 0; k < 3; ++k) {
        const SimTime t = SimTime::epoch() + Hours(13 * k) +
                          Seconds(17 * static_cast<int>(c));
        const double base = oracle.base_rtt_ms(client, r.host);
        const std::size_t before = measurement.estimates_computed();
        const double carried = measurement.estimate_ms(client, r.host, t, base);
        const double looked_up = measurement.estimate_ms(client, r.host, t);
        EXPECT_EQ(carried, looked_up);
        EXPECT_EQ(measurement.estimates_computed() - before, 2u);
        // The carried value is the one used (exact power-of-two scaling).
        EXPECT_EQ(measurement.estimate_ms(client, r.host, t, 2.0 * base),
                  2.0 * looked_up);
      }
    }
  }
}

// The context form against the model recomputed from scratch
// (test::reference_estimate_ms): one context per (resolver, t), reused
// for several replicas, over negative and positive times, a resolver
// that is the replica host, route shift on and off, and no jitter.
TEST(MeasurementSystem, ContextFormMatchesReferenceModel) {
  test::MiniWorld world{27};
  std::vector<HostId> hosts = world.clients;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    hosts.push_back(r.host);
  }
  MeasurementConfig mc;
  mc.seed = 31;
  Rng rng{405};
  std::size_t checked = 0;
  for (const netsim::LatencyConfig& lat : test::swept_latency_configs(29)) {
    const netsim::LatencyOracle oracle{world.topo, lat};
    const MeasurementSystem measurement{oracle, mc};
    for (int i = 0; i < 1200; ++i) {
      const HostId resolver = rng.pick(hosts);
      const SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                      Hours(24 * 40).micros())};
      const MeasurementSystem::EstimateContext context =
          measurement.context(resolver, t);
      for (int j = 0; j < 3; ++j) {
        const HostId replica =
            rng.uniform() < 0.125 ? resolver : rng.pick(hosts);
        const double base = oracle.base_rtt_ms(resolver, replica);
        ASSERT_EQ(measurement.estimate_ms(context, replica, base),
                  test::reference_estimate_ms(world.topo, lat, mc, resolver,
                                              replica, t, base))
            << "resolver " << resolver.value() << " replica "
            << replica.value() << " t " << t.micros();
        ++checked;
      }
    }
    // The context form counts nothing; the caller adds its estimates.
    EXPECT_EQ(measurement.estimates_computed(), 0u);
    measurement.count_estimates(5);
    EXPECT_EQ(measurement.estimates_computed(), 5u);
  }
  EXPECT_GE(checked, 10000u);
}

// The replica form against the model recomputed from scratch
// (test::reference_estimate_ms): one key per (resolver, replica), built
// once and reused at six times each, negative ones included, with a
// resolver that is the replica host, over the swept latency models. At a
// bar equal to the reference value, the bar form must return that value.
TEST(MeasurementSystem, ReplicaFormMatchesReferenceModel) {
  test::MiniWorld world{27};
  std::vector<HostId> hosts = world.clients;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    hosts.push_back(r.host);
  }
  MeasurementConfig mc;
  mc.seed = 31;
  Rng rng{409};
  std::size_t checked = 0;
  for (const netsim::LatencyConfig& lat : test::swept_latency_configs(29)) {
    const netsim::LatencyOracle oracle{world.topo, lat};
    const MeasurementSystem measurement{oracle, mc};
    for (int i = 0; i < 600; ++i) {
      const HostId resolver = rng.pick(hosts);
      const HostId replica =
          rng.uniform() < 0.125 ? resolver : rng.pick(hosts);
      const MeasurementSystem::Replica key =
          measurement.replica(resolver, replica);
      ASSERT_EQ(key.far.host, replica);
      const double base = oracle.base_rtt_ms(resolver, replica);
      for (int j = 0; j < 6; ++j) {
        const SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                        Hours(24 * 40).micros())};
        const double want = test::reference_estimate_ms(
            world.topo, lat, mc, resolver, replica, t, base);
        const MeasurementSystem::EstimateContext context =
            measurement.context(resolver, t);
        ASSERT_EQ(measurement.estimate_ms(context, key, base), want)
            << "resolver " << resolver.value() << " replica "
            << replica.value() << " t " << t.micros();
        ASSERT_EQ(measurement.estimate_ms(context, key, base, want), want)
            << "resolver " << resolver.value() << " replica "
            << replica.value() << " t " << t.micros();
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 10800u);
}

// The estimate floor against the model recomputed from scratch: at a bar
// equal to test::reference_estimate_ms, the bar form must return that
// estimate, since a floor above it would return +infinity. The swept
// latency models meet noise sigmas of 0.12, 0, 0.5 and -0.3, over
// negative and positive times and a resolver that is the replica host;
// three in four noise draws are forced into the smallest-u1 cell, the
// cells around u2 = 1/2, or both, by stepping t through refresh epochs.
TEST(MeasurementSystem, FloorNeverExceedsTheEstimate) {
  test::MiniWorld world{27};
  std::vector<HostId> hosts = world.clients;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    hosts.push_back(r.host);
  }
  Rng rng{406};
  for (const netsim::LatencyConfig& lat : test::swept_latency_configs(29)) {
    const netsim::LatencyOracle oracle{world.topo, lat};
    for (const double sigma : {0.12, 0.0, 0.5, -0.3}) {
      MeasurementConfig mc;
      mc.seed = 31;
      mc.noise_sigma = sigma;
      const MeasurementSystem measurement{oracle, mc};
      std::size_t pruned_at_half = 0;
      for (int i = 0; i < 10000; ++i) {
        const HostId resolver = rng.pick(hosts);
        const HostId replica =
            rng.uniform() < 0.125 ? resolver : rng.pick(hosts);
        SimTime t{rng.uniform_int(-Hours(24 * 40).micros(),
                                  Hours(24 * 40).micros())};
        const test::DrawCell cell = test::kDrawCells[i % 4];
        while (!test::draw_in(
            cell, test::reference_noise_hash(mc, resolver, replica, t),
            test::kNoiseSalt)) {
          t = t + mc.refresh;
        }
        const double base = oracle.base_rtt_ms(resolver, replica);
        const double want = test::reference_estimate_ms(
            world.topo, lat, mc, resolver, replica, t, base);
        const MeasurementSystem::EstimateContext context =
            measurement.context(resolver, t);
        ASSERT_EQ(measurement.estimate_ms(context, replica, base, want), want)
            << "sigma " << sigma << " resolver " << resolver.value()
            << " replica " << replica.value() << " t " << t.micros();
        const double half = measurement.estimate_ms(context, replica, base,
                                                    want / 2.0);
        if (std::isinf(half)) {
          ++pruned_at_half;
        } else {
          ASSERT_EQ(half, want);
        }
      }
      // The floors are tight enough to prune.
      EXPECT_GT(pruned_at_half, 1000u) << "sigma " << sigma;
    }
  }
}

TEST(MeasurementSystem, NoiseScalesWithSigma) {
  test::MiniWorld world{25};
  MeasurementConfig noisy;
  noisy.seed = 1;
  noisy.noise_sigma = 0.5;
  MeasurementConfig quiet;
  quiet.seed = 1;
  quiet.noise_sigma = 0.0;
  const MeasurementSystem noisy_sys{*world.oracle, noisy};
  const MeasurementSystem quiet_sys{*world.oracle, quiet};
  const HostId client = world.clients[0];

  double noisy_dev = 0.0;
  int n = 0;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    const double truth =
        world.oracle->rtt_ms(client, r.host, SimTime::epoch());
    const double with_noise =
        noisy_sys.estimate_ms(client, r.host, SimTime::epoch());
    const double without =
        quiet_sys.estimate_ms(client, r.host, SimTime::epoch());
    EXPECT_DOUBLE_EQ(without, truth);  // sigma 0 => exact
    noisy_dev += std::abs(std::log(with_noise / truth));
    ++n;
  }
  EXPECT_GT(noisy_dev / n, 0.2);  // sigma 0.5 => mean |z|*0.5 ~ 0.4
}

}  // namespace
}  // namespace crp::cdn
