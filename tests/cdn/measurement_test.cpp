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
