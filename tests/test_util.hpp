// Shared test fixtures: a small but fully functional world.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <vector>

#include "cdn/customer.hpp"
#include "cdn/deployment.hpp"
#include "cdn/measurement.hpp"
#include "cdn/redirection.hpp"
#include "common/rng.hpp"
#include "netsim/latency_model.hpp"
#include "netsim/topology_builder.hpp"

namespace crp::test {

/// Small topology + CDN + oracle used by cdn/king/meridian unit tests.
struct MiniWorld {
  explicit MiniWorld(std::uint64_t seed = 1, std::size_t num_clients = 40,
                     std::size_t num_replicas = 120) {
    netsim::TopologyConfig topo_config;
    topo_config.seed = seed;
    topo = netsim::build_topology(topo_config);

    Rng rng{hash_combine({seed, stable_hash("mini-world")})};
    clients =
        netsim::place_hosts(topo, netsim::HostKind::kDnsResolver,
                            num_clients, rng);
    infra = netsim::place_hosts(topo, netsim::HostKind::kInfraNode, 20, rng);

    cdn::DeploymentConfig cdn_config;
    cdn_config.seed = seed + 1;
    cdn_config.target_replicas = num_replicas;
    deployment = cdn::Deployment::build(topo, cdn_config);

    netsim::LatencyConfig lat;
    lat.seed = seed + 2;
    oracle = std::make_unique<netsim::LatencyOracle>(topo, lat);

    cdn::CustomerCatalogConfig cust_config;
    cust_config.seed = seed + 3;
    cust_config.num_customers = 2;
    catalog = cdn::CustomerCatalog::build(deployment, cust_config);

    cdn::MeasurementConfig meas_config;
    meas_config.seed = seed + 4;
    measurement =
        std::make_unique<cdn::MeasurementSystem>(*oracle, meas_config);
  }

  netsim::Topology topo;
  std::vector<HostId> clients;
  std::vector<HostId> infra;
  cdn::Deployment deployment;
  std::unique_ptr<netsim::LatencyOracle> oracle;
  cdn::CustomerCatalog catalog;
  std::unique_ptr<cdn::MeasurementSystem> measurement;
};

/// Box–Muller standard normal over two hash-derived uniforms, the second
/// drawn from `hash_mix(h ^ salt)`: the noise formula of the latency and
/// measurement models, written out for the references below.
inline double reference_normal(std::uint64_t h, std::uint64_t salt) {
  double u1 = hash_to_unit(h);
  const double u2 = hash_to_unit(hash_mix(h ^ salt));
  if (u1 <= 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

/// The (seed, tag, keys...) hashes of the models' draws, with full
/// hash_combine keys: the jitter of a host pair and the route shift of a
/// PoP pair at t's epoch, and the measurement noise of (resolver, replica)
/// at t's refresh epoch. The references below and the floor tests that
/// force draws into chosen cells share them.
inline std::uint64_t epoch_index(SimTime t, Duration epoch) {
  return static_cast<std::uint64_t>(
      t.micros() / std::max<std::int64_t>(1, epoch.micros()));
}
inline std::uint64_t reference_jitter_hash(const netsim::LatencyConfig& c,
                                           HostId a, HostId b, SimTime t) {
  return hash_combine({c.seed, stable_hash("jitter"),
                       std::min(a.value(), b.value()),
                       std::max(a.value(), b.value()),
                       epoch_index(t, c.jitter_epoch)});
}
inline std::uint64_t reference_route_hash(const netsim::LatencyConfig& c,
                                          std::uint64_t pop_a,
                                          std::uint64_t pop_b, SimTime t) {
  return hash_combine({c.seed, stable_hash("route-shift"),
                       std::min(pop_a, pop_b), std::max(pop_a, pop_b),
                       epoch_index(t, c.route_shift_epoch)});
}
inline std::uint64_t reference_noise_hash(const cdn::MeasurementConfig& m,
                                          HostId resolver, HostId replica,
                                          SimTime t) {
  return hash_combine({m.seed, stable_hash("cdn-measure"), resolver.value(),
                       replica.value(), epoch_index(t, m.refresh)});
}
/// The salts of the latency and measurement draws' second uniforms.
inline constexpr std::uint64_t kLatencySalt = 0xa5a5a5a5a5a5a5a5ULL;
inline constexpr std::uint64_t kNoiseSalt = 0xdeadbeefULL;

/// LatencyOracle's RTT from a to b at t over static RTT `base`,
/// recomputed from its model with every term's full hash_combine keys:
/// base * ((1 + congestion(a) + congestion(b)) * jitter * route shift).
/// Independent of the oracle's dynamics code.
inline double reference_rtt_ms(const netsim::Topology& topo,
                               const netsim::LatencyConfig& c, HostId a,
                               HostId b, SimTime t, double base) {
  if (a == b) return 0.0;
  const auto congestion = [&](HostId h) {
    const std::uint64_t hash = hash_combine(
        {c.seed, stable_hash("congestion"), topo.host(h).pop.value(),
         epoch_index(t, c.congestion_epoch)});
    if (hash_to_unit(hash) >= c.congestion_probability) return 0.0;
    return hash_to_unit(hash_mix(hash ^ 0x5555aaaaULL)) *
           c.congestion_max_extra;
  };
  double jitter = 1.0;
  if (c.jitter_sigma > 0.0) {
    jitter = std::exp(c.jitter_sigma *
                      reference_normal(reference_jitter_hash(c, a, b, t),
                                       kLatencySalt));
  }
  double route = 1.0;
  const std::uint64_t pa = topo.host(a).pop.value();
  const std::uint64_t pb = topo.host(b).pop.value();
  if (c.route_shift_sigma > 0.0 && pa != pb) {
    route = std::exp(c.route_shift_sigma *
                     reference_normal(reference_route_hash(c, pa, pb, t),
                                      kLatencySalt));
  }
  return base * (1.0 + congestion(a) + congestion(b)) * jitter * route;
}

/// MeasurementSystem's estimate for (resolver, replica) at t, recomputed
/// from its model: the reference RTT at the start of t's refresh epoch,
/// times log-normal noise keyed by (seed, tag, resolver, replica, epoch).
inline double reference_estimate_ms(const netsim::Topology& topo,
                                    const netsim::LatencyConfig& lat,
                                    const cdn::MeasurementConfig& m,
                                    HostId resolver, HostId replica,
                                    SimTime t, double base) {
  const std::int64_t refresh = m.refresh.micros();
  const std::int64_t epoch = t.micros() / std::max<std::int64_t>(1, refresh);
  const double true_rtt = reference_rtt_ms(topo, lat, resolver, replica,
                                           SimTime{epoch * refresh}, base);
  return true_rtt *
         std::exp(m.noise_sigma *
                  reference_normal(reference_noise_hash(m, resolver, replica,
                                                        t),
                                   kNoiseSalt));
}

/// The latency models the reference and floor tests sweep, each seeded
/// `seed`: route shift on with heavy congestion, no jitter with route
/// shift on a 90-minute epoch, and the defaults.
inline std::vector<netsim::LatencyConfig> swept_latency_configs(
    std::uint64_t seed) {
  std::vector<netsim::LatencyConfig> configs(3);
  for (netsim::LatencyConfig& c : configs) c.seed = seed;
  configs[0].route_shift_sigma = 0.3;
  configs[0].congestion_probability = 0.5;
  configs[1].jitter_sigma = 0.0;
  configs[1].route_shift_sigma = 0.2;
  configs[1].route_shift_epoch = Minutes(90);
  return configs;
}

/// Where a floor test forces a draw `reference_normal(h, salt)`: u1
/// below 1/16 (the cell of the largest radii and the 1e-12 clamp), u2 in
/// one of the two cells that touch ½ (where the cosine reaches -1), or
/// both at once.
enum class DrawCell { kAny, kSmallU1, kHalfU2, kBoth };
inline constexpr std::array<DrawCell, 4> kDrawCells{
    DrawCell::kAny, DrawCell::kSmallU1, DrawCell::kHalfU2, DrawCell::kBoth};

inline bool draw_in(DrawCell cell, std::uint64_t h, std::uint64_t salt) {
  const bool small_u1 = hash_to_unit(h) < 1.0 / 16;
  const double u2 = hash_to_unit(hash_mix(h ^ salt));
  const bool half_u2 = u2 >= 7.0 / 16 && u2 < 9.0 / 16;
  switch (cell) {
    case DrawCell::kAny:
      return true;
    case DrawCell::kSmallU1:
      return small_u1;
    case DrawCell::kHalfU2:
      return half_u2;
    case DrawCell::kBoth:
      return small_u1 && half_u2;
  }
  return false;
}

}  // namespace crp::test
