#include "cdn/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace crp::cdn {

namespace {

constexpr std::uint64_t kMeasureTag = stable_hash("cdn-measure");

}  // namespace

MeasurementSystem::MeasurementSystem(const netsim::LatencyOracle& oracle,
                                     MeasurementConfig config)
    : oracle_(&oracle), config_(config) {}

MeasurementSystem::EstimateContext MeasurementSystem::context(
    HostId resolver, SimTime t) const {
  const std::int64_t epoch =
      t.micros() / std::max<std::int64_t>(1, config_.refresh.micros());
  // The estimate was taken at the start of the epoch...
  const SimTime sample_time{epoch * config_.refresh.micros()};
  return {oracle_->origin(resolver, sample_time),
          static_cast<std::uint64_t>(epoch),
          hash_combine({config_.seed, kMeasureTag, resolver.value()})};
}

double MeasurementSystem::estimate_ms(const EstimateContext& context,
                                      HostId replica_host,
                                      double base_rtt_ms) const {
  const double true_rtt =
      oracle_->rtt_ms(context.origin, replica_host, base_rtt_ms);
  // ...with measurement noise frozen for the epoch.
  const std::uint64_t h =
      hash_extend(context.noise, {replica_host.value(), context.epoch});
  double u1 = hash_to_unit(h);
  const double u2 = hash_to_unit(hash_mix(h ^ 0xdeadbeefULL));
  if (u1 <= 1e-12) u1 = 1e-12;
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  return true_rtt * std::exp(config_.noise_sigma * z);
}

double MeasurementSystem::estimate_ms(HostId resolver, HostId replica_host,
                                      SimTime t, double base_rtt_ms) const {
  estimates_.add();
  return estimate_ms(context(resolver, t), replica_host, base_rtt_ms);
}

double MeasurementSystem::estimate_ms(HostId resolver, HostId replica_host,
                                      SimTime t) const {
  return estimate_ms(resolver, replica_host, t,
                     oracle_->base_rtt_ms(resolver, replica_host));
}

}  // namespace crp::cdn
