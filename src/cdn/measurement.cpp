#include "cdn/measurement.hpp"

#include <algorithm>
#include <cmath>

namespace crp::cdn {

namespace {

constexpr std::uint64_t kMeasureTag = stable_hash("cdn-measure");
// The salt of the noise draw's second uniform.
constexpr std::uint64_t kNoiseSalt = 0xdeadbeefULL;

}  // namespace

MeasurementSystem::MeasurementSystem(const netsim::LatencyOracle& oracle,
                                     MeasurementConfig config)
    : oracle_(&oracle),
      config_(config),
      noise_prefix_(hash_combine({config.seed, kMeasureTag})),
      noise_(config.noise_sigma) {}

MeasurementSystem::EstimateContext MeasurementSystem::context(
    HostId resolver, SimTime t) const {
  const std::int64_t epoch =
      t.micros() / std::max<std::int64_t>(1, config_.refresh.micros());
  // The estimate was taken at the start of the epoch...
  const SimTime sample_time{epoch * config_.refresh.micros()};
  return {oracle_->origin(resolver, sample_time),
          static_cast<std::uint64_t>(epoch)};
}

MeasurementSystem::Replica MeasurementSystem::replica(
    HostId resolver, HostId replica_host) const {
  return {oracle_->far(resolver, replica_host),
          hash_extend(noise_prefix_,
                      {resolver.value(), replica_host.value()})};
}

double MeasurementSystem::estimate_ms(const EstimateContext& context,
                                      const Replica& replica,
                                      double base_rtt_ms, double bar) const {
  // ...with measurement noise frozen for the epoch.
  const HashNormal noise{hash_extend(replica.noise, {context.epoch}),
                         kNoiseSalt};
  // The estimate's floor is the RTT's floor times the noise floor; the
  // division's rounding is far inside the floors' margins, so a skipped
  // estimate still exceeds `bar`.
  const double true_rtt = oracle_->rtt_ms(context.origin, replica.far,
                                          base_rtt_ms,
                                          bar / noise_.floor(noise));
  if (std::isinf(true_rtt)) return true_rtt;
  return true_rtt * noise_(noise);
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
