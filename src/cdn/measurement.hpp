// The CDN's internal network-measurement subsystem.
//
// Large CDNs continuously estimate path latency between their edge servers
// and client name servers, and feed those estimates into redirection.
// The estimates are imperfect: they refresh on an epoch (not continuously)
// and carry multiplicative measurement noise. Both imperfections are
// modelled as pure hash functions of (resolver, replica, epoch), keeping
// the whole subsystem stateless and deterministic. The only mutable state
// is a thread-sharded count of the estimates computed (observability).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/sharded_counter.hpp"
#include "common/time.hpp"
#include "netsim/latency_model.hpp"

namespace crp::cdn {

struct MeasurementConfig {
  std::uint64_t seed = 13;
  /// How often estimates refresh.
  Duration refresh = Seconds(30);
  /// Log-normal sigma of measurement noise.
  double noise_sigma = 0.12;
};

class MeasurementSystem {
 public:
  /// `oracle` must outlive the system.
  MeasurementSystem(const netsim::LatencyOracle& oracle,
                    MeasurementConfig config);

  /// What every estimate for one resolver at one time shares: the
  /// measurement epoch and the oracle origin at the epoch's sample time.
  /// Build it once with `context` for all the replicas a redirection
  /// ranks.
  struct EstimateContext {
    netsim::LatencyOracle::Origin origin;
    std::uint64_t epoch = 0;
  };
  [[nodiscard]] EstimateContext context(HostId resolver, SimTime t) const;

  /// What every estimate for one (resolver, replica host) pair shares at
  /// any time: the oracle's far end of the pair and the noise hash
  /// folded over (seed, tag, resolver, replica host). Build it once with
  /// `replica` and pass it with any context of the same resolver.
  struct Replica {
    netsim::LatencyOracle::Far far;
    std::uint64_t noise = 0;
  };
  [[nodiscard]] Replica replica(HostId resolver, HostId replica_host) const;

  /// The CDN's current latency estimate between the context's resolver
  /// and the replica, in milliseconds. `replica` must be `replica(
  /// context.origin.host, ...)`, and `base_rtt_ms` the value the
  /// oracle's `base_rtt_ms` returns for the pair. Not counted: the
  /// caller adds its estimates with `count_estimates`.
  ///
  /// With a finite `bar`, returns +infinity without computing the
  /// estimate when the estimate's floor exceeds `bar`: the oracle's RTT
  /// floor times the noise draw's floor, from the pair's hashes, which
  /// the estimate then reuses. Otherwise returns the exact estimate.
  [[nodiscard]] double estimate_ms(
      const EstimateContext& context, const Replica& replica,
      double base_rtt_ms,
      double bar = std::numeric_limits<double>::infinity()) const;

  /// The same estimate to a replica host: `estimate_ms(context,
  /// replica(context.origin.host, replica_host), base_rtt_ms, bar)`.
  [[nodiscard]] double estimate_ms(
      const EstimateContext& context, HostId replica_host,
      double base_rtt_ms,
      double bar = std::numeric_limits<double>::infinity()) const {
    return estimate_ms(context, replica(context.origin.host, replica_host),
                       base_rtt_ms, bar);
  }

  /// The same estimate, per call and counted: `estimate_ms(context(
  /// resolver, t), replica_host, base_rtt_ms)`.
  [[nodiscard]] double estimate_ms(HostId resolver, HostId replica_host,
                                   SimTime t, double base_rtt_ms) const;
  /// ...with the base RTT looked up in the oracle.
  [[nodiscard]] double estimate_ms(HostId resolver, HostId replica_host,
                                   SimTime t) const;

  /// Adds `n` estimates computed through a context.
  void count_estimates(std::size_t n) const { estimates_.add(n); }

  /// Estimates computed so far, by every form: the work redirection
  /// asks of the subsystem. Counted per thread and merged on read, like
  /// the CDN authoritative's query count, so concurrent callers count
  /// without sharing a cache line.
  [[nodiscard]] std::size_t estimates_computed() const {
    return estimates_.total();
  }

  [[nodiscard]] const MeasurementConfig& config() const { return config_; }

 private:
  const netsim::LatencyOracle* oracle_;
  MeasurementConfig config_;
  // hash_combine state after (seed, tag), folded once.
  std::uint64_t noise_prefix_;
  LognormalFactor noise_;
  mutable ShardedCounter estimates_;
};

}  // namespace crp::cdn
