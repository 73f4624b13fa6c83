// RTT derivation: static path model plus deterministic dynamics.
//
// `LatencyOracle` answers "what is the RTT between hosts a and b at sim
// time t?" for every subsystem: the CDN's measurement subsystem, Meridian's
// direct probes, King's estimates and the evaluation's ground truth all see
// the *same* underlying network, differing only in their own noise terms.
//
// The static component models access links, great-circle propagation with
// path inflation, AS peering and transit penalties, inter-region backbone
// quality and rare per-pair routing quirks (triangle-inequality
// violations). The dynamic component adds PoP-level congestion episodes
// and per-query jitter. Dynamics are *stateless*: they are pure hash
// functions of (entities, time epoch), so the oracle can be queried for any
// time in any order and always returns the same answer — which is what
// makes week-long simulated studies reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/topology.hpp"
#include "sim/fault_plan.hpp"

namespace crp::netsim {

struct LatencyConfig {
  std::uint64_t seed = 1;

  // --- static path model ---
  /// RTT between two hosts on the same PoP, before access links (ms).
  double same_pop_rtt_ms = 0.4;
  /// Multiplier on great-circle propagation for intra-AS paths.
  double intra_as_inflation = 1.25;
  /// ... for intra-region, inter-AS paths.
  double intra_region_inflation = 1.5;
  /// ... for inter-region paths (backbones are straighter).
  double inter_region_inflation = 1.35;
  /// Extra RTT per AS-peering crossing (ms).
  double peering_penalty_ms = 1.5;
  /// Extra RTT when an endpoint sits in a tier-3 (stub) AS (ms).
  double tier3_transit_penalty_ms = 2.0;
  /// Extra RTT for leaving/entering a region backbone (ms).
  double inter_region_penalty_ms = 4.0;
  /// Fraction of region pairs with poor interconnection (routed
  /// circuitously, e.g. via a third continent).
  double bad_interconnect_fraction = 0.15;
  double bad_interconnect_max_inflation = 1.7;
  /// Fraction of host pairs with a per-pair routing quirk.
  double quirk_probability = 0.05;
  double quirk_max_inflation = 2.2;

  // --- dynamics ---
  /// Log-normal sigma of multiplicative per-query jitter.
  double jitter_sigma = 0.06;
  /// Granularity at which jitter re-randomizes.
  Duration jitter_epoch = Seconds(10);
  /// Probability a PoP is congested during a given congestion epoch.
  double congestion_probability = 0.08;
  /// Maximum relative RTT increase while congested.
  double congestion_max_extra = 0.5;
  Duration congestion_epoch = Minutes(30);

  /// Slow routing drift: a per-PoP-pair multiplicative factor
  /// exp(sigma * z) redrawn every `route_shift_epoch`. Models BGP path
  /// changes / re-homing that re-rank which replicas are closest over
  /// days — the "variable network dynamics" that make long redirection
  /// histories stale (paper §VI, Fig. 9 discussion). Off by default.
  double route_shift_sigma = 0.0;
  Duration route_shift_epoch = Hours(12);

  /// Memoize `base_rtt_ms` in a bounded per-thread pair cache. The static
  /// RTT is time-independent and deterministic, so caching cannot change
  /// any result; the flag exists only for A/B runs and cache-neutrality
  /// tests. Ground truth, King, Meridian, the coordinate baselines and the
  /// resolvers' upstream RTTs read the cache. A probing campaign's
  /// redirections do not: the CDN's candidate lists carry each pair's base
  /// RTT (DESIGN.md §6), so on a campaign (`micro_campaign`) the flag
  /// covers only the candidate-list prewarm and the DNS upstream RTTs.
  bool pair_cache = true;
};

/// Hit/miss counters of the thread-local base-RTT pair caches,
/// aggregated across every thread that has queried an oracle.
/// Observability only — never feeds back into results.
struct PairCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Deterministic latency oracle over a fixed topology (see file comment).
/// Thread-safe: all methods are const; the only mutable state is a
/// per-thread `base_rtt_ms` memo (never shared across threads) plus its
/// relaxed-atomic hit/miss counters.
class LatencyOracle {
 public:
  /// The topology must outlive the oracle.
  LatencyOracle(const Topology& topo, LatencyConfig config);

  /// Static RTT (no congestion/jitter), in milliseconds. Symmetric;
  /// zero for a == b. Served from a bounded per-thread pair cache when
  /// `LatencyConfig::pair_cache` is on (bit-identical either way).
  [[nodiscard]] double base_rtt_ms(HostId a, HostId b) const;

  /// The terms of an RTT from one host at one sim time that do not
  /// depend on the far end: the host's PoP, its congestion multiplier
  /// (`1.0 + congestion_extra(host, t)`) and the congestion, jitter and
  /// route-shift epochs of `t`. Build it once with `origin` and pass it
  /// to `rtt_ms` for every far end measured from that host at that time.
  struct Origin {
    HostId host;
    PopId pop;
    double congestion = 1.0;
    std::uint64_t congestion_epoch = 0;
    std::uint64_t jitter_epoch = 0;
    std::uint64_t route_epoch = 0;
  };
  [[nodiscard]] Origin origin(HostId a, SimTime t) const;

  /// The terms of an RTT from one host that depend only on the far end
  /// and the pair, not on the time: the far host, its PoP, and the
  /// pair's jitter hash folded over the ordered host pair (the draw then
  /// adds only its epoch). Build it once with `far(a, b)` and pass it to
  /// `rtt_ms` with any origin of `a`.
  struct Far {
    HostId host;
    PopId pop;
    std::uint64_t jitter = 0;
  };
  [[nodiscard]] Far far(HostId a, HostId b) const;

  /// RTT from `from.host` to `to.host` at the origin's time, including
  /// congestion and jitter, milliseconds. `to` must be `far(from.host,
  /// ...)`, and `base` the value `base_rtt_ms(from.host, to.host)`
  /// returns: a caller that keeps both beside the pair (the CDN's
  /// candidate lists) skips the pair-cache lookup and hashes only the
  /// draws' epochs.
  ///
  /// With a finite `bar`, returns +infinity without computing the RTT
  /// when the RTT's floor exceeds `bar`. The floor is `base *
  /// from.congestion` times the floors of the jitter and route-shift
  /// draws (`LognormalFactor::floor`): the far end's congestion is >= 0,
  /// and the pair's draws are hashed once for the floor and the RTT. It
  /// is 0 for `from.host == to.host`, whose RTT is 0.
  [[nodiscard]] double rtt_ms(
      const Origin& from, const Far& to, double base,
      double bar = std::numeric_limits<double>::infinity()) const;

  /// The same RTT to host `b`: `rtt_ms(from, far(from.host, b), base,
  /// bar)`.
  [[nodiscard]] double rtt_ms(
      const Origin& from, HostId b, double base,
      double bar = std::numeric_limits<double>::infinity()) const {
    return rtt_ms(from, far(from.host, b), base, bar);
  }

  /// RTT at sim time `t`: `rtt_ms(origin(a, t), b, base_rtt_ms(a, b))`.
  [[nodiscard]] double rtt_ms(HostId a, HostId b, SimTime t) const {
    return rtt_ms(origin(a, t), b, base_rtt_ms(a, b));
  }

  [[nodiscard]] Duration base_rtt(HostId a, HostId b) const {
    return MillisF(base_rtt_ms(a, b));
  }
  [[nodiscard]] Duration rtt(HostId a, HostId b, SimTime t) const {
    return MillisF(rtt_ms(a, b, t));
  }

  /// Congestion multiplier contribution of a single host's PoP at `t`
  /// (>= 0; 0 means uncongested). Exposed for tests and diagnostics.
  [[nodiscard]] double congestion_extra(HostId h, SimTime t) const;

  /// Slow route-shift multiplier for the pair's PoPs at `t` (1.0 when
  /// route_shift_sigma is 0). Exposed for tests.
  [[nodiscard]] double route_shift_factor(HostId a, HostId b,
                                          SimTime t) const;

  // --- fault injection (DESIGN.md §7) ---
  /// Arms deterministic network faults: with a plan attached,
  /// `link_out`/`send_lost` consult it. RTT values themselves are
  /// untouched — network faults model packets that never arrive, not
  /// slower ones — so an armed plan cannot perturb any latency result.
  /// `plan` must outlive the oracle; nullptr disarms.
  void set_fault_plan(const sim::FaultPlan* plan) { faults_ = plan; }
  [[nodiscard]] const sim::FaultPlan* fault_plan() const { return faults_; }

  /// Is the pair partitioned at `t` (sends cannot arrive)? Always false
  /// with no plan armed.
  [[nodiscard]] bool link_out(HostId a, HostId b, SimTime t) const {
    return faults_ != nullptr && faults_->link_out(a, b, t);
  }
  /// Is send `attempt` between the pair lost at `t`? Distinct attempts
  /// draw independently (bounded retries can recover from loss).
  [[nodiscard]] bool send_lost(HostId a, HostId b, SimTime t,
                               std::uint64_t attempt) const {
    return faults_ != nullptr && faults_->send_lost(a, b, t, attempt);
  }

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const LatencyConfig& config() const { return config_; }

  /// Aggregate pair-cache counters across all threads and oracles since
  /// process start (take a before/after delta to scope a campaign).
  [[nodiscard]] static PairCacheStats pair_cache_stats();

 private:
  [[nodiscard]] double base_rtt_uncached_ms(HostId a, HostId b) const;
  [[nodiscard]] double pair_quirk(HostId a, HostId b) const;
  [[nodiscard]] double region_interconnect(RegionId a, RegionId b) const;
  // The dynamics at an epoch index (`t` divided by the term's epoch).
  [[nodiscard]] double congestion_at(PopId pop, std::uint64_t epoch) const;
  // A pair's route-shift draw; none when the term is off (sigma <= 0,
  // or one PoP), whose factor is exactly 1.
  [[nodiscard]] std::optional<HashNormal> route_shift_draw(
      PopId a, PopId b, std::uint64_t epoch) const;

  const Topology* topo_;
  LatencyConfig config_;
  // hash_combine state after (seed, tag) for each hashed term, folded
  // once here, so each term hashes only the keys that vary.
  std::uint64_t quirk_prefix_;
  std::uint64_t interconnect_prefix_;
  std::uint64_t congestion_prefix_;
  std::uint64_t route_shift_prefix_;
  std::uint64_t jitter_prefix_;
  LognormalFactor jitter_;
  LognormalFactor route_shift_;
  const sim::FaultPlan* faults_ = nullptr;
  /// Distinguishes this oracle's entries in the shared per-thread cache;
  /// unique per instance and never reused, so a destroyed oracle's stale
  /// entries can never match.
  std::uint64_t oracle_id_;
};

}  // namespace crp::netsim
