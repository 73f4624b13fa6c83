// CDN redirection policies.
//
// The redirection policy decides which replica addresses the CDN's
// authoritative DNS returns to a given resolver at a given time. The
// paper's premise (established in [42], "Drafting behind Akamai") is that
// production redirection is primarily *latency-driven* and updated
// frequently; `LatencyDrivenPolicy` implements exactly that and is the
// default everywhere. The other policies exist for the ablation bench:
// CRP's accuracy should degrade in a predictable way when the premise is
// weakened (geo-static, sticky) or removed entirely (random).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cdn/customer.hpp"
#include "cdn/deployment.hpp"
#include "cdn/health.hpp"
#include "cdn/measurement.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "netsim/latency_model.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::cdn {

/// Strategy interface: choose replicas for (resolver, customer, time).
/// Implementations must be deterministic functions of their inputs (and
/// their construction seed) — two queries in the same rotation epoch get
/// the same answer, like a cached DNS response would.
class RedirectionPolicy {
 public:
  virtual ~RedirectionPolicy() = default;

  /// Returns `count` distinct replica IDs serving `customer`, best first.
  /// Never returns an empty vector for a non-empty customer subset.
  [[nodiscard]] virtual std::vector<ReplicaId> select(
      HostId resolver, const Customer& customer, SimTime now,
      int count) = 0;

  /// Pre-computes any lazily built per-resolver state for `resolvers`
  /// (optionally fanning the work out over `pool`; nullptr runs inline),
  /// after which `select` for those resolvers never mutates shared state
  /// and may be called concurrently. Cached state is a pure per-resolver
  /// function, so prewarming never changes what `select` answers.
  /// Per-thread state (the latency-driven estimate memo) is not shared
  /// state: it needs no prewarming and is never visible to other threads.
  /// Default: no-op (stateless policies are already safe).
  virtual void prepare(std::span<const HostId> resolvers, ThreadPool* pool);

  [[nodiscard]] virtual const char* name() const = 0;
};

struct LatencyPolicyConfig {
  std::uint64_t seed = 17;
  /// Nearest replicas (by static RTT) considered per resolver. This is the
  /// CDN's "candidate set" — production systems also prune this way.
  std::size_t candidate_pool = 48;
  /// Size of the rotation pool: the top candidates by current estimate
  /// among which answers rotate for load balancing. At least 1: the
  /// latency-driven policy's constructor throws std::invalid_argument on
  /// 0, which would answer no replica.
  std::size_t rotation_pool = 8;
  /// How often the rotation re-draws (the CDN answer TTL).
  Duration rotation_epoch = Seconds(20);
  /// Weight exponent: higher concentrates answers on the very best
  /// replicas; weight(rank) = (1 + rank)^-exponent.
  double rank_exponent = 1.6;
  /// If the best candidate's estimated RTT exceeds this, the region is
  /// considered poorly covered and origin fallbacks may be answered.
  double coverage_threshold_ms = 85.0;
  double fallback_probability = 0.35;
};

/// Latency-driven redirection with load-balancing rotation (the premise).
class LatencyDrivenPolicy final : public RedirectionPolicy {
 public:
  /// One entry of a resolver's candidate list: a nearby edge replica,
  /// the pair's estimate key (`MeasurementSystem::replica(resolver,
  /// host)`: the replica's host and PoP and the pair's hash folds), and
  /// the pair's static RTT exactly as `base_rtt_ms(resolver, host)`
  /// returns it (the ranking key the list was built by).
  struct Candidate {
    ReplicaId id;
    MeasurementSystem::Replica key;
    double base_rtt_ms = 0.0;
  };

  LatencyDrivenPolicy(const netsim::LatencyOracle& oracle,
                      const Deployment& deployment,
                      const MeasurementSystem& measurement,
                      LatencyPolicyConfig config = {});

  /// Ranks the candidates near `resolver` that serve `customer` and are
  /// available at `now` by the measurement subsystem's current estimate,
  /// then draws `count` of the best `rotation_pool` with rank weights.
  /// Estimates are read through a per-thread memo keyed by (this policy,
  /// `resolver`, `now`), so consecutive selects for one resolver at one
  /// instant — a probe's customers — build one estimate context and
  /// compute each candidate's estimate once. An estimate is a pure
  /// function of that key and the replica, so the memo never changes an
  /// answer. A candidate whose estimate floor exceeds the
  /// `rotation_pool`-th best estimate ranked so far cannot be drawn, so
  /// it is skipped without an estimate (DESIGN.md §6, "Estimate floors").
  [[nodiscard]] std::vector<ReplicaId> select(HostId resolver,
                                              const Customer& customer,
                                              SimTime now,
                                              int count) override;
  void prepare(std::span<const HostId> resolvers, ThreadPool* pool) override;
  [[nodiscard]] const char* name() const override {
    return "latency-driven";
  }

  /// The resolver's `candidate_pool` nearest edge replicas by static RTT,
  /// nearest first, each with its estimate key and base RTT (computed
  /// once, then cached). Exposed for tests.
  [[nodiscard]] const std::vector<Candidate>& candidates(HostId resolver);

  /// Attaches an availability tracker; unavailable replicas are never
  /// answered. `health` must outlive the policy (nullptr detaches).
  void set_health(const ReplicaHealth* health) { health_ = health; }

 private:
  [[nodiscard]] std::vector<Candidate> nearest_for(HostId resolver) const;

  const netsim::LatencyOracle* oracle_;
  const Deployment* deployment_;
  const MeasurementSystem* measurement_;
  const ReplicaHealth* health_ = nullptr;
  LatencyPolicyConfig config_;
  /// Tags this policy's entries in the per-thread estimate memo; unique
  /// per instance and never reused, so a policy can never read another
  /// one's estimates (a destroyed policy's included).
  std::uint64_t policy_id_;
  /// weight(rank) for every rank a rotation can draw from, computed once.
  std::vector<double> rotation_weights_;
  std::unordered_map<HostId, std::vector<Candidate>> candidate_cache_;
};

/// Geographically closest replicas, never updated: redirection carries
/// position information but no dynamics (every probe sees the same set).
class GeoStaticPolicy final : public RedirectionPolicy {
 public:
  GeoStaticPolicy(const netsim::Topology& topo, const Deployment& deployment);

  [[nodiscard]] std::vector<ReplicaId> select(HostId resolver,
                                              const Customer& customer,
                                              SimTime now,
                                              int count) override;
  void prepare(std::span<const HostId> resolvers, ThreadPool* pool) override;
  [[nodiscard]] const char* name() const override { return "geo-static"; }

 private:
  [[nodiscard]] std::vector<ReplicaId> nearest_for(HostId resolver) const;

  const netsim::Topology* topo_;
  const Deployment* deployment_;
  std::unordered_map<HostId, std::vector<ReplicaId>> cache_;
};

/// Uniformly random replicas per rotation epoch: redirection carries no
/// position information at all (CRP's null hypothesis).
class RandomPolicy final : public RedirectionPolicy {
 public:
  RandomPolicy(const Deployment& deployment, std::uint64_t seed,
               Duration rotation_epoch = Seconds(20));

  [[nodiscard]] std::vector<ReplicaId> select(HostId resolver,
                                              const Customer& customer,
                                              SimTime now,
                                              int count) override;
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  const Deployment* deployment_;
  std::uint64_t seed_;
  Duration rotation_epoch_;
};

/// Latency-driven choice frozen at time zero: position information without
/// rotation (each resolver always sees the same `count` replicas).
class StickyPolicy final : public RedirectionPolicy {
 public:
  StickyPolicy(const netsim::LatencyOracle& oracle,
               const Deployment& deployment,
               const MeasurementSystem& measurement,
               LatencyPolicyConfig config = {});

  [[nodiscard]] std::vector<ReplicaId> select(HostId resolver,
                                              const Customer& customer,
                                              SimTime now,
                                              int count) override;
  void prepare(std::span<const HostId> resolvers, ThreadPool* pool) override;
  [[nodiscard]] const char* name() const override { return "sticky"; }

 private:
  LatencyDrivenPolicy inner_;
};

}  // namespace crp::cdn
