// Experiment world: everything the paper's evaluation needs, wired up.
//
// A `World` owns one simulated Internet and the full CRP stack on top of
// it: topology + latency oracle, CDN deployment + customers + redirection,
// the DNS zones, one caching recursive resolver per participating host,
// and one CrpNode per participant. Roles mirror the paper's setup:
//
//   * candidates  — infrastructure hosts (the 240 PlanetLab nodes),
//   * dns_servers — open recursive resolvers (the 1,000 King-dataset
//                   clients).
//
// Benches construct a World, run the probing campaign, and then evaluate
// selection/clustering against ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cdn/authoritative.hpp"
#include "cdn/customer.hpp"
#include "cdn/deployment.hpp"
#include "cdn/health.hpp"
#include "cdn/measurement.hpp"
#include "cdn/redirection.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/node.hpp"
#include "dns/resolver.hpp"
#include "dns/zone.hpp"
#include "king/king.hpp"
#include "netsim/latency_model.hpp"
#include "netsim/topology.hpp"
#include "netsim/topology_builder.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/fault_plan.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::service {
class PositionService;
class ShardedFrontend;
}

namespace crp::eval {

enum class PolicyKind { kLatencyDriven, kGeoStatic, kRandom, kSticky };

[[nodiscard]] const char* to_string(PolicyKind kind);

/// Where a probing campaign's time went (filled by `run_probing*`;
/// observability only — no result depends on it).
struct CampaignStats {
  std::size_t participants = 0;
  /// Probe rounds per node (the campaign's return value).
  std::size_t rounds = 0;
  /// Total CrpNode::probe calls across all participants.
  std::size_t probes_issued = 0;
  /// Authoritative round-trips the resolvers performed (cache misses).
  std::size_t upstream_dns_queries = 0;
  std::size_t resolver_cache_hits = 0;
  std::size_t resolver_cache_misses = 0;
  /// Queries that reached the CDN's authoritative (the load CRP imposes).
  std::size_t cdn_queries = 0;
  /// Latency estimates the CDN's measurement subsystem computed to answer
  /// them. A deterministic work count: the parallel campaign gives the
  /// same value for every pool size.
  std::size_t cdn_estimates = 0;
  /// Latency-oracle pair-cache traffic during the campaign.
  std::uint64_t oracle_pair_hits = 0;
  std::uint64_t oracle_pair_misses = 0;

  // --- fault accounting (all zero with no armed fault plan) ---
  /// Upstream DNS attempts re-sent after a lost one.
  std::size_t dns_retries = 0;
  /// Lookups abandoned with SERVFAIL after every attempt was lost.
  std::size_t dns_timeouts = 0;
  /// Resolutions refused because the resolver host itself was down.
  std::size_t dns_outage_refusals = 0;
  /// Probe-round resolutions that produced no usable answer.
  std::size_t failed_probes = 0;

  /// Worker threads of the pool used (0 = inline / sequential).
  std::size_t threads = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double resolver_hit_rate() const {
    const std::size_t total = resolver_cache_hits + resolver_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(resolver_cache_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double oracle_pair_hit_rate() const {
    const std::uint64_t total = oracle_pair_hits + oracle_pair_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(oracle_pair_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double probes_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(probes_issued) / wall_seconds;
  }
};

struct WorldConfig {
  std::uint64_t seed = 42;

  netsim::TopologyConfig topology;
  netsim::LatencyConfig latency;
  cdn::DeploymentConfig cdn;
  cdn::CustomerCatalogConfig customers;
  cdn::MeasurementConfig measurement;
  /// Replica availability churn (outage_probability 0 = fleet stable).
  cdn::HealthConfig health;
  /// Deterministic fault schedule (DESIGN.md §7). When non-empty it is
  /// armed on the oracle, every resolver, and replica health at
  /// construction; empty (the default) leaves every fault path inert.
  sim::FaultPlan faults;
  cdn::LatencyPolicyConfig policy;
  cdn::CdnAuthoritativeConfig authoritative;
  core::CrpNodeConfig crp;
  dns::ResolverConfig resolver;

  PolicyKind policy_kind = PolicyKind::kLatencyDriven;

  /// PlanetLab-like candidate servers.
  std::size_t num_candidates = 240;
  /// If non-empty, candidates are placed only in these regions (models
  /// PlanetLab's concentration in well-connected academic networks;
  /// clients outside them may then share no replica with any candidate —
  /// the case CRP alone cannot resolve).
  std::vector<std::string> candidate_regions;
  /// DNS-server clients.
  std::size_t num_dns_servers = 1000;

  /// Times at which ground-truth RTT is sampled (median taken).
  int ground_truth_samples = 5;
  /// Fraction of the campaign, ending at campaign_end, over which the
  /// ground-truth samples are spread. 1.0 = whole campaign (long-run
  /// median); small values measure conditions *current at query time*,
  /// which is what matters under routing drift.
  double ground_truth_window_fraction = 1.0;
};

class World {
 public:
  explicit World(WorldConfig config);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- structure ---
  [[nodiscard]] const netsim::Topology& topology() const { return topo_; }
  [[nodiscard]] const netsim::LatencyOracle& oracle() const {
    return *oracle_;
  }
  [[nodiscard]] const cdn::Deployment& deployment() const {
    return deployment_;
  }
  [[nodiscard]] const cdn::CustomerCatalog& catalog() const {
    return catalog_;
  }
  [[nodiscard]] cdn::RedirectionPolicy& policy() { return *policy_; }
  [[nodiscard]] const dns::ZoneRegistry& registry() const {
    return registry_;
  }
  /// Mutable registry access for fault injection in tests/benches
  /// (e.g. replacing a customer zone with a dead one).
  [[nodiscard]] dns::ZoneRegistry& registry_mut() { return registry_; }
  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }
  [[nodiscard]] const WorldConfig& config() const { return config_; }

  [[nodiscard]] std::span<const HostId> candidates() const {
    return candidates_;
  }
  [[nodiscard]] std::span<const HostId> dns_servers() const {
    return dns_servers_;
  }
  /// All participants (candidates then DNS servers).
  [[nodiscard]] std::vector<HostId> participants() const;

  [[nodiscard]] dns::RecursiveResolver& resolver(HostId host);
  [[nodiscard]] core::CrpNode& crp_node(HostId host);

  /// Maps an A-record address to a replica ID (the CrpNode lookup).
  [[nodiscard]] std::optional<ReplicaId> replica_of(Ipv4 addr) const {
    return deployment_.replica_of_address(addr);
  }

  // --- campaign ---
  /// Runs a probing campaign: every participant's CrpNode probes every
  /// `interval` from `start` (plus a per-node stagger offset) to `end`.
  /// Returns the number of probe rounds executed per node. Runs the
  /// parallel campaign on the shared thread pool; results are
  /// bit-identical to `run_probing_sequential` (see DESIGN.md §6).
  std::size_t run_probing(SimTime start, SimTime end, Duration interval);

  /// The same campaign sharded across `pool`'s workers (nullptr = the
  /// shared pool), each worker replaying its nodes' fixed probe
  /// schedules. Nodes' probe timelines are independent, so this is
  /// bit-identical to the sequential event-scheduler run for any pool
  /// size, including a 0-thread (inline) pool.
  std::size_t run_probing_parallel(SimTime start, SimTime end,
                                   Duration interval,
                                   ThreadPool* pool = nullptr);

  /// The original single-threaded path through the global event
  /// scheduler; kept as the equivalence oracle for the parallel
  /// campaign.
  std::size_t run_probing_sequential(SimTime start, SimTime end,
                                     Duration interval);

  /// Outcome of delivering a campaign's position reports to a
  /// PositionService (see `report_positions`).
  struct ReportDelivery {
    std::size_t accepted = 0;
    /// Participants whose report the service refused — typically nodes
    /// whose campaign produced an empty ratio map (no usable probes).
    std::size_t rejected = 0;
    /// Total wire bytes of the encoded reports (the paper's map
    /// distribution cost).
    std::uint64_t wire_bytes = 0;
    /// Shard-fault accounting for this delivery (sharded twin only;
    /// all zero without an armed fault plan): deltas of the frontend's
    /// health counters across the publish, so a campaign can see how
    /// much of the batch a stalled/open shard cost it.
    std::uint64_t shard_writes_shed = 0;
    std::uint64_t shard_writes_failed = 0;
    std::uint64_t shard_crashes = 0;
    std::uint64_t shard_breaker_opens = 0;
  };

  /// Campaign reporting: every participant publishes its current ratio
  /// map to `service` under its topology host name, timestamped `when`,
  /// through the wire format and the service's batched publish path
  /// (encode fans out across `pool`, ingestion applies in participant
  /// order — deterministic for any pool size). Writer-side call under
  /// the single-writer contract (DESIGN.md §8); with snapshots enabled
  /// it republishes after delivery so concurrent readers see the whole
  /// campaign at one epoch.
  ReportDelivery report_positions(service::PositionService& service,
                                  SimTime when, ThreadPool* pool = nullptr);
  /// Sharded twin: same encode fan-out, delivered through the
  /// front-end's peek-routing batched publish (each report lands on its
  /// owning shard); every shard republishes its snapshot at `when` so a
  /// View captures the whole campaign at one epoch vector. When the
  /// world was built with a fault plan, the first delivery arms it on
  /// the frontend (same plan the oracle/resolvers draw from, so one
  /// seed steers the whole chaos campaign), and the delivery reports
  /// the shard-fault deltas it caused.
  ReportDelivery report_positions(service::ShardedFrontend& frontend,
                                  SimTime when, ThreadPool* pool = nullptr);

  /// Stats of the most recent campaign (any variant).
  [[nodiscard]] const CampaignStats& campaign_stats() const {
    return campaign_stats_;
  }

  /// End of the last campaign (used to center ground-truth sampling).
  [[nodiscard]] SimTime campaign_end() const { return campaign_end_; }

  // --- ground truth ---
  /// Ground-truth RTT in ms: median of `ground_truth_samples` oracle
  /// queries spread across the campaign window (direct measurement, as
  /// the paper did between PlanetLab nodes and DNS servers).
  [[nodiscard]] double ground_truth_rtt_ms(HostId a, HostId b) const;

  /// King-estimated RTT matrix over `hosts` (the paper's method for
  /// DNS-server-to-DNS-server ground truth).
  [[nodiscard]] std::vector<std::vector<double>> king_matrix(
      const std::vector<HostId>& hosts) const;

  /// Total queries the CDN authoritative has served (CDN-side load).
  [[nodiscard]] std::size_t cdn_queries_served() const {
    return dns_setup_.authoritative->queries_served();
  }

 private:
  /// Per-participant probe start offsets (same order as `participants()`),
  /// drawn identically for the sequential and parallel paths.
  [[nodiscard]] std::vector<Duration> stagger_offsets(
      std::size_t count) const;

  /// Shared encode stage of report_positions: every participant's
  /// current ratio map wire-encoded in participant order (empty string
  /// where encode failed).
  [[nodiscard]] std::vector<std::string> encode_reports(SimTime when,
                                                        ThreadPool& pool);

  /// Counter snapshot used to compute campaign deltas.
  struct CounterBaseline {
    std::size_t upstream = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t cdn_queries = 0;
    std::size_t cdn_estimates = 0;
    std::uint64_t pair_hits = 0;
    std::uint64_t pair_misses = 0;
    std::size_t retries = 0;
    std::size_t timeouts = 0;
    std::size_t outage_refusals = 0;
    std::size_t failed_probes = 0;
  };
  [[nodiscard]] CounterBaseline counter_baseline() const;
  void finish_campaign_stats(const CounterBaseline& before,
                             std::size_t rounds, std::size_t probes_issued,
                             std::size_t threads, double wall_seconds);

  WorldConfig config_;
  netsim::Topology topo_;
  std::vector<HostId> candidates_;
  std::vector<HostId> dns_servers_;
  HostId cdn_dns_host_;
  HostId customer_dns_host_;
  HostId measurement_client_;
  cdn::Deployment deployment_;
  std::unique_ptr<netsim::LatencyOracle> oracle_;
  cdn::CustomerCatalog catalog_;
  std::unique_ptr<cdn::MeasurementSystem> measurement_;
  std::unique_ptr<cdn::ReplicaHealth> health_;
  std::unique_ptr<cdn::RedirectionPolicy> policy_;
  dns::ZoneRegistry registry_;
  cdn::CdnDnsSetup dns_setup_;
  std::unordered_map<HostId, std::unique_ptr<dns::RecursiveResolver>>
      resolvers_;
  std::unordered_map<HostId, std::unique_ptr<core::CrpNode>> crp_nodes_;
  sim::EventScheduler sched_;
  SimTime campaign_end_ = SimTime::epoch();
  CampaignStats campaign_stats_;
};

}  // namespace crp::eval
