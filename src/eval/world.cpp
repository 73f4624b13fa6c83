#include "eval/world.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::eval {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLatencyDriven:
      return "latency-driven";
    case PolicyKind::kGeoStatic:
      return "geo-static";
    case PolicyKind::kRandom:
      return "random";
    case PolicyKind::kSticky:
      return "sticky";
  }
  return "?";
}

namespace {

netsim::Topology make_topology(WorldConfig& config) {
  config.topology.seed = hash_combine({config.seed, stable_hash("topo")});
  return netsim::build_topology(config.topology);
}

}  // namespace

World::World(WorldConfig config)
    : config_(std::move(config)),
      topo_(make_topology(config_)),
      candidates_(),
      dns_servers_(),
      deployment_([this] {
        // Place experiment hosts before the CDN so replica IDs line up
        // with a stable host-ID prefix regardless of CDN size.
        Rng rng{hash_combine({config_.seed, stable_hash("placement")})};
        candidates_ =
            config_.candidate_regions.empty()
                ? netsim::place_hosts(topo_, netsim::HostKind::kInfraNode,
                                      config_.num_candidates, rng)
                : netsim::place_hosts_in_regions(
                      topo_, netsim::HostKind::kInfraNode,
                      config_.num_candidates, rng,
                      config_.candidate_regions);
        dns_servers_ =
            netsim::place_hosts(topo_, netsim::HostKind::kDnsResolver,
                                config_.num_dns_servers, rng);
        // Hosts for the CDN's and the customers' authoritative DNS.
        auto infra = netsim::place_hosts(topo_, netsim::HostKind::kInfraNode,
                                         3, rng);
        cdn_dns_host_ = infra[0];
        customer_dns_host_ = infra[1];
        measurement_client_ = infra[2];
        cdn::DeploymentConfig cdn_config = config_.cdn;
        cdn_config.seed = hash_combine({config_.seed, stable_hash("cdn")});
        return cdn::Deployment::build(topo_, cdn_config);
      }()) {
  config_.latency.seed = hash_combine({config_.seed, stable_hash("latency")});
  oracle_ = std::make_unique<netsim::LatencyOracle>(topo_, config_.latency);

  cdn::CustomerCatalogConfig customer_config = config_.customers;
  customer_config.seed = hash_combine({config_.seed, stable_hash("cust")});
  catalog_ = cdn::CustomerCatalog::build(deployment_, customer_config);

  cdn::MeasurementConfig measurement_config = config_.measurement;
  measurement_config.seed =
      hash_combine({config_.seed, stable_hash("measure")});
  measurement_ =
      std::make_unique<cdn::MeasurementSystem>(*oracle_, measurement_config);

  // Arm the fault plan only when it has rules: with no plan attached,
  // every fault check short-circuits on a null pointer and the whole
  // degraded-mode machinery is provably inert (DESIGN.md §7).
  const sim::FaultPlan* faults =
      config_.faults.empty() ? nullptr : &config_.faults;
  oracle_->set_fault_plan(faults);

  cdn::LatencyPolicyConfig policy_config = config_.policy;
  policy_config.seed = hash_combine({config_.seed, stable_hash("policy")});
  if (config_.health.outage_probability > 0.0 || faults != nullptr) {
    cdn::HealthConfig health_config = config_.health;
    health_config.seed = hash_combine({config_.seed, stable_hash("health")});
    health_ = std::make_unique<cdn::ReplicaHealth>(health_config);
    health_->set_fault_plan(faults);
  }
  switch (config_.policy_kind) {
    case PolicyKind::kLatencyDriven: {
      auto latency_policy = std::make_unique<cdn::LatencyDrivenPolicy>(
          *oracle_, deployment_, *measurement_, policy_config);
      latency_policy->set_health(health_.get());
      policy_ = std::move(latency_policy);
      break;
    }
    case PolicyKind::kGeoStatic:
      policy_ = std::make_unique<cdn::GeoStaticPolicy>(topo_, deployment_);
      break;
    case PolicyKind::kRandom:
      policy_ = std::make_unique<cdn::RandomPolicy>(deployment_,
                                                    policy_config.seed);
      break;
    case PolicyKind::kSticky:
      policy_ = std::make_unique<cdn::StickyPolicy>(
          *oracle_, deployment_, *measurement_, policy_config);
      break;
  }

  dns_setup_ = cdn::register_cdn_dns(registry_, topo_, catalog_, deployment_,
                                     *policy_, cdn_dns_host_,
                                     customer_dns_host_,
                                     config_.authoritative);

  // One recursive resolver + CRP node per participant.
  const auto names = catalog_.web_names();
  const auto lookup = [this](Ipv4 addr) { return replica_of(addr); };
  for (HostId h : participants()) {
    auto resolver = std::make_unique<dns::RecursiveResolver>(
        h, registry_, oracle_.get(), config_.resolver);
    resolver->set_fault_plan(faults);
    auto node = std::make_unique<core::CrpNode>(*resolver, names, lookup,
                                                config_.crp);
    resolvers_.emplace(h, std::move(resolver));
    crp_nodes_.emplace(h, std::move(node));
  }
}

std::vector<HostId> World::participants() const {
  std::vector<HostId> all;
  all.reserve(candidates_.size() + dns_servers_.size());
  all.insert(all.end(), candidates_.begin(), candidates_.end());
  all.insert(all.end(), dns_servers_.begin(), dns_servers_.end());
  return all;
}

dns::RecursiveResolver& World::resolver(HostId host) {
  const auto it = resolvers_.find(host);
  if (it == resolvers_.end()) {
    throw std::invalid_argument{"World::resolver: not a participant"};
  }
  return *it->second;
}

core::CrpNode& World::crp_node(HostId host) {
  const auto it = crp_nodes_.find(host);
  if (it == crp_nodes_.end()) {
    throw std::invalid_argument{"World::crp_node: not a participant"};
  }
  return *it->second;
}

namespace {

void check_probing_window(SimTime start, SimTime end, Duration interval) {
  if (end < start || interval <= Duration{0}) {
    throw std::invalid_argument{"World::run_probing: bad window"};
  }
}

}  // namespace

std::vector<Duration> World::stagger_offsets(std::size_t count) const {
  // Stagger node start times a little so probes do not all land on the
  // same instant (and the same CDN rotation epoch). Offsets are drawn in
  // participants() order, making the host -> offset mapping a pure
  // function of the config — the sequential and parallel campaigns must
  // hand every node the exact same probe timeline.
  Rng rng{hash_combine({config_.seed, stable_hash("stagger")})};
  std::vector<Duration> offsets;
  offsets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    offsets.emplace_back(
        static_cast<std::int64_t>(rng.uniform() *
                                  static_cast<double>(Seconds(19).micros())));
  }
  return offsets;
}

World::CounterBaseline World::counter_baseline() const {
  CounterBaseline base;
  for (const auto& [host, resolver] : resolvers_) {
    base.upstream += resolver->queries_sent();
    base.hits += resolver->cache_hits();
    base.misses += resolver->cache_misses();
    base.retries += resolver->retries();
    base.timeouts += resolver->timeouts();
    base.outage_refusals += resolver->outage_refusals();
  }
  for (const auto& [host, node] : crp_nodes_) {
    base.failed_probes += node->failed_lookups();
  }
  base.cdn_queries = cdn_queries_served();
  base.cdn_estimates = measurement_->estimates_computed();
  const netsim::PairCacheStats pair = netsim::LatencyOracle::pair_cache_stats();
  base.pair_hits = pair.hits;
  base.pair_misses = pair.misses;
  return base;
}

void World::finish_campaign_stats(const CounterBaseline& before,
                                  std::size_t rounds,
                                  std::size_t probes_issued,
                                  std::size_t threads, double wall_seconds) {
  const CounterBaseline after = counter_baseline();
  campaign_stats_ = CampaignStats{};
  campaign_stats_.participants = resolvers_.size();
  campaign_stats_.rounds = rounds;
  campaign_stats_.probes_issued = probes_issued;
  campaign_stats_.upstream_dns_queries = after.upstream - before.upstream;
  campaign_stats_.resolver_cache_hits = after.hits - before.hits;
  campaign_stats_.resolver_cache_misses = after.misses - before.misses;
  campaign_stats_.cdn_queries = after.cdn_queries - before.cdn_queries;
  campaign_stats_.cdn_estimates = after.cdn_estimates - before.cdn_estimates;
  campaign_stats_.oracle_pair_hits = after.pair_hits - before.pair_hits;
  campaign_stats_.oracle_pair_misses = after.pair_misses - before.pair_misses;
  campaign_stats_.dns_retries = after.retries - before.retries;
  campaign_stats_.dns_timeouts = after.timeouts - before.timeouts;
  campaign_stats_.dns_outage_refusals =
      after.outage_refusals - before.outage_refusals;
  campaign_stats_.failed_probes = after.failed_probes - before.failed_probes;
  campaign_stats_.threads = threads;
  campaign_stats_.wall_seconds = wall_seconds;
}

std::size_t World::run_probing(SimTime start, SimTime end,
                               Duration interval) {
  return run_probing_parallel(start, end, interval, &ThreadPool::shared());
}

std::size_t World::run_probing_parallel(SimTime start, SimTime end,
                                        Duration interval, ThreadPool* pool) {
  check_probing_window(start, end, interval);
  if (pool == nullptr) pool = &ThreadPool::shared();
  const auto wall_start = std::chrono::steady_clock::now();
  const CounterBaseline before = counter_baseline();

  const std::vector<HostId> hosts = participants();
  const std::vector<Duration> offsets = stagger_offsets(hosts.size());
  std::vector<core::CrpNode*> nodes;
  nodes.reserve(hosts.size());
  for (HostId h : hosts) nodes.push_back(&crp_node(h));

  // Eliminate lazy shared-state mutation before fanning out: after
  // prepare(), select() is read-only on policy state, the authoritative
  // counter is thread-sharded, and everything else on the probe path is
  // per-node or stateless — so per-node replay is safe and bit-identical
  // to the global event order (DESIGN.md §6).
  policy_->prepare(hosts, pool);

  std::vector<std::size_t> probes(hosts.size(), 0);
  pool->parallel_for(0, hosts.size(), [&](std::size_t i) {
    core::CrpNode& node = *nodes[i];
    std::size_t count = 0;
    for (SimTime t = start + offsets[i]; t <= end; t = t + interval) {
      node.probe(t);
      ++count;
    }
    probes[i] = count;
  });

  campaign_end_ = end;
  const std::size_t rounds =
      static_cast<std::size_t>((end - start) / interval) + 1;
  std::size_t probes_issued = 0;
  for (std::size_t count : probes) probes_issued += count;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  finish_campaign_stats(before, rounds, probes_issued, pool->size(),
                        wall.count());
  return rounds;
}

std::size_t World::run_probing_sequential(SimTime start, SimTime end,
                                          Duration interval) {
  check_probing_window(start, end, interval);
  const auto wall_start = std::chrono::steady_clock::now();
  const CounterBaseline before = counter_baseline();

  const std::vector<HostId> hosts = participants();
  const std::vector<Duration> offsets = stagger_offsets(hosts.size());
  // Shared (not stack-ref) counter: a periodic event rescheduled past
  // `end` stays queued after this function returns and still runs its
  // final now-past-end check if the scheduler is driven again later.
  auto probes_issued = std::make_shared<std::size_t>(0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    core::CrpNode& node = crp_node(hosts[i]);
    sched_.every(start + offsets[i], interval,
                 [&node, this, end, probes_issued] {
                   if (sched_.now() > end) return false;
                   node.probe(sched_.now());
                   ++*probes_issued;
                   return true;
                 });
  }
  sched_.run_until(end);

  campaign_end_ = end;
  const std::size_t rounds =
      static_cast<std::size_t>((end - start) / interval) + 1;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  finish_campaign_stats(before, rounds, *probes_issued, 0, wall.count());
  return rounds;
}

double World::ground_truth_rtt_ms(HostId a, HostId b) const {
  const int samples = std::max(1, config_.ground_truth_samples);
  const SimTime window_end =
      campaign_end_ == SimTime::epoch() ? SimTime::epoch() + Hours(24)
                                        : campaign_end_;
  const double fraction =
      std::clamp(config_.ground_truth_window_fraction, 0.01, 1.0);
  const auto window_start = SimTime{static_cast<std::int64_t>(
      (1.0 - fraction) * static_cast<double>(window_end.micros()))};
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double frac =
        samples == 1 ? 0.5
                     : static_cast<double>(i) / static_cast<double>(samples - 1);
    const SimTime t = window_start +
                      (window_end - window_start) * frac;
    values.push_back(oracle_->rtt_ms(a, b, t));
  }
  return median(values);
}

std::vector<std::vector<double>> World::king_matrix(
    const std::vector<HostId>& hosts) const {
  king::KingConfig king_config;
  king_config.seed = hash_combine({config_.seed, stable_hash("king")});
  const king::KingEstimator estimator{*oracle_, measurement_client_,
                                      king_config};
  const SimTime t = campaign_end_ == SimTime::epoch()
                        ? SimTime::epoch() + Hours(12)
                        : SimTime::epoch() + (campaign_end_ -
                                              SimTime::epoch()) * 0.5;
  // O(n^2) King estimates dominate clustering-bench setup; the campaign
  // is embarrassingly parallel and deterministic (see pairwise_matrix).
  return estimator.pairwise_matrix(hosts, t, &ThreadPool::shared());
}

std::vector<std::string> World::encode_reports(SimTime when,
                                               ThreadPool& pool) {
  const std::vector<HostId> hosts = participants();
  std::vector<std::string> wire(hosts.size());
  // Encoding is pure per participant (ratio_map() reads the node's
  // probe history, host names are fixed at construction), so it fans
  // out into per-index slots. Participants whose encode fails — in
  // practice none, the wire bounds dwarf real maps — leave an empty
  // string the service rejects like any other malformed entry.
  pool.parallel_for(0, hosts.size(), [&](std::size_t i) {
    service::PositionReport report;
    report.node_id = topo_.host(hosts[i]).name;
    report.when = when;
    report.map = crp_node(hosts[i]).ratio_map();
    if (auto bytes = service::encode(report)) wire[i] = std::move(*bytes);
  });
  return wire;
}

World::ReportDelivery World::report_positions(
    service::PositionService& service, SimTime when, ThreadPool* pool) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  const std::vector<std::string> wire = encode_reports(when, p);

  ReportDelivery delivery;
  for (const std::string& bytes : wire) delivery.wire_bytes += bytes.size();
  delivery.accepted = service.publish_batch(wire, when, &p);
  delivery.rejected = wire.size() - delivery.accepted;
  // A campaign delivery is a natural snapshot boundary: when the
  // service serves concurrent readers, cut a fresh snapshot now so they
  // see the whole campaign at once instead of whatever epoch the batch
  // hook happened to leave published.
  if (service.config().snapshots.enabled) {
    (void)service.publish_snapshot(when);
  }
  return delivery;
}

World::ReportDelivery World::report_positions(
    service::ShardedFrontend& frontend, SimTime when, ThreadPool* pool) {
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  // One plan steers the whole chaos campaign: the same FaultPlan the
  // oracle/resolvers/health draw from arms the frontend's shard faults
  // on first delivery. Arming is idempotent by the unarmed check, and a
  // world without faults leaves the frontend fully inert.
  if (!config_.faults.empty() && frontend.fault_plan() == nullptr) {
    frontend.set_fault_plan(&config_.faults);
  }
  const std::vector<std::string> wire = encode_reports(when, p);

  ReportDelivery delivery;
  for (const std::string& bytes : wire) delivery.wire_bytes += bytes.size();
  const service::FrontendHealthStats before = frontend.health_stats();
  // A delivery is a time boundary: fire due crash events and half-open
  // probes before the batch, so a shard scheduled to crash at `when`
  // loses the pre-campaign state, not the fresh delivery.
  frontend.tick(when);
  delivery.accepted = frontend.publish_batch(wire, when, &p);
  delivery.rejected = wire.size() - delivery.accepted;
  // Same campaign boundary as the unsharded path: republish every shard
  // so a View captures the full campaign at one epoch vector. The
  // frontend always has snapshots enabled (it forces them on), so this
  // is unconditional.
  frontend.publish_snapshots(when);
  const service::FrontendHealthStats after = frontend.health_stats();
  delivery.shard_writes_shed = after.writes_shed - before.writes_shed;
  delivery.shard_writes_failed =
      after.writes_failed - before.writes_failed;
  delivery.shard_crashes = after.shard_crashes - before.shard_crashes;
  delivery.shard_breaker_opens =
      after.breaker_opens - before.breaker_opens;
  return delivery;
}

}  // namespace crp::eval
