#include "cdn/redirection.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "common/thread_pool.hpp"
#include "netsim/geo.hpp"

namespace crp::cdn {

namespace {

/// Shared prewarm shape: computes `make(resolver)` for every resolver not
/// already in `cache` (each result independently, optionally in parallel)
/// and inserts the results in resolver order. Since the computation is a
/// pure per-resolver function, prewarmed content is exactly what a lazy
/// fill would have produced.
template <typename Entry, typename MakeFn>
void prewarm_cache(
    std::unordered_map<crp::HostId, std::vector<Entry>>& cache,
    std::span<const crp::HostId> resolvers, crp::ThreadPool* pool,
    MakeFn make) {
  std::vector<crp::HostId> missing;
  missing.reserve(resolvers.size());
  for (crp::HostId r : resolvers) {
    if (!cache.contains(r)) missing.push_back(r);
  }
  if (missing.empty()) return;
  std::vector<std::vector<Entry>> lists(missing.size());
  const auto fill = [&](std::size_t i) { lists[i] = make(missing[i]); };
  if (pool != nullptr) {
    pool->parallel_for(0, missing.size(), fill);
  } else {
    for (std::size_t i = 0; i < missing.size(); ++i) fill(i);
  }
  cache.reserve(cache.size() + missing.size());
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache.emplace(missing[i], std::move(lists[i]));
  }
}

/// Nearest `pool` edge replicas under `cost`, nearest first, each turned
/// into a list entry by `make(replica, cost)`. The list is reserved
/// exactly: policies keep one per resolver.
template <typename CostFn, typename MakeFn>
auto nearest_replicas(const Deployment& deployment, std::size_t pool,
                      CostFn cost, MakeFn make) {
  std::vector<std::pair<double, ReplicaId>> ranked;
  ranked.reserve(deployment.size());
  for (const ReplicaServer& r : deployment.replicas()) {
    if (r.origin_fallback) continue;
    ranked.emplace_back(cost(r), r.id);
  }
  const std::size_t keep = std::min(pool, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(keep),
                    ranked.end());
  std::vector<std::invoke_result_t<MakeFn, const ReplicaServer&, double>> out;
  out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    out.push_back(make(deployment.replica(ranked[i].second), ranked[i].first));
  }
  return out;
}

std::int64_t epoch_index(SimTime t, Duration epoch) {
  return t.micros() / std::max<std::int64_t>(1, epoch.micros());
}

constexpr std::uint64_t kRedirectTag = stable_hash("redirect");

std::atomic<std::uint64_t> g_next_policy_id{1};

/// Per-thread estimate memo of the latency-driven policies (DESIGN.md §6).
/// It holds the estimates of one (policy, resolver, now) key, one slot
/// per candidate-list index, filled only when a select estimates the
/// candidate, and the key's estimate context, built with the key's first
/// estimate.
/// Thread-local like the oracle's pair cache, so a select after `prepare`
/// still mutates no shared state.
struct EstimateMemo {
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

  std::uint64_t policy_id = 0;  // 0 = empty (policy ids start at 1)
  HostId resolver;
  SimTime now;
  std::vector<double> estimates;
  std::optional<MeasurementSystem::EstimateContext> context;

  /// Switches to the key, emptying every slot unless it already holds it.
  void bind(std::uint64_t id, HostId r, SimTime t, std::size_t candidates) {
    if (id == policy_id && r == resolver && t == now) return;
    policy_id = id;
    resolver = r;
    now = t;
    estimates.assign(candidates, kUnset);
    context.reset();
  }
};

EstimateMemo& estimate_memo() {
  thread_local EstimateMemo memo;
  return memo;
}

}  // namespace

void RedirectionPolicy::prepare(std::span<const HostId> /*resolvers*/,
                                ThreadPool* /*pool*/) {}

LatencyDrivenPolicy::LatencyDrivenPolicy(const netsim::LatencyOracle& oracle,
                                         const Deployment& deployment,
                                         const MeasurementSystem& measurement,
                                         LatencyPolicyConfig config)
    : oracle_(&oracle),
      deployment_(&deployment),
      measurement_(&measurement),
      config_(config),
      policy_id_(g_next_policy_id.fetch_add(1, std::memory_order_relaxed)) {
  if (config_.rotation_pool == 0) {
    // A pool of 0 would draw nothing for a well-covered resolver.
    throw std::invalid_argument{
        "LatencyDrivenPolicy: rotation_pool must be at least 1"};
  }
  // A rotation draws from at most `candidate_pool` ranks.
  const std::size_t ranks =
      std::min(config_.rotation_pool, config_.candidate_pool);
  rotation_weights_.reserve(ranks);
  for (std::size_t i = 0; i < ranks; ++i) {
    rotation_weights_.push_back(
        std::pow(1.0 + static_cast<double>(i), -config_.rank_exponent));
  }
}

std::vector<LatencyDrivenPolicy::Candidate> LatencyDrivenPolicy::nearest_for(
    HostId resolver) const {
  return nearest_replicas(
      *deployment_, config_.candidate_pool,
      [&](const ReplicaServer& r) {
        return oracle_->base_rtt_ms(resolver, r.host);
      },
      [&](const ReplicaServer& r, double base_rtt_ms) {
        return Candidate{r.id, measurement_->replica(resolver, r.host),
                         base_rtt_ms};
      });
}

const std::vector<LatencyDrivenPolicy::Candidate>&
LatencyDrivenPolicy::candidates(HostId resolver) {
  const auto it = candidate_cache_.find(resolver);
  if (it != candidate_cache_.end()) return it->second;
  return candidate_cache_.emplace(resolver, nearest_for(resolver))
      .first->second;
}

void LatencyDrivenPolicy::prepare(std::span<const HostId> resolvers,
                                  ThreadPool* pool) {
  prewarm_cache(candidate_cache_, resolvers, pool,
                [this](HostId resolver) { return nearest_for(resolver); });
}

std::vector<ReplicaId> LatencyDrivenPolicy::select(HostId resolver,
                                                   const Customer& customer,
                                                   SimTime now, int count) {
  if (count <= 0) return {};

  // Candidates near this resolver that also serve this customer, ranked
  // by the measurement subsystem's *current* estimate. Only the front
  // (the coverage test) and the rotation pool are read, so `best` keeps
  // the `cap` best (estimate, id) pairs ranked so far, a max-heap whose
  // front is the bar once it is full. A candidate whose estimate floor
  // exceeds the bar cannot reach the pool: it is not estimated and not
  // ranked, and its memo slot stays empty for a later select with a
  // higher bar, but it still counts as served. Each served and
  // available candidate is estimated at most once per memo key.
  // (estimate, id) is a strict total order over distinct candidates
  // (estimates are finite), so the sorted heap is a full sort's prefix.
  const auto better = [](const std::pair<double, ReplicaId>& x,
                         const std::pair<double, ReplicaId>& y) {
    return x.first < y.first || (x.first == y.first && x.second < y.second);
  };
  const std::size_t cap =
      std::min(config_.rotation_pool, config_.candidate_pool);
  const std::vector<Candidate>& near = candidates(resolver);
  EstimateMemo& memo = estimate_memo();
  memo.bind(policy_id_, resolver, now, near.size());
  std::vector<std::pair<double, ReplicaId>> best;
  best.reserve(std::min(cap, near.size()));
  double bar = std::numeric_limits<double>::infinity();
  std::size_t served = 0;
  std::size_t computed = 0;
  for (std::size_t i = 0; i < near.size(); ++i) {
    const Candidate& c = near[i];
    if (!customer.serves(c.id)) continue;
    if (health_ != nullptr && !health_->available(c.id, now)) continue;
    ++served;
    double estimate = memo.estimates[i];
    if (std::isnan(estimate)) {
      if (!memo.context) memo.context = measurement_->context(resolver, now);
      estimate =
          measurement_->estimate_ms(*memo.context, c.key, c.base_rtt_ms, bar);
      if (std::isinf(estimate)) continue;  // its floor exceeds the bar
      memo.estimates[i] = estimate;
      ++computed;
    }
    const std::pair<double, ReplicaId> entry{estimate, c.id};
    if (best.size() < cap) {
      best.push_back(entry);
      std::push_heap(best.begin(), best.end(), better);
    } else if (better(entry, best.front())) {
      std::pop_heap(best.begin(), best.end(), better);
      best.back() = entry;
      std::push_heap(best.begin(), best.end(), better);
    } else {
      continue;
    }
    if (best.size() == cap) bar = best.front().first;
  }
  if (computed > 0) measurement_->count_estimates(computed);
  std::sort_heap(best.begin(), best.end(), better);
  const std::size_t pool = std::min(config_.rotation_pool, served);

  const std::int64_t epoch = epoch_index(now, config_.rotation_epoch);
  Rng rng{hash_combine({config_.seed, kRedirectTag,
                        resolver.value(),
                        static_cast<std::uint64_t>(customer.index),
                        static_cast<std::uint64_t>(epoch)})};

  // Poor coverage: sometimes answer origin fallbacks instead of edges.
  const bool poorly_covered =
      best.empty() || best.front().first > config_.coverage_threshold_ms;
  if (poorly_covered && !deployment_->fallbacks().empty() &&
      rng.bernoulli(config_.fallback_probability)) {
    std::vector<ReplicaId> out;
    const auto fallbacks = deployment_->fallbacks();
    const auto take =
        std::min<std::size_t>(static_cast<std::size_t>(count),
                              fallbacks.size());
    auto picks = rng.sample_indices(fallbacks.size(), take);
    out.reserve(take);
    for (std::size_t i : picks) out.push_back(fallbacks[i]);
    return out;
  }
  if (best.empty()) {
    // No edge candidate serves this customer near here and no fallback
    // drawn: answer the globally best-effort fallbacks deterministically.
    const auto fallbacks = deployment_->fallbacks();
    std::vector<ReplicaId> out;
    for (std::size_t i = 0;
         i < fallbacks.size() && out.size() < static_cast<std::size_t>(count);
         ++i) {
      out.push_back(fallbacks[i]);
    }
    if (out.empty()) {
      throw std::runtime_error{
          "LatencyDrivenPolicy: no replica available for customer"};
    }
    return out;
  }

  // Rotation: draw `count` distinct replicas from the top of the ranking,
  // weighted toward the best. This is the load-balancing rotation that
  // turns redirections into frequency distributions (ratio maps).
  std::vector<double> w(rotation_weights_.begin(),
                        rotation_weights_.begin() + static_cast<long>(pool));
  const auto want =
      std::min<std::size_t>(static_cast<std::size_t>(count), pool);
  std::vector<ReplicaId> out;
  out.reserve(want);
  for (std::size_t pick = 0; pick < want; ++pick) {
    const std::size_t idx = rng.weighted_index(w);
    out.push_back(best[idx].second);
    w[idx] = 0.0;  // without replacement
  }
  return out;
}

GeoStaticPolicy::GeoStaticPolicy(const netsim::Topology& topo,
                                 const Deployment& deployment)
    : topo_(&topo), deployment_(&deployment) {}

std::vector<ReplicaId> GeoStaticPolicy::nearest_for(HostId resolver) const {
  const netsim::GeoPoint where = topo_->host(resolver).location;
  return nearest_replicas(
      *deployment_, 32,
      [&](const ReplicaServer& r) {
        return netsim::great_circle_km(where, topo_->host(r.host).location);
      },
      [](const ReplicaServer& r, double /*km*/) { return r.id; });
}

void GeoStaticPolicy::prepare(std::span<const HostId> resolvers,
                              ThreadPool* pool) {
  prewarm_cache(cache_, resolvers, pool,
                [this](HostId resolver) { return nearest_for(resolver); });
}

std::vector<ReplicaId> GeoStaticPolicy::select(HostId resolver,
                                               const Customer& customer,
                                               SimTime /*now*/, int count) {
  if (count <= 0) return {};
  auto it = cache_.find(resolver);
  if (it == cache_.end()) {
    it = cache_.emplace(resolver, nearest_for(resolver)).first;
  }
  std::vector<ReplicaId> out;
  for (ReplicaId id : it->second) {
    if (!customer.serves(id)) continue;
    out.push_back(id);
    if (out.size() == static_cast<std::size_t>(count)) break;
  }
  if (out.empty() && !deployment_->fallbacks().empty()) {
    out.push_back(deployment_->fallbacks().front());
  }
  return out;
}

RandomPolicy::RandomPolicy(const Deployment& deployment, std::uint64_t seed,
                           Duration rotation_epoch)
    : deployment_(&deployment), seed_(seed), rotation_epoch_(rotation_epoch) {}

std::vector<ReplicaId> RandomPolicy::select(HostId resolver,
                                            const Customer& customer,
                                            SimTime now, int count) {
  if (count <= 0 || customer.replica_subset.empty()) return {};
  const std::int64_t epoch = epoch_index(now, rotation_epoch_);
  Rng rng{hash_combine({seed_, stable_hash("random-redirect"),
                        resolver.value(),
                        static_cast<std::uint64_t>(customer.index),
                        static_cast<std::uint64_t>(epoch)})};
  const auto take = std::min<std::size_t>(static_cast<std::size_t>(count),
                                          customer.replica_subset.size());
  const auto picks = rng.sample_indices(customer.replica_subset.size(), take);
  std::vector<ReplicaId> out;
  out.reserve(take);
  for (std::size_t i : picks) out.push_back(customer.replica_subset[i]);
  return out;
}

StickyPolicy::StickyPolicy(const netsim::LatencyOracle& oracle,
                           const Deployment& deployment,
                           const MeasurementSystem& measurement,
                           LatencyPolicyConfig config)
    : inner_(oracle, deployment, measurement, config) {}

std::vector<ReplicaId> StickyPolicy::select(HostId resolver,
                                            const Customer& customer,
                                            SimTime /*now*/, int count) {
  // Always answer as if it were the first rotation epoch.
  return inner_.select(resolver, customer, SimTime::epoch(), count);
}

void StickyPolicy::prepare(std::span<const HostId> resolvers,
                           ThreadPool* pool) {
  inner_.prepare(resolvers, pool);
}

}  // namespace crp::cdn
