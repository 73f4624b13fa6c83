#include "netsim/latency_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

namespace crp::netsim {

namespace {

// Orders a host pair so hashes are symmetric in (a, b).
std::pair<std::uint64_t, std::uint64_t> ordered(HostId a, HostId b) {
  const std::uint64_t x = a.value();
  const std::uint64_t y = b.value();
  return x < y ? std::pair{x, y} : std::pair{y, x};
}

// The salt of the jitter and route-shift draws' second uniform.
constexpr std::uint64_t kNormalSalt = 0xa5a5a5a5a5a5a5a5ULL;

// The epoch index of `t`, as the hashes key it.
std::uint64_t epoch_of(SimTime t, Duration epoch) {
  return static_cast<std::uint64_t>(
      t.micros() / std::max<std::int64_t>(1, epoch.micros()));
}

// Tags of the hashed terms, hashed at compile time.
constexpr std::uint64_t kQuirkTag = stable_hash("quirk");
constexpr std::uint64_t kInterconnectTag = stable_hash("interconnect");
constexpr std::uint64_t kCongestionTag = stable_hash("congestion");
constexpr std::uint64_t kRouteShiftTag = stable_hash("route-shift");
constexpr std::uint64_t kJitterTag = stable_hash("jitter");

// --- per-thread base-RTT pair cache -----------------------------------
//
// `base_rtt_ms` is the innermost call of every RTT evaluation (probing
// campaigns, King, ground truth) and re-derives great-circle geometry,
// AS/region inflation and quirk hashes each time, although it is a pure
// function of the pair. The memo is a direct-mapped, fixed-size table
// per thread: no sharing, no locks, and a hard memory bound regardless
// of topology size. A slot collision simply overwrites — the evicted
// pair is recomputed on its next miss — so the cache is result-neutral
// by construction (values are only ever copied out of base_rtt_uncached_ms).

struct PairCacheSlot {
  std::uint64_t oracle_id = 0;  // 0 = empty (oracle ids start at 1)
  std::uint64_t key = 0;        // ordered pair, packed (host ids are u32)
  double value = 0.0;
};

// Counters outlive their thread (shared_ptr into a process-wide registry)
// so `pair_cache_stats` still sees work done by joined pool workers.
struct PairCacheCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

std::mutex g_pair_cache_registry_mu;
std::vector<std::shared_ptr<PairCacheCounters>>& pair_cache_registry() {
  static std::vector<std::shared_ptr<PairCacheCounters>> registry;
  return registry;
}

struct PairCache {
  static constexpr std::size_t kSlots = std::size_t{1} << 16;  // ~1.5 MiB

  std::vector<PairCacheSlot> slots{kSlots};
  std::shared_ptr<PairCacheCounters> counters =
      std::make_shared<PairCacheCounters>();

  PairCache() {
    std::lock_guard<std::mutex> lock{g_pair_cache_registry_mu};
    pair_cache_registry().push_back(counters);
  }
};

PairCache& pair_cache() {
  thread_local PairCache cache;
  return cache;
}

std::atomic<std::uint64_t> g_next_oracle_id{1};

}  // namespace

LatencyOracle::LatencyOracle(const Topology& topo, LatencyConfig config)
    : topo_(&topo),
      config_(config),
      quirk_prefix_(hash_combine({config.seed, kQuirkTag})),
      interconnect_prefix_(hash_combine({config.seed, kInterconnectTag})),
      congestion_prefix_(hash_combine({config.seed, kCongestionTag})),
      route_shift_prefix_(hash_combine({config.seed, kRouteShiftTag})),
      jitter_prefix_(hash_combine({config.seed, kJitterTag})),
      jitter_(config.jitter_sigma),
      route_shift_(config.route_shift_sigma),
      oracle_id_(g_next_oracle_id.fetch_add(1, std::memory_order_relaxed)) {}

PairCacheStats LatencyOracle::pair_cache_stats() {
  PairCacheStats stats;
  std::lock_guard<std::mutex> lock{g_pair_cache_registry_mu};
  for (const auto& counters : pair_cache_registry()) {
    stats.hits += counters->hits.load(std::memory_order_relaxed);
    stats.misses += counters->misses.load(std::memory_order_relaxed);
  }
  return stats;
}

double LatencyOracle::pair_quirk(HostId a, HostId b) const {
  const auto [lo, hi] = ordered(a, b);
  const std::uint64_t h = hash_extend(quirk_prefix_, {lo, hi});
  if (hash_to_unit(h) >= config_.quirk_probability) return 1.0;
  const double u = hash_to_unit(hash_mix(h ^ 0x1234abcdULL));
  return 1.2 + u * (config_.quirk_max_inflation - 1.2);
}

double LatencyOracle::region_interconnect(RegionId a, RegionId b) const {
  if (a == b) return 1.0;
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  const std::uint64_t h = hash_extend(interconnect_prefix_, {lo, hi});
  if (hash_to_unit(h) >= config_.bad_interconnect_fraction) return 1.0;
  const double u = hash_to_unit(hash_mix(h ^ 0x9876fedcULL));
  return 1.15 + u * (config_.bad_interconnect_max_inflation - 1.15);
}

double LatencyOracle::base_rtt_ms(HostId a, HostId b) const {
  if (a == b) return 0.0;
  if (!config_.pair_cache) return base_rtt_uncached_ms(a, b);

  const auto [lo, hi] = ordered(a, b);
  const std::uint64_t key = (lo << 32) | hi;
  PairCache& cache = pair_cache();
  PairCacheSlot& slot =
      cache.slots[hash_mix(key ^ oracle_id_) & (PairCache::kSlots - 1)];
  if (slot.oracle_id == oracle_id_ && slot.key == key) {
    cache.counters->hits.fetch_add(1, std::memory_order_relaxed);
    return slot.value;
  }
  cache.counters->misses.fetch_add(1, std::memory_order_relaxed);
  const double value = base_rtt_uncached_ms(a, b);
  slot = PairCacheSlot{oracle_id_, key, value};
  return value;
}

double LatencyOracle::base_rtt_uncached_ms(HostId a, HostId b) const {
  const Host& ha = topo_->host(a);
  const Host& hb = topo_->host(b);

  const double access = 2.0 * (ha.access_one_way_ms + hb.access_one_way_ms);
  if (ha.pop == hb.pop) {
    return access + config_.same_pop_rtt_ms;
  }

  const double geo_rtt =
      2.0 * propagation_one_way_ms(great_circle_km(ha.location, hb.location));

  double inflation = 1.0;
  double penalty = 0.0;
  if (ha.asn == hb.asn) {
    inflation = config_.intra_as_inflation;
    penalty = 0.5;  // intra-AS metro hops
  } else if (ha.region == hb.region) {
    inflation = config_.intra_region_inflation;
    penalty = config_.peering_penalty_ms;
  } else {
    inflation =
        config_.inter_region_inflation * region_interconnect(ha.region,
                                                             hb.region);
    penalty = config_.peering_penalty_ms + config_.inter_region_penalty_ms;
  }
  if (ha.asn != hb.asn) {
    if (topo_->as_of(ha.asn).tier == 3) {
      penalty += config_.tier3_transit_penalty_ms;
    }
    if (topo_->as_of(hb.asn).tier == 3) {
      penalty += config_.tier3_transit_penalty_ms;
    }
  }

  const double path = (geo_rtt * inflation + penalty) * pair_quirk(a, b);
  return access + config_.same_pop_rtt_ms + path;
}

double LatencyOracle::congestion_extra(HostId h, SimTime t) const {
  return congestion_at(topo_->host(h).pop,
                       epoch_of(t, config_.congestion_epoch));
}

double LatencyOracle::route_shift_factor(HostId a, HostId b,
                                         SimTime t) const {
  if (a == b) return 1.0;
  const std::optional<HashNormal> shift =
      route_shift_draw(topo_->host(a).pop, topo_->host(b).pop,
                       epoch_of(t, config_.route_shift_epoch));
  return shift ? route_shift_(*shift) : 1.0;
}

double LatencyOracle::congestion_at(PopId pop, std::uint64_t epoch) const {
  const std::uint64_t hash =
      hash_extend(congestion_prefix_, {pop.value(), epoch});
  if (hash_to_unit(hash) >= config_.congestion_probability) return 0.0;
  const double severity = hash_to_unit(hash_mix(hash ^ 0x5555aaaaULL));
  return severity * config_.congestion_max_extra;
}

std::optional<HashNormal> LatencyOracle::route_shift_draw(
    PopId a, PopId b, std::uint64_t epoch) const {
  // Same PoP: no inter-domain route.
  if (config_.route_shift_sigma <= 0.0 || a == b) return std::nullopt;
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return HashNormal{hash_extend(route_shift_prefix_, {lo, hi, epoch}),
                    kNormalSalt};
}

LatencyOracle::Origin LatencyOracle::origin(HostId a, SimTime t) const {
  const PopId pop = topo_->host(a).pop;
  const std::uint64_t congestion_epoch =
      epoch_of(t, config_.congestion_epoch);
  return {a, pop, 1.0 + congestion_at(pop, congestion_epoch),
          congestion_epoch, epoch_of(t, config_.jitter_epoch),
          epoch_of(t, config_.route_shift_epoch)};
}

LatencyOracle::Far LatencyOracle::far(HostId a, HostId b) const {
  const auto [lo, hi] = ordered(a, b);
  return {b, topo_->host(b).pop, hash_extend(jitter_prefix_, {lo, hi})};
}

double LatencyOracle::rtt_ms(const Origin& from, const Far& to, double base,
                             double bar) const {
  if (from.host == to.host) return 0.0;
  // The jitter draw is off at sigma <= 0, like route shift's.
  std::optional<HashNormal> jitter;
  if (config_.jitter_sigma > 0.0) {
    jitter.emplace(hash_extend(to.jitter, {from.jitter_epoch}), kNormalSalt);
  }
  const std::optional<HashNormal> shift =
      route_shift_draw(from.pop, to.pop, from.route_epoch);
  double floor = base * from.congestion;
  if (jitter) floor *= jitter_.floor(*jitter);
  if (shift) floor *= route_shift_.floor(*shift);
  if (floor > bar) return std::numeric_limits<double>::infinity();
  // An absent term's factor is exactly 1, so skipping it keeps the bits
  // of `base * congestion * jitter * route`.
  double rtt =
      base * (from.congestion + congestion_at(to.pop, from.congestion_epoch));
  if (jitter) rtt *= jitter_(*jitter);
  if (shift) rtt *= route_shift_(*shift);
  return rtt;
}

}  // namespace crp::netsim
