// Sharded serving: the ShardedFrontend scatter/gather path vs one
// unsharded PositionService over the same corpus (DESIGN.md §9).
//
// Two phases:
//   * digest equality — a fixed query workload (live_nodes, closest_any,
//     closest, both tiered queries, top_k, both closest_batch overloads)
//     runs once through an unsharded service and once through a
//     ShardedFrontend at every shard count in {1, 2, 4, 8}; every answer
//     folds into an FNV-1a digest and all five digests must match bit
//     for bit (exit 1 on mismatch — the scatter/gather merge is supposed
//     to be invisible, not approximately right).
//   * 1-shard baseline — closest_batch over every client through the
//     snapshot (svc.snapshot()->closest_batch) and through a 1-shard
//     frontend, which run the same serving core over the same frozen
//     tables, alternating rep by rep. The acceptance bar is "no
//     regression at 1 shard" on this host.
// Throughput across shard counts is perfbench's to measure (serve_read
// runs 4 shards end to end).
//
// CRP_BENCH_SCALE=tiny|small shrinks corpora for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/ratio_map.hpp"
#include "service/position_service.hpp"
#include "service/serving_snapshot.hpp"
#include "service/sharded_frontend.hpp"

namespace {

using namespace crp;

struct Scale {
  std::size_t corpus;
  std::size_t reps;
};

Scale bench_scale() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  const std::string scale = env == nullptr ? "" : env;
  if (scale == "tiny") return {120, 6};
  if (scale == "small") return {1000, 8};
  return {4000, 10};
}

std::vector<core::RatioMap> make_corpus(std::size_t n) {
  Rng rng{hash_combine({93, n})};
  constexpr std::uint32_t kIdSpace = 2000;
  std::vector<core::RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<core::RatioMap::Entry> entries;
    for (int j = 0; j < 16; ++j) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, kIdSpace - 1))},
                           rng.uniform(0.05, 1.0));
    }
    maps.push_back(core::RatioMap::from_ratios(entries));
  }
  return maps;
}

std::string node_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node-%05zu", i);
  return std::string{buf};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// FNV-1a over the bytes that define an answer: ids and raw similarity
// bits. Any drift between the two paths lands in the digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void ranked(const std::vector<service::RankedNode>& r) {
    u64(r.size());
    for (const auto& n : r) {
      str(n.node_id);
      f64(n.similarity);
    }
  }
  void tiered(const service::TieredAnswer& t) {
    u64(static_cast<std::uint64_t>(t.tier));
    ranked(t.ranked);
  }
};

// The fixed mixed workload of phase 1, templated over the two serving
// surfaces: PositionService and ShardedFrontend expose the same query
// names with the same semantics — that symmetry is the point.
template <typename Surface>
std::uint64_t workload_digest(Surface& s,
                              const std::vector<std::string>& ids,
                              const std::vector<core::RatioMap>& maps,
                              SimTime now) {
  Digest d;
  for (const auto& id : s.live_nodes(now)) d.str(id);
  const std::size_t n = ids.size();
  const std::size_t step = std::max<std::size_t>(1, n / 64);
  std::vector<std::string> candidates;
  for (std::size_t i = 0; i < n; i += 7) candidates.push_back(ids[i]);
  for (std::size_t i = 0; i < n; i += step) {
    d.ranked(s.closest_any(ids[i], 5, now));
    d.ranked(s.closest(ids[i], candidates, 3, now));
    d.tiered(s.closest_any_tiered(ids[i], 4, now));
    d.tiered(s.closest_tiered(ids[i], candidates, 4, now));
    d.ranked(s.top_k(maps[i], 5, now));
  }
  std::vector<std::string> clients;
  for (std::size_t i = 0; i < n; i += step) clients.push_back(ids[i]);
  // Unknown and excluded clients exercise the refusal/exclusion paths.
  clients.push_back("node-never-published");
  for (const auto& row : s.closest_batch(clients, 5, now)) d.ranked(row);
  for (const auto& row : s.closest_batch(clients, candidates, 5, now)) {
    d.ranked(row);
  }
  return d.h;
}

}  // namespace

int main() {
  const Scale scale = bench_scale();
  const std::size_t n = scale.corpus;
  bool ok = true;

  const auto maps = make_corpus(n);
  std::vector<std::string> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(node_name(i));
  const SimTime t0 = SimTime::epoch() + Hours(1);

  service::ServiceConfig cfg;
  cfg.snapshots.enabled = true;
  cfg.snapshots.max_epoch_lag = 1;
  service::PositionService svc{cfg};
  for (std::size_t i = 0; i < n; ++i) {
    (void)svc.publish(service::PositionReport{ids[i], t0, maps[i]}, t0);
  }
  const auto snap = svc.publish_snapshot(t0);
  std::printf("corpus: %zu nodes, membership epoch %llu\n", n,
              static_cast<unsigned long long>(snap->membership_epoch()));

  // --- phase 1: digest equality across shard counts ---
  const std::uint64_t base_digest = workload_digest(svc, ids, maps, t0);
  std::printf("  digest  unsharded  %016llx\n",
              static_cast<unsigned long long>(base_digest));
  const std::size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<std::unique_ptr<service::ShardedFrontend>> frontends;
  for (const std::size_t shards : shard_counts) {
    service::ShardedFrontendConfig fc;
    fc.shards = shards;
    auto fe = std::make_unique<service::ShardedFrontend>(fc);
    for (std::size_t i = 0; i < n; ++i) {
      (void)fe->publish(service::PositionReport{ids[i], t0, maps[i]}, t0);
    }
    const std::uint64_t digest = workload_digest(*fe, ids, maps, t0);
    std::printf("  digest  %zu shard(s)  %016llx  %s\n", shards,
                static_cast<unsigned long long>(digest),
                digest == base_digest ? "MATCH" : "MISMATCH");
    if (digest != base_digest) ok = false;
    frontends.push_back(std::move(fe));
  }

  // --- phase 2: 1-shard frontend vs the direct snapshot path ---
  // Both sides run the one serving core over the same shard's frozen
  // tables, so the ratio is the frontend's own overhead. The sides
  // alternate rep by rep (each leads every other rep) and the median of
  // the per-rep ratios is printed: timing one side after the other
  // measures the host's drift between the two runs, not overhead.
  {
    ThreadPool pool{1};
    const auto view = frontends[0]->view();
    const std::size_t reps = 4 * scale.reps;
    std::vector<double> ratios;
    double direct_wall = 0.0;
    double front_wall = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      double direct = 0.0;
      double front = 0.0;
      for (int side = 0; side < 2; ++side) {
        const bool direct_side = (side == 0) == (rep % 2 == 0);
        const auto start = std::chrono::steady_clock::now();
        if (direct_side) {
          (void)snap->closest_batch(ids, 5, t0, &pool);
          direct = seconds_since(start);
        } else {
          (void)view.closest_batch(ids, 5, t0, &pool);
          front = seconds_since(start);
        }
      }
      direct_wall += direct;
      front_wall += front;
      ratios.push_back(direct / front);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios.size() % 2 == 1
                              ? ratios[ratios.size() / 2]
                              : 0.5 * (ratios[ratios.size() / 2 - 1] +
                                       ratios[ratios.size() / 2]);
    const double clients = static_cast<double>(reps) * static_cast<double>(n);
    std::printf("  1-shard overhead: snapshot %9.0f clients/s, frontend "
                "%9.0f clients/s (median per-rep ratio %.3f over %zu "
                "alternating reps)\n",
                clients / direct_wall, clients / front_wall, median, reps);
  }

  if (!ok) {
    std::fprintf(stderr, "micro_sharded_serving: FAIL — paths disagree\n");
    return 1;
  }
  return 0;
}
