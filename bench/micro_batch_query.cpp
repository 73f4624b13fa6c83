// Batched serving: element-wise loops vs the service's batch entry
// points, at three corpus sizes.
//
// Measures, per corpus:
//   * service ingest         — publish_encoded loop vs publish_batch,
//   * service closest        — closest_any loop vs closest_batch
// and, because speed means nothing if the answers drift, cross-checks
// every batched result bit-for-bit against its element-wise twin (exit 1
// on any mismatch — DESIGN.md §6). Target: batched closest_any ≥2x the
// per-query loop at the largest corpus. Both sides rank touched rows
// only (DESIGN.md §8), so the batch's edge is running clients in
// parallel on the pool.
//
// CRP_BENCH_SCALE=tiny|small shrinks the corpus sweep for CI smoke runs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/similarity_engine.hpp"
#include "service/position_service.hpp"
#include "service/wire.hpp"

namespace {

using namespace crp;

std::vector<std::size_t> corpus_sweep() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  const std::string scale = env == nullptr ? "" : env;
  if (scale == "tiny") return {60, 120, 240};
  if (scale == "small") return {500, 1000, 2000};
  return {1000, 4000, 10000};
}

// The service-shaped corpus the other micro benches use: ~16 entries per
// map over a 2000-replica id space, so posting lists are long enough
// that a dense query really touches most of the corpus.
std::vector<core::RatioMap> make_corpus(std::size_t n) {
  Rng rng{hash_combine({91, n})};
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

bool same_ranked(const std::vector<service::RankedNode>& a,
                 const std::vector<service::RankedNode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_id != b[i].node_id || a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<std::size_t> sweep = corpus_sweep();
  bool ok = true;

  for (const std::size_t n : sweep) {
    const auto maps = make_corpus(n);
    const SimTime now = SimTime::epoch() + Hours(1);

    // Wire-encode every node's report once; both ingest paths reuse it.
    std::vector<std::string> ids;
    std::vector<std::string> wire;
    ids.reserve(n);
    wire.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(node_name(i));
      wire.push_back(
          *service::encode(service::PositionReport{ids[i], now, maps[i]}));
    }

    // Ingest: element-wise decode+publish vs the batched path.
    service::PositionService loop_svc;
    auto start = std::chrono::steady_clock::now();
    for (const std::string& bytes : wire) {
      (void)loop_svc.publish_encoded(bytes, now);
    }
    const double publish_loop_wall = seconds_since(start);
    service::PositionService svc;
    start = std::chrono::steady_clock::now();
    const std::size_t accepted = svc.publish_batch(wire, now);
    const double publish_batch_wall = seconds_since(start);
    if (accepted != n || svc.live_nodes(now) != loop_svc.live_nodes(now)) {
      std::printf("  ingest MISMATCH: publish_batch vs publish_encoded\n");
      ok = false;
    }

    const core::SimilarityEngine engine{maps,
                                        core::SimilarityKind::kCosine};
    std::printf("corpus: %zu nodes, %zu distinct replicas\n", n,
                engine.distinct_replicas());
    std::printf("  %-26s %9.0f reports/s  wall %7.3f s\n",
                "publish_encoded (loop)", n / publish_loop_wall,
                publish_loop_wall);
    std::printf("  %-26s %9.0f reports/s  wall %7.3f s  speedup %5.2fx\n",
                "publish_batch", n / publish_batch_wall, publish_batch_wall,
                publish_loop_wall / publish_batch_wall);

    // The query batch: B clients spread evenly across the corpus.
    const std::size_t batch = std::min<std::size_t>(256, n);
    std::vector<std::string> clients;
    for (std::size_t j = 0; j < batch; ++j) {
      clients.push_back(ids[j * n / batch]);
    }
    const std::size_t reps = std::max<std::size_t>(1, 1024 / batch);
    const double q = static_cast<double>(reps * batch);
    constexpr std::size_t kTopK = 5;

    // Service closest: the acceptance metric — per-query closest_any
    // loop vs closest_batch.
    std::vector<std::vector<service::RankedNode>> closest_loop(
        clients.size());
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t j = 0; j < clients.size(); ++j) {
        closest_loop[j] = svc.closest_any(clients[j], kTopK, now);
      }
    }
    const double closest_loop_wall = seconds_since(start);
    std::vector<std::vector<service::RankedNode>> closest_batched;
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      closest_batched = svc.closest_batch(clients, kTopK, now);
    }
    const double closest_batch_wall = seconds_since(start);
    for (std::size_t j = 0; j < clients.size(); ++j) {
      if (!same_ranked(closest_loop[j], closest_batched[j])) {
        std::printf("  closest MISMATCH: closest_batch client %zu\n", j);
        ok = false;
      }
    }
    std::printf("  %-26s %9.0f q/s  wall %7.3f s\n", "closest_any (loop)",
                q / closest_loop_wall, closest_loop_wall);
    std::printf("  %-26s %9.0f q/s  wall %7.3f s  speedup %5.2fx\n",
                "closest_batch", q / closest_batch_wall, closest_batch_wall,
                closest_loop_wall / closest_batch_wall);
  }

  if (!ok) {
    std::fprintf(stderr, "micro_batch_query: FAIL — variants disagree\n");
    return 1;
  }
  return 0;
}
