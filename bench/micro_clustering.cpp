// SMF clustering throughput: the center-indexed SmfClusterer at three
// corpus sizes, plus the tiled parallel evaluate_clusters against its
// sequential (0-thread) form.
//
// For each corpus the bench reports SMF nodes/sec, the candidate rows
// the center index actually touched (vs nodes x corpus for scoring
// against the whole corpus), and evaluate_clusters clusters/sec — and,
// because speed means nothing if the answers drift, cross-checks the
// clustering against the per-pair reference (corpora of up to 4,000
// nodes) and the parallel qualities against the sequential ones
// (DESIGN.md §6).
//
// CRP_BENCH_SCALE=tiny|small shrinks the corpus sweep for CI smoke runs.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/cluster_quality.hpp"
#include "core/clustering.hpp"
#include "core/similarity_engine.hpp"

namespace {

using namespace crp;

std::vector<std::size_t> corpus_sweep() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  const std::string scale = env == nullptr ? "" : env;
  if (scale == "tiny") return {60, 120, 240};
  if (scale == "small") return {500, 1000, 2000};
  return {1000, 4000, 10000};
}

// A service-shaped corpus: ~16 entries per map over a 2000-replica id
// space, so posting lists are long enough that dense scoring really does
// touch most of the corpus per query.
std::vector<core::RatioMap> make_corpus(std::size_t n) {
  Rng rng{hash_combine({71, n})};
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

bool same_clustering(const core::Clustering& a, const core::Clustering& b) {
  if (a.assignment != b.assignment) return false;
  if (a.clusters.size() != b.clusters.size()) return false;
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].center != b.clusters[c].center) return false;
    if (a.clusters[c].members != b.clusters[c].members) return false;
  }
  return true;
}

bool same_qualities(const std::vector<core::ClusterQuality>& a,
                    const std::vector<core::ClusterQuality>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cluster_index != b[i].cluster_index || a[i].size != b[i].size ||
        a[i].diameter_ms != b[i].diameter_ms ||
        a[i].avg_intra_ms != b[i].avg_intra_ms ||
        a[i].avg_inter_ms != b[i].avg_inter_ms) {
      return false;
    }
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  const std::vector<std::size_t> sweep = corpus_sweep();
  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("micro_clustering: hardware threads %zu\n", hw);

  core::SmfConfig config;  // paper defaults: cosine, t = 0.1, second pass
  bool ok = true;
  for (const std::size_t n : sweep) {
    const auto maps = make_corpus(n);
    const core::SimilarityEngine engine{maps, config.metric};
    std::printf("corpus: %zu nodes, %zu distinct replicas\n", n,
                engine.distinct_replicas());

    // Center-indexed: nodes scored against the founded centers only.
    core::SmfClusterer clusterer;
    auto start = std::chrono::steady_clock::now();
    const core::Clustering indexed = clusterer.run(engine, config);
    const double indexed_wall = seconds_since(start);
    const core::SmfRunStats& stats = clusterer.last_stats();
    std::printf(
        "  %-24s %9.0f nodes/s  wall %7.3f s  (%zu clusters)  "
        "touched %.0f rows/query (of %zu)\n",
        "smf center-indexed", n / indexed_wall, indexed_wall,
        indexed.clusters.size(),
        stats.center_queries == 0
            ? 0.0
            : static_cast<double>(stats.maps_touched) /
                  static_cast<double>(stats.center_queries),
        n);

    // The per-pair reference is O(n^2) merges — cross-check it where it
    // is affordable: at the 10,000-node default corpus it would take
    // longer than the rest of the run together.
    if (n <= 4000) {
      const core::Clustering reference =
          core::smf_cluster_reference(maps, config);
      if (!same_clustering(indexed, reference)) {
        std::printf("  clustering MISMATCH: center-indexed vs reference\n");
        ok = false;
      }
    }

    // evaluate_clusters: synthetic line distances (cheap + thread-safe),
    // sequential inline pool vs the parallel shared pool.
    Rng rng{hash_combine({72, n})};
    std::vector<double> pos(n);
    for (double& x : pos) x = rng.uniform(0.0, 1000.0);
    const core::DistanceFn rtt = [&pos](std::size_t i, std::size_t j) {
      return std::abs(pos[i] - pos[j]);
    };
    ThreadPool inline_pool{0};
    start = std::chrono::steady_clock::now();
    const auto seq_quality =
        core::evaluate_clusters(indexed, rtt, &inline_pool);
    const double seq_wall = seconds_since(start);
    start = std::chrono::steady_clock::now();
    const auto par_quality = core::evaluate_clusters(indexed, rtt);
    const double par_wall = seconds_since(start);
    std::printf(
        "  %-24s %9.0f clusters/s  wall %7.3f s\n"
        "  %-24s %9.0f clusters/s  wall %7.3f s  speedup %5.2fx\n",
        "evaluate (sequential)", seq_quality.size() / seq_wall, seq_wall,
        "evaluate (parallel)", par_quality.size() / par_wall, par_wall,
        seq_wall / par_wall);
    if (!same_qualities(seq_quality, par_quality)) {
      std::printf("  quality MISMATCH: parallel vs sequential\n");
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "micro_clustering: FAIL — variants disagree\n");
    return 1;
  }
  return 0;
}
