// Strongest Mappings First (SMF) clustering (paper §V.B).
//
// Input: the ratio maps of all nodes and a minimum cosine-similarity
// threshold t. Cluster centers are seeded from the nodes with the
// strongest replica mappings; every other node joins the center it is most
// similar to, provided that similarity exceeds t, and otherwise becomes
// its own (singleton) cluster. An optional second pass promotes random
// unclustered nodes to centers and lets remaining singletons join them.
//
// The paper deliberately avoids k-means-style algorithms (cluster count
// unknown a priori) and hierarchical schemes (wrong node-distribution
// assumptions); SMF is simple and deployable, which is the point.
//
// Two scoring strategies implement the same algorithm (DESIGN.md §6):
//
//   * Reference (`smf_cluster_reference`): each node is scored against
//     the *whole corpus* with per-pair similarity() and the argmax reads
//     only the current centers' slots — O(n) merges per node, O(n²)
//     total.
//   * Center-indexed (`SmfClusterer`, the default `smf_cluster`): a
//     small mutable SimilarityEngine holds only the founded centers
//     (mirrored verbatim via RowView), and each node is scored against
//     *it* — O(node postings × centers) per node. The second pass gets
//     the same treatment with a singleton-center index. Both argmaxes
//     range over exactly the centers and engine scores are bit-identical
//     to similarity(), so the outputs are bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_matrix.hpp"
#include "core/ratio_map.hpp"
#include "core/similarity.hpp"
#include "core/similarity_engine.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::core {

/// A clustering of n nodes (indices into the caller's node array).
struct Clustering {
  struct Cluster {
    std::size_t center = 0;           // node index of the cluster center
    std::vector<std::size_t> members;  // includes the center
  };

  std::vector<Cluster> clusters;
  /// assignment[node] = cluster index.
  std::vector<std::size_t> assignment;

  /// Clusters with at least two members ("real" clusters; singletons are
  /// the unclustered remainder in the paper's accounting).
  [[nodiscard]] std::vector<std::size_t> multi_member_clusters() const;
  /// Nodes in clusters of size >= 2.
  [[nodiscard]] std::size_t nodes_clustered() const;
};

struct SmfConfig {
  /// Minimum cosine similarity to join a cluster (Table I sweeps this;
  /// the paper settles on 0.1).
  double threshold = 0.1;
  /// Run the optional second pass over singletons.
  bool second_pass = true;
  /// Center seeding order: the paper's strongest-mappings-first, or
  /// random (ablation).
  enum class Seeding { kStrongestFirst, kRandom } seeding =
      Seeding::kStrongestFirst;
  SimilarityKind metric = SimilarityKind::kCosine;
  /// Seed for the random choices (second-pass order / random seeding).
  std::uint64_t seed = 23;
};

/// Per-run observability for the center-indexed path.
struct SmfRunStats {
  std::size_t nodes = 0;
  /// Clusters founded by pass 1 (== peak center-index size).
  std::size_t pass1_clusters = 0;
  /// Singleton clusters entering pass 2 (0 when the pass is disabled).
  std::size_t pass2_singletons = 0;
  /// Engine queries issued against the center/singleton indexes.
  std::uint64_t center_queries = 0;
  /// Candidate rows those queries actually touched via the inverted
  /// index — the real work done, vs. nodes × corpus for dense scoring.
  std::uint64_t maps_touched = 0;
};

/// Center-indexed SMF. Holds the two small internal engines (pass-1
/// centers, pass-2 singleton centers) across runs, so a long-lived
/// clusterer — e.g. inside PositionService — re-clusters without
/// re-allocating its index structures. Not thread-safe; one run at a
/// time. `pool` parallelizes the pass-2 tile scoring (results are
/// bit-identical for any pool size, including none).
class SmfClusterer {
 public:
  /// Runs SMF over the engine's live corpus. Throws std::invalid_argument
  /// if `config.metric` disagrees with the engine's metric.
  [[nodiscard]] Clustering run(const SimilarityEngine& source,
                               const SmfConfig& config = {},
                               ThreadPool* pool = nullptr);
  [[nodiscard]] const SmfRunStats& last_stats() const { return stats_; }

 private:
  SimilarityEngine centers_{SimilarityKind::kCosine};
  SimilarityEngine singles_{SimilarityKind::kCosine};
  FlatMatrix<double> tile_;
  SmfRunStats stats_;
};

/// Runs SMF over `maps`. Nodes with empty ratio maps become singletons.
/// Internally builds a `SimilarityEngine` over the maps and runs the
/// center-indexed clusterer against it.
[[nodiscard]] Clustering smf_cluster(std::span<const RatioMap> maps,
                                     const SmfConfig& config = {});

/// Same, over a prebuilt engine (reuse it across thresholds/seeds: the
/// corpus indexing is the expensive part). Throws std::invalid_argument
/// if `config.metric` disagrees with the engine's metric.
[[nodiscard]] Clustering smf_cluster(const SimilarityEngine& engine,
                                     const SmfConfig& config = {},
                                     ThreadPool* pool = nullptr);

/// Reference implementation with per-pair similarity() calls, kept for
/// equivalence testing (its output is bit-identical to smf_cluster's)
/// and as executable documentation of the paper's algorithm.
[[nodiscard]] Clustering smf_cluster_reference(std::span<const RatioMap> maps,
                                               const SmfConfig& config = {});

/// Summary statistics matching Table I's columns.
struct ClusteringStats {
  std::size_t total_nodes = 0;
  std::size_t nodes_clustered = 0;   // in clusters of size >= 2
  double fraction_clustered = 0.0;
  std::size_t num_clusters = 0;      // clusters of size >= 2
  double mean_size = 0.0;
  double median_size = 0.0;
  std::size_t max_size = 0;
};

[[nodiscard]] ClusteringStats clustering_stats(const Clustering& clustering,
                                               std::size_t total_nodes);

}  // namespace crp::core
