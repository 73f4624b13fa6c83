#include "core/clustering.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity_engine.hpp"

namespace crp::core {

std::vector<std::size_t> Clustering::multi_member_clusters() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].members.size() >= 2) out.push_back(i);
  }
  return out;
}

std::size_t Clustering::nodes_clustered() const {
  // Defined via multi_member_clusters() so there is exactly one notion of
  // "clustered" — clustering_stats() counts through this same helper.
  std::size_t count = 0;
  for (const std::size_t c : multi_member_clusters()) {
    count += clusters[c].members.size();
  }
  return count;
}

namespace {

/// Dense SMF given a per-node similarity source. `node_scores(node, sims)`
/// fills `sims` with the node's similarity to every other node. The
/// center-indexed SmfClusterer below is a separate implementation of the
/// same algorithm — deliberately, so the randomized oracle test compares
/// genuinely independent code paths.
template <typename StrengthFn, typename ScoresFn>
Clustering smf_cluster_impl(std::size_t n, const SmfConfig& config,
                            const StrengthFn& strength,
                            const ScoresFn& node_scores) {
  Clustering out;
  out.assignment.assign(n, 0);

  // Processing order: strongest mappings first (or random for ablation).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng{hash_combine({config.seed, stable_hash("smf")})};
  if (config.seeding == SmfConfig::Seeding::kStrongestFirst) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return strength(a) > strength(b);
                     });
  } else {
    rng.shuffle(order);
  }

  std::vector<double> sims(n, 0.0);

  // Pass 1: each node joins its most similar existing center if above
  // threshold, otherwise founds a new cluster with itself as center.
  for (std::size_t node : order) {
    node_scores(node, sims);
    std::size_t best_cluster = 0;
    double best_sim = -1.0;
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      const double s = sims[out.clusters[c].center];
      if (s > best_sim) {
        best_sim = s;
        best_cluster = c;
      }
    }
    if (!out.clusters.empty() && best_sim >= config.threshold) {
      out.clusters[best_cluster].members.push_back(node);
      out.assignment[node] = best_cluster;
    } else {
      Clustering::Cluster cluster;
      cluster.center = node;
      cluster.members.push_back(node);
      out.clusters.push_back(std::move(cluster));
      out.assignment[node] = out.clusters.size() - 1;
    }
  }

  // Pass 2 (optional): random singletons become centers; other singletons
  // may join them. This rescues nodes that arrived before any compatible
  // center existed.
  if (config.second_pass) {
    std::vector<std::size_t> singles;
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      if (out.clusters[c].members.size() == 1) singles.push_back(c);
    }
    rng.shuffle(singles);
    std::vector<bool> absorbed(out.clusters.size(), false);
    for (std::size_t ci : singles) {
      if (absorbed[ci]) continue;
      const std::size_t center = out.clusters[ci].center;
      node_scores(center, sims);
      for (std::size_t cj : singles) {
        if (cj == ci || absorbed[cj]) continue;
        const std::size_t other = out.clusters[cj].center;
        if (sims[other] >= config.threshold) {
          out.clusters[ci].members.push_back(other);
          out.assignment[other] = ci;
          absorbed[cj] = true;
        }
      }
    }
    // Compact away absorbed (now empty) clusters.
    Clustering compacted;
    compacted.assignment.assign(n, 0);
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      if (absorbed[c]) continue;
      const std::size_t new_index = compacted.clusters.size();
      for (std::size_t node : out.clusters[c].members) {
        compacted.assignment[node] = new_index;
      }
      compacted.clusters.push_back(std::move(out.clusters[c]));
    }
    out = std::move(compacted);
  }
  return out;
}

}  // namespace

Clustering SmfClusterer::run(const SimilarityEngine& source,
                             const SmfConfig& config, ThreadPool* pool) {
  if (source.kind() != config.metric) {
    throw std::invalid_argument{
        "smf_cluster: engine metric disagrees with config.metric"};
  }
  const std::size_t n = source.size();
  stats_ = SmfRunStats{};
  stats_.nodes = n;

  Clustering out;
  out.assignment.assign(n, 0);

  // Identical order (and rng draw sequence) to the dense template above:
  // any divergence between the paths must come from scores, and scores
  // are bit-identical per pair.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng{hash_combine({config.seed, stable_hash("smf")})};
  if (config.seeding == SmfConfig::Seeding::kStrongestFirst) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return source.strongest_mapping(a) >
                              source.strongest_mapping(b);
                     });
  } else {
    rng.shuffle(order);
  }

  // Pass 1 against the center index. `centers_` row c mirrors cluster
  // c's center verbatim (rows are added at founding, never removed), so
  // best_match == the dense argmax over sims[center] — highest score,
  // ties to the lowest cluster index, cluster 0 at similarity 0 when the
  // node shares no replica with any center.
  centers_.clear(config.metric);
  std::size_t touched = 0;
  for (const std::size_t node : order) {
    const auto best = centers_.best_match(source.row_view(node), &touched);
    ++stats_.center_queries;
    stats_.maps_touched += touched;
    if (best.has_value() && best->similarity >= config.threshold) {
      out.clusters[best->index].members.push_back(node);
      out.assignment[node] = best->index;
    } else {
      Clustering::Cluster cluster;
      cluster.center = node;
      cluster.members.push_back(node);
      out.clusters.push_back(std::move(cluster));
      out.assignment[node] = out.clusters.size() - 1;
      const std::size_t row = centers_.add(source.row_view(node));
      assert(row == out.clusters.size() - 1);
      (void)row;
    }
  }
  stats_.pass1_clusters = out.clusters.size();

  // Pass 2 against a singleton-center index, tiled. Every pairwise
  // singleton score is independent of absorption state, so tiles of rows
  // are scored in parallel up front (skipping rows already absorbed when
  // the tile starts — their scores are never read) and the absorption
  // scan itself stays sequential, replaying the dense path's exact
  // comparisons in the exact order. Bit-identical for any pool size.
  if (config.second_pass) {
    std::vector<std::size_t> singles;
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      if (out.clusters[c].members.size() == 1) singles.push_back(c);
    }
    rng.shuffle(singles);
    const std::size_t s_count = singles.size();
    stats_.pass2_singletons = s_count;

    std::vector<bool> absorbed(out.clusters.size(), false);
    if (s_count > 1) {
      singles_.clear(config.metric);
      for (const std::size_t ci : singles) {
        (void)singles_.add(source.row_view(out.clusters[ci].center));
      }

      constexpr std::size_t kTileRows = 128;
      ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
      std::vector<std::size_t> row_touched(kTileRows);
      for (std::size_t t0 = 0; t0 < s_count; t0 += kTileRows) {
        const std::size_t t1 = std::min(s_count, t0 + kTileRows);
        tile_.assign(t1 - t0, s_count, 0.0);
        std::fill(row_touched.begin(), row_touched.end(), std::size_t{0});
        p.parallel_for(t0, t1, [&](std::size_t pi) {
          // `absorbed` is only written between parallel sections, and a
          // row absorbed mid-tile merely wastes its precomputed scores.
          if (absorbed[singles[pi]]) return;
          singles_.scores(source.row_view(out.clusters[singles[pi]].center),
                          tile_.row(pi - t0), &row_touched[pi - t0]);
        });
        for (std::size_t pi = t0; pi < t1; ++pi) {
          const std::size_t ci = singles[pi];
          if (absorbed[ci]) continue;
          ++stats_.center_queries;
          stats_.maps_touched += row_touched[pi - t0];
          const auto sims = tile_.row(pi - t0);
          for (std::size_t pj = 0; pj < s_count; ++pj) {
            const std::size_t cj = singles[pj];
            if (cj == ci || absorbed[cj]) continue;
            if (sims[pj] >= config.threshold) {
              const std::size_t other = out.clusters[cj].center;
              out.clusters[ci].members.push_back(other);
              out.assignment[other] = ci;
              absorbed[cj] = true;
            }
          }
        }
      }
    }
    // Compact away absorbed (now empty) clusters.
    Clustering compacted;
    compacted.assignment.assign(n, 0);
    for (std::size_t c = 0; c < out.clusters.size(); ++c) {
      if (absorbed[c]) continue;
      const std::size_t new_index = compacted.clusters.size();
      for (const std::size_t node : out.clusters[c].members) {
        compacted.assignment[node] = new_index;
      }
      compacted.clusters.push_back(std::move(out.clusters[c]));
    }
    out = std::move(compacted);
  }
  return out;
}

Clustering smf_cluster(const SimilarityEngine& engine, const SmfConfig& config,
                       ThreadPool* pool) {
  SmfClusterer clusterer;
  return clusterer.run(engine, config, pool);
}

Clustering smf_cluster(std::span<const RatioMap> maps,
                       const SmfConfig& config) {
  const SimilarityEngine engine{maps, config.metric};
  return smf_cluster(engine, config);
}

Clustering smf_cluster_reference(std::span<const RatioMap> maps,
                                 const SmfConfig& config) {
  return smf_cluster_impl(
      maps.size(), config,
      [&maps](std::size_t i) { return maps[i].strongest_mapping(); },
      [&maps, &config](std::size_t node, std::vector<double>& sims) {
        for (std::size_t i = 0; i < maps.size(); ++i) {
          sims[i] = similarity(config.metric, maps[node], maps[i]);
        }
      });
}

ClusteringStats clustering_stats(const Clustering& clustering,
                                 std::size_t total_nodes) {
  ClusteringStats stats;
  stats.total_nodes = total_nodes;
  // Both the count and the size list go through multi_member_clusters(),
  // the single definition of "clustered" (see nodes_clustered()).
  stats.nodes_clustered = clustering.nodes_clustered();
  std::vector<double> sizes;
  for (const std::size_t ci : clustering.multi_member_clusters()) {
    const Clustering::Cluster& c = clustering.clusters[ci];
    sizes.push_back(static_cast<double>(c.members.size()));
    stats.max_size = std::max(stats.max_size, c.members.size());
  }
  stats.num_clusters = sizes.size();
  if (total_nodes > 0) {
    stats.fraction_clustered = static_cast<double>(stats.nodes_clustered) /
                               static_cast<double>(total_nodes);
  }
  if (!sizes.empty()) {
    stats.mean_size = std::accumulate(sizes.begin(), sizes.end(), 0.0) /
                      static_cast<double>(sizes.size());
    stats.median_size = median(sizes);
  }
  return stats;
}

}  // namespace crp::core
