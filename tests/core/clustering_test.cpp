#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace crp::core {
namespace {

RatioMap map_of(std::vector<std::pair<ReplicaId, double>> entries) {
  return RatioMap::from_ratios(entries);
}

std::vector<RatioMap> random_maps(Rng& rng, std::size_t n,
                                  int replica_space) {
  std::vector<RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<RatioMap::Entry> entries;
    const int count = static_cast<int>(rng.uniform_int(0, 5));
    for (int j = 0; j < count; ++j) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, replica_space - 1))},
                           rng.uniform(0.05, 1.0));
    }
    maps.push_back(RatioMap::from_ratios(entries));
  }
  return maps;
}

void expect_identical(const Clustering& got, const Clustering& want,
                      const std::string& label) {
  EXPECT_EQ(got.assignment, want.assignment) << label;
  ASSERT_EQ(got.clusters.size(), want.clusters.size()) << label;
  for (std::size_t c = 0; c < want.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].center, want.clusters[c].center) << label;
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members) << label;
  }
}

// Two obvious groups: maps around replicas {1,2} and maps around {8,9}.
std::vector<RatioMap> two_groups() {
  return {
      map_of({{ReplicaId{1}, 0.7}, {ReplicaId{2}, 0.3}}),
      map_of({{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}),
      map_of({{ReplicaId{1}, 0.8}, {ReplicaId{2}, 0.2}}),
      map_of({{ReplicaId{8}, 0.5}, {ReplicaId{9}, 0.5}}),
      map_of({{ReplicaId{8}, 0.4}, {ReplicaId{9}, 0.6}}),
  };
}

TEST(SmfClustering, SeparatesObviousGroups) {
  const auto maps = two_groups();
  const Clustering clustering = smf_cluster(maps, SmfConfig{});
  // Nodes 0-2 together, nodes 3-4 together.
  EXPECT_EQ(clustering.assignment[0], clustering.assignment[1]);
  EXPECT_EQ(clustering.assignment[0], clustering.assignment[2]);
  EXPECT_EQ(clustering.assignment[3], clustering.assignment[4]);
  EXPECT_NE(clustering.assignment[0], clustering.assignment[3]);
}

TEST(SmfClustering, EveryNodeAssignedExactlyOnce) {
  const auto maps = two_groups();
  const Clustering clustering = smf_cluster(maps, SmfConfig{});
  std::vector<int> seen(maps.size(), 0);
  for (const auto& cluster : clustering.clusters) {
    for (std::size_t m : cluster.members) ++seen[m];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  // assignment agrees with membership lists.
  for (std::size_t c = 0; c < clustering.clusters.size(); ++c) {
    for (std::size_t m : clustering.clusters[c].members) {
      EXPECT_EQ(clustering.assignment[m], c);
    }
  }
}

TEST(SmfClustering, CenterIsMemberOfItsCluster) {
  const Clustering clustering = smf_cluster(two_groups(), SmfConfig{});
  for (const auto& cluster : clustering.clusters) {
    EXPECT_NE(std::find(cluster.members.begin(), cluster.members.end(),
                        cluster.center),
              cluster.members.end());
  }
}

TEST(SmfClustering, HighThresholdFragmentsLowThresholdMerges) {
  // Mirrors Table I: larger t -> fewer nodes clustered, smaller clusters.
  const auto maps = two_groups();
  SmfConfig loose;
  loose.threshold = 0.01;
  SmfConfig strict;
  strict.threshold = 0.9999;
  const auto loose_stats =
      clustering_stats(smf_cluster(maps, loose), maps.size());
  const auto strict_stats =
      clustering_stats(smf_cluster(maps, strict), maps.size());
  EXPECT_GE(loose_stats.nodes_clustered, strict_stats.nodes_clustered);
  EXPECT_GE(loose_stats.mean_size,
            strict_stats.num_clusters == 0 ? 0.0 : strict_stats.mean_size);
}

TEST(SmfClustering, ThresholdOneOnlyGroupsIdenticalMaps) {
  std::vector<RatioMap> maps{
      map_of({{ReplicaId{1}, 0.5}, {ReplicaId{2}, 0.5}}),
      map_of({{ReplicaId{1}, 0.5}, {ReplicaId{2}, 0.5}}),
      map_of({{ReplicaId{1}, 0.51}, {ReplicaId{2}, 0.49}}),
  };
  SmfConfig config;
  config.threshold = 0.999999;
  const Clustering clustering = smf_cluster(maps, config);
  EXPECT_EQ(clustering.assignment[0], clustering.assignment[1]);
}

TEST(SmfClustering, EmptyMapsBecomeSingletons) {
  std::vector<RatioMap> maps{RatioMap{}, RatioMap{},
                             map_of({{ReplicaId{1}, 1.0}})};
  const Clustering clustering = smf_cluster(maps, SmfConfig{});
  EXPECT_EQ(clustering.nodes_clustered(), 0u);
}

TEST(SmfClustering, EmptyInput) {
  const Clustering clustering =
      smf_cluster(std::span<const RatioMap>{}, SmfConfig{});
  EXPECT_TRUE(clustering.clusters.empty());
  EXPECT_TRUE(clustering.assignment.empty());
  const auto stats = clustering_stats(clustering, 0);
  EXPECT_EQ(stats.num_clusters, 0u);
}

TEST(SmfClustering, SecondPassRescuesSingletons) {
  // Craft an adversarial order: a strong outlier is processed first and
  // becomes a center; two weakly-similar nodes end up singletons in pass
  // 1 under a threshold their mutual similarity exceeds.
  std::vector<RatioMap> maps{
      map_of({{ReplicaId{1}, 1.0}}),                       // strong loner
      map_of({{ReplicaId{5}, 0.55}, {ReplicaId{6}, 0.45}}),
      map_of({{ReplicaId{5}, 0.45}, {ReplicaId{6}, 0.55}}),
  };
  SmfConfig no_second;
  no_second.threshold = 0.9;
  no_second.second_pass = false;
  SmfConfig with_second = no_second;
  with_second.second_pass = true;

  const auto without = smf_cluster(maps, no_second);
  const auto with = smf_cluster(maps, with_second);
  // cos(map1, map2) ~ 0.98 > 0.9, so pass 2 must merge them if pass 1
  // didn't.
  EXPECT_GE(with.nodes_clustered(), without.nodes_clustered());
  EXPECT_EQ(with.nodes_clustered(), 2u);
}

TEST(SmfClustering, DeterministicForSeed) {
  Rng rng{7};
  std::vector<RatioMap> maps;
  for (int i = 0; i < 60; ++i) {
    std::vector<RatioMap::Entry> entries;
    for (int j = 0; j < 4; ++j) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, 19))},
                           rng.uniform(0.05, 1.0));
    }
    maps.push_back(RatioMap::from_ratios(entries));
  }
  const Clustering a = smf_cluster(maps, SmfConfig{});
  const Clustering b = smf_cluster(maps, SmfConfig{});
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(SmfClustering, RandomSeedingStillValidPartition) {
  const auto maps = two_groups();
  SmfConfig config;
  config.seeding = SmfConfig::Seeding::kRandom;
  const Clustering clustering = smf_cluster(maps, config);
  std::size_t total = 0;
  for (const auto& c : clustering.clusters) total += c.members.size();
  EXPECT_EQ(total, maps.size());
}

// Satellite oracle: the center-indexed path (SmfClusterer / smf_cluster)
// and the span overload must be byte-for-byte identical to the per-pair
// reference across corpus sizes, seedings, second-pass settings, metrics
// and thread counts.
TEST(SmfClustering, CenterIndexedMatchesReferenceAcrossConfigs) {
  Rng rng{0xC1u};
  ThreadPool pool1{1};
  ThreadPool pool4{4};
  SmfClusterer clusterer;  // one instance reused across every run
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{50}, std::size_t{500}}) {
    const auto maps = random_maps(rng, n, 30);
    const SimilarityEngine cosine{maps, SimilarityKind::kCosine};
    const SimilarityEngine jaccard{maps, SimilarityKind::kJaccard};
    const SimilarityEngine overlap{maps, SimilarityKind::kWeightedOverlap};
    for (const SimilarityKind kind :
         {SimilarityKind::kCosine, SimilarityKind::kJaccard,
          SimilarityKind::kWeightedOverlap}) {
      const SimilarityEngine& engine =
          kind == SimilarityKind::kCosine
              ? cosine
              : (kind == SimilarityKind::kJaccard ? jaccard : overlap);
      for (const auto seeding : {SmfConfig::Seeding::kStrongestFirst,
                                 SmfConfig::Seeding::kRandom}) {
        for (const bool second_pass : {false, true}) {
          SmfConfig config;
          config.metric = kind;
          config.seeding = seeding;
          config.second_pass = second_pass;
          config.threshold = 0.15;
          config.seed = 23 + n;
          const std::string label =
              "n=" + std::to_string(n) + " kind=" + to_string(kind) +
              " random_seeding=" +
              std::to_string(seeding == SmfConfig::Seeding::kRandom) +
              " second_pass=" + std::to_string(second_pass);

          const Clustering expected = smf_cluster_reference(maps, config);
          expect_identical(smf_cluster(maps, config), expected,
                           label + " [span]");
          // Shared pool (0 workers at ThreadPool{0}? use default shared),
          // inline, 1-thread and 4-thread pools must all agree.
          expect_identical(smf_cluster(engine, config), expected,
                           label + " [indexed/shared]");
          ThreadPool pool0{0};
          expect_identical(clusterer.run(engine, config, &pool0), expected,
                           label + " [indexed/0]");
          expect_identical(clusterer.run(engine, config, &pool1), expected,
                           label + " [indexed/1]");
          expect_identical(clusterer.run(engine, config, &pool4), expected,
                           label + " [indexed/4]");
        }
      }
    }
  }
}

TEST(SmfClustering, DenseAndIndexedRejectMetricMismatch) {
  const SimilarityEngine engine{two_groups(), SimilarityKind::kJaccard};
  SmfConfig config;  // metric defaults to cosine
  SmfClusterer clusterer;
  EXPECT_THROW((void)clusterer.run(engine, config), std::invalid_argument);
}

TEST(SmfClustering, ClustererReportsRunStats) {
  Rng rng{77};
  const auto maps = random_maps(rng, 120, 12);
  const SimilarityEngine engine{maps, SimilarityKind::kCosine};
  SmfClusterer clusterer;
  const Clustering clustering = clusterer.run(engine, SmfConfig{});
  const SmfRunStats& stats = clusterer.last_stats();
  EXPECT_EQ(stats.nodes, maps.size());
  EXPECT_GE(stats.pass1_clusters, clustering.clusters.size());
  EXPECT_GE(stats.center_queries, maps.size());
  // The whole point: touched candidate rows stay far below the dense
  // path's nodes x corpus score count.
  EXPECT_LT(stats.maps_touched,
            static_cast<std::uint64_t>(maps.size()) * maps.size());
}

TEST(ClusteringStats, NodesClusteredAgreesWithStatsOnMixedClusters) {
  // Clusters with singleton and multi-member mixes — including members
  // whose engine rows would be dead/tombstoned (the count only looks at
  // member lists, so both helpers must agree regardless).
  Clustering clustering;
  clustering.clusters.push_back({0, {0, 1, 2, 3}});
  clustering.clusters.push_back({4, {4}});
  clustering.clusters.push_back({5, {5, 6}});
  clustering.clusters.push_back({7, {7}});
  clustering.assignment = {0, 0, 0, 0, 1, 2, 2, 3};
  const auto stats = clustering_stats(clustering, 8);
  EXPECT_EQ(clustering.nodes_clustered(), 6u);
  EXPECT_EQ(stats.nodes_clustered, clustering.nodes_clustered());
  EXPECT_EQ(stats.num_clusters, clustering.multi_member_clusters().size());
}

TEST(ClusteringStats, MatchesHandComputation) {
  Clustering clustering;
  clustering.clusters.push_back({0, {0, 1, 2}});
  clustering.clusters.push_back({3, {3}});
  clustering.clusters.push_back({4, {4, 5}});
  clustering.assignment = {0, 0, 0, 1, 2, 2};
  const auto stats = clustering_stats(clustering, 6);
  EXPECT_EQ(stats.num_clusters, 2u);  // singleton not counted
  EXPECT_EQ(stats.nodes_clustered, 5u);
  EXPECT_NEAR(stats.fraction_clustered, 5.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.mean_size, 2.5);
  EXPECT_DOUBLE_EQ(stats.median_size, 2.5);
  EXPECT_EQ(stats.max_size, 3u);
}

// Threshold sweep property: nodes clustered is monotonically
// non-increasing in t (Table I's first column trend).
class SmfThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(SmfThresholdSweep, ValidPartitionAtEveryThreshold) {
  Rng rng{11};
  std::vector<RatioMap> maps;
  for (int i = 0; i < 80; ++i) {
    std::vector<RatioMap::Entry> entries;
    for (int j = 0; j < 3; ++j) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, 14))},
                           rng.uniform(0.05, 1.0));
    }
    maps.push_back(RatioMap::from_ratios(entries));
  }
  SmfConfig config;
  config.threshold = GetParam();
  const Clustering clustering = smf_cluster(maps, config);
  std::size_t total = 0;
  for (const auto& c : clustering.clusters) {
    ASSERT_FALSE(c.members.empty());
    total += c.members.size();
  }
  EXPECT_EQ(total, maps.size());
  EXPECT_EQ(clustering.assignment.size(), maps.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SmfThresholdSweep,
                         ::testing::Values(0.01, 0.1, 0.3, 0.5, 0.9));

}  // namespace
}  // namespace crp::core
