#include "core/ratio_map.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace crp::core {
namespace {

RatioMap map_of(std::vector<std::pair<ReplicaId, double>> entries) {
  return RatioMap::from_ratios(entries);
}

TEST(RatioMap, EmptyByDefault) {
  RatioMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_DOUBLE_EQ(m.norm(), 0.0);
  EXPECT_DOUBLE_EQ(m.strongest_mapping(), 0.0);
}

TEST(RatioMap, FromCountsNormalizes) {
  const std::vector<std::pair<ReplicaId, std::uint64_t>> counts{
      {ReplicaId{1}, 3}, {ReplicaId{2}, 7}};
  const RatioMap m = RatioMap::from_counts(counts);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{1}), 0.3);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{2}), 0.7);
}

TEST(RatioMap, RatiosSumToOne) {
  const RatioMap m = map_of({{ReplicaId{5}, 2.0},
                             {ReplicaId{9}, 3.0},
                             {ReplicaId{1}, 5.0}});
  double sum = 0.0;
  for (const auto& [id, ratio] : m.entries()) sum += ratio;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RatioMap, EntriesSortedByReplicaId) {
  const RatioMap m = map_of({{ReplicaId{9}, 1.0},
                             {ReplicaId{1}, 1.0},
                             {ReplicaId{5}, 1.0}});
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.entries()[0].first, ReplicaId{1});
  EXPECT_EQ(m.entries()[1].first, ReplicaId{5});
  EXPECT_EQ(m.entries()[2].first, ReplicaId{9});
}

TEST(RatioMap, DuplicatesAccumulate) {
  const RatioMap m =
      map_of({{ReplicaId{1}, 0.25}, {ReplicaId{1}, 0.25}, {ReplicaId{2}, 0.5}});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{1}), 0.5);
}

TEST(RatioMap, DropsNonPositiveEntries) {
  const RatioMap m = map_of({{ReplicaId{1}, 0.0},
                             {ReplicaId{2}, -1.0},
                             {ReplicaId{3}, 2.0}});
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{3}), 1.0);
}

// Finite positive ratios whose total overflows must still normalize to
// strictly positive ratios summing to 1 — not to a map of zeros.
TEST(RatioMap, OverflowingTotalStillNormalizes) {
  const RatioMap m = map_of({{ReplicaId{1}, 1e308}, {ReplicaId{2}, 1e308}});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.ratio_of(ReplicaId{1}), 0.5);
  EXPECT_EQ(m.ratio_of(ReplicaId{2}), 0.5);
  EXPECT_GT(m.norm(), 0.0);

  // Duplicates that overflow when merged.
  const RatioMap d = map_of({{ReplicaId{1}, 1.5e308},
                             {ReplicaId{1}, 1.5e308},
                             {ReplicaId{2}, 1.5e308}});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NEAR(d.ratio_of(ReplicaId{1}), 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(d.ratio_of(ReplicaId{2}), 1.0 / 3.0, 1e-15);
}

// A ratio that normalizing underflows to 0 is dropped, so every listed
// replica is one `contains` confirms.
TEST(RatioMap, UnderflowedRatiosAreDropped) {
  for (const double big : {1e308, 1e300}) {
    const RatioMap m = map_of({{ReplicaId{1}, big}, {ReplicaId{2}, 1e-300}});
    ASSERT_EQ(m.size(), 1u) << big;
    EXPECT_EQ(m.entries()[0].first, ReplicaId{1});
    EXPECT_EQ(m.ratio_of(ReplicaId{1}), 1.0);
    EXPECT_FALSE(m.contains(ReplicaId{2}));
    for (const auto& [id, ratio] : m.entries()) EXPECT_TRUE(m.contains(id));
  }
}

TEST(RatioMap, InfiniteRatiosDropped) {
  const RatioMap m =
      map_of({{ReplicaId{1}, HUGE_VAL}, {ReplicaId{2}, 2.0}});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.ratio_of(ReplicaId{2}), 1.0);
}

TEST(RatioMap, ZeroCountsDropped) {
  const std::vector<std::pair<ReplicaId, std::uint64_t>> counts{
      {ReplicaId{1}, 0}, {ReplicaId{2}, 4}};
  EXPECT_EQ(RatioMap::from_counts(counts).size(), 1u);
}

TEST(RatioMap, RatioOfAbsentIsZero) {
  const RatioMap m = map_of({{ReplicaId{1}, 1.0}});
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{2}), 0.0);
  EXPECT_FALSE(m.contains(ReplicaId{2}));
  EXPECT_TRUE(m.contains(ReplicaId{1}));
}

TEST(RatioMap, StrongestMapping) {
  const RatioMap m = map_of({{ReplicaId{1}, 0.2}, {ReplicaId{2}, 0.8}});
  EXPECT_DOUBLE_EQ(m.strongest_mapping(), 0.8);
}

TEST(RatioMap, DotOfDisjointIsZero) {
  const RatioMap a = map_of({{ReplicaId{1}, 1.0}});
  const RatioMap b = map_of({{ReplicaId{2}, 1.0}});
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  EXPECT_EQ(a.overlap_count(b), 0u);
}

TEST(RatioMap, DotSparseIntersection) {
  const RatioMap a = map_of({{ReplicaId{1}, 0.5}, {ReplicaId{3}, 0.5}});
  const RatioMap b = map_of({{ReplicaId{3}, 0.25}, {ReplicaId{7}, 0.75}});
  EXPECT_DOUBLE_EQ(a.dot(b), 0.5 * 0.25);
  EXPECT_EQ(a.overlap_count(b), 1u);
}

TEST(RatioMap, NormOfSingletonIsOne) {
  EXPECT_DOUBLE_EQ(map_of({{ReplicaId{1}, 42.0}}).norm(), 1.0);
}

TEST(CosineSimilarity, IdenticalMapsGiveOne) {
  const RatioMap m = map_of({{ReplicaId{1}, 0.3}, {ReplicaId{2}, 0.7}});
  EXPECT_NEAR(cosine_similarity(m, m), 1.0, 1e-12);
}

TEST(CosineSimilarity, OrthogonalMapsGiveZero) {
  const RatioMap a = map_of({{ReplicaId{1}, 1.0}});
  const RatioMap b = map_of({{ReplicaId{2}, 1.0}});
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
}

TEST(CosineSimilarity, EmptyMapGivesZero) {
  const RatioMap a = map_of({{ReplicaId{1}, 1.0}});
  EXPECT_DOUBLE_EQ(cosine_similarity(a, RatioMap{}), 0.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(RatioMap{}, RatioMap{}), 0.0);
}

TEST(CosineSimilarity, PaperWorkedExample) {
  // Section IV.A: nu_A = <rx: 0.2, ry: 0.8>, nu_B = <rx: 0.6, ry: 0.4>,
  // nu_C = <rx: 0.1, ry: 0.9>. cos(A,B) = 0.740, cos(A,C) = 0.991, so A
  // selects C.
  const ReplicaId rx{100};
  const ReplicaId ry{200};
  const RatioMap a = map_of({{rx, 0.2}, {ry, 0.8}});
  const RatioMap b = map_of({{rx, 0.6}, {ry, 0.4}});
  const RatioMap c = map_of({{rx, 0.1}, {ry, 0.9}});
  EXPECT_NEAR(cosine_similarity(a, b), 0.740, 0.001);
  EXPECT_NEAR(cosine_similarity(a, c), 0.991, 0.001);
  EXPECT_GT(cosine_similarity(a, c), cosine_similarity(a, b));
}

TEST(CosineSimilarity, SymmetricAndBounded) {
  const RatioMap a = map_of(
      {{ReplicaId{1}, 0.1}, {ReplicaId{2}, 0.4}, {ReplicaId{3}, 0.5}});
  const RatioMap b = map_of({{ReplicaId{2}, 0.9}, {ReplicaId{4}, 0.1}});
  const double ab = cosine_similarity(a, b);
  EXPECT_DOUBLE_EQ(ab, cosine_similarity(b, a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(CosineSimilarity, ScaleInvariantThroughNormalization) {
  // from_ratios normalizes, so scaling raw inputs must not matter.
  const RatioMap a = map_of({{ReplicaId{1}, 1.0}, {ReplicaId{2}, 3.0}});
  const RatioMap b = map_of({{ReplicaId{1}, 10.0}, {ReplicaId{2}, 30.0}});
  EXPECT_NEAR(cosine_similarity(a, b), 1.0, 1e-12);
}

}  // namespace
}  // namespace crp::core
