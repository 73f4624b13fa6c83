// Randomized oracles for the batched query kernels (DESIGN.md §6):
// scores_batch / scores_of_batch / topk_batch must be bit-identical to
// their per-query scalar twins for every metric, corpus shape (including
// mutated and dead rows), tile size and pool size.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity_engine.hpp"

namespace crp::core {
namespace {

std::vector<RatioMap> random_corpus(Rng& rng, std::size_t n,
                                    std::uint32_t id_space) {
  std::vector<RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.1) {
      maps.emplace_back();  // empty map: dead row, scores 0
      continue;
    }
    std::vector<RatioMap::Entry> entries;
    const int k = static_cast<int>(rng.uniform_int(1, 8));
    const std::uint32_t lo = rng.uniform(0.0, 1.0) < 0.5 ? id_space / 2 : 0;
    for (int j = 0; j < k; ++j) {
      entries.emplace_back(
          ReplicaId{lo + static_cast<std::uint32_t>(
                             rng.uniform_int(0, id_space / 2 - 1))},
          rng.uniform(0.05, 1.0));
    }
    maps.push_back(RatioMap::from_ratios(entries));
  }
  return maps;
}

void expect_same_ranked(const std::vector<RankedCandidate>& got,
                        const std::vector<RankedCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

class BatchQueryOracleTest
    : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(BatchQueryOracleTest, BatchKernelsMatchScalarBitForBit) {
  const SimilarityKind kind = GetParam();
  Rng rng{hash_combine({424242, static_cast<std::uint64_t>(kind)})};

  for (const std::size_t corpus_size :
       {std::size_t{1}, std::size_t{13}, std::size_t{90}}) {
    auto corpus = random_corpus(rng, corpus_size, 32);
    SimilarityEngine engine{corpus, kind};
    // Churn some rows so swap-removed (permuted) posting lists and
    // updated norms are part of the oracle, mirroring a live service
    // corpus.
    for (std::size_t i = 0; i < corpus_size; ++i) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.1) {
        engine.remove(i);
      } else if (roll < 0.25) {
        auto fresh = random_corpus(rng, 1, 32)[0];
        engine.update(i, fresh);
        corpus[i] = std::move(fresh);
      }
    }

    // External queries (scores_batch / topk_batch) plus corpus rows
    // (scores_of_batch), larger than one tile to force tiling.
    const auto queries = random_corpus(rng, 70, 32);
    std::vector<std::size_t> rows;
    for (std::size_t j = 0; j < 70; ++j) {
      rows.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corpus_size) - 1)));
    }

    // Scalar baselines (and their touched-maps accounting).
    std::uint64_t scalar_touched = 0;
    FlatMatrix<double> scores_ref(queries.size(), engine.size());
    for (std::size_t j = 0; j < queries.size(); ++j) {
      std::size_t touched = 0;
      engine.scores(queries[j], scores_ref.row(j), &touched);
      scalar_touched += touched;
    }
    std::uint64_t scalar_rows_touched = 0;
    FlatMatrix<double> scores_of_ref(rows.size(), engine.size());
    for (std::size_t j = 0; j < rows.size(); ++j) {
      std::size_t touched = 0;
      engine.scores_of(rows[j], scores_of_ref.row(j), &touched);
      scalar_rows_touched += touched;
    }
    std::vector<std::vector<RankedCandidate>> topk_ref;
    for (const RatioMap& q : queries) topk_ref.push_back(engine.top_k(q, 4));

    for (const std::size_t tile :
         {std::size_t{1}, std::size_t{3}, std::size_t{32}, std::size_t{64},
          std::size_t{100}}) {
      for (const std::size_t workers :
           {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool{workers};
        SCOPED_TRACE(::testing::Message()
                     << "kind=" << static_cast<int>(kind)
                     << " corpus=" << corpus_size << " tile=" << tile
                     << " workers=" << workers);

        std::uint64_t touched = 0;
        EXPECT_EQ(engine.scores_batch(queries, &pool, &touched, tile),
                  scores_ref);
        EXPECT_EQ(touched, scalar_touched);

        touched = 0;
        FlatMatrix<double> block;
        engine.scores_of_batch(rows, block, &pool, &touched, tile);
        EXPECT_EQ(block, scores_of_ref);
        EXPECT_EQ(touched, scalar_rows_touched);

        touched = 0;
        const auto topk =
            engine.topk_batch(queries, 4, &pool, &touched, tile);
        EXPECT_EQ(touched, scalar_touched);
        ASSERT_EQ(topk.size(), topk_ref.size());
        for (std::size_t j = 0; j < topk.size(); ++j) {
          expect_same_ranked(topk[j], topk_ref[j]);
        }
      }
    }
  }
}

TEST_P(BatchQueryOracleTest, SingleQueryTopKMatchesFullSortWithTies) {
  // Heavily tied corpus: duplicated maps make equal similarities common,
  // so the bounded heap's (similarity desc, index asc) tie-break is
  // actually exercised against the stable-sort baseline.
  const SimilarityKind kind = GetParam();
  std::vector<RatioMap> corpus;
  for (int copy = 0; copy < 4; ++copy) {
    for (std::uint32_t base = 0; base < 5; ++base) {
      corpus.push_back(RatioMap::from_ratios(
          std::vector<RatioMap::Entry>{{ReplicaId{base}, 0.5},
                                       {ReplicaId{base + 1}, 0.5}}));
    }
  }
  const SimilarityEngine engine{corpus, kind};
  const auto query = RatioMap::from_ratios(std::vector<RatioMap::Entry>{
      {ReplicaId{1}, 0.6}, {ReplicaId{3}, 0.4}});

  const auto ranked = engine.rank_all(query);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                              std::size_t{20}, std::size_t{50}}) {
    const auto top = engine.top_k(query, k);
    ASSERT_EQ(top.size(), std::min(k, ranked.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].index, ranked[i].index) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].similarity, ranked[i].similarity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BatchQueryOracleTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kJaccard,
                                           SimilarityKind::kWeightedOverlap));

TEST(BatchQueryTest, EmptyQueryListAndEmptyEngine) {
  const SimilarityEngine empty_engine{std::vector<RatioMap>{},
                                      SimilarityKind::kCosine};
  const std::vector<RatioMap> no_queries;
  EXPECT_EQ(empty_engine.scores_batch(no_queries).rows(), 0u);
  EXPECT_TRUE(empty_engine.topk_batch(no_queries, 3).empty());

  const auto one = RatioMap::from_ratios(
      std::vector<RatioMap::Entry>{{ReplicaId{1}, 1.0}});
  const std::vector<RatioMap> queries{one, RatioMap{}};
  const auto block = empty_engine.scores_batch(queries);
  EXPECT_EQ(block.rows(), 2u);
  EXPECT_EQ(block.cols(), 0u);
  const auto topk = empty_engine.topk_batch(queries, 3);
  ASSERT_EQ(topk.size(), 2u);
  EXPECT_TRUE(topk[0].empty());
  EXPECT_TRUE(topk[1].empty());
}

}  // namespace
}  // namespace crp::core
