#include "core/similarity_engine.hpp"

#include <gtest/gtest.h>

#include "core/engine_snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/clustering.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp::core {
namespace {

RatioMap map_of(std::vector<std::pair<ReplicaId, double>> entries) {
  return RatioMap::from_ratios(entries);
}

/// Random corpus including empty maps and disjoint replica ranges, so the
/// inverted-index skip path and the zero-score padding are exercised.
std::vector<RatioMap> random_corpus(Rng& rng, std::size_t n,
                                    std::uint32_t id_space) {
  std::vector<RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.1) {
      maps.emplace_back();  // empty map
      continue;
    }
    std::vector<RatioMap::Entry> entries;
    const int k = static_cast<int>(rng.uniform_int(1, 8));
    // Half the maps draw from the upper half of the id space only, making
    // many pairs fully disjoint.
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

/// The dense `scores` read of `query` against every row of `corpus` (an
/// engine or a snapshot), as a fresh vector.
template <typename Corpus>
std::vector<double> dense_scores(const Corpus& corpus, const RowView& query) {
  std::vector<double> out(corpus.size());
  corpus.scores(query, out);
  return out;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(EngineEquivalenceTest, ScoresMatchNaiveSimilarityBitForBit) {
  const SimilarityKind kind = GetParam();
  Rng rng{411 + static_cast<std::uint64_t>(kind)};
  for (int trial = 0; trial < 20; ++trial) {
    const auto corpus = random_corpus(rng, 60, 40);
    const SimilarityEngine engine{corpus, kind};
    ASSERT_EQ(engine.size(), corpus.size());

    // External queries, including an empty one.
    auto queries = random_corpus(rng, 8, 40);
    queries.emplace_back();
    for (const RatioMap& query : queries) {
      const auto got = dense_scores(engine, query);
      ASSERT_EQ(got.size(), corpus.size());
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        // Bit-identical, not approximately equal: the engine accumulates
        // each pair's products in the naive merge's order.
        EXPECT_EQ(got[i], similarity(kind, query, corpus[i]))
            << to_string(kind) << " map " << i;
      }
    }

    // Corpus maps as queries, via the stored row (no RatioMap rebuild).
    for (std::size_t q = 0; q < corpus.size(); ++q) {
      EXPECT_EQ(dense_scores(engine, engine.row_view(q)),
                dense_scores(engine, corpus[q]))
          << q;
    }
  }
}

TEST_P(EngineEquivalenceTest, RankTopKAndCountsMatchSpanSelection) {
  const SimilarityKind kind = GetParam();
  Rng rng{777 + static_cast<std::uint64_t>(kind)};
  for (int trial = 0; trial < 10; ++trial) {
    const auto corpus = random_corpus(rng, 50, 30);
    const SimilarityEngine engine{corpus, kind};
    const auto queries = random_corpus(rng, 6, 30);
    for (const RatioMap& query : queries) {
      const auto naive = rank_candidates(query, corpus, kind);
      const auto ranked = engine.top_k(query, engine.live_size());
      ASSERT_EQ(ranked.size(), naive.size());
      for (std::size_t i = 0; i < naive.size(); ++i) {
        EXPECT_EQ(ranked[i].index, naive[i].index);
        EXPECT_EQ(ranked[i].similarity, naive[i].similarity);
      }
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            corpus.size(), corpus.size() + 5}) {
        const auto top = engine.top_k(query, k);
        ASSERT_EQ(top.size(), std::min(k, corpus.size()));
        for (std::size_t i = 0; i < top.size(); ++i) {
          EXPECT_EQ(top[i].index, naive[i].index);
          EXPECT_EQ(top[i].similarity, naive[i].similarity);
        }
      }
      EXPECT_EQ(comparable_count(query, engine),
                comparable_count(query, corpus, kind));
    }
  }
}

TEST_P(EngineEquivalenceTest, SingleQueryTopKMatchesFullSortWithTies) {
  // Heavily tied corpus: duplicated maps make equal similarities common,
  // so the bounded heap's (similarity desc, index asc) tie-break is
  // actually exercised against the per-pair stable sort.
  const SimilarityKind kind = GetParam();
  std::vector<RatioMap> corpus;
  for (int copy = 0; copy < 4; ++copy) {
    for (std::uint32_t base = 0; base < 5; ++base) {
      corpus.push_back(
          map_of({{ReplicaId{base}, 0.5}, {ReplicaId{base + 1}, 0.5}}));
    }
  }
  const SimilarityEngine engine{corpus, kind};
  const auto query = map_of({{ReplicaId{1}, 0.6}, {ReplicaId{3}, 0.4}});

  const auto ranked = rank_candidates(query, corpus, kind);
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

INSTANTIATE_TEST_SUITE_P(AllKinds, EngineEquivalenceTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kJaccard,
                                           SimilarityKind::kWeightedOverlap),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SimilarityEngineTest, EmptyCorpus) {
  const SimilarityEngine engine{std::span<const RatioMap>{}};
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.distinct_replicas(), 0u);
  const RatioMap query = map_of({{ReplicaId{1}, 1.0}});
  EXPECT_TRUE(dense_scores(engine, query).empty());
  EXPECT_TRUE(engine.top_k(query, 3).empty());
  EXPECT_EQ(engine.best_match(query), std::nullopt);
  EXPECT_EQ(comparable_count(query, engine), 0u);
}

TEST(SimilarityEngineTest, StrongestMappingAndReplicaAccounting) {
  const std::vector<RatioMap> corpus{
      map_of({{ReplicaId{1}, 0.2}, {ReplicaId{5}, 0.8}}),
      map_of({{ReplicaId{5}, 1.0}}),
      RatioMap{},
  };
  const SimilarityEngine engine{corpus};
  EXPECT_EQ(engine.distinct_replicas(), 2u);
  EXPECT_DOUBLE_EQ(engine.strongest_mapping(0), 0.8);
  EXPECT_DOUBLE_EQ(engine.strongest_mapping(1), 1.0);
  EXPECT_DOUBLE_EQ(engine.strongest_mapping(2), 0.0);
}

// A row written from a RatioMap — by add, update, or add of another
// engine's row view — stores the map's own norm and strongest mapping,
// bit for bit, and scores as similarity() does.
TEST(SimilarityEngineTest, RowsWrittenFromAMapCarryItsNormAndStrongest) {
  Rng rng{8080};
  for (const SimilarityKind kind :
       {SimilarityKind::kCosine, SimilarityKind::kJaccard,
        SimilarityKind::kWeightedOverlap}) {
    const auto maps = random_corpus(rng, 12, 20);
    SimilarityEngine engine{kind};
    SimilarityEngine other{kind};
    std::vector<RatioMap> stored;  // the map each row of `engine` holds
    const auto expect_row = [&](std::size_t row, const RatioMap& map) {
      EXPECT_EQ(engine.strongest_mapping(row), map.strongest_mapping())
          << "row " << row;
      EXPECT_EQ(engine.row_view(row).norm, map.norm()) << "row " << row;
      const auto scores = dense_scores(engine, maps[0]);
      for (std::size_t i = 0; i < stored.size(); ++i) {
        EXPECT_EQ(scores[i], similarity(kind, maps[0], stored[i]))
            << "row " << i;
      }
    };
    for (std::size_t i = 0; i < 4; ++i) {
      stored.push_back(maps[i]);
      ASSERT_EQ(engine.add(maps[i]), i);
      expect_row(i, maps[i]);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      stored[i] = maps[4 + i];
      engine.update(i, maps[4 + i]);
      expect_row(i, maps[4 + i]);
    }
    for (std::size_t j = 0; j < 4; ++j) (void)other.add(maps[8 + j]);
    for (std::size_t j = 0; j < 4; ++j) {
      stored.push_back(maps[8 + j]);
      ASSERT_EQ(engine.add(other.row_view(j)), 4 + j);
      expect_row(4 + j, maps[8 + j]);
    }
  }
}

TEST(SimilarityEngineTest, SelectionOverloadsMatchSpanForms) {
  Rng rng{5150};
  const auto corpus = random_corpus(rng, 40, 24);
  const SimilarityEngine engine{corpus};
  const auto queries = random_corpus(rng, 10, 24);
  for (const RatioMap& query : queries) {
    EXPECT_EQ(select_closest(query, engine), select_closest(query, corpus));
    EXPECT_EQ(comparable_count(query, engine),
              comparable_count(query, corpus));
    const auto a = engine.top_k(query, 5);
    const auto b = select_top_k(query, corpus, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index);
      EXPECT_EQ(a[i].similarity, b[i].similarity);
    }
  }
  const SimilarityEngine empty_engine{std::span<const RatioMap>{}};
  EXPECT_EQ(select_closest(queries.front(), empty_engine), std::nullopt);
}

// An engine whose every row was removed still has row slots; it answers
// like an empty corpus, on both owners.
TEST(SimilarityEngineTest, AllRemovedEngineAnswersNothing) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  const RatioMap query = map_of({{ReplicaId{1}, 0.5}, {ReplicaId{2}, 0.5}});
  (void)engine.add(map_of({{ReplicaId{1}, 1.0}}));
  (void)engine.add(query);
  engine.remove(0);
  engine.remove(1);
  ASSERT_EQ(engine.size(), 2u);
  ASSERT_EQ(engine.live_size(), 0u);

  EXPECT_EQ(select_closest(query, engine), std::nullopt);
  EXPECT_EQ(comparable_count(query, engine), 0u);
  const auto snap = engine.freeze(1);
  EXPECT_EQ(engine.best_match(query), std::nullopt);
  EXPECT_EQ(snap->best_match(query), std::nullopt);
  EXPECT_TRUE(engine.top_k(query, 3).empty());
  EXPECT_TRUE(snap->top_k(query, 3).empty());
}

// select_closest over an engine with removed rows (row 0 among them) is
// the span form over the live maps, mapped back to row indices — and a
// client sharing no replica gets the first live row, not row 0.
TEST(SimilarityEngineTest, SelectClosestSkipsRemovedRows) {
  Rng rng{6061};
  const auto corpus = random_corpus(rng, 30, 24);
  SimilarityEngine engine{corpus};
  for (const std::size_t row : {0, 1, 7, 12, 29}) engine.remove(row);
  std::vector<RatioMap> live;
  std::vector<std::size_t> row_of;  // live position -> row index
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!engine.alive(i)) continue;
    live.push_back(corpus[i]);
    row_of.push_back(i);
  }

  auto queries = random_corpus(rng, 10, 24);
  queries.push_back(map_of({{ReplicaId{1000}, 1.0}}));  // shares nothing
  for (const RatioMap& query : queries) {
    const auto want = select_closest(query, live);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(select_closest(query, engine), row_of[*want]);
  }
  EXPECT_EQ(select_closest(queries.back(), engine), 2u);
}

class SubsetAndRowViewTest
    : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(SubsetAndRowViewTest, SubsetScoresMatchDenseReads) {
  const SimilarityKind kind = GetParam();
  Rng rng{9001 + static_cast<std::uint64_t>(kind)};
  auto corpus = random_corpus(rng, 50, 30);
  SimilarityEngine engine{corpus, kind};
  // Kill a few rows so the subset path sees dead slots too.
  engine.remove(3);
  engine.remove(17);

  const auto queries = random_corpus(rng, 6, 30);
  // Unordered subset with duplicates and dead rows.
  const std::vector<std::size_t> subset{17, 0, 5, 5, 49, 3, 12, 0};
  std::vector<double> dense(engine.size());
  std::vector<double> got(subset.size());
  for (const RatioMap& query : queries) {
    std::size_t dense_touched = 0;
    std::size_t subset_touched = 0;
    engine.scores(query, dense, &dense_touched);
    engine.scores_subset(query, subset, got, &subset_touched);
    EXPECT_EQ(subset_touched, dense_touched);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      EXPECT_EQ(got[i], dense[subset[i]]) << "subset pos " << i;
    }
  }
  // Corpus row as query.
  for (const std::size_t row : {std::size_t{0}, std::size_t{8}}) {
    engine.scores(engine.row_view(row), dense);
    engine.scores_subset(engine.row_view(row), subset, got);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      EXPECT_EQ(got[i], dense[subset[i]]) << "row " << row << " pos " << i;
    }
  }
}

// touched_scores lists exactly the rows the dense read writes — each
// once, with the dense score bits — and every row it omits scores 0.
TEST_P(SubsetAndRowViewTest, TouchedScoresAreTheDenseTouchedRows) {
  const SimilarityKind kind = GetParam();
  Rng rng{7707 + static_cast<std::uint64_t>(kind)};
  SimilarityEngine engine{random_corpus(rng, 60, 60), kind};
  engine.remove(4);
  engine.update(9, random_corpus(rng, 1, 60)[0]);

  std::vector<double> dense(engine.size());
  std::vector<RankedCandidate> touched;
  for (const RatioMap& query : random_corpus(rng, 12, 60)) {
    std::size_t dense_touched = 0;
    engine.scores(query, dense, &dense_touched);
    engine.touched_scores(query, touched);
    EXPECT_EQ(touched.size(), dense_touched);
    std::vector<char> seen(engine.size(), 0);
    for (const RankedCandidate& t : touched) {
      ASSERT_LT(t.index, engine.size());
      EXPECT_EQ(seen[t.index], 0) << "row listed twice: " << t.index;
      seen[t.index] = 1;
      EXPECT_TRUE(engine.alive(t.index)) << t.index;
      EXPECT_EQ(t.similarity, dense[t.index]) << "row " << t.index;
    }
    for (std::size_t m = 0; m < engine.size(); ++m) {
      if (seen[m] == 0) {
        EXPECT_EQ(dense[m], 0.0) << "untouched row " << m;
      }
    }
  }
}

TEST_P(SubsetAndRowViewTest, RowViewsMirrorBitIdentically) {
  const SimilarityKind kind = GetParam();
  Rng rng{1234 + static_cast<std::uint64_t>(kind)};
  const auto corpus = random_corpus(rng, 40, 25);
  const SimilarityEngine source{corpus, kind};

  // Mirror a subset of source rows into a second engine via add and
  // query it with row views: everything must match a from-scratch engine
  // of the same maps, bit for bit.
  const std::vector<std::size_t> picks{0, 3, 7, 11, 19, 22, 39};
  SimilarityEngine mirror{kind};
  std::vector<RatioMap> picked;
  for (const std::size_t p : picks) {
    EXPECT_EQ(mirror.add(source.row_view(p)), picked.size());
    picked.push_back(corpus[p]);
  }
  const SimilarityEngine rebuilt{picked, kind};
  ASSERT_EQ(mirror.size(), rebuilt.size());

  std::vector<double> via_mirror(mirror.size());
  std::vector<double> via_rebuilt(rebuilt.size());
  for (std::size_t q = 0; q < corpus.size(); ++q) {
    mirror.scores(source.row_view(q), via_mirror);
    rebuilt.scores(corpus[q], via_rebuilt);
    EXPECT_EQ(via_mirror, via_rebuilt) << "query " << q;

    // best_match == top_k(query, 1), including the zero-similarity
    // padding case and tie-breaks.
    const auto best = mirror.best_match(source.row_view(q));
    const auto top = rebuilt.top_k(corpus[q], 1);
    ASSERT_TRUE(best.has_value());
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(best->index, top[0].index) << "query " << q;
    EXPECT_EQ(best->similarity, top[0].similarity) << "query " << q;
  }
}

TEST_P(SubsetAndRowViewTest, ClearReusesEngineAcrossCorpora) {
  const SimilarityKind kind = GetParam();
  Rng rng{555 + static_cast<std::uint64_t>(kind)};
  SimilarityEngine engine{kind};
  for (int round = 0; round < 3; ++round) {
    const auto corpus = random_corpus(rng, 30, 20);
    engine.clear(kind);
    EXPECT_TRUE(engine.empty());
    EXPECT_EQ(engine.live_size(), 0u);
    EXPECT_EQ(engine.distinct_replicas(), 0u);
    for (const RatioMap& map : corpus) (void)engine.add(map);
    const SimilarityEngine fresh{corpus, kind};
    const auto queries = random_corpus(rng, 4, 20);
    std::vector<double> a(engine.size());
    std::vector<double> b(fresh.size());
    for (const RatioMap& query : queries) {
      engine.scores(query, a);
      fresh.scores(query, b);
      EXPECT_EQ(a, b) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SubsetAndRowViewTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kJaccard,
                                           SimilarityKind::kWeightedOverlap),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// Checks all five reads of `corpus` (an engine or a snapshot whose rows
/// are `maps`, every row live) for `query` against per-pair
/// `similarity()`, bit for bit.
template <typename Corpus>
void expect_reads_match_similarity(const Corpus& corpus,
                                   std::span<const RatioMap> maps,
                                   SimilarityKind kind, const RatioMap& query,
                                   const std::string& where) {
  std::vector<double> naive(maps.size());
  for (std::size_t i = 0; i < maps.size(); ++i) {
    naive[i] = similarity(kind, query, maps[i]);
  }
  EXPECT_EQ(dense_scores(corpus, query), naive) << where;

  std::vector<RankedCandidate> touched;
  corpus.touched_scores(query, touched);
  EXPECT_EQ(touched.size(), static_cast<std::size_t>(std::count_if(
                                naive.begin(), naive.end(),
                                [](double s) { return s > 0.0; })))
      << where;
  for (const RankedCandidate& t : touched) {
    ASSERT_LT(t.index, maps.size()) << where;
    EXPECT_EQ(t.similarity, naive[t.index]) << where << " row " << t.index;
  }

  std::vector<std::size_t> subset(maps.size());
  std::iota(subset.rbegin(), subset.rend(), std::size_t{0});
  std::vector<double> got(subset.size());
  corpus.scores_subset(query, subset, got);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(got[i], naive[subset[i]]) << where << " subset pos " << i;
  }

  const auto ranked = rank_candidates(query, maps, kind);
  const auto top = corpus.top_k(query, 5);
  ASSERT_EQ(top.size(), std::min<std::size_t>(5, maps.size())) << where;
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].index, ranked[i].index) << where << " rank " << i;
    EXPECT_EQ(top[i].similarity, ranked[i].similarity) << where;
  }
  const auto best = corpus.best_match(query);
  ASSERT_EQ(best.has_value(), !maps.empty()) << where;
  if (best.has_value()) {
    EXPECT_EQ(best->index, ranked[0].index) << where;
    EXPECT_EQ(best->similarity, ranked[0].similarity) << where;
  }
}

// The kernels' scratch is one thread_local buffer shared by every corpus
// a thread reads, as the shards of a scatter share it. One fresh thread
// (empty scratch) alternates reads over engines and snapshots of a small,
// a large and another small corpus under all three metrics, so the
// scratch grows mid-stream and smaller corpora then read through cells
// that larger ones touched.
TEST(SimilarityEngineTest, ScratchSharedAcrossCorporaOfEverySize) {
  struct Owner {
    SimilarityKind kind;
    std::vector<RatioMap> maps;
    std::unique_ptr<SimilarityEngine> engine;
    std::shared_ptr<const EngineSnapshot> snap;
  };
  Rng rng{2301};
  std::vector<Owner> owners;
  for (const SimilarityKind kind :
       {SimilarityKind::kCosine, SimilarityKind::kJaccard,
        SimilarityKind::kWeightedOverlap}) {
    for (const std::size_t n : {std::size_t{6}, std::size_t{300},
                                std::size_t{11}}) {
      Owner owner{kind, random_corpus(rng, n, 24), nullptr, nullptr};
      owner.engine = std::make_unique<SimilarityEngine>(owner.maps, kind);
      owner.snap = owner.engine->freeze(1);
      owners.push_back(std::move(owner));
    }
  }
  auto queries = random_corpus(rng, 12, 24);
  queries.emplace_back();
  std::thread reader([&] {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const Owner& owner : owners) {
        const std::string where = std::string(to_string(owner.kind)) + " n=" +
                                  std::to_string(owner.maps.size()) +
                                  " query " + std::to_string(q);
        expect_reads_match_similarity(*owner.engine, owner.maps, owner.kind,
                                      queries[q], where + " engine");
        expect_reads_match_similarity(*owner.snap, owner.maps, owner.kind,
                                      queries[q], where + " snapshot");
      }
    }
  });
  reader.join();
}

// Every row shares both query replicas, so the first list touches all n
// rows and each posting of the second writes its row speculatively at
// touched[n], one past the last valid entry. A fresh thread sizes its
// scratch for this corpus alone (no spare capacity from an earlier,
// larger read), so a touched list one entry short overflows its heap
// block here (ASan).
TEST(SimilarityEngineTest, EveryRowTouchedFillsTheTouchedList) {
  constexpr std::size_t kRows = 37;
  Rng rng{4242};
  std::vector<RatioMap> maps;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<RatioMap::Entry> entries{{ReplicaId{1}, rng.uniform(0.1, 1.0)},
                                         {ReplicaId{2}, rng.uniform(0.1, 1.0)}};
    if (i % 3 == 0) {
      entries.emplace_back(ReplicaId{3 + static_cast<std::uint32_t>(i)}, 0.5);
    }
    maps.push_back(RatioMap::from_ratios(entries));
  }
  const RatioMap query = map_of({{ReplicaId{1}, 0.3}, {ReplicaId{2}, 0.7}});
  std::thread reader([&] {
    for (const SimilarityKind kind :
         {SimilarityKind::kCosine, SimilarityKind::kJaccard,
          SimilarityKind::kWeightedOverlap}) {
      const std::string name = to_string(kind);
      SimilarityEngine engine{maps, kind};
      const auto snap = engine.freeze(1);
      std::vector<RankedCandidate> touched;
      engine.touched_scores(query, touched);
      EXPECT_EQ(touched.size(), kRows) << name;
      snap->touched_scores(query, touched);
      EXPECT_EQ(touched.size(), kRows) << name;
      expect_reads_match_similarity(engine, maps, kind, query,
                                    name + " engine");
      expect_reads_match_similarity(*snap, maps, kind, query,
                                    name + " snapshot");
    }
  });
  reader.join();
}

TEST(SimilarityEngineTest, BestMatchOnEmptyEngineIsNullopt) {
  const SimilarityEngine source{
      std::vector<RatioMap>{map_of({{ReplicaId{1}, 1.0}})},
      SimilarityKind::kCosine};
  const SimilarityEngine empty{SimilarityKind::kCosine};
  EXPECT_EQ(empty.best_match(source.row_view(0)), std::nullopt);
}

TEST(SimilarityEngineTest, SmfClusterMatchesReferenceImplementation) {
  Rng rng{909};
  for (int trial = 0; trial < 8; ++trial) {
    const auto maps = random_corpus(rng, 70, 28);
    for (const double threshold : {0.05, 0.1, 0.3}) {
      SmfConfig config;
      config.threshold = threshold;
      config.second_pass = (trial % 2 == 0);
      config.seed = 23 + static_cast<std::uint64_t>(trial);
      const Clustering expected = smf_cluster_reference(maps, config);
      const Clustering via_span = smf_cluster(maps, config);
      const SimilarityEngine engine{maps, config.metric};
      const Clustering via_engine = smf_cluster(engine, config);
      // Identical assignment vectors — not merely equivalent partitions.
      EXPECT_EQ(via_span.assignment, expected.assignment);
      EXPECT_EQ(via_engine.assignment, expected.assignment);
      ASSERT_EQ(via_engine.clusters.size(), expected.clusters.size());
      for (std::size_t c = 0; c < expected.clusters.size(); ++c) {
        EXPECT_EQ(via_engine.clusters[c].center, expected.clusters[c].center);
        EXPECT_EQ(via_engine.clusters[c].members,
                  expected.clusters[c].members);
      }
    }
  }
}

/// Checks every query entry point of `corpus` (an engine or a snapshot)
/// against per-pair similarity() over `rows`, its maps by row index
/// (nullopt for a removed row). `query` is the map `view` was made from.
/// Dense, subset and touched scores must equal similarity() bit for bit
/// (0 for dead rows); through row index <-> live position, top_k (the
/// full ranking, its top 5 and an oversized k) must equal
/// rank_candidates over the live maps, and best_match select_closest.
template <typename Corpus>
void expect_naive_answers(const Corpus& corpus,
                          const std::vector<std::optional<RatioMap>>& rows,
                          const RowView& view, const RatioMap& query,
                          SimilarityKind kind) {
  std::vector<RatioMap> live;
  std::vector<std::size_t> row_of;  // live position -> row index
  std::vector<double> want(rows.size(), 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].has_value()) continue;
    live.push_back(*rows[r]);
    row_of.push_back(r);
    want[r] = similarity(kind, query, *rows[r]);
  }
  ASSERT_EQ(corpus.size(), rows.size());
  ASSERT_EQ(corpus.live_size(), live.size());

  EXPECT_EQ(dense_scores(corpus, view), want);
  std::vector<std::size_t> every_row(rows.size());
  std::iota(every_row.begin(), every_row.end(), std::size_t{0});
  std::vector<double> subset(rows.size());
  corpus.scores_subset(view, every_row, subset);
  EXPECT_EQ(subset, want);
  std::vector<RankedCandidate> touched;
  corpus.touched_scores(view, touched);
  std::vector<double> from_touched(rows.size(), 0.0);
  for (const RankedCandidate& t : touched) {
    ASSERT_LT(t.index, rows.size());
    EXPECT_TRUE(rows[t.index].has_value()) << "dead row " << t.index;
    from_touched[t.index] = t.similarity;
  }
  EXPECT_EQ(from_touched, want);

  const auto ranked = rank_candidates(query, live, kind);
  for (const std::size_t k : {live.size(), std::size_t{5}, live.size() + 3}) {
    const auto top = corpus.top_k(view, k);
    ASSERT_EQ(top.size(), std::min(k, live.size())) << "k=" << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].index, row_of[ranked[i].index]) << "k=" << k;
      EXPECT_EQ(top[i].similarity, ranked[i].similarity) << "k=" << k;
    }
  }
  const auto best = corpus.best_match(view);
  const auto closest = select_closest(query, live, kind);
  ASSERT_EQ(best.has_value(), closest.has_value());
  if (best.has_value()) {
    EXPECT_EQ(best->index, row_of[*closest]);
    EXPECT_EQ(best->similarity, want[best->index]);
  }
}

class MutationOracleTest
    : public ::testing::TestWithParam<SimilarityKind> {};

// The incremental-maintenance contract: after any sequence of
// add/update/remove (swap-removed postings, slot reuse, compactions
// included), the mutated engine — whose posting lists are permuted —
// scores bit-identically to a fresh engine built from the surviving maps,
// whose lists are in row order, and answers every query as per-pair
// similarity() over the live maps does — dead slots score exactly 0.
TEST_P(MutationOracleTest, MutateVsRebuildOracle) {
  const SimilarityKind kind = GetParam();
  Rng rng{1234 + static_cast<std::uint64_t>(kind)};

  for (int trial = 0; trial < 6; ++trial) {
    SimilarityEngine engine{kind};
    // Shadow corpus by slot; nullopt marks a removed row.
    std::vector<std::optional<RatioMap>> slots;

    const auto fresh_map = [&rng] {
      auto one = random_corpus(rng, 1, 36);
      return one.front();
    };

    const int steps = 120 + trial * 40;
    for (int step = 0; step < steps; ++step) {
      const double action = rng.uniform(0.0, 1.0);
      const auto live_slot = [&]() -> std::optional<std::size_t> {
        std::vector<std::size_t> live;
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (slots[s].has_value()) live.push_back(s);
        }
        if (live.empty()) return std::nullopt;
        return live[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1))];
      };

      if (action < 0.55 || slots.empty()) {
        RatioMap map = fresh_map();
        const std::size_t slot = engine.add(map);
        ASSERT_LE(slot, slots.size());
        if (slot == slots.size()) {
          slots.emplace_back(std::move(map));
        } else {
          ASSERT_FALSE(slots[slot].has_value()) << "clobbered a live slot";
          slots[slot] = std::move(map);
        }
      } else if (action < 0.80) {
        if (const auto slot = live_slot()) {
          RatioMap map = fresh_map();
          engine.update(*slot, map);
          slots[*slot] = std::move(map);
        }
      } else {
        if (const auto slot = live_slot()) {
          engine.remove(*slot);
          slots[*slot].reset();
        }
      }
      ASSERT_NO_THROW(engine.check_invariants()) << "step " << step;
    }

    // Rebuild from the live maps in slot order.
    std::vector<RatioMap> live_maps;
    std::vector<std::size_t> fresh_of_slot(slots.size(), ~std::size_t{0});
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].has_value()) continue;
      fresh_of_slot[s] = live_maps.size();
      live_maps.push_back(*slots[s]);
    }
    const SimilarityEngine rebuilt{live_maps, kind};

    ASSERT_EQ(engine.size(), slots.size());
    ASSERT_EQ(engine.live_size(), live_maps.size());
    EXPECT_EQ(engine.distinct_replicas(), rebuilt.distinct_replicas());
    for (std::size_t s = 0; s < slots.size(); ++s) {
      ASSERT_EQ(engine.alive(s), slots[s].has_value()) << s;
      EXPECT_EQ(engine.strongest_mapping(s),
                slots[s].has_value()
                    ? rebuilt.strongest_mapping(fresh_of_slot[s])
                    : 0.0)
          << s;
    }

    auto queries = random_corpus(rng, 6, 36);
    queries.emplace_back();                 // empty query
    for (const auto& s : slots) {           // corpus members as queries
      if (s.has_value()) {
        queries.push_back(*s);
        break;
      }
    }
    for (const RatioMap& query : queries) {
      const auto got = dense_scores(engine, query);
      const auto want = dense_scores(rebuilt, query);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].has_value()) {
          EXPECT_EQ(got[s], want[fresh_of_slot[s]]) << s;
        }
      }
      expect_naive_answers(engine, slots, query, query, kind);
      EXPECT_EQ(comparable_count(query, engine),
                comparable_count(query, live_maps, kind));
    }

    // A live row's own view queries as its map does.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].has_value()) {
        EXPECT_EQ(dense_scores(engine, engine.row_view(s)),
                  dense_scores(engine, *slots[s]))
            << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MutationOracleTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kJaccard,
                                           SimilarityKind::kWeightedOverlap),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name + "Oracle";
                         });

TEST(SimilarityEngineTest, EmptyMutableEngineStartsFromNothing) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.live_size(), 0u);
  EXPECT_EQ(engine.add(map_of({{ReplicaId{1}, 1.0}})), 0u);
  EXPECT_EQ(engine.size(), 1u);
  EXPECT_EQ(engine.live_size(), 1u);
  const auto scores = dense_scores(engine, map_of({{ReplicaId{1}, 1.0}}));
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_DOUBLE_EQ(scores[0], 1.0);
}

TEST(SimilarityEngineTest, RemoveTombstonesAndAddReusesSlotsLifo) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  for (std::uint32_t i = 0; i < 4; ++i) {
    engine.add(map_of({{ReplicaId{i}, 1.0}}));
  }
  engine.remove(1);
  engine.remove(3);
  EXPECT_EQ(engine.size(), 4u);
  EXPECT_EQ(engine.live_size(), 2u);
  EXPECT_FALSE(engine.alive(1));
  EXPECT_FALSE(engine.alive(3));
  EXPECT_EQ(engine.mutation_stats().removes, 2u);
  EXPECT_EQ(engine.mutation_stats().postings_tombstoned, 2u);
  // Dead rows score zero and are absent from rankings.
  const auto scores = dense_scores(engine, map_of({{ReplicaId{1}, 1.0}}));
  EXPECT_EQ(scores[1], 0.0);
  EXPECT_EQ(engine.top_k(map_of({{ReplicaId{1}, 1.0}}), 4).size(), 2u);
  // Freed slots come back most-recently-removed first.
  EXPECT_EQ(engine.add(map_of({{ReplicaId{9}, 1.0}})), 3u);
  EXPECT_EQ(engine.add(map_of({{ReplicaId{10}, 1.0}})), 1u);
  EXPECT_EQ(engine.add(map_of({{ReplicaId{11}, 1.0}})), 4u);
  EXPECT_EQ(engine.live_size(), 5u);
}

TEST(SimilarityEngineTest, CompactionTriggersAndPreservesScores) {
  Rng rng{606};
  SimilarityEngine engine{SimilarityKind::kCosine};
  std::vector<std::optional<RatioMap>> slots;

  // Churn hard enough to cross the dead-entry threshold several times:
  // every round replaces a large map, orphaning its CSR segment.
  const auto big_map = [&rng] {
    std::vector<RatioMap::Entry> entries;
    for (int j = 0; j < 16; ++j) {
      entries.emplace_back(
          ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 99))},
          rng.uniform(0.05, 1.0));
    }
    return RatioMap::from_ratios(entries);
  };
  for (int i = 0; i < 32; ++i) {
    auto map = big_map();
    engine.add(map);
    slots.emplace_back(std::move(map));
  }
  for (int round = 0; round < 80; ++round) {
    const auto slot = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
    auto map = big_map();
    if (!slots[slot].has_value()) continue;
    engine.update(slot, map);
    slots[slot] = std::move(map);
  }
  EXPECT_GE(engine.mutation_stats().compactions, 1u)
      << "churn never crossed the compaction threshold";
  // The threshold keeps dead weight bounded by the live corpus: right
  // after any mutation, dead < max(kCompactMinDeadEntries, live) + one
  // row's worth of entries.
  EXPECT_LT(engine.dead_entries(), 32u * 16u + 16u);

  // Scores still bit-match a fresh build.
  std::vector<RatioMap> live;
  for (const auto& s : slots) live.push_back(*s);
  const SimilarityEngine rebuilt{live, SimilarityKind::kCosine};
  const auto query = big_map();
  EXPECT_EQ(dense_scores(engine, query), dense_scores(rebuilt, query));

  // An explicit compact() is idempotent and keeps indices stable.
  engine.compact();
  EXPECT_EQ(engine.dead_entries(), 0u);
  EXPECT_EQ(dense_scores(engine, query), dense_scores(rebuilt, query));
}

TEST(SimilarityEngineTest, SmfClusterRejectsMetricMismatch) {
  const std::vector<RatioMap> maps{map_of({{ReplicaId{1}, 1.0}})};
  const SimilarityEngine engine{maps, SimilarityKind::kJaccard};
  SmfConfig config;
  config.metric = SimilarityKind::kCosine;
  EXPECT_THROW((void)smf_cluster(engine, config), std::invalid_argument);
}

// --- EngineSnapshot: freeze() bit-identity and structural sharing
// --- (DESIGN.md §8) ---

class EngineSnapshotTest : public ::testing::TestWithParam<SimilarityKind> {};

TEST_P(EngineSnapshotTest, FreezeMatchesMutableEngineBitForBit) {
  const SimilarityKind kind = GetParam();
  Rng rng{8211 + static_cast<std::uint64_t>(kind)};
  for (int trial = 0; trial < 8; ++trial) {
    const auto corpus = random_corpus(rng, 40, 30);
    SimilarityEngine engine{kind};
    for (const auto& m : corpus) (void)engine.add(m);
    // The engine's maps by row, nullopt once removed: the naive mirror.
    std::vector<std::optional<RatioMap>> rows(corpus.begin(), corpus.end());
    // Churn before the freeze so the snapshot sees permuted posting
    // lists, orphaned arena entries, reused slots and updated rows, not
    // just a pristine build.
    for (int m = 0; m < 12; ++m) {
      const auto slot =
          static_cast<std::size_t>(rng.uniform_int(0, engine.size() - 1));
      if (!engine.alive(slot)) continue;
      if (rng.uniform(0.0, 1.0) < 0.5) {
        rows[slot] = random_corpus(rng, 1, 30)[0];
        engine.update(slot, *rows[slot]);
      } else {
        rows[slot].reset();
        engine.remove(slot);
      }
      ASSERT_NO_THROW(engine.check_invariants());
    }
    const std::uint64_t epoch = 100 + static_cast<std::uint64_t>(trial);
    const auto snap = engine.freeze(epoch);
    ASSERT_NE(snap, nullptr);
    ASSERT_NO_THROW(snap->check_invariants(&engine));
    ASSERT_NO_THROW(engine.check_invariants());
    EXPECT_EQ(snap->epoch(), epoch);
    EXPECT_EQ(snap->size(), engine.size());
    EXPECT_EQ(snap->live_size(), engine.live_size());
    EXPECT_EQ(snap->distinct_replicas(), engine.distinct_replicas());
    EXPECT_EQ(snap->kind(), engine.kind());

    // Every entry point, bit for bit against the engine that shares its
    // kernels and against per-pair similarity() over the mirror, dead
    // rows included; external maps and the live rows' own views as
    // queries.
    const auto queries = random_corpus(rng, 6, 30);
    std::vector<std::size_t> every_row(engine.size());
    std::iota(every_row.begin(), every_row.end(), std::size_t{0});
    const auto expect_same = [&](const RowView& in_engine,
                                 const RowView& in_snap,
                                 const RatioMap& map) {
      EXPECT_EQ(dense_scores(engine, in_engine), dense_scores(*snap, in_snap));
      std::vector<double> sub_engine(every_row.size());
      std::vector<double> sub_snap(every_row.size());
      engine.scores_subset(in_engine, every_row, sub_engine);
      snap->scores_subset(in_snap, every_row, sub_snap);
      EXPECT_EQ(sub_engine, sub_snap);
      std::vector<RankedCandidate> want;
      std::vector<RankedCandidate> got;
      engine.touched_scores(in_engine, want);
      snap->touched_scores(in_snap, got);
      EXPECT_EQ(got, want);
      EXPECT_EQ(engine.best_match(in_engine), snap->best_match(in_snap));
      EXPECT_EQ(engine.top_k(in_engine, 5), snap->top_k(in_snap, 5));
      expect_naive_answers(*snap, rows, in_snap, map, kind);
    };
    for (const auto& q : queries) expect_same(q, q, q);
    for (std::size_t i = 0; i < engine.size(); ++i) {
      EXPECT_EQ(snap->alive(i), engine.alive(i));
      EXPECT_EQ(snap->strongest_mapping(i), engine.strongest_mapping(i));
      if (rows[i].has_value()) {
        SCOPED_TRACE(::testing::Message() << "row " << i << " as the query");
        expect_same(engine.row_view(i), snap->row_view(i), *rows[i]);
      }
    }

    // The snapshot is immutable: post-freeze churn must not leak in.
    const auto probe = queries[0];
    const auto before = dense_scores(*snap, probe);
    for (int m = 0; m < 6; ++m) {
      (void)engine.add(random_corpus(rng, 1, 30)[0]);
      ASSERT_NO_THROW(engine.check_invariants());
    }
    EXPECT_EQ(dense_scores(*snap, probe), before);
    ASSERT_NO_THROW(snap->check_invariants());
    // add() may reuse removed slots, so compare live counts.
    EXPECT_NE(engine.live_size(), snap->live_size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EngineSnapshotTest,
                         ::testing::Values(SimilarityKind::kCosine,
                                           SimilarityKind::kWeightedOverlap,
                                           SimilarityKind::kJaccard));

TEST(EngineSnapshotTest, FreezeReusesSnapshotWhenCleanAndSharesWhenNot) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  (void)engine.add(map_of({{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}));
  (void)engine.add(map_of({{ReplicaId{1}, 0.3}, {ReplicaId{3}, 0.7}}));

  const auto s1 = engine.freeze(1);
  // Same epoch, no mutations: the cached snapshot object itself.
  EXPECT_EQ(engine.freeze(1), s1);
  // New epoch, still no mutations: a new snapshot sharing every
  // component with the previous one.
  const auto s2 = engine.freeze(2);
  EXPECT_NE(s2, s1);
  EXPECT_EQ(s2->epoch(), 2u);
  EXPECT_EQ(s2->rows_identity(), s1->rows_identity());
  EXPECT_EQ(s2->entries_identity(), s1->entries_identity());
  EXPECT_EQ(s2->postings_identity(), s1->postings_identity());
}

TEST(EngineSnapshotTest, RemoveOnlyChurnSharesEntryArray) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  (void)engine.add(map_of({{ReplicaId{1}, 0.6}, {ReplicaId{2}, 0.4}}));
  const std::size_t victim =
      engine.add(map_of({{ReplicaId{2}, 0.5}, {ReplicaId{3}, 0.5}}));
  (void)engine.add(map_of({{ReplicaId{3}, 1.0}}));

  const auto s1 = engine.freeze(1);
  engine.remove(victim);
  const auto s2 = engine.freeze(2);
  // A remove swap-removes its postings and orphans its entries: row
  // metadata and postings dirty, but the arena bytes are untouched —
  // the chunks are shared.
  EXPECT_NE(s2->rows_identity(), s1->rows_identity());
  EXPECT_NE(s2->postings_identity(), s1->postings_identity());
  EXPECT_EQ(s2->entries_identity(), s1->entries_identity());
  EXPECT_EQ(s2->live_size(), s1->live_size() - 1);

  // An add appends into the tail chunk every snapshot shares: rows and
  // postings dirty, the arena is still shared.
  (void)engine.add(map_of({{ReplicaId{4}, 1.0}}));
  const auto s3 = engine.freeze(3);
  EXPECT_NE(s3->rows_identity(), s2->rows_identity());
  EXPECT_EQ(s3->entries_identity(), s2->entries_identity());
  EXPECT_NE(s3->postings_identity(), s2->postings_identity());

  // Compaction repacks into a fresh arena; the held snapshots keep the
  // old chunks and still answer as frozen.
  const auto probe = map_of({{ReplicaId{2}, 0.5}, {ReplicaId{3}, 0.5}});
  const auto s1_scores = dense_scores(*s1, probe);
  engine.compact();
  const auto s4 = engine.freeze(4);
  EXPECT_NE(s4->entries_identity(), s3->entries_identity());
  EXPECT_EQ(dense_scores(*s1, probe), s1_scores);
  EXPECT_EQ(dense_scores(*s4, probe), dense_scores(engine, probe));
  ASSERT_NO_THROW(s4->check_invariants(&engine));
  ASSERT_NO_THROW(s1->check_invariants());
}

// --- freeze work: a republish copies what the writes since the previous
// --- freeze touched, nothing more ---

TEST(EngineSnapshotTest, FreezeCopiesOnlyTheListsAWriteTouched) {
  SimilarityEngine engine{SimilarityKind::kCosine};
  (void)engine.add(map_of({{ReplicaId{1}, 0.5}, {ReplicaId{2}, 0.5}}));
  const std::size_t row =
      engine.add(map_of({{ReplicaId{2}, 0.5}, {ReplicaId{3}, 0.5}}));
  const std::size_t other =
      engine.add(map_of({{ReplicaId{3}, 0.5}, {ReplicaId{4}, 0.5}}));
  (void)engine.add(map_of({{ReplicaId{5}, 1.0}}));
  (void)engine.freeze(1);
  const auto frozen = [&engine] {
    return engine.mutation_stats().postings_frozen;
  };

  // Update {2, 3} -> {3, 6}: lists 2 (row 0), 3 (row 2, new) and 6
  // (new) — 1 + 2 + 1 postings, the removed ones gone. Lists 1, 4 and 5
  // stay shared.
  std::uint64_t before = frozen();
  engine.update(row, map_of({{ReplicaId{3}, 0.5}, {ReplicaId{6}, 0.5}}));
  auto snap = engine.freeze(2);
  EXPECT_EQ(frozen() - before, 4u);
  ASSERT_NO_THROW(snap->check_invariants(&engine));

  // Remove {3, 4}: lists 3 (now 1 posting) and 4 (empty) only.
  before = frozen();
  engine.remove(other);
  snap = engine.freeze(3);
  EXPECT_EQ(frozen() - before, 1u);
  ASSERT_NO_THROW(snap->check_invariants(&engine));

  // Compaction repacks only the arena: the next freeze copies no
  // posting and shares the list table, while the rows point at fresh
  // chunks.
  before = frozen();
  engine.compact();
  EXPECT_EQ(engine.dead_entries(), 0u);
  const auto compacted = engine.freeze(4);
  EXPECT_EQ(frozen() - before, 0u);
  EXPECT_EQ(compacted->postings_identity(), snap->postings_identity());
  EXPECT_NE(compacted->entries_identity(), snap->entries_identity());
  ASSERT_NO_THROW(compacted->check_invariants(&engine));
  snap = compacted;

  // Nothing written: a re-freeze copies no posting.
  before = frozen();
  const auto again = engine.freeze(5);
  EXPECT_EQ(frozen() - before, 0u);
  EXPECT_EQ(again->postings_identity(), snap->postings_identity());
  EXPECT_EQ(engine.mutation_stats().repacks, 0u);
  ASSERT_NO_THROW(engine.check_invariants());
}

/// Every answer a corpus gives `queries` — dense scores, touched scores,
/// top-k and best match — plus every 8th row's own touched scores and
/// best match (reads of the row's arena bytes), flattened to bit
/// patterns in answer order, so equality means equal bits in equal
/// order.
template <typename Corpus>
std::vector<std::uint64_t> answer_bits(const Corpus& corpus,
                                       std::span<const RatioMap> queries) {
  std::vector<std::uint64_t> bits;
  const auto ranked = [&bits](const RankedCandidate& rc) {
    bits.push_back(rc.index);
    bits.push_back(std::bit_cast<std::uint64_t>(rc.similarity));
  };
  std::vector<RankedCandidate> touched;
  for (std::size_t row = 0; row < corpus.size(); row += 8) {
    corpus.touched_scores(corpus.row_view(row), touched);
    bits.push_back(touched.size());
    for (const RankedCandidate& rc : touched) ranked(rc);
    const auto best = corpus.best_match(corpus.row_view(row));
    bits.push_back(best.has_value() ? 1 : 0);
    if (best.has_value()) ranked(*best);
  }
  for (const RatioMap& q : queries) {
    for (const double score : dense_scores(corpus, q)) {
      bits.push_back(std::bit_cast<std::uint64_t>(score));
    }
    corpus.touched_scores(q, touched);
    bits.push_back(touched.size());
    for (const RankedCandidate& rc : touched) ranked(rc);
    const auto top = corpus.top_k(q, 5);
    bits.push_back(top.size());
    for (const RankedCandidate& rc : top) ranked(rc);
    const auto best = corpus.best_match(q);
    bits.push_back(best.has_value() ? 1 : 0);
    if (best.has_value()) ranked(*best);
  }
  return bits;
}

/// One seeded write against `engine` — add, update, remove, or (rarely)
/// an explicit compaction — drawing maps from a 96-replica id space.
void random_write(SimilarityEngine& engine, Rng& rng) {
  const auto live_row = [&]() -> std::optional<std::size_t> {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < engine.size(); ++i) {
      if (engine.alive(i)) live.push_back(i);
    }
    if (live.empty()) return std::nullopt;
    return live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  };
  const double action = rng.uniform(0.0, 1.0);
  if (action < 0.02) {
    engine.compact();
  } else if (action < 0.35) {
    (void)engine.add(random_corpus(rng, 1, 96)[0]);
  } else if (const auto row = live_row()) {
    if (action < 0.85) {
      engine.update(*row, random_corpus(rng, 1, 96)[0]);
    } else {
      engine.remove(*row);
    }
  }
}

struct HeldGeneration {
  std::shared_ptr<const EngineSnapshot> snap;
  std::vector<std::uint64_t> answers;  // the engine's, at the freeze
};

// The multi-generation contract: while the writer keeps appending into
// the arena chunks held snapshots share, compacts, clears and repacks,
// each of the 8 newest snapshots answers exactly as it did when frozen.
TEST_P(EngineSnapshotTest, HeldGenerationsAnswerAsFrozen) {
  const SimilarityKind kind = GetParam();
  Rng rng{9301 + static_cast<std::uint64_t>(kind)};
  SimilarityEngine engine{kind};
  const auto queries = random_corpus(rng, 6, 96);
  std::deque<HeldGeneration> held;
  std::uint64_t epoch = 0;
  std::uint64_t repacks = 0;
  std::uint64_t compactions = 0;
  const auto fold_stats = [&] {  // clear() restarts the engine's counters
    repacks += engine.mutation_stats().repacks;
    compactions += engine.mutation_stats().compactions;
  };
  const auto bulk_add = [&] {
    for (const RatioMap& map : random_corpus(rng, 120, 96)) {
      (void)engine.add(map);
    }
  };

  bulk_add();
  for (int step = 0; step < 700; ++step) {
    if (step == 350) {
      fold_stats();
      engine.clear(kind);
      bulk_add();
    } else {
      random_write(engine, rng);
    }
    ASSERT_NO_THROW(engine.check_invariants()) << "step " << step;
    if (rng.uniform(0.0, 1.0) < 0.5) {
      auto snap = engine.freeze(++epoch);
      ASSERT_NO_THROW(snap->check_invariants(&engine)) << "step " << step;
      ASSERT_NO_THROW(engine.check_invariants()) << "step " << step;
      held.push_back({snap, answer_bits(engine, queries)});
      ASSERT_EQ(answer_bits(*snap, queries), held.back().answers);
      if (held.size() > 8) held.pop_front();
    }
    for (const HeldGeneration& gen : held) {
      ASSERT_NO_THROW(gen.snap->check_invariants());
      ASSERT_EQ(answer_bits(*gen.snap, queries), gen.answers)
          << "epoch " << gen.snap->epoch() << " drifted at step " << step;
    }
  }
  fold_stats();
  EXPECT_GE(repacks, 1u) << "the run never repacked its frozen postings";
  EXPECT_GE(compactions, 1u) << "the run never compacted";
}

// The selection against its definition: touched_scores' positive rows
// that the keep predicate accepts, sorted by (score desc, tie order) and
// cut to k, bit for bit, with the same touched count. Every fourth row
// is duplicated and updates copy maps between rows, so scores tie
// exactly; the tie order reverses row order, and churn permutes the
// posting lists, so neither touch order nor row order can pass for it.
TEST_P(EngineSnapshotTest, SelectTouchedIsTheSortedCutOfTheTouchedRows) {
  const SimilarityKind kind = GetParam();
  Rng rng{9411 + static_cast<std::uint64_t>(kind)};
  const auto keep = [](std::uint32_t row) { return row % 3 != 0; };
  const auto reversed = [](std::uint32_t a, std::uint32_t b) { return a > b; };
  const auto kept_order = [](const RankedCandidate& a,
                             const RankedCandidate& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.index > b.index;
  };
  for (int trial = 0; trial < 4; ++trial) {
    auto corpus = random_corpus(rng, 90, 24);
    for (std::size_t i = 0; i < 90; i += 4) corpus.push_back(corpus[i]);
    SimilarityEngine engine{corpus, kind};
    for (int write = 0; write < 30; ++write) {
      const auto row = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1));
      if (!engine.alive(row)) continue;
      if (write % 5 == 4) {
        engine.remove(row);
      } else {
        engine.update(row, corpus[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(90) - 1))]);
      }
    }
    const auto snap = engine.freeze(1);
    const engine_detail::CorpusView views[] = {engine.view(), snap->view()};
    auto queries = random_corpus(rng, 4, 24);
    queries.push_back(corpus[0]);
    queries.push_back(corpus[8]);
    for (const RatioMap& query : queries) {
      std::vector<RankedCandidate> touched;
      engine.touched_scores(query, touched);
      std::vector<RankedCandidate> want;
      for (const RankedCandidate& c : touched) {
        if (c.similarity > 0.0 && keep(static_cast<std::uint32_t>(c.index))) {
          want.push_back(c);
        }
      }
      std::sort(want.begin(), want.end(), kept_order);
      for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{5}, touched.size(),
                                  touched.size() + 3}) {
        const std::size_t cut = std::min(k, want.size());
        for (const engine_detail::CorpusView& view : views) {
          SCOPED_TRACE(::testing::Message()
                       << "trial " << trial << " k=" << k
                       << (&view == views ? " engine" : " snapshot"));
          std::size_t count = 0;
          const auto got = engine_detail::select_touched(view, query, k, keep,
                                                         reversed, &count);
          EXPECT_EQ(count, touched.size());
          ASSERT_EQ(got.size(), cut);
          for (std::size_t i = 0; i < cut; ++i) {
            EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].similarity),
                      std::bit_cast<std::uint64_t>(want[i].similarity))
                << "rank " << i;
          }
        }
      }
    }
  }
}

// The same contract under real concurrency: two readers query held
// generations while the writer appends into the tail chunk they share,
// compacts and repacks. Meant for ThreadSanitizer as much as for the
// answer check.
TEST(EngineSnapshotTest, ReadersQueryHeldGenerationsWhileWriterAppends) {
  Rng rng{4242};
  SimilarityEngine engine{SimilarityKind::kCosine};
  const auto queries = random_corpus(rng, 4, 96);
  for (const RatioMap& map : random_corpus(rng, 120, 96)) {
    (void)engine.add(map);
  }

  std::mutex mu;
  std::deque<HeldGeneration> held;  // guarded by mu
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> mismatches{0};
  const auto reader = [&](std::uint64_t seed) {
    Rng pick{seed};
    while (!stop.load()) {
      HeldGeneration gen;
      {
        std::lock_guard<std::mutex> lock{mu};
        if (held.empty()) continue;
        gen = held[static_cast<std::size_t>(pick.uniform_int(
            0, static_cast<std::int64_t>(held.size()) - 1))];
      }
      // Reads every row's bytes, some in the chunk the writer appends to.
      try {
        gen.snap->check_invariants();
        if (answer_bits(*gen.snap, queries) != gen.answers) {
          mismatches.fetch_add(1);
        }
      } catch (const std::logic_error&) {
        mismatches.fetch_add(1);
      }
      checks.fetch_add(1);
    }
  };
  std::thread r1{reader, 1};
  std::thread r2{reader, 2};

  std::string broken;  // the writer's first failed check, if any
  for (int step = 0; step < 400 && broken.empty(); ++step) {
    random_write(engine, rng);
    if (step % 2 == 0) {
      HeldGeneration gen{engine.freeze(static_cast<std::uint64_t>(step)),
                         answer_bits(engine, queries)};
      try {
        gen.snap->check_invariants(&engine);
      } catch (const std::logic_error& e) {
        broken = e.what();
        break;
      }
      std::lock_guard<std::mutex> lock{mu};
      held.push_back(std::move(gen));
      if (held.size() > 8) held.pop_front();
    }
  }
  // Let the readers see the last generations before stopping them.
  const std::uint64_t seen = checks.load();
  while (broken.empty() && checks.load() < seen + 16) {
    std::this_thread::yield();
  }
  stop = true;
  r1.join();
  r2.join();

  ASSERT_EQ(broken, "");
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
  EXPECT_GE(engine.mutation_stats().repacks, 1u);
  EXPECT_GE(engine.mutation_stats().compactions, 1u);
  ASSERT_NO_THROW(engine.check_invariants());
}

}  // namespace
}  // namespace crp::core
