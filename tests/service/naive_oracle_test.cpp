// Oracle for the touched-only read path: every any-shaped read through
// the sharded front-end must equal a naive ranking that scores each
// usable node with per-pair core::similarity() and sorts by
// (similarity desc, id asc). The corpus is sparse — most maps draw from
// a wide replica space — so many clients share a replica with fewer
// than k others and the answer's tail is zero-score padding, and k runs
// past the corpus size. Every member is republished several times
// before the reads, so the engines' posting lists are permuted by
// swap-removal and their arenas compacted.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::service {
namespace {

constexpr Duration kStaleness = Hours(6);
constexpr Duration kStaleUsable = Hours(12);

struct Member {
  std::string id;
  core::RatioMap map;
  SimTime when;
  bool removed = false;
};

/// Half the maps draw from a narrow shared pool (many positive
/// neighbours), half from a wide one (few or none).
core::RatioMap sparse_map(Rng& rng) {
  const bool narrow = rng.uniform(0.0, 1.0) < 0.5;
  const std::uint32_t lo = narrow ? 0 : 8;
  const std::uint32_t span = narrow ? 8 : 400;
  std::vector<core::RatioMap::Entry> entries;
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  for (int j = 0; j < n; ++j) {
    entries.emplace_back(
        ReplicaId{lo + static_cast<std::uint32_t>(rng.uniform_int(0, span - 1))},
        rng.uniform(0.05, 1.0));
  }
  return core::RatioMap::from_ratios(entries);
}

/// Reports stamped 10 minutes apart: at kNow the oldest are past the
/// stale tier, the middle ones in the stale-usable band, the newest live.
constexpr SimTime kNow = SimTime::epoch() + Hours(14);

std::vector<Member> sparse_corpus(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Member> members;
  for (int i = 0; i < 80; ++i) {
    std::string id = "node-";
    id += std::to_string(i);
    members.push_back(Member{std::move(id), sparse_map(rng),
                             SimTime::epoch() + Minutes(10 * i)});
  }
  for (std::size_t i = 5; i < members.size(); i += 13) {
    members[i].removed = true;
  }
  return members;
}

bool live(const Member& m) { return kNow - m.when <= kStaleness; }
bool stale_usable(const Member& m) {
  return !live(m) && kNow - m.when <= kStaleUsable;
}

/// The reference: per-pair similarity() over every usable member but
/// `self`, stable-sorted by (similarity desc, id asc), cut to k.
std::vector<RankedNode> naive_rank(core::SimilarityKind metric,
                                   const core::RatioMap& query,
                                   const std::vector<Member>& members,
                                   const std::string& self, bool stale_band,
                                   std::size_t k) {
  std::vector<RankedNode> ranked;
  for (const Member& m : members) {
    if (m.removed || m.id == self) continue;
    if (!live(m) && !(stale_band && stale_usable(m))) continue;
    ranked.push_back(
        RankedNode{m.id, core::similarity(metric, query, m.map)});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedNode& a, const RankedNode& b) {
                     if (a.similarity != b.similarity) {
                       return a.similarity > b.similarity;
                     }
                     return a.node_id < b.node_id;
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void expect_ranked(const std::vector<RankedNode>& got,
                   const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

/// What a tiered query must answer for `m`: refused when expired or
/// when nothing is usable, else the naive ranking of its usable band.
void expect_tiered(const TieredAnswer& got, core::SimilarityKind metric,
                   const Member& m, const std::vector<Member>& members,
                   std::size_t k) {
  if (!live(m) && !stale_usable(m)) {
    EXPECT_EQ(got.reason, DegradedReason::kClientExpired);
    EXPECT_TRUE(got.ranked.empty());
    return;
  }
  const auto want =
      naive_rank(metric, m.map, members, m.id, !live(m), k);
  expect_ranked(got.ranked, want);
  if (want.empty()) {
    EXPECT_EQ(got.reason, DegradedReason::kNoUsableCandidates);
  } else {
    EXPECT_EQ(got.tier, live(m) ? AnswerTier::kFresh : AnswerTier::kStale);
  }
}

void run_oracle(core::SimilarityKind metric, std::size_t shards,
                std::size_t workers) {
  SCOPED_TRACE(::testing::Message()
               << "metric=" << static_cast<int>(metric)
               << " shards=" << shards << " workers=" << workers);
  ShardedFrontendConfig fc;
  fc.shards = shards;
  fc.service.metric = metric;
  fc.service.staleness_bound = kStaleness;
  fc.service.stale_usable_bound = kStaleUsable;
  ShardedFrontend fe{fc};
  std::vector<Member> members = sparse_corpus(3100 + shards);
  const auto publish = [&fe](const Member& m) {
    PositionReport r;
    r.node_id = m.id;
    r.when = m.when;
    r.map = m.map;
    return fe.publish(std::move(r), m.when);
  };
  for (const Member& m : members) ASSERT_TRUE(publish(m));
  // Eight updates per member at its original time: each removes the
  // old map's postings (moving other rows' postings around) and orphans
  // its arena entries, ~320 per shard at 4 shards, past the compaction
  // floor. The reference ranks each member's last map.
  Rng churn{4100 + shards};
  for (int round = 0; round < 8; ++round) {
    for (Member& m : members) {
      m.map = sparse_map(churn);
      ASSERT_TRUE(publish(m));
    }
  }
  EXPECT_GE(fe.stats().compactions, shards);
  for (const Member& m : members) {
    if (m.removed) {
      ASSERT_TRUE(fe.remove(m.id));
    }
  }
  ThreadPool pool{workers};
  const auto view = fe.view();

  std::vector<std::string> clients;
  for (const Member& m : members) clients.push_back(m.id);
  clients.push_back("never-published");

  Rng rng{77};
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{200}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    for (const Member& m : members) {
      SCOPED_TRACE("client " + m.id);
      const auto gathered = view.closest_any_gathered(m.id, k, kNow, &pool);
      const auto tiered = view.closest_any_tiered(m.id, k, kNow, &pool);
      if (m.removed) {
        EXPECT_EQ(gathered.tiered.reason, DegradedReason::kUnknownClient);
        EXPECT_EQ(tiered.reason, DegradedReason::kUnknownClient);
        continue;
      }
      expect_tiered(gathered.tiered, metric, m, members, k);
      expect_tiered(tiered, metric, m, members, k);
    }

    const auto query = sparse_map(rng);
    expect_ranked(view.top_k(query, k, kNow, &pool),
                  naive_rank(metric, query, members, "", false, k));

    const auto batch = view.closest_batch(clients, k, kNow, &pool);
    ASSERT_EQ(batch.size(), clients.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Member& m = members[i];
      SCOPED_TRACE("batch client " + m.id);
      if (m.removed || !live(m)) {
        EXPECT_TRUE(batch[i].empty());
        continue;
      }
      expect_ranked(batch[i],
                    naive_rank(metric, m.map, members, m.id, false, k));
    }
    EXPECT_TRUE(batch.back().empty());
  }
}

TEST(TouchedReadOracle, AnyShapedReadsMatchNaivePerPairSimilarity) {
  for (const core::SimilarityKind metric :
       {core::SimilarityKind::kCosine, core::SimilarityKind::kJaccard,
        core::SimilarityKind::kWeightedOverlap}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
        run_oracle(metric, shards, workers);
      }
    }
  }
}

}  // namespace
}  // namespace crp::service
