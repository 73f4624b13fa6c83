// Oracle for the serving read path: every read through the sharded
// front-end, the unsharded service and its snapshot must equal a naive
// ranking that scores each usable node with per-pair core::similarity()
// and sorts by (similarity desc, id asc). The corpus is sparse — most
// maps draw from a wide replica space — so many clients share a replica
// with fewer than k others and an any-shaped answer's tail is zero-score
// padding, and k runs past the corpus size. Candidate lists mix live,
// stale-usable, expired, removed and unknown ids, duplicates and the
// client itself. Every member is republished several times before the
// reads, so the engines' posting lists are permuted by swap-removal and
// their arenas compacted; the writer's tables are checked after every
// write. A second corpus, published once in a fixed order, puts exact
// ties at the k-th place and unusable nodes above every live one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity.hpp"
#include "service/serving_snapshot.hpp"
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

/// Reports stamped evenly over 800 minutes (10 minutes apart for the
/// full corpus): at kNow the oldest are past the stale tier, the middle
/// ones in the stale-usable band, the newest live — for as few as 3
/// nodes too.
constexpr SimTime kNow = SimTime::epoch() + Hours(14);
constexpr int kOracleNodes = 80;

std::vector<Member> sparse_corpus(std::uint64_t seed, int nodes) {
  Rng rng{seed};
  std::vector<Member> members;
  for (int i = 0; i < nodes; ++i) {
    std::string id = "node-";
    id += std::to_string(i);
    members.push_back(Member{std::move(id), sparse_map(rng),
                             SimTime::epoch() + Minutes(800 * i / nodes)});
  }
  for (std::size_t i = 5; i < members.size(); i += 13) {
    members[i].removed = true;
  }
  return members;
}

/// Six groups on disjoint replicas. In each, three pairs of live nodes
/// carry identical maps at three score levels below the group's client,
/// each pair published larger id first, so its ids sort against its slot
/// order and its first-touch order; an expired node and two stale-usable
/// ones carry the client's own map and outscore every live neighbour.
/// Other groups' nodes score 0, so a k past the positive count pads.
std::vector<Member> tie_corpus() {
  std::vector<Member> members;
  const auto add = [&members](std::string id, std::uint32_t base,
                              std::uint32_t shared, Duration at) {
    std::vector<core::RatioMap::Entry> entries;
    for (std::uint32_t j = 0; j < shared; ++j) {
      entries.emplace_back(ReplicaId{base + j}, 1.0);
    }
    members.push_back(Member{std::move(id),
                             core::RatioMap::from_ratios(entries),
                             SimTime::epoch() + at});
  };
  for (std::uint32_t g = 0; g < 6; ++g) {
    const std::string group = "tie" + std::to_string(g) + "-";
    const std::uint32_t base = 1000 + 8 * g;
    add(group + "expired", base, 4, Hours(1));
    add(group + "stale-y", base, 4, Hours(5));
    add(group + "stale-z", base, 4, Hours(6));
    for (const std::uint32_t shared : {3u, 2u, 1u}) {
      const std::string pair = group + "p" + std::to_string(shared) + "-";
      add(pair + "b", base, shared, Hours(10));
      add(pair + "a", base, shared, Hours(10));
    }
    add(group + "client", base, 4, Hours(12));
  }
  return members;
}

bool live(const Member& m) { return kNow - m.when <= kStaleness; }
bool stale_usable(const Member& m) {
  return !live(m) && kNow - m.when <= kStaleUsable;
}

bool usable(const Member& m, bool stale_band) {
  return !m.removed && (live(m) || (stale_band && stale_usable(m)));
}

/// The reference: per-pair similarity() over `pool` (every usable member
/// in it but `self`, each entry as often as it is listed),
/// stable-sorted by (similarity desc, id asc), cut to k.
std::vector<RankedNode> naive_rank(core::SimilarityKind metric,
                                   const core::RatioMap& query,
                                   const std::vector<const Member*>& pool,
                                   const std::string& self, bool stale_band,
                                   std::size_t k) {
  std::vector<RankedNode> ranked;
  for (const Member* m : pool) {
    if (m->id == self || !usable(*m, stale_band)) continue;
    ranked.push_back(
        RankedNode{m->id, core::similarity(metric, query, m->map)});
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

/// What a tiered query must answer for `m` over `pool`: refused when
/// removed, expired or when nothing is usable, else the naive ranking of
/// its usable band.
void expect_tiered(const TieredAnswer& got, core::SimilarityKind metric,
                   const Member& m, const std::vector<const Member*>& pool,
                   std::size_t k) {
  if (m.removed) {
    EXPECT_EQ(got.reason, DegradedReason::kUnknownClient);
    EXPECT_TRUE(got.ranked.empty());
    return;
  }
  if (!live(m) && !stale_usable(m)) {
    EXPECT_EQ(got.reason, DegradedReason::kClientExpired);
    EXPECT_TRUE(got.ranked.empty());
    return;
  }
  const auto want = naive_rank(metric, m.map, pool, m.id, !live(m), k);
  expect_ranked(got.ranked, want);
  if (want.empty()) {
    EXPECT_EQ(got.reason, DegradedReason::kNoUsableCandidates);
  } else {
    EXPECT_EQ(got.tier, live(m) ? AnswerTier::kFresh : AnswerTier::kStale);
  }
}

/// What a plain query must answer for `m` over `pool`: the naive live
/// ranking for a live client, else nothing.
std::vector<RankedNode> plain_answer(core::SimilarityKind metric,
                                     const Member& m,
                                     const std::vector<const Member*>& pool,
                                     std::size_t k) {
  if (m.removed || !live(m)) return {};
  return naive_rank(metric, m.map, pool, m.id, false, k);
}

constexpr std::size_t kKs[] = {1, 3, 7, 200};

/// The oracle's corpus: the members with their final maps, every member
/// as a reference pool, and candidate lists as the caller's ids plus the
/// members those name; the ks its reads run at and their top_k queries.
struct Fixture {
  core::SimilarityKind metric = core::SimilarityKind::kCosine;
  std::vector<Member> members;
  int churn_rounds = 8;                 // fresh maps for every member
  std::span<const std::size_t> ks = kKs;
  std::vector<core::RatioMap> queries;  // top_k queries besides a random one
  std::vector<const Member*> everyone;
  std::vector<std::string> clients;  // every member, plus one unknown
  std::vector<std::vector<std::string>> lists;
  std::vector<std::vector<const Member*>> list_pools;
};

/// Publishes `f.members` through `publish(member)`, churns every map
/// `f.churn_rounds` times at its original time — each update removes
/// the old map's postings (moving other rows' postings around) and
/// orphans its arena entries; eight rounds of the 80-node sparse corpus
/// orphan ~320 per shard at 4 shards, past the compaction floor — then
/// removes the members marked removed through `remove`. `check` runs
/// after every write.
template <typename Publish, typename Remove, typename Check>
void build_fixture(Fixture& f, std::uint64_t seed, const Publish& publish,
                   const Remove& remove, const Check& check) {
  for (const Member& m : f.members) {
    ASSERT_TRUE(publish(m)) << m.id;
    check(m.id);
  }
  Rng churn{4100 + seed};
  for (int round = 0; round < f.churn_rounds; ++round) {
    for (Member& m : f.members) {
      m.map = sparse_map(churn);
      ASSERT_TRUE(publish(m)) << m.id;
      check(m.id);
    }
  }
  for (const Member& m : f.members) {
    if (m.removed) {
      ASSERT_TRUE(remove(m.id)) << m.id;
      check(m.id);
    }
  }
  std::unordered_map<std::string, const Member*> by_id;
  for (const Member& m : f.members) {
    f.everyone.push_back(&m);
    f.clients.push_back(m.id);
    by_id.emplace(m.id, &m);
  }
  f.clients.push_back("never-published");
  // An empty list; a random mix with duplicates (every band, removed ids
  // among them) plus unknown ids; and every member, so each client finds
  // itself, with a few listed twice.
  Rng pick{5100 + seed};
  f.lists.emplace_back();
  f.lists.emplace_back();
  for (int i = 0; i < 30; ++i) {
    f.lists.back().push_back(
        f.members[pick.uniform_int(0, f.members.size() - 1)].id);
  }
  f.lists.back().push_back("never-published");
  f.lists.back().push_back("");
  f.lists.push_back(f.clients);
  for (std::size_t i = 0; i < f.members.size(); i += 9) {
    f.lists.back().push_back(f.members[i].id);
  }
  for (const auto& list : f.lists) {
    f.list_pools.emplace_back();
    for (const std::string& id : list) {
      const auto it = by_id.find(id);
      if (it != by_id.end()) f.list_pools.back().push_back(it->second);
    }
  }
}

/// Every read of one surface (a View, a service or a snapshot, each
/// reading through TableReads on `pool`) against the naive ranking: the
/// any-shaped reads (`candidates` false) or the candidate-list reads.
template <typename Owner>
void check_reads(const TableReads<Owner>& reads, const Fixture& f,
                 bool candidates, ThreadPool* pool) {
  Rng rng{77};
  for (const std::size_t k : f.ks) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    if (!candidates) {
      for (const Member& m : f.members) {
        SCOPED_TRACE("client " + m.id);
        expect_tiered(reads.closest_any_tiered(m.id, k, kNow, pool),
                      f.metric, m, f.everyone, k);
        expect_ranked(reads.closest_any(m.id, k, kNow, pool),
                      plain_answer(f.metric, m, f.everyone, k));
      }
      const auto query = sparse_map(rng);
      expect_ranked(reads.top_k(query, k, kNow, pool),
                    naive_rank(f.metric, query, f.everyone, "", false, k));
      for (const core::RatioMap& q : f.queries) {
        expect_ranked(reads.top_k(q, k, kNow, pool),
                      naive_rank(f.metric, q, f.everyone, "", false, k));
      }
      const auto batch = reads.closest_batch(f.clients, k, kNow, pool);
      ASSERT_EQ(batch.size(), f.clients.size());
      for (std::size_t i = 0; i < f.members.size(); ++i) {
        SCOPED_TRACE("batch client " + f.members[i].id);
        expect_ranked(batch[i],
                      plain_answer(f.metric, f.members[i], f.everyone, k));
      }
      EXPECT_TRUE(batch.back().empty());
      continue;
    }
    for (std::size_t l = 0; l < f.lists.size(); ++l) {
      SCOPED_TRACE(::testing::Message() << "candidate list " << l);
      const std::vector<std::string>& list = f.lists[l];
      const std::vector<const Member*>& pool_l = f.list_pools[l];
      for (const Member& m : f.members) {
        SCOPED_TRACE("client " + m.id);
        expect_tiered(reads.closest_tiered(m.id, list, k, kNow, pool),
                      f.metric, m, pool_l, k);
        expect_ranked(reads.closest(m.id, list, k, kNow, pool),
                      plain_answer(f.metric, m, pool_l, k));
      }
      const auto batch = reads.closest_batch(f.clients, list, k, kNow, pool);
      ASSERT_EQ(batch.size(), f.clients.size());
      for (std::size_t i = 0; i < f.members.size(); ++i) {
        SCOPED_TRACE("batch client " + f.members[i].id);
        expect_ranked(batch[i],
                      plain_answer(f.metric, f.members[i], pool_l, k));
      }
      EXPECT_TRUE(batch.back().empty());
    }
  }
}

ServiceConfig oracle_config(core::SimilarityKind metric) {
  ServiceConfig config;
  config.metric = metric;
  config.staleness_bound = kStaleness;
  config.stale_usable_bound = kStaleUsable;
  return config;
}

PositionReport report_of(const Member& m) {
  PositionReport r;
  r.node_id = m.id;
  r.when = m.when;
  r.map = m.map;
  return r;
}

/// The fixture of `seed`'s sparse corpus of `nodes` members.
Fixture sparse_fixture(core::SimilarityKind metric, std::uint64_t seed,
                       int nodes = kOracleNodes) {
  Fixture f;
  f.metric = metric;
  f.members = sparse_corpus(3100 + seed, nodes);
  return f;
}

/// The sharded front-end over the fixture's corpus; every write is
/// checked on its owning shard, whose membership epoch must never go
/// back.
void run_sharded(Fixture f, std::size_t shards, bool candidates) {
  const core::SimilarityKind metric = f.metric;
  const int nodes = static_cast<int>(f.members.size());
  ShardedFrontendConfig fc;
  fc.shards = shards;
  fc.service = oracle_config(metric);
  ShardedFrontend fe{fc};
  std::vector<std::uint64_t> epochs(shards, 0);
  build_fixture(
      f, shards,
      [&fe](const Member& m) { return fe.publish(report_of(m), m.when); },
      [&fe](const std::string& id) { return fe.remove(id); },
      [&](const std::string& id) {
        const std::size_t s = fe.shard_of(id);
        ASSERT_NO_THROW(fe.shard(s).check_invariants()) << id;
        ASSERT_GE(fe.shard(s).membership_epoch(), epochs[s]) << id;
        epochs[s] = fe.shard(s).membership_epoch();
      });
  if (::testing::Test::HasFatalFailure()) return;
  // Only the full sparse corpus's churn orphans past every shard's
  // compaction floor.
  if (nodes == kOracleNodes && f.churn_rounds > 0) {
    EXPECT_GE(fe.stats().compactions, shards);
  }
  const auto view = fe.view();
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE(::testing::Message()
                 << "metric=" << static_cast<int>(metric) << " shards="
                 << shards << " nodes=" << nodes << " workers=" << workers);
    ThreadPool pool{workers};
    check_reads(view, f, candidates, &pool);
    // An all-healthy gathered read is its tiered twin.
    for (const std::size_t k : f.ks) {
      for (const Member& m : f.members) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " client " << m.id);
        if (!candidates) {
          expect_tiered(view.closest_any_gathered(m.id, k, kNow, &pool).tiered,
                        metric, m, f.everyone, k);
          continue;
        }
        for (std::size_t l = 0; l < f.lists.size(); ++l) {
          expect_tiered(
              view.closest_gathered(m.id, f.lists[l], k, kNow, &pool).tiered,
              metric, m, f.list_pools[l], k);
        }
      }
    }
  }
}

constexpr core::SimilarityKind kMetrics[] = {
    core::SimilarityKind::kCosine, core::SimilarityKind::kJaccard,
    core::SimilarityKind::kWeightedOverlap};
constexpr std::size_t kShardCounts[] = {1, 2, 4};

TEST(TouchedReadOracle, AnyShapedReadsMatchNaivePerPairSimilarity) {
  for (const core::SimilarityKind metric : kMetrics) {
    for (const std::size_t shards : kShardCounts) {
      run_sharded(sparse_fixture(metric, shards), shards,
                  /*candidates=*/false);
    }
  }
}

TEST(TouchedReadOracle, CandidateListReadsMatchNaivePerPairSimilarity) {
  for (const core::SimilarityKind metric : kMetrics) {
    for (const std::size_t shards : kShardCounts) {
      run_sharded(sparse_fixture(metric, shards), shards,
                  /*candidates=*/true);
    }
  }
}

// More shards than nodes: most shards are empty, so a fresh pool
// worker's first read can land on an empty shard with an empty kernel
// scratch, and every k in kKs but 1 runs past the usable count. Every
// read shape (plain, tiered, gathered, top_k, both batch forms) is
// checked against the naive ranking.
TEST(TouchedReadOracle, MoreShardsThanNodesMatchNaivePerPairSimilarity) {
  for (const core::SimilarityKind metric : kMetrics) {
    for (const std::size_t shards : {std::size_t{8}, std::size_t{16}}) {
      for (const int nodes : {3, 5}) {
        for (const bool candidates : {false, true}) {
          run_sharded(sparse_fixture(metric, shards, nodes), shards,
                      candidates);
        }
      }
    }
  }
}

// What a selection that ranks by score first must still get right: the
// k-th and (k+1)-th neighbours tie exactly under ids that sort against
// their slot and first-touch order, so the tie falls to the id; expired
// and stale-usable nodes outscore every live neighbour, so the keep
// predicate, not the score, must drop them; and a k past the positive
// count pads past kept slots. Every read shape, at 1 and 4 shards.
TEST(TouchedReadOracle, TiesAtTheKthPlaceAndUnusableTopScorersMatchNaive) {
  static constexpr std::size_t kTieKs[] = {1, 2, 3, 5, 7, 200};
  for (const core::SimilarityKind metric : kMetrics) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const bool candidates : {false, true}) {
        Fixture f;
        f.metric = metric;
        f.members = tie_corpus();
        f.churn_rounds = 0;  // keeps the publication order in every list
        f.ks = kTieKs;
        f.queries = {f.members[9].map, f.members[19].map};  // two clients'
        run_sharded(std::move(f), shards, candidates);
      }
    }
  }
}

// The unsharded service reads its live tables and its snapshot the
// frozen ones; both go through the same core as the View, and both are
// checked against the naive ranking directly.
TEST(TouchedReadOracle, ServiceAndSnapshotMatchNaivePerPairSimilarity) {
  for (const core::SimilarityKind metric : kMetrics) {
    PositionService service{oracle_config(metric)};
    std::uint64_t epoch = 0;
    Fixture f = sparse_fixture(metric, 0);
    build_fixture(
        f, 0,
        [&service](const Member& m) {
          return service.publish(report_of(m), m.when);
        },
        [&service](const std::string& id) { return service.remove(id); },
        [&](const std::string& id) {
          ASSERT_NO_THROW(service.check_invariants()) << id;
          ASSERT_GE(service.membership_epoch(), epoch) << id;
          epoch = service.membership_epoch();
        });
    if (HasFatalFailure()) return;
    const auto snapshot = service.publish_snapshot(kNow);
    ASSERT_NO_THROW(snapshot->check_invariants());
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE(::testing::Message()
                   << "metric=" << static_cast<int>(metric)
                   << " workers=" << workers);
      ThreadPool pool{workers};
      for (const bool candidates : {false, true}) {
        check_reads(service, f, candidates, &pool);
        check_reads(*snapshot, f, candidates, &pool);
      }
    }
  }
}

}  // namespace
}  // namespace crp::service
