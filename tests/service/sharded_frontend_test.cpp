// Oracles for the sharded front-end (DESIGN.md §9): every query through
// ShardedFrontend must reproduce a single unsharded PositionService
// bit-for-bit — same rankings, same similarities (EXPECT_EQ on the
// doubles), same tiers — for any shard count, any metric, any pool
// size, through churn, tombstones and stale clients. Plus the sharded
// mechanics themselves: routing partition, epoch vectors, stats
// aggregation, gossip equivalence and concurrent serving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "service/gossip.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"
#include "service/wire.hpp"

namespace crp::service {
namespace {

/// A twin corpus's size and map shape: `nodes` members, each map with
/// min_entries..max_entries entries over `id_space` replica ids.
struct Shape {
  int nodes = 60;
  std::uint32_t id_space = 24;
  int min_entries = 1;
  int max_entries = 6;
};
/// CRP-like wide maps: 16 entries over 2,000 replica ids, so a client
/// shares a replica with only part of the corpus and an answer's tail
/// is often zero-score padding.
constexpr Shape kWide{300, 2000, 16, 16};

core::RatioMap random_map(Rng& rng, const Shape& shape = {}) {
  std::vector<core::RatioMap::Entry> entries;
  const int k =
      static_cast<int>(rng.uniform_int(shape.min_entries, shape.max_entries));
  for (int j = 0; j < k; ++j) {
    entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                             rng.uniform_int(0, shape.id_space - 1))},
                         rng.uniform(0.05, 1.0));
  }
  return core::RatioMap::from_ratios(entries);
}

PositionReport report_of(std::string id, core::RatioMap map, SimTime when) {
  PositionReport r;
  r.node_id = std::move(id);
  r.when = when;
  r.map = std::move(map);
  return r;
}

void expect_same_ranked(const std::vector<RankedNode>& got,
                        const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

void expect_same_tiered(const TieredAnswer& got, const TieredAnswer& want) {
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.reason, want.reason);
  expect_same_ranked(got.ranked, want.ranked);
}

/// Publishes the same randomized population — fresh, stale-usable and
/// beyond-stale reports, plus some removals — into both surfaces.
struct TwinCorpus {
  TwinCorpus(PositionService& svc, ShardedFrontend& fe, std::uint64_t seed,
             const Shape& shape = {}) {
    Rng rng{seed};
    const SimTime t0 = SimTime::epoch();
    for (int i = 0; i < shape.nodes; ++i) {
      const std::string id = "n-" + std::to_string(i);
      // Spread publish times over 9 h so at now_ = t0+7h the early nodes
      // are past the 6h staleness bound (stale tier when enabled).
      const SimTime when = t0 + Minutes(i * 540 / shape.nodes);
      const auto map = random_map(rng, shape);
      EXPECT_TRUE(svc.publish(report_of(id, map, when), when));
      EXPECT_TRUE(fe.publish(report_of(id, map, when), when));
      ids.push_back(id);
    }
    // Tombstones on both sides.
    for (int i = 0; i < shape.nodes; i += 17) {
      EXPECT_TRUE(svc.remove(ids[static_cast<std::size_t>(i)]));
      EXPECT_TRUE(fe.remove(ids[static_cast<std::size_t>(i)]));
    }
    clients = ids;
    clients.push_back("unknown");     // never published
    clients.push_back(ids[17]);       // duplicate
    clients.push_back(ids[0]);        // removed
    for (std::size_t i = 0; i < ids.size(); i += 5) {
      candidates.push_back(ids[i]);
    }
    candidates.push_back("unknown-candidate");
    query_maps.push_back(random_map(rng, shape));
    query_maps.push_back(random_map(rng, shape));
  }

  std::vector<std::string> ids;
  std::vector<std::string> clients;
  std::vector<std::string> candidates;
  std::vector<core::RatioMap> query_maps;
};

ServiceConfig oracle_config(core::SimilarityKind metric) {
  ServiceConfig cfg;
  cfg.metric = metric;
  cfg.stale_usable_bound = Hours(12);  // stale tier active
  return cfg;
}

/// Runs the frontend's writer-side checker, then every shard snapshot's
/// node-table check on a fresh View.
void expect_invariants(const ShardedFrontend& fe) {
  EXPECT_NO_THROW(fe.check_invariants());
  const auto view = fe.view();
  for (std::size_t s = 0; s < fe.shard_count(); ++s) {
    EXPECT_NO_THROW(view.shard(s).check_invariants()) << "shard " << s;
  }
}

/// The full-surface oracle: every read through the frontend must equal
/// the unsharded service bit for bit.
void expect_equivalent(PositionService& svc, ShardedFrontend& fe,
                       const TwinCorpus& corpus, SimTime now,
                       ThreadPool* pool) {
  EXPECT_EQ(fe.size(), svc.size());
  const auto view = fe.view();
  EXPECT_EQ(view.size(), fe.size());
  EXPECT_EQ(view.live_nodes(now), svc.live_nodes(now));
  for (const std::string& c : corpus.clients) {
    SCOPED_TRACE("client " + c);
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{100}}) {
      expect_same_ranked(view.closest_any(c, k, now, pool),
                         svc.closest_any(c, k, now));
      expect_same_ranked(view.closest(c, corpus.candidates, k, now),
                         svc.closest(c, corpus.candidates, k, now));
    }
    expect_same_tiered(view.closest_any_tiered(c, 4, now, pool),
                       svc.closest_any_tiered(c, 4, now));
    expect_same_tiered(view.closest_tiered(c, corpus.candidates, 4, now),
                       svc.closest_tiered(c, corpus.candidates, 4, now));
  }
  for (const auto& q : corpus.query_maps) {
    expect_same_ranked(view.top_k(q, 6, now, pool), svc.top_k(q, 6, now));
  }
  const auto got_any = view.closest_batch(corpus.clients, 5, now, pool);
  const auto want_any = svc.closest_batch(corpus.clients, 5, now);
  ASSERT_EQ(got_any.size(), want_any.size());
  for (std::size_t i = 0; i < got_any.size(); ++i) {
    SCOPED_TRACE("batch client " + corpus.clients[i]);
    expect_same_ranked(got_any[i], want_any[i]);
  }
  const auto got_cand =
      view.closest_batch(corpus.clients, corpus.candidates, 5, now, pool);
  const auto want_cand =
      svc.closest_batch(corpus.clients, corpus.candidates, 5, now);
  ASSERT_EQ(got_cand.size(), want_cand.size());
  for (std::size_t i = 0; i < got_cand.size(); ++i) {
    SCOPED_TRACE("batch candidate client " + corpus.clients[i]);
    expect_same_ranked(got_cand[i], want_cand[i]);
  }
}

void run_oracle(std::size_t shards, core::SimilarityKind metric,
                std::size_t workers, const Shape& shape = {}) {
  SCOPED_TRACE(::testing::Message()
               << "shards=" << shards << " metric=" << static_cast<int>(metric)
               << " workers=" << workers << " nodes=" << shape.nodes);
  const ServiceConfig cfg = oracle_config(metric);
  PositionService svc{cfg};
  ShardedFrontendConfig fc;
  fc.shards = shards;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  TwinCorpus corpus{svc, fe, 7700 + shards, shape};
  ThreadPool pool{workers};
  const SimTime now = SimTime::epoch() + Hours(7);
  expect_equivalent(svc, fe, corpus, now, &pool);

  // Churn: interleaved publishes, removes and an expire sweep, applied
  // identically; the surfaces must stay equivalent afterwards.
  Rng rng{4242};
  SimTime t = now;
  for (int round = 0; round < 30; ++round) {
    t = t + Minutes(1);
    const auto& id = corpus.ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.ids.size()) - 1))];
    const auto map = random_map(rng, shape);
    EXPECT_EQ(fe.publish(report_of(id, map, t), t),
              svc.publish(report_of(id, map, t), t));
    expect_invariants(fe);
    if (round % 7 == 3) {
      const auto& victim = corpus.ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(corpus.ids.size()) - 1))];
      EXPECT_EQ(fe.remove(victim), svc.remove(victim));
      expect_invariants(fe);
    }
  }
  EXPECT_EQ(fe.expire(t), svc.expire(t));
  expect_invariants(fe);
  expect_equivalent(svc, fe, corpus, t, &pool);
}

TEST(ShardedOracle, BitIdenticalAcrossShardCounts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{8}}) {
    run_oracle(shards, core::SimilarityKind::kCosine, 2);
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    run_oracle(shards, core::SimilarityKind::kCosine, 2, kWide);
  }
}

TEST(ShardedOracle, BitIdenticalAcrossMetrics) {
  run_oracle(3, core::SimilarityKind::kJaccard, 2);
  run_oracle(3, core::SimilarityKind::kWeightedOverlap, 2);
}

TEST(ShardedOracle, BitIdenticalAcrossPoolSizes) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}}) {
    run_oracle(4, core::SimilarityKind::kCosine, workers);
  }
}

void expect_refused_no_candidates(const TieredAnswer& answer) {
  EXPECT_EQ(answer.tier, AnswerTier::kRefused);
  EXPECT_EQ(answer.reason, DegradedReason::kNoUsableCandidates);
  EXPECT_TRUE(answer.ranked.empty());
}

void expect_empty_rows(const std::vector<std::vector<RankedNode>>& rows,
                       std::size_t clients) {
  EXPECT_EQ(rows.size(), clients);
  for (const auto& row : rows) EXPECT_TRUE(row.empty());
}

// k = 0 keeps nothing on every surface: the plain and batch forms
// answer empty, and the tiered and gathered forms refuse with
// kNoUsableCandidates and count the refusal. The rankers' bar must not
// read a heap that keeps nothing (the clients share replicas with many
// rows, so every read offers touched rows to a k = 0 heap).
TEST(ShardedOracle, ZeroKAnswersEmptyOnEverySurface) {
  const ServiceConfig cfg = oracle_config(core::SimilarityKind::kCosine);
  const SimTime now = SimTime::epoch() + Hours(7);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    PositionService svc{cfg};
    ShardedFrontendConfig fc;
    fc.shards = shards;
    fc.service = cfg;
    ShardedFrontend fe{fc};
    const TwinCorpus corpus{svc, fe, 9300 + shards};
    const auto snap = svc.publish_snapshot(now);
    const auto view = fe.view();
    ThreadPool pool{2};
    const auto& cands = corpus.candidates;
    const std::uint64_t svc_refused = svc.stats().refused_queries;
    const std::uint64_t fe_refused = fe.stats().refused_queries;
    // A fresh client and a stale-usable one (reported 6h33m earlier).
    const std::vector<std::string> clients = {corpus.ids[59], corpus.ids[3]};
    for (const std::string& c : clients) {
      SCOPED_TRACE("client " + c);
      EXPECT_TRUE(svc.closest_any(c, 0, now).empty());
      EXPECT_TRUE(svc.closest(c, cands, 0, now).empty());
      EXPECT_TRUE(snap->closest_any(c, 0, now).empty());
      EXPECT_TRUE(snap->closest(c, cands, 0, now).empty());
      EXPECT_TRUE(view.closest_any(c, 0, now, &pool).empty());
      EXPECT_TRUE(view.closest(c, cands, 0, now).empty());
      expect_refused_no_candidates(svc.closest_any_tiered(c, 0, now));
      expect_refused_no_candidates(svc.closest_tiered(c, cands, 0, now));
      expect_refused_no_candidates(snap->closest_any_tiered(c, 0, now));
      expect_refused_no_candidates(snap->closest_tiered(c, cands, 0, now));
      expect_refused_no_candidates(
          view.closest_any_tiered(c, 0, now, &pool));
      expect_refused_no_candidates(
          view.closest_tiered(c, cands, 0, now));
      expect_refused_no_candidates(
          view.closest_any_gathered(c, 0, now, &pool).tiered);
      expect_refused_no_candidates(
          view.closest_gathered(c, cands, 0, now).tiered);
    }
    // The snapshot bumps the service's own counters: two tiered forms
    // on each, per client; the view's four forms count on the frontend.
    EXPECT_EQ(svc.stats().refused_queries, svc_refused + 4 * clients.size());
    EXPECT_EQ(fe.stats().refused_queries, fe_refused + 4 * clients.size());
    for (const auto& q : corpus.query_maps) {
      EXPECT_TRUE(svc.top_k(q, 0, now).empty());
      EXPECT_TRUE(snap->top_k(q, 0, now).empty());
      EXPECT_TRUE(view.top_k(q, 0, now, &pool).empty());
    }
    const std::size_t n = corpus.clients.size();
    expect_empty_rows(svc.closest_batch(corpus.clients, 0, now), n);
    expect_empty_rows(svc.closest_batch(corpus.clients, cands, 0, now), n);
    expect_empty_rows(snap->closest_batch(corpus.clients, 0, now, &pool), n);
    expect_empty_rows(
        snap->closest_batch(corpus.clients, cands, 0, now, &pool), n);
    expect_empty_rows(view.closest_batch(corpus.clients, 0, now, &pool), n);
    expect_empty_rows(
        view.closest_batch(corpus.clients, cands, 0, now, &pool), n);
  }
}

TEST(ShardedOracle, PublishBatchMatchesUnshardedWithMalformedBytes) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    PositionService svc;
    ShardedFrontendConfig fc;
    fc.shards = shards;
    ShardedFrontend fe{fc};
    Rng rng{31337};
    const SimTime t0 = SimTime::epoch();
    std::vector<std::string> batch;
    for (int i = 0; i < 25; ++i) {
      const auto bytes =
          encode(report_of("b-" + std::to_string(i), random_map(rng), t0));
      ASSERT_TRUE(bytes.has_value());
      batch.push_back(*bytes);
    }
    batch.push_back("");                    // too short to peek
    batch.push_back("garbage-not-a-report");  // bad magic
    batch.push_back(batch[3]);              // duplicate: same timestamp, rejected
    ThreadPool pool{2};
    EXPECT_EQ(fe.publish_batch(batch, t0, &pool),
              svc.publish_batch(batch, t0, &pool));
    EXPECT_EQ(fe.view().live_nodes(t0), svc.live_nodes(t0));
    const auto fs = fe.stats();
    const auto ss = svc.stats();
    EXPECT_EQ(fs.reports_accepted, ss.reports_accepted);
    EXPECT_EQ(ss.routing_rejected, 0u);  // unsharded: nothing routes
    if (shards == 1) {
      // The 1-shard fast path delegates the whole batch without
      // peeking, so rejects land in the shard, as unsharded.
      EXPECT_EQ(fs.routing_rejected, 0u);
      EXPECT_EQ(fs.reports_rejected, ss.reports_rejected);
    } else {
      // Routed path: unpeekable frames are a routing failure, counted
      // above the shards and delivered nowhere — the total drop count
      // still matches the unsharded service's.
      EXPECT_EQ(fs.routing_rejected, 2u);
      EXPECT_EQ(fs.reports_rejected + fs.routing_rejected,
                ss.reports_rejected);
    }
  }
}

TEST(ShardedOracle, RoutingRejectedSplitsFromDecodeRejected) {
  // The peek contract is one-sided: peek failing implies decode rejects,
  // but a frame can peek fine and still fail decode (corrupt body). The
  // former is a routing_rejected at the front-end; the latter must reach
  // its owning shard and count there as an ordinary reports_rejected.
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{919};
  const SimTime t0 = SimTime::epoch();
  const auto good = encode(report_of("peekable-node", random_map(rng), t0));
  ASSERT_TRUE(good.has_value());
  std::string truncated = good->substr(0, good->size() - 3);
  ASSERT_TRUE(peek_node_id(truncated).has_value());
  ASSERT_FALSE(decode(truncated).has_value());
  std::vector<std::string> batch{"", "xx", truncated};
  ThreadPool pool{2};
  EXPECT_EQ(fe.publish_batch(batch, t0, &pool), 0u);
  auto fs = fe.stats();
  EXPECT_EQ(fs.routing_rejected, 2u);  // "" and "xx" never peeked
  EXPECT_EQ(fs.reports_rejected, 1u);  // truncated died in its shard
  EXPECT_EQ(fe.shard(fe.shard_of("peekable-node")).stats().reports_rejected,
            1u);
  // publish_encoded follows the same split.
  EXPECT_FALSE(fe.publish_encoded("zz", t0));
  EXPECT_FALSE(fe.publish_encoded(truncated, t0));
  fs = fe.stats();
  EXPECT_EQ(fs.routing_rejected, 3u);
  EXPECT_EQ(fs.reports_rejected, 2u);
}

TEST(ShardedFrontendTest, RoutingPartitionsNodesByStableHash) {
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fe{fc};
  Rng rng{55};
  const SimTime t0 = SimTime::epoch();
  for (int i = 0; i < 80; ++i) {
    const std::string id = "r-" + std::to_string(i);
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), t0), t0));
  }
  std::size_t total = 0;
  for (std::size_t s = 0; s < fe.shard_count(); ++s) {
    for (const auto& id : fe.shard(s).live_nodes(t0)) {
      EXPECT_EQ(fe.shard_of(id), s) << id << " on wrong shard";
    }
    total += fe.shard(s).size();
  }
  EXPECT_EQ(total, fe.size());
  EXPECT_EQ(fe.size(), 80u);
  // shard_index is pure: same id, same count, same answer everywhere.
  EXPECT_EQ(ShardedFrontend::shard_index("r-7", 4), fe.shard_of("r-7"));
  EXPECT_EQ(ShardedFrontend::shard_index("r-7", 1), 0u);
}

TEST(ShardedFrontendTest, ShardCountClampedToOne) {
  ShardedFrontendConfig fc;
  fc.shards = 0;
  ShardedFrontend fe{fc};
  EXPECT_EQ(fe.shard_count(), 1u);
}

TEST(ShardedFrontendTest, ForcesSnapshotsOnWhenLeftDisabled) {
  ShardedFrontend fe;  // default config: snapshots disabled by the user
  EXPECT_TRUE(fe.config().service.snapshots.enabled);
  EXPECT_EQ(fe.config().service.snapshots.max_epoch_lag, 1u);
  // Every completed write is immediately visible to the next query.
  Rng rng{66};
  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(fe.publish(report_of("a", random_map(rng), t0), t0));
  ASSERT_TRUE(fe.publish(report_of("b", random_map(rng), t0), t0));
  EXPECT_EQ(fe.view().live_nodes(t0).size(), 2u);
  // An explicitly enabled config keeps the caller's pacing.
  ShardedFrontendConfig paced;
  paced.service.snapshots.enabled = true;
  paced.service.snapshots.max_epoch_lag = 64;
  ShardedFrontend fe2{paced};
  EXPECT_EQ(fe2.config().service.snapshots.max_epoch_lag, 64u);
}

TEST(ShardedFrontendTest, EpochVectorTracksPerShardWrites) {
  ShardedFrontendConfig fc;
  fc.shards = 3;
  ShardedFrontend fe{fc};
  Rng rng{77};
  const SimTime t0 = SimTime::epoch();
  const auto empty_view = fe.view();
  ASSERT_EQ(empty_view.epochs().size(), 3u);
  EXPECT_EQ(fe.epoch_lag(empty_view), 0u);

  for (int i = 0; i < 12; ++i) {
    const std::string id = "e-" + std::to_string(i);
    ASSERT_TRUE(fe.publish(report_of(id, random_map(rng), t0), t0));
  }
  // The pinned pre-write view now lags; its lag equals the max number
  // of writes any one shard absorbed.
  std::uint64_t max_shard_epoch = 0;
  const auto epochs = fe.write_epochs();
  for (const std::uint64_t e : epochs) {
    max_shard_epoch = std::max(max_shard_epoch, e);
  }
  EXPECT_EQ(fe.epoch_lag(empty_view), max_shard_epoch);
  // A fresh view catches up: its epoch vector is the writer's.
  const auto fresh = fe.view();
  EXPECT_EQ(fe.epoch_lag(fresh), 0u);
  ASSERT_EQ(fresh.epochs().size(), epochs.size());
  for (std::size_t s = 0; s < epochs.size(); ++s) {
    EXPECT_EQ(fresh.epochs()[s], epochs[s]);
  }
  // Pinned views keep answering at their capture even as writes land.
  const auto before = fresh.closest_any("e-3", 3, t0);
  ASSERT_TRUE(fe.remove("e-3"));
  EXPECT_GE(fe.epoch_lag(fresh), 1u);
  expect_same_ranked(fresh.closest_any("e-3", 3, t0), before);
  EXPECT_TRUE(fe.view().closest_any("e-3", 3, t0).empty());
}

TEST(ShardedFrontendTest, StatsAggregateMatchesUnshardedAttribution) {
  const ServiceConfig cfg = oracle_config(core::SimilarityKind::kCosine);
  PositionService svc{cfg};
  ShardedFrontendConfig fc;
  fc.shards = 4;
  fc.service = cfg;
  ShardedFrontend fe{fc};
  TwinCorpus corpus{svc, fe, 808};
  const SimTime now = SimTime::epoch() + Hours(7);
  for (const std::string& c : corpus.clients) {
    (void)svc.closest_any(c, 3, now);
    (void)fe.view().closest_any(c, 3, now);
    (void)svc.closest_any_tiered(c, 3, now);
    (void)fe.view().closest_any_tiered(c, 3, now);
  }
  (void)svc.closest_batch(corpus.clients, 3, now);
  (void)fe.view().closest_batch(corpus.clients, 3, now);
  // A candidate-list read ranks one corpus of its usable candidates and
  // counts one similarity read, and the rows it touched, on the client's
  // shard: unlike the scattered reads above, its work counts are the
  // unsharded ones.
  const ServiceStats svc_before = svc.stats();
  const ServiceStats fe_before = fe.stats();
  for (const std::string& c : corpus.clients) {
    (void)svc.closest(c, corpus.candidates, 3, now);
    (void)fe.view().closest(c, corpus.candidates, 3, now);
    (void)svc.closest_tiered(c, corpus.candidates, 3, now);
    (void)fe.view().closest_tiered(c, corpus.candidates, 3, now);
  }
  (void)svc.closest_batch(corpus.clients, corpus.candidates, 3, now);
  (void)fe.view().closest_batch(corpus.clients, corpus.candidates, 3, now);
  const auto ss = svc.stats();
  const auto fs = fe.stats();
  EXPECT_GT(ss.similarity_queries, svc_before.similarity_queries);
  EXPECT_EQ(fs.similarity_queries - fe_before.similarity_queries,
            ss.similarity_queries - svc_before.similarity_queries);
  EXPECT_EQ(fs.maps_touched - fe_before.maps_touched,
            ss.maps_touched - svc_before.maps_touched);
  // Per-query attribution aggregates to exactly the unsharded counts;
  // the scattered reads' similarity_queries/maps_touched are per-shard
  // work (N partials per query) and deliberately not compared.
  EXPECT_EQ(fs.queries_served, ss.queries_served);
  EXPECT_EQ(fs.fresh_answers, ss.fresh_answers);
  EXPECT_EQ(fs.stale_answers, ss.stale_answers);
  EXPECT_EQ(fs.refused_queries, ss.refused_queries);
  EXPECT_EQ(fs.reports_accepted, ss.reports_accepted);
  EXPECT_EQ(fs.reports_rejected, ss.reports_rejected);
  // shard_stats sums to stats().
  const auto per_shard = fe.shard_stats();
  ASSERT_EQ(per_shard.size(), 4u);
  const auto resum = aggregate_stats(per_shard);
  EXPECT_EQ(resum.queries_served, fs.queries_served);
  EXPECT_EQ(resum.similarity_queries, fs.similarity_queries);
  EXPECT_EQ(resum.maps_touched, fs.maps_touched);
}

// A pinned View's answers borrow ids from its own snapshots and the
// caller's candidates until the one merge builds them. Removing every
// node and churning until each shard's engine compacts must leave the
// View answering with the same ids and bits (ASan checks the borrows).
TEST(ShardedFrontendTest, PinnedViewUnchangedByLaterWrites) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ShardedFrontendConfig fc;
    fc.shards = shards;
    ShardedFrontend fe{fc};
    Rng rng{5150 + shards};
    const SimTime t0 = SimTime::epoch();
    std::vector<std::string> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back("p-" + std::to_string(i));
      ASSERT_TRUE(fe.publish(report_of(ids.back(), random_map(rng), t0), t0));
    }
    const std::vector<std::string> candidates(ids.begin(), ids.begin() + 25);
    const core::RatioMap query = random_map(rng);
    ThreadPool pool{2};
    const auto view = fe.view();
    const auto capture = [&] {
      std::vector<std::vector<RankedNode>> answers;
      for (const std::string& c : {ids[0], ids[7], ids[31]}) {
        answers.push_back(view.closest_any_gathered(c, 5, t0, &pool)
                              .tiered.ranked);
        answers.push_back(view.closest_gathered(c, candidates, 5, t0)
                              .tiered.ranked);
      }
      for (auto& row : view.closest_batch(ids, 6, t0, &pool)) {
        answers.push_back(std::move(row));
      }
      for (auto& row : view.closest_batch(ids, candidates, 6, t0, &pool)) {
        answers.push_back(std::move(row));
      }
      answers.push_back(view.top_k(query, 8, t0, &pool));
      return answers;
    };
    const auto before = capture();

    for (const std::string& id : ids) ASSERT_TRUE(fe.remove(id));
    const std::vector<ServiceStats> start = fe.shard_stats();
    const auto all_compacted = [&] {
      const std::vector<ServiceStats> now_stats = fe.shard_stats();
      for (std::size_t s = 0; s < shards; ++s) {
        if (now_stats[s].compactions == start[s].compactions) return false;
      }
      return true;
    };
    // Re-reporting a few new ids orphans each old row segment, until
    // the orphans pass the engine's compaction threshold on every shard.
    SimTime t = t0;
    for (int round = 0; !all_compacted(); ++round) {
      ASSERT_LT(round, 20000) << "a shard never compacted";
      t = t + Seconds(1);
      const std::string id = "w-" + std::to_string(round % 16);
      (void)fe.publish(report_of(id, random_map(rng), t), t);
    }

    const auto after = capture();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "answer " << i);
      expect_same_ranked(after[i], before[i]);
    }
  }
}

TEST(ShardedFrontendTest, InspectionRoutesToOwningShard) {
  ShardedFrontendConfig fc;
  fc.shards = 3;
  ShardedFrontend fe{fc};
  Rng rng{99};
  const SimTime t0 = SimTime::epoch();
  const auto map = random_map(rng);
  ASSERT_TRUE(fe.publish(report_of("probe", map, t0), t0));
  const auto got_map = fe.map_of("probe");
  ASSERT_TRUE(got_map.has_value());
  const auto report = fe.report_of("probe");
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->node_id, "probe");
  EXPECT_EQ(report->when, t0);
  EXPECT_FALSE(fe.map_of("absent").has_value());
  EXPECT_FALSE(fe.remove("absent"));
  // The owning shard holds it; the others don't.
  const std::size_t owner = fe.shard_of("probe");
  for (std::size_t s = 0; s < fe.shard_count(); ++s) {
    EXPECT_EQ(fe.shard(s).map_of("probe").has_value(), s == owner);
  }
}

TEST(ShardedGossip, ShardedStoresMatchUnshardedTrajectory) {
  const auto run_mesh = [](std::size_t store_shards) {
    GossipConfig cfg;
    cfg.store_shards = store_shards;
    GossipMesh mesh{cfg};
    for (int i = 0; i < 10; ++i) mesh.add_node("g-" + std::to_string(i));
    mesh.fully_connect();
    Rng rng{2024};
    const SimTime t0 = SimTime::epoch();
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          mesh.publish_local("g-" + std::to_string(i), random_map(rng), t0));
    }
    std::vector<double> coverages;
    SimTime t = t0;
    for (int round = 0; round < 6; ++round) {
      t = t + Minutes(5);
      (void)mesh.round(t);
      coverages.push_back(mesh.coverage(t));
    }
    return std::pair{coverages, mesh.stats()};
  };
  const auto [unsharded_cov, unsharded_stats] = run_mesh(1);
  const auto [sharded_cov, sharded_stats] = run_mesh(4);
  // live_nodes is bit-identical across store types, so both meshes draw
  // the same rng sequence and transmit the same reports — coverage
  // matches round for round.
  ASSERT_EQ(sharded_cov.size(), unsharded_cov.size());
  for (std::size_t i = 0; i < sharded_cov.size(); ++i) {
    EXPECT_EQ(sharded_cov[i], unsharded_cov[i]) << "round " << i;
  }
  EXPECT_EQ(sharded_stats.reports_sent, unsharded_stats.reports_sent);
  EXPECT_EQ(sharded_stats.publish_rejected, unsharded_stats.publish_rejected);
  EXPECT_EQ(sharded_stats.bytes, unsharded_stats.bytes);
  // Cross-shard landings only exist with sharded stores.
  EXPECT_EQ(unsharded_stats.cross_shard_misses, 0u);
  EXPECT_GT(sharded_stats.cross_shard_misses, 0u);
  EXPECT_GT(unsharded_cov.back(), 0.9);
}

TEST(ShardedGossip, StoreAccessorsDispatchByMeshKind) {
  GossipConfig sharded_cfg;
  sharded_cfg.store_shards = 2;
  GossipMesh sharded{sharded_cfg};
  sharded.add_node("a");
  EXPECT_TRUE(sharded.sharded());
  EXPECT_THROW((void)sharded.store("a"), std::logic_error);
  EXPECT_THROW((void)sharded.store_snapshot("a"), std::logic_error);
  EXPECT_EQ(sharded.sharded_store("a").shard_count(), 2u);
  EXPECT_EQ(sharded.store_view("a").shard_count(), 2u);
  EXPECT_THROW((void)sharded.sharded_store("nope"), std::invalid_argument);

  GossipMesh plain;
  plain.add_node("a");
  EXPECT_FALSE(plain.sharded());
  EXPECT_THROW((void)plain.sharded_store("a"), std::logic_error);
  EXPECT_THROW((void)plain.store_view("a"), std::logic_error);
  (void)plain.store("a");  // no throw
}

TEST(ShardedGossip, LocalQueriesThroughShardedStoreMatchUnsharded) {
  const auto build = [](std::size_t store_shards) {
    GossipConfig cfg;
    cfg.store_shards = store_shards;
    auto mesh = std::make_unique<GossipMesh>(cfg);
    for (int i = 0; i < 8; ++i) mesh->add_node("q-" + std::to_string(i));
    mesh->fully_connect();
    Rng rng{4711};
    const SimTime t0 = SimTime::epoch();
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(
          mesh->publish_local("q-" + std::to_string(i), random_map(rng), t0));
    }
    for (int round = 0; round < 5; ++round) {
      (void)mesh->round(t0 + Minutes(5 * (round + 1)));
    }
    return mesh;
  };
  const auto plain = build(1);
  const auto sharded = build(3);
  const SimTime now = SimTime::epoch() + Minutes(30);
  for (int i = 0; i < 8; ++i) {
    const std::string id = "q-" + std::to_string(i);
    SCOPED_TRACE(id);
    expect_same_ranked(sharded->store_view(id).closest_any(id, 3, now),
                       plain->store(id).closest_any(id, 3, now));
  }
}

TEST(ShardedConcurrent, ViewsStayCoherentUnderWriterChurn) {
  ShardedFrontendConfig fc;
  fc.shards = 3;
  ShardedFrontend fe{fc};
  Rng rng{3535};
  const SimTime t0 = SimTime::epoch();
  std::vector<std::string> ids;
  std::vector<core::RatioMap> maps;
  for (int i = 0; i < 30; ++i) {
    ids.push_back("c-" + std::to_string(i));
    maps.push_back(random_map(rng));
    ASSERT_TRUE(fe.publish(report_of(ids.back(), maps.back(), t0), t0));
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> coherent{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng{static_cast<std::uint64_t>(900 + r)};
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = fe.view();
        const auto& client = ids[static_cast<std::size_t>(
            reader_rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) -
                                          1))];
        // A pinned view is immutable: the same query answers
        // identically no matter what the writer is doing.
        const auto first = view.closest_any(client, 4, t0);
        const auto second = view.closest_any(client, 4, t0);
        if (first.size() != second.size()) {
          coherent.store(false, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t i = 0; i < first.size(); ++i) {
          if (first[i].node_id != second[i].node_id ||
              first[i].similarity != second[i].similarity) {
            coherent.store(false, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  Rng churn{1717};
  SimTime t = t0;
  for (int round = 0; round < 300; ++round) {
    t = t + Seconds(1);
    const auto i = static_cast<std::size_t>(
        churn.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    // A drifted map each time, so every write moves a row the readers'
    // pinned snapshots still borrow from.
    maps[i] = random_map(churn);
    (void)fe.publish(report_of(ids[i], maps[i], t), t);
    if (round % 11 == 0) {
      (void)fe.remove(ids[static_cast<std::size_t>(churn.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1))]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_TRUE(coherent.load());
  // Quiesced: a fresh view equals the writer's epoch vector.
  EXPECT_EQ(fe.epoch_lag(fe.view()), 0u);
}

}  // namespace
}  // namespace crp::service
