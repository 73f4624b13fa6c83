#include "core/history.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <optional>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "dns/resolver.hpp"

namespace crp::core {
namespace {

std::vector<ReplicaId> replicas(std::initializer_list<std::uint32_t> ids) {
  std::vector<ReplicaId> out;
  for (std::uint32_t id : ids) out.emplace_back(id);
  return out;
}

/// The ratio map of probes [first, num_probes()) by a plain recount:
/// every occurrence counts, and each ratio is its count over the total
/// (integer totals are exact in a double, so this is bit for bit what
/// `RatioMap::from_counts` computes).
std::vector<RatioMap::Entry> recount(const RedirectionHistory& h,
                                     std::size_t first) {
  std::map<ReplicaId, std::uint64_t> counts;
  std::uint64_t total = 0;
  for (std::size_t i = first; i < h.num_probes(); ++i) {
    for (ReplicaId id : h.probe(i).replicas) {
      ++counts[id];
      ++total;
    }
  }
  std::vector<RatioMap::Entry> out;
  for (const auto& [id, count] : counts) {
    out.emplace_back(id, static_cast<double>(count) /
                             static_cast<double>(total));
  }
  return out;
}

void expect_same_map(const RatioMap& got,
                     const std::vector<RatioMap::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.entries()[i].first, want[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.entries()[i].second),
              std::bit_cast<std::uint64_t>(want[i].second));
  }
}

/// Every whole-history map (the running-count path) and every shorter
/// window (the scan) against the recount.
void expect_matches_recount(const RedirectionHistory& h) {
  const std::size_t n = h.num_probes();
  const auto all = recount(h, 0);
  for (std::size_t window : {kAllProbes, n, n + 3}) {
    SCOPED_TRACE(window);
    expect_same_map(h.ratio_map(window), all);
  }
  expect_same_map(h.ratio_map_strided(1), all);
  EXPECT_EQ(h.distinct_replicas(), all.size());
  for (std::size_t window : {1, 2, 5}) {
    if (window >= n) continue;
    SCOPED_TRACE(window);
    expect_same_map(h.ratio_map(window), recount(h, n - window));
  }
}

TEST(RedirectionHistory, StartsEmpty) {
  RedirectionHistory h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.num_probes(), 0u);
  EXPECT_TRUE(h.ratio_map().empty());
  EXPECT_EQ(h.distinct_replicas(), 0u);
}

TEST(RedirectionHistory, RecordsProbesInOrder) {
  RedirectionHistory h;
  h.record(SimTime{100}, replicas({1, 2}));
  h.record(SimTime{200}, replicas({2, 3}));
  EXPECT_EQ(h.num_probes(), 2u);
  EXPECT_EQ(h.probe(0).when, SimTime{100});
  EXPECT_EQ(h.probe(1).when, SimTime{200});
  EXPECT_EQ(h.first_probe_time(), SimTime{100});
  EXPECT_EQ(h.last_probe_time(), SimTime{200});
}

TEST(RedirectionHistory, RatioMapOverAllProbes) {
  RedirectionHistory h;
  // Replica 1 appears 3 times, replica 2 once.
  h.record(SimTime{1}, replicas({1}));
  h.record(SimTime{2}, replicas({1}));
  h.record(SimTime{3}, replicas({1, 2}));
  const RatioMap m = h.ratio_map();
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{1}), 0.75);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{2}), 0.25);
}

TEST(RedirectionHistory, WindowLimitsToRecentProbes) {
  RedirectionHistory h;
  h.record(SimTime{1}, replicas({1}));
  h.record(SimTime{2}, replicas({1}));
  h.record(SimTime{3}, replicas({2}));
  h.record(SimTime{4}, replicas({2}));
  // Window of 2: only replicas {2} appear.
  const RatioMap recent = h.ratio_map(2);
  EXPECT_DOUBLE_EQ(recent.ratio_of(ReplicaId{2}), 1.0);
  EXPECT_FALSE(recent.contains(ReplicaId{1}));
  // Window larger than history behaves like kAllProbes.
  EXPECT_EQ(h.ratio_map(100).size(), h.ratio_map().size());
}

TEST(RedirectionHistory, WindowZeroMeansAll) {
  RedirectionHistory h;
  h.record(SimTime{1}, replicas({1}));
  h.record(SimTime{2}, replicas({2}));
  EXPECT_EQ(h.ratio_map(kAllProbes).size(), 2u);
}

TEST(RedirectionHistory, BoundedCapacityDropsOldest) {
  RedirectionHistory h{3};
  for (std::uint32_t i = 0; i < 5; ++i) {
    h.record(SimTime{static_cast<std::int64_t>(i)}, replicas({i}));
  }
  EXPECT_EQ(h.num_probes(), 3u);
  // Oldest two probes (replicas 0, 1) evicted.
  const RatioMap m = h.ratio_map();
  EXPECT_FALSE(m.contains(ReplicaId{0}));
  EXPECT_FALSE(m.contains(ReplicaId{1}));
  EXPECT_TRUE(m.contains(ReplicaId{4}));
}

TEST(RedirectionHistory, UnboundedWhenMaxZero) {
  RedirectionHistory h{0};
  for (std::uint32_t i = 0; i < 100; ++i) {
    h.record(SimTime{static_cast<std::int64_t>(i)}, replicas({i % 7}));
  }
  EXPECT_EQ(h.num_probes(), 100u);
  EXPECT_EQ(h.distinct_replicas(), 7u);
}

TEST(RedirectionHistory, ClearResets) {
  RedirectionHistory h;
  h.record(SimTime{1}, replicas({1}));
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.ratio_map().empty());
}

TEST(RedirectionHistory, MultiReplicaProbesCountEachReplica) {
  RedirectionHistory h;
  h.record(SimTime{1}, replicas({1, 2}));
  const RatioMap m = h.ratio_map();
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{1}), 0.5);
  EXPECT_DOUBLE_EQ(m.ratio_of(ReplicaId{2}), 0.5);
}

TEST(RedirectionHistory, StridedRatioMapSkipsProbes) {
  RedirectionHistory h;
  // Probes: replicas 0,1,2,3,4,5 in order.
  for (std::uint32_t i = 0; i < 6; ++i) {
    h.record(SimTime{static_cast<std::int64_t>(i)}, replicas({i}));
  }
  // Stride 2, anchored on the newest probe -> probes 5, 3, 1.
  const RatioMap strided = h.ratio_map_strided(2);
  EXPECT_EQ(strided.size(), 3u);
  EXPECT_TRUE(strided.contains(ReplicaId{5}));
  EXPECT_TRUE(strided.contains(ReplicaId{3}));
  EXPECT_TRUE(strided.contains(ReplicaId{1}));
  EXPECT_FALSE(strided.contains(ReplicaId{0}));
  // Stride 0/1 behave like the plain map.
  EXPECT_EQ(h.ratio_map_strided(1), h.ratio_map());
  EXPECT_EQ(h.ratio_map_strided(0), h.ratio_map());
  // Stride larger than the history keeps only the newest probe,
  // matching ratio_map(1).
  EXPECT_EQ(h.ratio_map_strided(100), h.ratio_map(1));
}

TEST(RedirectionHistory, StridedRatioMapStableUnderBoundedChurn) {
  // A bounded history evicting its oldest probes must not shift the
  // strided subsequence: anchoring on the newest probe keeps the parity
  // fixed, so the Fig. 8 interval curves don't churn as old probes roll
  // off. The oldest-anchored form flipped parity on every eviction.
  RedirectionHistory h{/*max_probes=*/4};
  for (std::uint32_t i = 0; i < 4; ++i) {
    h.record(SimTime{static_cast<std::int64_t>(i)}, replicas({i}));
  }
  // Holds probes 0..3; stride 2 anchored on 3 -> {3, 1}.
  const RatioMap before = h.ratio_map_strided(2);
  EXPECT_TRUE(before.contains(ReplicaId{3}));
  EXPECT_TRUE(before.contains(ReplicaId{1}));

  // Two more probes evict 0 and 1; deque now holds 2..5. The sampled
  // subsequence slides with the window ({5, 3}) — every sampled probe
  // is still stride-separated and includes the newest.
  h.record(SimTime{4}, replicas({4}));
  h.record(SimTime{5}, replicas({5}));
  const RatioMap after = h.ratio_map_strided(2);
  EXPECT_EQ(after.size(), 2u);
  EXPECT_TRUE(after.contains(ReplicaId{5}));
  EXPECT_TRUE(after.contains(ReplicaId{3}));
  EXPECT_FALSE(after.contains(ReplicaId{4}));

  // An unbounded history fed the same trace agrees on the suffix the
  // bounded one retained: eviction alone never changes which of the
  // retained probes are sampled.
  RedirectionHistory full;
  for (std::uint32_t i = 0; i < 6; ++i) {
    full.record(SimTime{static_cast<std::int64_t>(i)}, replicas({i}));
  }
  const RatioMap unbounded = full.ratio_map_strided(2);
  EXPECT_TRUE(unbounded.contains(ReplicaId{5}));
  EXPECT_TRUE(unbounded.contains(ReplicaId{3}));
}

TEST(RedirectionHistory, RunningCountsMatchRecount) {
  // Seeded random probes of 1-4 replicas drawn from a small id range, so
  // probes repeat replicas and often name one twice (`observe` passes its
  // input through unchecked). They go both to a history directly, which
  // is cleared midway, and through `CrpNode::observe`.
  dns::ZoneRegistry zones;
  dns::RecursiveResolver resolver{HostId{1}, zones, nullptr};
  for (std::size_t max_probes : {0, 1, 7, 144}) {
    SCOPED_TRACE(max_probes);
    Rng rng{hash_combine({stable_hash("history-recount"), max_probes})};
    RedirectionHistory h{max_probes};
    CrpNodeConfig config;
    config.max_history = max_probes;
    CrpNode node{resolver,
                 {dns::Name::parse("img.customer0.example")},
                 [](Ipv4) { return std::optional<ReplicaId>{}; }, config};
    constexpr int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        h.clear();
        EXPECT_EQ(h.distinct_replicas(), 0u);
        expect_same_map(h.ratio_map(), {});
      }
      std::vector<ReplicaId> probe(
          static_cast<std::size_t>(rng.uniform_int(1, 4)));
      for (ReplicaId& id : probe) {
        id = ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 11))};
      }
      const SimTime when{static_cast<std::int64_t>(step)};
      h.record(when, probe);
      node.observe(when, probe);
      expect_matches_recount(h);
      expect_matches_recount(node.history());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace crp::core
