// Equivalence of the parallel probing campaign with the sequential
// event-scheduler campaign (DESIGN.md §6): for every redirection policy
// and every pool size — including the 0-thread inline pool — the two
// paths must produce byte-for-byte identical results: ratio maps,
// per-resolver cache counters, and CDN-side query counts.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/thread_pool.hpp"
#include "eval/world.hpp"

namespace crp::eval {
namespace {

WorldConfig small_config(PolicyKind kind, std::uint64_t seed = 21) {
  WorldConfig config;
  config.seed = seed;
  config.num_candidates = 10;
  config.num_dns_servers = 18;
  config.cdn.target_replicas = 100;
  config.policy_kind = kind;
  return config;
}

struct CampaignDigest {
  struct PerNode {
    core::RatioMap ratio_map;
    std::size_t num_probes = 0;
    std::size_t failed_lookups = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t queries_sent = 0;
  };
  std::vector<PerNode> nodes;
  std::size_t cdn_queries = 0;
  std::size_t rounds = 0;
};

CampaignDigest run_campaign(PolicyKind kind, std::uint64_t seed,
                            ThreadPool* pool, bool sequential) {
  World world{small_config(kind, seed)};
  const SimTime start = SimTime::epoch();
  const SimTime end = start + Hours(4);
  CampaignDigest digest;
  digest.rounds = sequential
                      ? world.run_probing_sequential(start, end, Minutes(30))
                      : world.run_probing_parallel(start, end, Minutes(30),
                                                   pool);
  for (HostId h : world.participants()) {
    const core::CrpNode& node = world.crp_node(h);
    const dns::RecursiveResolver& resolver = world.resolver(h);
    digest.nodes.push_back({node.ratio_map(), node.history().num_probes(),
                            node.failed_lookups(), resolver.cache_hits(),
                            resolver.cache_misses(),
                            resolver.queries_sent()});
  }
  digest.cdn_queries = world.cdn_queries_served();
  return digest;
}

void expect_identical(const CampaignDigest& a, const CampaignDigest& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.cdn_queries, b.cdn_queries);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE("participant index " + std::to_string(i));
    EXPECT_EQ(a.nodes[i].ratio_map, b.nodes[i].ratio_map);
    EXPECT_EQ(a.nodes[i].num_probes, b.nodes[i].num_probes);
    EXPECT_EQ(a.nodes[i].failed_lookups, b.nodes[i].failed_lookups);
    EXPECT_EQ(a.nodes[i].cache_hits, b.nodes[i].cache_hits);
    EXPECT_EQ(a.nodes[i].cache_misses, b.nodes[i].cache_misses);
    EXPECT_EQ(a.nodes[i].queries_sent, b.nodes[i].queries_sent);
  }
}

class CampaignEquivalence : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(CampaignEquivalence, ParallelMatchesSequential) {
  const PolicyKind kind = GetParam();
  const CampaignDigest sequential =
      run_campaign(kind, 21, nullptr, /*sequential=*/true);

  ThreadPool workers{4};
  const CampaignDigest parallel =
      run_campaign(kind, 21, &workers, /*sequential=*/false);
  expect_identical(sequential, parallel);

  // A 0-thread pool runs everything inline on the caller; same contract.
  ThreadPool inline_pool{0};
  const CampaignDigest inlined =
      run_campaign(kind, 21, &inline_pool, /*sequential=*/false);
  expect_identical(sequential, inlined);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CampaignEquivalence,
    ::testing::Values(PolicyKind::kLatencyDriven, PolicyKind::kGeoStatic,
                      PolicyKind::kRandom, PolicyKind::kSticky),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
      switch (info.param) {
        case PolicyKind::kLatencyDriven: return "LatencyDriven";
        case PolicyKind::kGeoStatic: return "GeoStatic";
        case PolicyKind::kRandom: return "Random";
        case PolicyKind::kSticky: return "Sticky";
      }
      return "Unknown";
    });

TEST(CampaignStatsTest, FilledByParallelRun) {
  World world{small_config(PolicyKind::kLatencyDriven, 22)};
  ThreadPool workers{2};
  const std::size_t rounds = world.run_probing_parallel(
      SimTime::epoch(), SimTime::epoch() + Hours(2), Minutes(30), &workers);
  const CampaignStats& stats = world.campaign_stats();
  EXPECT_EQ(stats.rounds, rounds);
  EXPECT_EQ(stats.participants, world.participants().size());
  EXPECT_GT(stats.probes_issued, 0u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GT(stats.cdn_queries, 0u);
  EXPECT_GT(stats.resolver_cache_hits + stats.resolver_cache_misses, 0u);
  EXPECT_GE(stats.resolver_hit_rate(), 0.0);
  EXPECT_LE(stats.resolver_hit_rate(), 1.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.probes_per_second(), 0.0);
  // The campaign exercises the latency oracle heavily; with the pair
  // cache on (default) repeated pairs must hit.
  EXPECT_GT(stats.oracle_pair_hits, 0u);
  EXPECT_GT(stats.oracle_pair_hit_rate(), 0.0);
}

// A probe's customers share one estimate per nearby candidate, and a
// select skips the candidates whose estimate floor shows they cannot reach
// its rotation pool, so a probe costs fewer estimates than the union of
// its customers' served candidates, and never more than the candidate
// pool. It still costs at least min(rotation_pool, union): a select
// skips nothing before a pool's worth is ranked.
TEST(CampaignStatsTest, EstimatesAtMostOneCandidatePoolPerProbe) {
  World world{small_config(PolicyKind::kLatencyDriven, 24)};
  ASSERT_EQ(world.catalog().size(), 2u);
  ThreadPool workers{4};
  (void)world.run_probing_parallel(SimTime::epoch(),
                                   SimTime::epoch() + Hours(2), Minutes(30),
                                   &workers);
  const CampaignStats& stats = world.campaign_stats();
  ASSERT_GT(stats.probes_issued, 0u);
  EXPECT_GT(stats.cdn_estimates, 0u);
  EXPECT_LE(stats.cdn_estimates,
            stats.probes_issued * world.config().policy.candidate_pool);

  auto& policy = dynamic_cast<cdn::LatencyDrivenPolicy&>(world.policy());
  const std::size_t rotation_pool = world.config().policy.rotation_pool;
  std::size_t union_total = 0;
  std::size_t pool_total = 0;
  for (HostId h : world.participants()) {
    std::size_t served = 0;
    for (const auto& candidate : policy.candidates(h)) {
      for (const cdn::Customer& customer : world.catalog().customers()) {
        if (customer.serves(candidate.id)) {
          ++served;
          break;
        }
      }
    }
    const std::size_t probes = world.crp_node(h).history().num_probes();
    union_total += served * probes;
    pool_total += std::min(rotation_pool, served) * probes;
  }
  EXPECT_GE(stats.cdn_estimates, pool_total);
  EXPECT_LT(stats.cdn_estimates, union_total);
}

TEST(CampaignStatsTest, EstimateCountIndependentOfPoolSize) {
  const auto estimates = [](ThreadPool* pool, bool sequential) {
    World world{small_config(PolicyKind::kLatencyDriven, 25)};
    const SimTime start = SimTime::epoch();
    const SimTime end = start + Hours(2);
    if (sequential) {
      (void)world.run_probing_sequential(start, end, Minutes(30));
    } else {
      (void)world.run_probing_parallel(start, end, Minutes(30), pool);
    }
    return world.campaign_stats().cdn_estimates;
  };
  ThreadPool workers{4};
  ThreadPool inline_pool{0};
  const std::size_t sequential = estimates(nullptr, true);
  EXPECT_GT(sequential, 0u);
  EXPECT_EQ(estimates(&workers, false), sequential);
  EXPECT_EQ(estimates(&inline_pool, false), sequential);
}

TEST(CampaignStatsTest, FilledBySequentialRun) {
  World world{small_config(PolicyKind::kLatencyDriven, 23)};
  const std::size_t rounds = world.run_probing_sequential(
      SimTime::epoch(), SimTime::epoch() + Hours(2), Minutes(30));
  const CampaignStats& stats = world.campaign_stats();
  EXPECT_EQ(stats.rounds, rounds);
  EXPECT_EQ(stats.threads, 0u);
  EXPECT_GT(stats.probes_issued, 0u);
  // Staggered nodes may miss the last round but never more than that.
  EXPECT_GE(stats.probes_issued, stats.participants * (rounds - 1));
  EXPECT_LE(stats.probes_issued, stats.participants * rounds);
}

}  // namespace
}  // namespace crp::eval
