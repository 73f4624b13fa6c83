// Cross-module property tests: parameterized sweeps over seeds and
// configurations asserting directional invariants the paper's design
// depends on.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/selection.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "eval/world.hpp"

namespace crp {
namespace {

eval::WorldConfig tiny_config(std::uint64_t seed) {
  eval::WorldConfig config;
  config.seed = seed;
  config.num_candidates = 20;
  config.num_dns_servers = 30;
  config.cdn.target_replicas = 150;
  return config;
}

// Sweep across seeds: CRP selection must beat random selection in every
// seeded world, not just a lucky one.
class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, CrpBeatsRandomSelection) {
  eval::World world{tiny_config(GetParam())};
  world.run_probing(SimTime::epoch(), SimTime::epoch() + Hours(12),
                    Minutes(10));

  std::vector<core::RatioMap> clients;
  for (HostId h : world.dns_servers()) {
    clients.push_back(world.crp_node(h).ratio_map());
  }
  std::vector<core::RatioMap> candidates;
  for (HostId h : world.candidates()) {
    candidates.push_back(world.crp_node(h).ratio_map());
  }
  const eval::GroundTruthMatrix gt{world, world.dns_servers(),
                                   world.candidates()};
  const auto outcomes = eval::evaluate_crp_selection(gt, clients, candidates);

  double mean_rank = 0.0;
  for (const auto& o : outcomes) mean_rank += o.rank;
  mean_rank /= static_cast<double>(outcomes.size());
  // Random expectation is (20-1)/2 = 9.5.
  EXPECT_LT(mean_rank, 6.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1u, 7u, 99u, 1234u));

// Probing world shared by the window/interval property tests below.
class ProbeWindowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new eval::World{tiny_config(77)};
    world_->run_probing(SimTime::epoch(), SimTime::epoch() + Hours(30),
                        Minutes(10));
    gt_ = new eval::GroundTruthMatrix{*world_, world_->dns_servers(),
                                      world_->candidates()};
  }
  static void TearDownTestSuite() {
    delete gt_;
    delete world_;
    gt_ = nullptr;
    world_ = nullptr;
  }

  static double mean_rank_with_window(std::size_t window) {
    std::vector<core::RatioMap> clients;
    for (HostId h : world_->dns_servers()) {
      clients.push_back(world_->crp_node(h).ratio_map(window));
    }
    std::vector<core::RatioMap> candidates;
    for (HostId h : world_->candidates()) {
      candidates.push_back(world_->crp_node(h).ratio_map(window));
    }
    const auto outcomes =
        eval::evaluate_crp_selection(*gt_, clients, candidates);
    double sum = 0.0;
    for (const auto& o : outcomes) sum += o.rank;
    return sum / static_cast<double>(outcomes.size());
  }

  static eval::World* world_;
  static eval::GroundTruthMatrix* gt_;
};

eval::World* ProbeWindowTest::world_ = nullptr;
eval::GroundTruthMatrix* ProbeWindowTest::gt_ = nullptr;

TEST_F(ProbeWindowTest, TinyWindowStillUseful) {
  // Fig. 9's claim: a 10-probe window suffices for effective selection.
  const double rank10 = mean_rank_with_window(10);
  EXPECT_LT(rank10, 6.0);
}

TEST_F(ProbeWindowTest, WindowOrderingIsSane) {
  // 5-probe windows carry less information than 10-30 probe windows;
  // allow slack but require the broad ordering to hold.
  const double rank5 = mean_rank_with_window(5);
  const double rank30 = mean_rank_with_window(30);
  EXPECT_LT(rank30, rank5 + 1.5);
}

TEST_F(ProbeWindowTest, AllProbesComparableToWindowed) {
  const double rank_whole = mean_rank_with_window(core::kAllProbes);
  const double rank10 = mean_rank_with_window(10);
  EXPECT_LT(std::abs(rank_whole - rank10), 4.0);
}

// Redirection-policy ablation: CRP's accuracy must collapse under a
// random redirection policy (the premise test) and survive under
// geo-static.
class PolicyAblationTest
    : public ::testing::TestWithParam<eval::PolicyKind> {};

TEST_P(PolicyAblationTest, AccuracyMatchesPremiseStrength) {
  eval::WorldConfig config = tiny_config(55);
  config.policy_kind = GetParam();
  eval::World world{config};
  world.run_probing(SimTime::epoch(), SimTime::epoch() + Hours(12),
                    Minutes(10));

  std::vector<core::RatioMap> clients;
  for (HostId h : world.dns_servers()) {
    clients.push_back(world.crp_node(h).ratio_map());
  }
  std::vector<core::RatioMap> candidates;
  for (HostId h : world.candidates()) {
    candidates.push_back(world.crp_node(h).ratio_map());
  }
  const eval::GroundTruthMatrix gt{world, world.dns_servers(),
                                   world.candidates()};
  const auto outcomes = eval::evaluate_crp_selection(gt, clients, candidates);
  double mean_rank = 0.0;
  for (const auto& o : outcomes) mean_rank += o.rank;
  mean_rank /= static_cast<double>(outcomes.size());

  switch (GetParam()) {
    case eval::PolicyKind::kLatencyDriven:
    case eval::PolicyKind::kGeoStatic:
    case eval::PolicyKind::kSticky:
      EXPECT_LT(mean_rank, 7.0);
      break;
    case eval::PolicyKind::kRandom:
      // No position information: near-random ranking (expectation 9.5).
      EXPECT_GT(mean_rank, 6.5);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyAblationTest,
    ::testing::Values(eval::PolicyKind::kLatencyDriven,
                      eval::PolicyKind::kGeoStatic,
                      eval::PolicyKind::kRandom, eval::PolicyKind::kSticky),
    [](const auto& info) {
      switch (info.param) {
        case eval::PolicyKind::kLatencyDriven:
          return "LatencyDriven";
        case eval::PolicyKind::kGeoStatic:
          return "GeoStatic";
        case eval::PolicyKind::kRandom:
          return "Random";
        default:
          return "Sticky";
      }
    });

}  // namespace
}  // namespace crp
