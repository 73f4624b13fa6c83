#include "workload/browsing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dns/zone.hpp"

namespace crp::workload {
namespace {

// CDN-style authoritative: rotates the answered replica every 20 s (its
// TTL), like the real short-TTL answers browsing traffic sees.
class RotatingZone final : public dns::AuthoritativeServer {
 public:
  dns::Message resolve(const dns::Question& question, Ipv4 /*addr*/,
                       SimTime now) override {
    ++queries;
    dns::Message reply;
    const auto idx = static_cast<std::uint32_t>(
        (now.micros() / Seconds(20).micros()) % 5);
    reply.answers.push_back(dns::ResourceRecord::a(
        question.name, Ipv4{(10u << 24) | (2000u + idx)}, Seconds(20)));
    return reply;
  }
  [[nodiscard]] HostId host() const override { return HostId{}; }
  int queries = 0;
};

class BrowsingTest : public ::testing::Test {
 protected:
  BrowsingTest() {
    registry_.register_zone(dns::Name::parse("cdn.test"), &zone_);
    resolver_ = std::make_unique<dns::RecursiveResolver>(HostId{1},
                                                         registry_, nullptr);
    node_ = std::make_unique<core::CrpNode>(
        *resolver_,
        std::vector<dns::Name>{dns::Name::parse("a.cdn.test")},
        lookup());
  }

  static core::ReplicaLookup lookup() {
    return [](Ipv4 addr) -> std::optional<ReplicaId> {
      const std::uint32_t low = addr.value() & 0xffffff;
      if (low < 2000 || low > 2004) return std::nullopt;
      return ReplicaId{low - 2000};
    };
  }

  BrowsingWorkload make_workload(BrowsingConfig config = {},
                                 std::uint64_t seed = 1) {
    return BrowsingWorkload{
        *resolver_, *node_,
        {dns::Name::parse("a.cdn.test"), dns::Name::parse("b.cdn.test")},
        lookup(), seed, config};
  }

  RotatingZone zone_;
  dns::ZoneRegistry registry_;
  std::unique_ptr<dns::RecursiveResolver> resolver_;
  std::unique_ptr<core::CrpNode> node_;
};

TEST_F(BrowsingTest, RejectsBadConstruction) {
  EXPECT_THROW(BrowsingWorkload(*resolver_, *node_, {}, lookup(), 1),
               std::invalid_argument);
  EXPECT_THROW(BrowsingWorkload(*resolver_, *node_,
                                {dns::Name::parse("a.cdn.test")}, nullptr,
                                1),
               std::invalid_argument);
}

TEST_F(BrowsingTest, RunHarvestsObservations) {
  BrowsingWorkload workload = make_workload();
  workload.run(SimTime::epoch(), SimTime::epoch() + Hours(48));
  EXPECT_GT(workload.sessions(), 0u);
  EXPECT_GT(workload.lookups(), 0u);
  EXPECT_GT(workload.observations(), 0u);
  EXPECT_EQ(node_->history().num_probes(), workload.observations());
  EXPECT_FALSE(node_->ratio_map().empty());
}

TEST_F(BrowsingTest, ScheduledAndSynchronousAgreeOnStructure) {
  BrowsingWorkload direct = make_workload({}, 7);
  direct.run(SimTime::epoch(), SimTime::epoch() + Hours(24));

  // Fresh node/resolver for the scheduled variant.
  dns::RecursiveResolver resolver2{HostId{2}, registry_, nullptr};
  core::CrpNode node2{resolver2,
                      {dns::Name::parse("a.cdn.test")},
                      lookup()};
  BrowsingWorkload scheduled{
      resolver2, node2,
      {dns::Name::parse("a.cdn.test"), dns::Name::parse("b.cdn.test")},
      lookup(), 7, {}};
  sim::EventScheduler sched;
  scheduled.schedule(sched, SimTime::epoch(), SimTime::epoch() + Hours(24));
  sched.run_until(SimTime::epoch() + Hours(24));

  EXPECT_EQ(direct.sessions(), scheduled.sessions());
  EXPECT_EQ(direct.lookups(), scheduled.lookups());
}

TEST_F(BrowsingTest, SessionRateRoughlyMatchesConfig) {
  BrowsingConfig config;
  config.sessions_per_day = 12.0;
  BrowsingWorkload workload = make_workload(config, 3);
  workload.run(SimTime::epoch(), SimTime::epoch() + Hours(24 * 20));
  const double per_day = static_cast<double>(workload.sessions()) / 20.0;
  EXPECT_GT(per_day, 7.0);
  EXPECT_LT(per_day, 17.0);
}

TEST_F(BrowsingTest, DiurnalCurveConcentratesActivity) {
  BrowsingConfig config;
  config.sessions_per_day = 40.0;  // dense, to measure the curve
  config.diurnal_ratio = 8.0;
  config.peak_hour = 20.0;
  BrowsingWorkload workload = make_workload(config, 5);

  sim::EventScheduler sched;
  workload.schedule(sched, SimTime::epoch(), SimTime::epoch() + Hours(240));
  sched.run_all();

  // Compare lookups near the peak vs near the trough using the node's
  // probe timestamps.
  std::size_t near_peak = 0;
  std::size_t near_trough = 0;
  for (std::size_t i = 0; i < node_->history().num_probes(); ++i) {
    const double hour =
        std::fmod(node_->history().probe(i).when.seconds() / 3600.0, 24.0);
    if (hour >= 18.0 && hour < 22.0) ++near_peak;
    if (hour >= 6.0 && hour < 10.0) ++near_trough;
  }
  EXPECT_GT(near_peak, near_trough * 2);
}

TEST_F(BrowsingTest, CacheSuppressesBurstObservations) {
  // Within a session, page loads 25 s apart mostly straddle the 20 s TTL,
  // but some hit the cache: upstream queries < lookups.
  BrowsingConfig config;
  config.page_gap_mean = Seconds(5);  // fast clicking, heavy cache reuse
  BrowsingWorkload workload = make_workload(config, 11);
  workload.run(SimTime::epoch(), SimTime::epoch() + Hours(72));
  ASSERT_GT(workload.lookups(), 0u);
  EXPECT_LT(static_cast<std::size_t>(zone_.queries), workload.lookups());
}

TEST_F(BrowsingTest, DeterministicForSeed) {
  BrowsingWorkload a = make_workload({}, 42);
  a.run(SimTime::epoch(), SimTime::epoch() + Hours(24));
  const auto map_a = node_->ratio_map();
  const auto count_a = node_->history().num_probes();

  dns::RecursiveResolver resolver2{HostId{3}, registry_, nullptr};
  core::CrpNode node2{resolver2,
                      {dns::Name::parse("a.cdn.test")},
                      lookup()};
  BrowsingWorkload b{
      resolver2, node2,
      {dns::Name::parse("a.cdn.test"), dns::Name::parse("b.cdn.test")},
      lookup(), 42, {}};
  b.run(SimTime::epoch(), SimTime::epoch() + Hours(24));
  EXPECT_EQ(count_a, node2.history().num_probes());
  EXPECT_EQ(map_a, node2.ratio_map());
}

}  // namespace
}  // namespace crp::workload
