#include "core/node.hpp"

#include <gtest/gtest.h>

#include "dns/zone.hpp"
#include "sim/event_scheduler.hpp"

namespace crp::core {
namespace {

// A toy CDN authoritative: answers the tracked name with a replica that
// rotates per minute, so probe histories accumulate distinct replicas.
class RotatingZone final : public dns::AuthoritativeServer {
 public:
  dns::Message resolve(const dns::Question& question, Ipv4 /*addr*/,
                       SimTime now) override {
    dns::Message reply;
    const auto idx =
        static_cast<std::uint32_t>((now.micros() / Minutes(1).micros()) % 3);
    reply.answers.push_back(dns::ResourceRecord::a(
        question.name, Ipv4{(10u << 24) | (1000u + idx)}, Seconds(20)));
    return reply;
  }
  [[nodiscard]] HostId host() const override { return HostId{}; }
};

class CrpNodeTest : public ::testing::Test {
 protected:
  CrpNodeTest() {
    registry_.register_zone(dns::Name::parse("cdn.test"), &zone_);
    resolver_ = std::make_unique<dns::RecursiveResolver>(HostId{1}, registry_,
                                                         nullptr);
  }

  CrpNode make_node(CrpNodeConfig config = {}) {
    return CrpNode{*resolver_,
                   {dns::Name::parse("img.cdn.test")},
                   [](Ipv4 addr) -> std::optional<ReplicaId> {
                     // Addresses 10.0.3.232+ (1000+) map to replicas 0..2.
                     const std::uint32_t low = addr.value() & 0xffffff;
                     if (low < 1000 || low > 1002) return std::nullopt;
                     return ReplicaId{low - 1000};
                   },
                   config};
  }

  RotatingZone zone_;
  dns::ZoneRegistry registry_;
  std::unique_ptr<dns::RecursiveResolver> resolver_;
};

TEST_F(CrpNodeTest, RejectsEmptyNamesOrNullLookup) {
  EXPECT_THROW(CrpNode(*resolver_, {}, [](Ipv4) { return std::nullopt; }),
               std::invalid_argument);
  EXPECT_THROW(
      CrpNode(*resolver_, {dns::Name::parse("a.cdn.test")}, nullptr),
      std::invalid_argument);
}

TEST_F(CrpNodeTest, ProbeRecordsRedirection) {
  CrpNode node = make_node();
  const std::size_t seen = node.probe(SimTime::epoch());
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(node.history().num_probes(), 1u);
  EXPECT_TRUE(node.ratio_map().contains(ReplicaId{0}));
}

TEST_F(CrpNodeTest, RepeatedProbesBuildFrequencies) {
  CrpNode node = make_node();
  // Minutes 0..5 rotate replicas 0,1,2,0,1,2.
  for (int m = 0; m < 6; ++m) {
    node.probe(SimTime::epoch() + Minutes(m));
  }
  const RatioMap map = node.ratio_map();
  EXPECT_EQ(map.size(), 3u);
  EXPECT_NEAR(map.ratio_of(ReplicaId{0}), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(map.ratio_of(ReplicaId{1}), 1.0 / 3.0, 1e-9);
}

TEST_F(CrpNodeTest, WindowedRatioMap) {
  CrpNode node = make_node();
  for (int m = 0; m < 6; ++m) {
    node.probe(SimTime::epoch() + Minutes(m));
  }
  // Last two probes: minutes 4 and 5 -> replicas 1 and 2.
  const RatioMap recent = node.ratio_map(2);
  EXPECT_FALSE(recent.contains(ReplicaId{0}));
  EXPECT_TRUE(recent.contains(ReplicaId{1}));
  EXPECT_TRUE(recent.contains(ReplicaId{2}));
}

TEST_F(CrpNodeTest, FailedLookupsCounted) {
  CrpNode node{*resolver_,
               {dns::Name::parse("missing.cdn.test"),
                dns::Name::parse("img.cdn.test")},
               [](Ipv4) -> std::optional<ReplicaId> { return ReplicaId{0}; }};
  // "missing" name resolves fine in RotatingZone (it answers anything in
  // zone), so use an out-of-zone name to force failure.
  CrpNode failing{*resolver_,
                  {dns::Name::parse("x.other.zone")},
                  [](Ipv4) -> std::optional<ReplicaId> {
                    return ReplicaId{0};
                  }};
  failing.probe(SimTime::epoch());
  EXPECT_EQ(failing.failed_lookups(), 1u);
  EXPECT_EQ(failing.history().num_probes(), 0u);
}

TEST_F(CrpNodeTest, UnrecognizedAddressesIgnored) {
  CrpNode node{*resolver_,
               {dns::Name::parse("img.cdn.test")},
               [](Ipv4) -> std::optional<ReplicaId> { return std::nullopt; }};
  EXPECT_EQ(node.probe(SimTime::epoch()), 0u);
  EXPECT_TRUE(node.history().empty());
}

TEST_F(CrpNodeTest, ObserveFeedsPassiveRedirections) {
  CrpNode node = make_node();
  const std::vector<ReplicaId> seen{ReplicaId{7}, ReplicaId{9}};
  node.observe(SimTime::epoch(), seen);
  EXPECT_EQ(node.history().num_probes(), 1u);
  EXPECT_TRUE(node.ratio_map().contains(ReplicaId{7}));
  // Empty observations are dropped.
  node.observe(SimTime::epoch(), {});
  EXPECT_EQ(node.history().num_probes(), 1u);
}

TEST_F(CrpNodeTest, ScheduleProbesPeriodically) {
  CrpNodeConfig config;
  config.probe_interval = Minutes(10);
  CrpNode node = make_node(config);
  sim::EventScheduler sched;
  node.schedule(sched, SimTime::epoch(), SimTime::epoch() + Minutes(60));
  sched.run_until(SimTime::epoch() + Minutes(60));
  EXPECT_EQ(node.history().num_probes(), 7u);  // t = 0, 10, ..., 60
}

TEST_F(CrpNodeTest, ScheduleStopsAfterEnd) {
  CrpNodeConfig config;
  config.probe_interval = Minutes(10);
  CrpNode node = make_node(config);
  sim::EventScheduler sched;
  node.schedule(sched, SimTime::epoch(), SimTime::epoch() + Minutes(30));
  sched.run_until(SimTime::epoch() + Hours(5));
  EXPECT_EQ(node.history().num_probes(), 4u);
}

TEST_F(CrpNodeTest, HostMatchesResolver) {
  CrpNode node = make_node();
  EXPECT_EQ(node.host(), HostId{1});
}

}  // namespace
}  // namespace crp::core
