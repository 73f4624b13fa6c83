#include "service/service_node.hpp"

#include <gtest/gtest.h>

#include "dns/zone.hpp"

namespace crp::service {
namespace {

// Authoritative answering the tracked name with a per-minute rotating
// replica address (mirrors the CrpNode unit-test double).
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

class ServiceNodeTest : public ::testing::Test {
 protected:
  ServiceNodeTest() {
    registry_.register_zone(dns::Name::parse("cdn.test"), &zone_);
    resolver_ = std::make_unique<dns::RecursiveResolver>(HostId{1},
                                                         registry_, nullptr);
    node_ = std::make_unique<core::CrpNode>(
        *resolver_, std::vector<dns::Name>{dns::Name::parse("img.cdn.test")},
        [](Ipv4 addr) -> std::optional<ReplicaId> {
          const std::uint32_t low = addr.value() & 0xffffff;
          if (low < 1000 || low > 1002) return std::nullopt;
          return ReplicaId{low - 1000};
        });
  }

  RotatingZone zone_;
  dns::ZoneRegistry registry_;
  std::unique_ptr<dns::RecursiveResolver> resolver_;
  std::unique_ptr<core::CrpNode> node_;
  PositionService service_;
};

TEST_F(ServiceNodeTest, RejectsEmptyNodeId) {
  EXPECT_THROW(ServiceNode("", *node_, service_), std::invalid_argument);
}

TEST_F(ServiceNodeTest, PublishNowFailsWithoutHistory) {
  ServiceNode snode{"n1", *node_, service_};
  EXPECT_FALSE(snode.publish_now(SimTime::epoch()));
  EXPECT_EQ(service_.size(), 0u);
}

TEST_F(ServiceNodeTest, PublishNowDeliversCurrentMap) {
  node_->probe(SimTime::epoch());
  node_->probe(SimTime::epoch() + Minutes(1));
  ServiceNode snode{"n1", *node_, service_};
  EXPECT_TRUE(snode.publish_now(SimTime::epoch() + Minutes(2)));
  EXPECT_EQ(snode.publishes(), 1u);
  EXPECT_GT(snode.bytes_sent(), 0u);
  const auto map = service_.map_of("n1");
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(*map, node_->ratio_map(30));
}

TEST_F(ServiceNodeTest, ScheduledRepublishing) {
  sim::EventScheduler sched;
  node_->schedule(sched, SimTime::epoch(), SimTime::epoch() + Hours(3));
  ServiceNodeConfig config;
  config.publish_interval = Minutes(30);
  ServiceNode snode{"n1", *node_, service_, config};
  // Start publishing after the first probes exist.
  snode.schedule(sched, SimTime::epoch() + Minutes(15),
                 SimTime::epoch() + Hours(3));
  sched.run_until(SimTime::epoch() + Hours(3));
  EXPECT_GE(snode.publishes(), 5u);
  EXPECT_TRUE(service_.map_of("n1").has_value());
}

TEST_F(ServiceNodeTest, WindowConfigLimitsPublishedMap) {
  for (int m = 0; m < 6; ++m) {
    node_->probe(SimTime::epoch() + Minutes(m));
  }
  ServiceNodeConfig config;
  config.window = 2;  // only minutes 4, 5 -> replicas 1 and 2
  ServiceNode snode{"n1", *node_, service_, config};
  ASSERT_TRUE(snode.publish_now(SimTime::epoch() + Minutes(6)));
  const auto map = service_.map_of("n1");
  ASSERT_TRUE(map.has_value());
  EXPECT_FALSE(map->contains(ReplicaId{0}));
  EXPECT_TRUE(map->contains(ReplicaId{1}));
}

}  // namespace
}  // namespace crp::service
