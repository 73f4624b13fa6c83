#include "dns/zone.hpp"

#include <gtest/gtest.h>

namespace crp::dns {
namespace {

Question q(const char* name) {
  return Question{Name::parse(name), RecordType::kA};
}

TEST(StaticZone, AnswersExactARecord) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  zone.add(ResourceRecord::a(Name::parse("www.example.com"), Ipv4(1, 2, 3, 4),
                             Seconds(60)));
  const Message reply =
      zone.resolve(q("www.example.com"), Ipv4{}, SimTime::epoch());
  EXPECT_EQ(reply.rcode, Rcode::kNoError);
  ASSERT_EQ(reply.answers.size(), 1u);
  EXPECT_EQ(reply.answers[0].address, Ipv4(1, 2, 3, 4));
}

TEST(StaticZone, NxDomainForUnknownName) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  const Message reply =
      zone.resolve(q("missing.example.com"), Ipv4{}, SimTime::epoch());
  EXPECT_EQ(reply.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(reply.answers.empty());
}

TEST(StaticZone, ServFailOutsideZone) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  const Message reply = zone.resolve(q("other.net"), Ipv4{}, SimTime::epoch());
  EXPECT_EQ(reply.rcode, Rcode::kServFail);
}

TEST(StaticZone, CnameReturnedForAQuery) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  zone.add(ResourceRecord::cname(Name::parse("www.example.com"),
                                 Name::parse("cdn.net"), Seconds(60)));
  const Message reply =
      zone.resolve(q("www.example.com"), Ipv4{}, SimTime::epoch());
  EXPECT_EQ(reply.rcode, Rcode::kNoError);
  ASSERT_EQ(reply.answers.size(), 1u);
  EXPECT_EQ(reply.answers[0].type, RecordType::kCname);
}

TEST(StaticZone, WildcardAnswersUnmatchedNames) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  zone.add_wildcard_a(Ipv4(9, 9, 9, 9), Seconds(30));
  const Message reply =
      zone.resolve(q("anything.example.com"), Ipv4{}, SimTime::epoch());
  EXPECT_EQ(reply.rcode, Rcode::kNoError);
  ASSERT_EQ(reply.answers.size(), 1u);
  EXPECT_EQ(reply.answers[0].address, Ipv4(9, 9, 9, 9));
  // The answer's owner name is the queried name, as real wildcards do.
  EXPECT_EQ(reply.answers[0].name, Name::parse("anything.example.com"));
}

TEST(StaticZone, ExactRecordBeatsWildcard) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  zone.add_wildcard_a(Ipv4(9, 9, 9, 9), Seconds(30));
  zone.add(ResourceRecord::a(Name::parse("www.example.com"), Ipv4(1, 1, 1, 1),
                             Seconds(30)));
  const Message reply =
      zone.resolve(q("www.example.com"), Ipv4{}, SimTime::epoch());
  ASSERT_EQ(reply.answers.size(), 1u);
  EXPECT_EQ(reply.answers[0].address, Ipv4(1, 1, 1, 1));
}

TEST(StaticZone, RejectsOutOfZoneRecord) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  EXPECT_THROW(zone.add(ResourceRecord::a(Name::parse("other.net"),
                                          Ipv4(1, 1, 1, 1), Seconds(30))),
               std::invalid_argument);
}

TEST(ZoneRegistry, LongestSuffixWins) {
  StaticZone outer{Name::parse("com"), HostId{}};
  StaticZone inner{Name::parse("example.com"), HostId{}};
  ZoneRegistry registry;
  registry.register_zone(Name::parse("com"), &outer);
  registry.register_zone(Name::parse("example.com"), &inner);
  EXPECT_EQ(registry.find(Name::parse("www.example.com")), &inner);
  EXPECT_EQ(registry.find(Name::parse("other.com")), &outer);
  EXPECT_EQ(registry.find(Name::parse("example.net")), nullptr);
}

TEST(ZoneRegistry, RootZoneCatchesEverything) {
  StaticZone root{Name::parse(""), HostId{}};
  ZoneRegistry registry;
  registry.register_zone(Name::parse(""), &root);
  EXPECT_EQ(registry.find(Name::parse("anything.at.all")), &root);
}

TEST(ZoneRegistry, ReRegisterReplaces) {
  StaticZone a{Name::parse("x.com"), HostId{}};
  StaticZone b{Name::parse("x.com"), HostId{}};
  ZoneRegistry registry;
  registry.register_zone(Name::parse("x.com"), &a);
  registry.register_zone(Name::parse("x.com"), &b);
  EXPECT_EQ(registry.find(Name::parse("x.com")), &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ZoneRegistry, NameEqualToZoneApex) {
  StaticZone outer{Name::parse("com"), HostId{}};
  StaticZone inner{Name::parse("example.com"), HostId{}};
  ZoneRegistry registry;
  registry.register_zone(Name::parse("com"), &outer);
  registry.register_zone(Name::parse("example.com"), &inner);
  EXPECT_EQ(registry.find(Name::parse("example.com")), &inner);
  EXPECT_EQ(registry.find(Name::parse("Example.COM.")), &inner);
  EXPECT_EQ(registry.find(Name::parse("com")), &outer);
}

TEST(ZoneRegistry, NameDeeperThanEveryZone) {
  StaticZone cdn{Name::parse("g.cdnsim.net"), HostId{}};
  StaticZone tld{Name::parse("net"), HostId{}};
  ZoneRegistry registry;
  registry.register_zone(Name::parse("g.cdnsim.net"), &cdn);
  registry.register_zone(Name::parse("net"), &tld);
  EXPECT_EQ(registry.find(Name::parse("a.b.c.d.c0.g.cdnsim.net")), &cdn);
  EXPECT_EQ(registry.find(Name::parse("a.b.c.d.cdnsim.net")), &tld);
}

TEST(ZoneRegistry, MissReturnsNull) {
  StaticZone zone{Name::parse("example.com"), HostId{}};
  ZoneRegistry registry;
  EXPECT_EQ(registry.find(Name::parse("www.example.com")), nullptr);
  registry.register_zone(Name::parse("example.com"), &zone);
  EXPECT_EQ(registry.find(Name::parse("example.org")), nullptr);
  // A parent of the apex is not under it.
  EXPECT_EQ(registry.find(Name::parse("com")), nullptr);
  EXPECT_EQ(registry.find(Name::parse("")), nullptr);
  // Suffixes match whole labels, not characters.
  EXPECT_EQ(registry.find(Name::parse("wwwexample.com")), nullptr);
  EXPECT_EQ(registry.find(Name::parse("example.com.au")), nullptr);
}

TEST(ZoneRegistry, RejectsNullServer) {
  ZoneRegistry registry;
  EXPECT_THROW(registry.register_zone(Name::parse("x.com"), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace crp::dns
