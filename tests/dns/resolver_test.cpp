#include "dns/resolver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "dns/zone.hpp"
#include "sim/fault_plan.hpp"

namespace crp::dns {
namespace {

// Authoritative test double counting the questions it received.
class CountingZone final : public AuthoritativeServer {
 public:
  explicit CountingZone(StaticZone inner) : inner_(std::move(inner)) {}

  Message resolve(const Question& question, Ipv4 resolver_addr,
                  SimTime now) override {
    ++queries;
    return inner_.resolve(question, resolver_addr, now);
  }
  [[nodiscard]] HostId host() const override { return inner_.host(); }

  int queries = 0;

 private:
  StaticZone inner_;
};

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest()
      : cdn_zone_([] {
          StaticZone z{Name::parse("cdn.net"), HostId{}};
          z.add(ResourceRecord::a(Name::parse("edge.cdn.net"),
                                  Ipv4(10, 0, 0, 9), Seconds(20)));
          return z;
        }()),
        site_zone_([] {
          StaticZone z{Name::parse("example.com"), HostId{}};
          z.add(ResourceRecord::cname(Name::parse("www.example.com"),
                                      Name::parse("edge.cdn.net"),
                                      Hours(1)));
          z.add(ResourceRecord::a(Name::parse("direct.example.com"),
                                  Ipv4(10, 0, 0, 7), Seconds(60)));
          return z;
        }()) {
    registry_.register_zone(Name::parse("cdn.net"), &cdn_zone_);
    registry_.register_zone(Name::parse("example.com"), &site_zone_);
  }

  CountingZone cdn_zone_;
  CountingZone site_zone_;
  ZoneRegistry registry_;
};

TEST_F(ResolverTest, ResolvesDirectARecord) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.addresses.size(), 1u);
  EXPECT_EQ(result.addresses[0], Ipv4(10, 0, 0, 7));
  EXPECT_EQ(result.upstream_queries, 1);
}

TEST_F(ResolverTest, FollowsCnameAcrossZones) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("www.example.com"), SimTime::epoch());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.addresses[0], Ipv4(10, 0, 0, 9));
  EXPECT_EQ(result.upstream_queries, 2);  // CNAME + A
  ASSERT_EQ(result.chain.size(), 2u);
  EXPECT_EQ(result.chain[0].type, RecordType::kCname);
  EXPECT_EQ(result.chain[1].type, RecordType::kA);
}

TEST_F(ResolverTest, CachesWithinTtl) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  EXPECT_EQ(site_zone_.queries, 1);
  const auto result = resolver.resolve(Name::parse("direct.example.com"),
                                       SimTime::epoch() + Seconds(30));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.upstream_queries, 0);
  EXPECT_EQ(site_zone_.queries, 1);  // served from cache
  EXPECT_EQ(resolver.cache_hits(), 1u);
}

TEST_F(ResolverTest, CacheExpiresAfterTtl) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  const auto result = resolver.resolve(Name::parse("direct.example.com"),
                                       SimTime::epoch() + Seconds(61));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.upstream_queries, 1);
  EXPECT_EQ(site_zone_.queries, 2);
}

TEST_F(ResolverTest, CnameCachedButShortTtlAReQueried) {
  // This is the CDN pattern: CNAME has a long TTL, A is 20 s. A CRP probe
  // 10 minutes later must re-query only the CDN authoritative.
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  (void)resolver.resolve(Name::parse("www.example.com"), SimTime::epoch());
  EXPECT_EQ(site_zone_.queries, 1);
  EXPECT_EQ(cdn_zone_.queries, 1);
  (void)resolver.resolve(Name::parse("www.example.com"),
                         SimTime::epoch() + Minutes(10));
  EXPECT_EQ(site_zone_.queries, 1);  // CNAME still cached
  EXPECT_EQ(cdn_zone_.queries, 2);   // A re-fetched
}

TEST_F(ResolverTest, NxDomainPropagatesAndIsNegativeCached) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("no.example.com"), SimTime::epoch());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rcode, Rcode::kNxDomain);
  // Immediately again: negative cache, no new upstream query.
  (void)resolver.resolve(Name::parse("no.example.com"),
                         SimTime::epoch() + Seconds(1));
  EXPECT_EQ(site_zone_.queries, 1);
}

TEST_F(ResolverTest, ServFailWhenNoZoneMatches) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("nowhere.invalid"), SimTime::epoch());
  EXPECT_EQ(result.rcode, Rcode::kServFail);
}

TEST_F(ResolverTest, CnameLoopTerminates) {
  StaticZone loop_zone{Name::parse("loop.net"), HostId{}};
  loop_zone.add(ResourceRecord::cname(Name::parse("a.loop.net"),
                                      Name::parse("b.loop.net"), Seconds(60)));
  loop_zone.add(ResourceRecord::cname(Name::parse("b.loop.net"),
                                      Name::parse("a.loop.net"), Seconds(60)));
  ZoneRegistry registry;
  registry.register_zone(Name::parse("loop.net"), &loop_zone);
  RecursiveResolver resolver{HostId{1}, registry, nullptr};
  const auto result =
      resolver.resolve(Name::parse("a.loop.net"), SimTime::epoch());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rcode, Rcode::kServFail);
}

TEST_F(ResolverTest, CachingDisabledWhenMaxEntriesZero) {
  ResolverConfig config;
  config.max_cache_entries = 0;
  RecursiveResolver resolver{HostId{1}, registry_, nullptr, config};
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  EXPECT_EQ(site_zone_.queries, 2);
  EXPECT_EQ(resolver.cache_size(), 0u);
}

TEST_F(ResolverTest, FlushCacheForcesRequery) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  resolver.flush_cache();
  (void)resolver.resolve(Name::parse("direct.example.com"), SimTime::epoch());
  EXPECT_EQ(site_zone_.queries, 2);
}

TEST_F(ResolverTest, SynthesizedAddressWithoutOracle) {
  RecursiveResolver resolver{HostId{42}, registry_, nullptr};
  EXPECT_EQ(resolver.address().value() >> 24, 10u);
  EXPECT_EQ(resolver.address().value() & 0xffffffu, 42u);
}

TEST_F(ResolverTest, ElapsedIsZeroWithoutOracleHosts) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("www.example.com"), SimTime::epoch());
  // Only processing overhead accrues (no oracle, invalid server hosts).
  EXPECT_LT(result.elapsed, Millis(1));
}

TEST_F(ResolverTest, CachePressureEvictsButStaysCorrect) {
  ResolverConfig config;
  config.max_cache_entries = 4;
  RecursiveResolver resolver{HostId{1}, registry_, nullptr, config};
  // Query more names than fit; every answer stays correct.
  for (int i = 0; i < 20; ++i) {
    const auto result = resolver.resolve(
        Name::parse("direct.example.com"), SimTime::epoch() + Seconds(i));
    ASSERT_TRUE(result.ok());
    // Churn the cache with misses under distinct names.
    std::string miss = "m";
    miss += std::to_string(i) + ".example.com";
    (void)resolver.resolve(Name::parse(miss), SimTime::epoch() + Seconds(i));
  }
  EXPECT_LE(resolver.cache_size(), 4u);
}

// An expired entry is refreshed in its own slot. Every count, the cache
// size and negative caching must read as they did when the expired entry
// was erased and a new one inserted: across a positive and a negative
// refresh, and an all-lost timeout, which leaves no entry behind.
TEST_F(ResolverTest, ExpiryRefreshKeepsCountsAndCacheSize) {
  constexpr std::uint64_t kFaultyHost = 99;
  CountingZone faulty_zone{[] {
    StaticZone z{Name::parse("faulty.net"), HostId{kFaultyHost}};
    z.add(ResourceRecord::a(Name::parse("www.faulty.net"), Ipv4(10, 0, 0, 5),
                            Seconds(60)));
    return z;
  }()};
  registry_.register_zone(Name::parse("faulty.net"), &faulty_zone);
  sim::FaultPlan plan{7};
  sim::FaultRule outage;
  outage.kind = sim::FaultKind::kResolverOutage;
  outage.start = SimTime::epoch() + Seconds(61);
  outage.end = SimTime::epoch() + Hours(1);
  outage.entity = kFaultyHost;
  plan.add(outage);
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  resolver.set_fault_plan(&plan);

  struct Counts {
    std::size_t hits, misses, queries_sent, retries, timeouts, cache_size;
  };
  const auto expect_counts = [&](const Counts& want) {
    EXPECT_EQ(resolver.cache_hits(), want.hits);
    EXPECT_EQ(resolver.cache_misses(), want.misses);
    EXPECT_EQ(resolver.queries_sent(), want.queries_sent);
    EXPECT_EQ(resolver.retries(), want.retries);
    EXPECT_EQ(resolver.timeouts(), want.timeouts);
    EXPECT_EQ(resolver.cache_size(), want.cache_size);
  };
  const auto resolve = [&](const char* name, Duration at) {
    return resolver.resolve(Name::parse(name), SimTime::epoch() + at);
  };

  // A positive (60 s), a negative (30 s) and a soon-faulty answer.
  EXPECT_TRUE(resolve("direct.example.com", Seconds(0)).ok());
  EXPECT_EQ(resolve("no.example.com", Seconds(0)).rcode, Rcode::kNxDomain);
  EXPECT_TRUE(resolve("www.faulty.net", Seconds(0)).ok());
  expect_counts({0, 3, 3, 0, 0, 3});

  // All three expired: the two zone answers refresh in place...
  const auto refreshed = resolve("direct.example.com", Seconds(61));
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed.addresses[0], Ipv4(10, 0, 0, 7));
  EXPECT_EQ(refreshed.upstream_queries, 1);
  EXPECT_EQ(resolve("no.example.com", Seconds(61)).rcode, Rcode::kNxDomain);
  expect_counts({0, 5, 5, 0, 0, 3});
  // ...and are cached again, the negative answer included.
  EXPECT_TRUE(resolve("direct.example.com", Seconds(62)).ok());
  const auto negative = resolve("no.example.com", Seconds(62));
  EXPECT_EQ(negative.rcode, Rcode::kNxDomain);
  EXPECT_EQ(negative.upstream_queries, 0);
  expect_counts({2, 5, 5, 0, 0, 3});
  EXPECT_EQ(site_zone_.queries, 4);

  // Every attempt at the faulty zone is lost: SERVFAIL, and the expired
  // entry is gone rather than refreshed or negative-cached.
  const auto lost = resolve("www.faulty.net", Seconds(100));
  EXPECT_EQ(lost.rcode, Rcode::kServFail);
  EXPECT_TRUE(lost.timed_out);
  expect_counts({2, 6, 8, 2, 1, 2});
  // Once the outage ends the name is a plain miss, inserted anew.
  EXPECT_TRUE(resolve("www.faulty.net", Hours(1)).ok());
  expect_counts({2, 7, 9, 2, 1, 3});
  EXPECT_EQ(faulty_zone.queries, 2);
}

TEST(ResolverCachePressure, FullCacheKeepsHotRecords) {
  // Regression: the pressure valve used to drop the *entire* cache when
  // purging expired entries left it full; it must evict the
  // soonest-to-expire entries instead, so hot long-TTL records survive.
  StaticZone zone{Name::parse("example.com"), HostId{}};
  zone.add(ResourceRecord::a(Name::parse("hot.example.com"),
                             Ipv4(10, 0, 0, 1), Hours(4)));
  for (int i = 0; i < 8; ++i) {
    zone.add(ResourceRecord::a(
        Name::parse("churn" + std::to_string(i) + ".example.com"),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(10 + i)), Seconds(1)));
  }
  ZoneRegistry registry;
  registry.register_zone(Name::parse("example.com"), &zone);

  ResolverConfig config;
  config.max_cache_entries = 4;
  RecursiveResolver resolver{HostId{1}, registry, nullptr, config};

  const SimTime t0 = SimTime::epoch();
  ASSERT_TRUE(resolver.resolve(Name::parse("hot.example.com"), t0).ok());
  // Overflow the cache with short-TTL churn, all unexpired at store time.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(resolver
                    .resolve(Name::parse("churn" + std::to_string(i) +
                                         ".example.com"),
                             t0)
                    .ok());
  }
  EXPECT_LE(resolver.cache_size(), 4u);

  // The hot record is still within its TTL: it must answer from cache,
  // not go upstream again.
  const std::size_t sent_before = resolver.queries_sent();
  const std::size_t hits_before = resolver.cache_hits();
  const auto again =
      resolver.resolve(Name::parse("hot.example.com"), t0 + Seconds(30));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.addresses.front(), Ipv4(10, 0, 0, 1));
  EXPECT_EQ(resolver.queries_sent(), sent_before);
  EXPECT_EQ(resolver.cache_hits(), hits_before + 1);
}

TEST(ResolverChain, ThreeLinkChainSurvivesEveryCacheSize) {
  // www.example.com CNAME alias.mid.net (1 h), which CNAMEs edge.cdn.net
  // (5 min), which has an A record (20 s). Each cache size resolves it
  // twice, 30 s apart: with caching off the answers live in one reused
  // buffer, and a cache of 1 or 2 entries evicts links of the chain
  // while it is being followed. The answers and counters must not care.
  StaticZone site{Name::parse("example.com"), HostId{}};
  site.add(ResourceRecord::cname(Name::parse("www.example.com"),
                                 Name::parse("alias.mid.net"), Hours(1)));
  StaticZone mid{Name::parse("mid.net"), HostId{}};
  mid.add(ResourceRecord::cname(Name::parse("alias.mid.net"),
                                Name::parse("edge.cdn.net"), Minutes(5)));
  StaticZone cdn{Name::parse("cdn.net"), HostId{}};
  cdn.add(ResourceRecord::a(Name::parse("edge.cdn.net"), Ipv4(10, 0, 0, 9),
                            Seconds(20)));
  ZoneRegistry registry;
  registry.register_zone(Name::parse("example.com"), &site);
  registry.register_zone(Name::parse("mid.net"), &mid);
  registry.register_zone(Name::parse("cdn.net"), &cdn);

  struct Case {
    std::size_t max_cache_entries;
    std::size_t hits;
    std::size_t misses;
    std::size_t queries_sent;
  };
  const std::size_t default_size = ResolverConfig{}.max_cache_entries;
  for (const Case& c : {Case{0, 0, 6, 6}, Case{1, 0, 6, 6}, Case{2, 1, 5, 5},
                        Case{default_size, 2, 4, 4}}) {
    SCOPED_TRACE(c.max_cache_entries);
    ResolverConfig config;
    config.max_cache_entries = c.max_cache_entries;
    RecursiveResolver resolver{HostId{1}, registry, nullptr, config};
    for (const SimTime t : {SimTime::epoch(), SimTime::epoch() + Seconds(30)}) {
      const ResolveResult result =
          resolver.resolve(Name::parse("www.example.com"), t);
      EXPECT_EQ(result.rcode, Rcode::kNoError);
      EXPECT_EQ(result.addresses, std::vector<Ipv4>{Ipv4(10, 0, 0, 9)});
      ASSERT_EQ(result.chain.size(), 3u);
      EXPECT_EQ(result.chain[0].name, Name::parse("www.example.com"));
      EXPECT_EQ(result.chain[0].type, RecordType::kCname);
      EXPECT_EQ(result.chain[0].target, Name::parse("alias.mid.net"));
      EXPECT_EQ(result.chain[1].name, Name::parse("alias.mid.net"));
      EXPECT_EQ(result.chain[1].type, RecordType::kCname);
      EXPECT_EQ(result.chain[1].target, Name::parse("edge.cdn.net"));
      EXPECT_EQ(result.chain[2].name, Name::parse("edge.cdn.net"));
      EXPECT_EQ(result.chain[2].type, RecordType::kA);
      EXPECT_EQ(result.chain[2].address, Ipv4(10, 0, 0, 9));
    }
    EXPECT_EQ(resolver.cache_hits(), c.hits);
    EXPECT_EQ(resolver.cache_misses(), c.misses);
    EXPECT_EQ(resolver.queries_sent(), c.queries_sent);
    EXPECT_LE(resolver.cache_size(), c.max_cache_entries);
  }
}

class ResolverFaultTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kServerHost = 99;

  ResolverFaultTest() : zone_([] {
    StaticZone z{Name::parse("faulty.net"), HostId{kServerHost}};
    z.add(ResourceRecord::a(Name::parse("www.faulty.net"), Ipv4(10, 0, 0, 5),
                            Seconds(60)));
    return z;
  }()) {
    registry_.register_zone(Name::parse("faulty.net"), &zone_);
  }

  CountingZone zone_;
  ZoneRegistry registry_;
};

TEST_F(ResolverFaultTest, NoPlanLeavesFaultPathInert) {
  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  const auto result =
      resolver.resolve(Name::parse("www.faulty.net"), SimTime::epoch());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.upstream_queries, 1);
  EXPECT_EQ(resolver.retries(), 0u);
  EXPECT_EQ(resolver.timeouts(), 0u);
  EXPECT_EQ(resolver.outage_refusals(), 0u);
}

TEST_F(ResolverFaultTest, UpstreamOutageExhaustsRetriesWithServFail) {
  sim::FaultPlan plan{7};
  sim::FaultRule rule;
  rule.kind = sim::FaultKind::kResolverOutage;
  rule.end = SimTime::epoch() + Hours(1);
  rule.entity = kServerHost;
  plan.add(rule);

  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  resolver.set_fault_plan(&plan);
  const auto result =
      resolver.resolve(Name::parse("www.faulty.net"), SimTime::epoch());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rcode, Rcode::kServFail);
  EXPECT_TRUE(result.timed_out);
  // Default config: 1 + max_retries(2) attempts, all lost.
  EXPECT_EQ(result.upstream_queries, 3);
  EXPECT_EQ(resolver.retries(), 2u);
  EXPECT_EQ(resolver.timeouts(), 1u);
  // Lost attempts never reach the authoritative.
  EXPECT_EQ(zone_.queries, 0);
  // Elapsed: 3 timeouts of 400 ms plus backoffs 200 + 400 ms.
  EXPECT_EQ(result.elapsed, Millis(1800));
}

// The backoff before retry k is retry_backoff * 2^(k-1), in 64 bits.
// Under an all-lost outage, elapsed is the closed form (r + 1) timeouts
// plus backoff * (2^r - 1) while that fits in int64; past it, a retry
// whose charge would leave the range is not attempted, so elapsed stops
// at the last count that fits and never decreases as max_retries grows.
// (An int shift used to wrap at 32 retries and overflow at 33, and
// INT_MAX retries overflowed the attempt count; run this in the UBSan
// build.)
TEST_F(ResolverFaultTest, RetryBackoffStaysInTheInt64Range) {
  sim::FaultPlan plan{7};
  sim::FaultRule rule;
  rule.kind = sim::FaultKind::kResolverOutage;
  rule.end = SimTime::epoch() + Hours(1);
  rule.entity = kServerHost;
  plan.add(rule);

  const ResolverConfig defaults;
  // The closed form for r retries, exact in long double (64-bit
  // mantissa at least) wherever it fits in int64, and whether it does.
  const auto closed_form = [&](int r) {
    return static_cast<long double>(defaults.query_timeout.micros()) *
               (static_cast<long double>(r) + 1) +
           static_cast<long double>(defaults.retry_backoff.micros()) *
               (std::ldexp(1.0L, r) - 1);
  };
  const auto fits = [&](int r) {
    return closed_form(r) <=
           static_cast<long double>(std::numeric_limits<std::int64_t>::max());
  };
  std::vector<int> sweep(71);
  std::iota(sweep.begin(), sweep.end(), 0);
  sweep.push_back(std::numeric_limits<int>::max());
  Duration previous{0};
  int saturated = 0;
  for (const int max_retries : sweep) {
    SCOPED_TRACE("max_retries " + std::to_string(max_retries));
    ResolverConfig config;
    config.max_retries = max_retries;
    RecursiveResolver resolver{HostId{1}, registry_, nullptr, config};
    resolver.set_fault_plan(&plan);
    const auto result =
        resolver.resolve(Name::parse("www.faulty.net"), SimTime::epoch());
    EXPECT_EQ(result.rcode, Rcode::kServFail);
    EXPECT_TRUE(result.timed_out);
    EXPECT_EQ(resolver.timeouts(), 1u);
    const int retried = result.upstream_queries - 1;
    EXPECT_EQ(resolver.retries(), static_cast<std::size_t>(retried));
    ASSERT_TRUE(fits(retried));
    EXPECT_EQ(static_cast<long double>(result.elapsed.micros()),
              closed_form(retried));
    if (fits(max_retries)) {
      EXPECT_EQ(retried, max_retries);
    } else {
      // Stopped at the last retry count whose charges fit.
      EXPECT_LT(retried, max_retries);
      EXPECT_FALSE(fits(retried + 1));
      ++saturated;
    }
    EXPECT_GE(result.elapsed, previous);
    previous = result.elapsed;
  }
  EXPECT_GT(saturated, 20);
  EXPECT_EQ(zone_.queries, 0);
}

TEST_F(ResolverFaultTest, FaultServFailIsNotNegativeCached) {
  sim::FaultPlan plan{7};
  sim::FaultRule rule;
  rule.kind = sim::FaultKind::kResolverOutage;
  rule.end = SimTime::epoch() + Hours(1);
  rule.entity = kServerHost;
  plan.add(rule);

  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  resolver.set_fault_plan(&plan);
  ASSERT_FALSE(
      resolver.resolve(Name::parse("www.faulty.net"), SimTime::epoch()).ok());
  // One instant after the outage window: the answer must come straight
  // back — a negative-cached SERVFAIL would pin the failure for its TTL.
  const auto recovered = resolver.resolve(Name::parse("www.faulty.net"),
                                          SimTime::epoch() + Hours(1));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.timed_out);
  EXPECT_EQ(zone_.queries, 1);
}

TEST_F(ResolverFaultTest, RetryRecoversFromPerAttemptTimeout) {
  sim::FaultPlan plan{21};
  sim::FaultRule rule;
  rule.kind = sim::FaultKind::kQueryTimeout;
  rule.probability = 0.5;
  rule.entity = kServerHost;
  plan.add(rule);

  // Per-attempt draws are a pure hash, so hunt for a resolver host whose
  // first attempt is lost and whose second succeeds, then check the
  // resolver walks exactly that path.
  const SimTime t = SimTime::epoch();
  HostId lucky{};
  for (std::uint32_t h = 1; h < 200; ++h) {
    if (plan.query_timed_out(HostId{h}, HostId{kServerHost}, t, 0) &&
        !plan.query_timed_out(HostId{h}, HostId{kServerHost}, t, 1)) {
      lucky = HostId{h};
      break;
    }
  }
  ASSERT_TRUE(lucky.valid());

  RecursiveResolver resolver{lucky, registry_, nullptr};
  resolver.set_fault_plan(&plan);
  const auto result = resolver.resolve(Name::parse("www.faulty.net"), t);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.upstream_queries, 2);  // lost + successful
  EXPECT_EQ(resolver.retries(), 1u);
  EXPECT_EQ(resolver.timeouts(), 0u);
  EXPECT_EQ(zone_.queries, 1);  // the lost attempt never arrived
  // The recovered answer still paid for the loss: timeout + backoff.
  EXPECT_GE(result.elapsed, Millis(600));
}

TEST_F(ResolverFaultTest, DownResolverRefusesWithoutUpstreamWork) {
  sim::FaultPlan plan{7};
  sim::FaultRule rule;
  rule.kind = sim::FaultKind::kResolverOutage;
  rule.end = SimTime::epoch() + Hours(1);
  plan.add(rule);  // unscoped: every host is down, including the resolver

  RecursiveResolver resolver{HostId{1}, registry_, nullptr};
  resolver.set_fault_plan(&plan);
  const auto result =
      resolver.resolve(Name::parse("www.faulty.net"), SimTime::epoch());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rcode, Rcode::kServFail);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(resolver.outage_refusals(), 1u);
  EXPECT_EQ(resolver.queries_sent(), 0u);
  EXPECT_EQ(zone_.queries, 0);
  EXPECT_EQ(result.elapsed, Millis(400));
}

}  // namespace
}  // namespace crp::dns
