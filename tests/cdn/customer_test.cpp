#include "cdn/customer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "../test_util.hpp"

namespace crp::cdn {
namespace {

TEST(CustomerCatalog, BuildsRequestedCustomers) {
  test::MiniWorld world{12};
  EXPECT_EQ(world.catalog.size(), 2u);
  EXPECT_EQ(world.catalog.customer(0).web_name,
            dns::Name::parse("img.customer0.example"));
  EXPECT_EQ(world.catalog.customer(0).cdn_name,
            dns::Name::parse("c0.g.cdnsim.net"));
}

TEST(CustomerCatalog, SubsetSizeMatchesFraction) {
  test::MiniWorld world{13};
  std::size_t edge = 0;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    if (!r.origin_fallback) ++edge;
  }
  for (const Customer& c : world.catalog.customers()) {
    EXPECT_NEAR(static_cast<double>(c.replica_subset.size()),
                0.8 * static_cast<double>(edge), 2.0);
  }
}

TEST(CustomerCatalog, SubsetsExcludeFallbacksAndAreSorted) {
  test::MiniWorld world{14};
  for (const Customer& c : world.catalog.customers()) {
    EXPECT_TRUE(std::is_sorted(c.replica_subset.begin(),
                               c.replica_subset.end()));
    for (ReplicaId id : c.replica_subset) {
      EXPECT_FALSE(world.deployment.is_origin_fallback(id));
    }
  }
}

TEST(CustomerCatalog, DifferentCustomersGetDifferentSubsets) {
  test::MiniWorld world{15};
  EXPECT_NE(world.catalog.customer(0).replica_subset,
            world.catalog.customer(1).replica_subset);
}

TEST(Customer, ServesBinarySearch) {
  // `serves` reads a bitmap; for every customer it must answer what a
  // binary search of the sorted subset answers, for every id up to 64
  // past the largest replica id (fallbacks included), so a word or bit
  // index that is off shows up.
  test::MiniWorld world{16};
  std::uint32_t largest = 0;
  for (const ReplicaServer& r : world.deployment.replicas()) {
    largest = std::max(largest, r.id.value());
  }
  ASSERT_GE(largest, 64u);  // the subsets span more than one word
  for (const Customer& c : world.catalog.customers()) {
    for (std::uint32_t v = 0; v <= largest + 64; ++v) {
      const ReplicaId id{v};
      EXPECT_EQ(c.serves(id), std::binary_search(c.replica_subset.begin(),
                                                 c.replica_subset.end(), id))
          << "customer " << c.index << ", replica " << v;
    }
    for (ReplicaId fallback : world.deployment.fallbacks()) {
      EXPECT_FALSE(c.serves(fallback));
    }
    EXPECT_FALSE(c.serves(ReplicaId{}));
  }
}

TEST(CustomerCatalog, ByCdnName) {
  test::MiniWorld world{17};
  EXPECT_EQ(world.catalog.by_cdn_name(dns::Name::parse("c1.g.cdnsim.net")),
            &world.catalog.customer(1));
  EXPECT_EQ(world.catalog.by_cdn_name(dns::Name::parse("cx.g.cdnsim.net")),
            nullptr);
}

TEST(CustomerCatalog, WebNamesInOrder) {
  test::MiniWorld world{18};
  const auto names = world.catalog.web_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], world.catalog.customer(0).web_name);
  EXPECT_EQ(names[1], world.catalog.customer(1).web_name);
}

TEST(CustomerCatalog, CdnNamesFallUnderZone) {
  test::MiniWorld world{19};
  for (const Customer& c : world.catalog.customers()) {
    EXPECT_TRUE(c.cdn_name.is_subdomain_of(world.catalog.cdn_zone()));
  }
}

}  // namespace
}  // namespace crp::cdn
