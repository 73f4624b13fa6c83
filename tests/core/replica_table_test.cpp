#include "core/replica_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace crp::core::engine_detail {
namespace {

constexpr std::uint32_t kNoList = ReplicaTable::kNoList;

/// The first `n` ids after `after` whose probe sequence starts at the
/// same cell as `after`'s in `table` as it is now.
std::vector<ReplicaId> colliding_with(const ReplicaTable& table,
                                      ReplicaId after, std::size_t n) {
  std::vector<ReplicaId> out;
  for (std::uint32_t v = after.value() + 1; out.size() < n; ++v) {
    if (table.home(ReplicaId{v}) == table.home(after)) {
      out.push_back(ReplicaId{v});
    }
  }
  return out;
}

TEST(ReplicaTable, MissesOnAnEmptyTable) {
  const ReplicaTable table;
  EXPECT_EQ(table.size(), 0u);
  for (const std::uint32_t v : {0u, 1u, 0x80000000u, 0xffffffffu}) {
    EXPECT_EQ(table.find(ReplicaId{v}), kNoList) << v;
  }
}

// Ids sharing a home cell land in successive cells; a lookup must probe
// past the home cell to find any but the first, and a miss must probe
// past all of them.
TEST(ReplicaTable, CollidingIdsProbePastTheirHomeCell) {
  ReplicaTable table;
  const ReplicaId first{7};
  const std::vector<ReplicaId> others = colliding_with(table, first, 4);
  const std::size_t capacity = table.capacity();
  table.insert(first, 0);
  for (std::uint32_t i = 0; i < 3; ++i) table.insert(others[i], i + 1);
  ASSERT_EQ(table.capacity(), capacity) << "a resize moved the home cells";

  EXPECT_EQ(table.find(first), 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(table.find(others[i]), i + 1) << others[i].value();
  }
  EXPECT_EQ(table.find(others[3]), kNoList);
}

TEST(ReplicaTable, ExtremeIdsAreOrdinaryKeys) {
  ReplicaTable table;
  const std::vector<std::uint32_t> ids{0u, 0x80000000u, 0xffffffffu};
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.find(ReplicaId{ids[i]}), kNoList);
    table.insert(ReplicaId{ids[i]}, i);
  }
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(table.find(ReplicaId{ids[i]}), i) << ids[i];
  }
  EXPECT_EQ(table.find(ReplicaId{1}), kNoList);
  EXPECT_EQ(table.find(ReplicaId{0xfffffffeu}), kNoList);
}

// Filled to its load limit — half its cells — the table must still
// answer every hit and terminate every miss.
TEST(ReplicaTable, MissesOnAFullTable) {
  ReplicaTable table;
  const std::size_t capacity = table.capacity();
  for (std::uint32_t i = 0; i < capacity / 2; ++i) {
    table.insert(ReplicaId{i * 3}, i);
  }
  ASSERT_EQ(table.capacity(), capacity);
  ASSERT_EQ(2 * table.size(), table.capacity());
  for (std::uint32_t i = 0; i < capacity / 2; ++i) {
    EXPECT_EQ(table.find(ReplicaId{i * 3}), i);
    EXPECT_EQ(table.find(ReplicaId{i * 3 + 1}), kNoList);
  }
  EXPECT_EQ(table.find(ReplicaId{0xffffffffu}), kNoList);
}

// Growth rehashes every mapping across several doublings; the capacity
// stays a power of two at least twice the size, whatever the id values.
TEST(ReplicaTable, GrowsAcrossResizesKeepingEveryMapping) {
  ReplicaTable table;
  std::vector<std::size_t> capacities{table.capacity()};
  const auto id_of = [](std::uint32_t i) {
    return ReplicaId{i * 2654435761u + 0x7fffffffu};
  };
  for (std::uint32_t i = 0; i < 5000; ++i) {
    table.insert(id_of(i), i);
    if (table.capacity() != capacities.back()) {
      capacities.push_back(table.capacity());
      for (std::uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(table.find(id_of(j)), j) << "after growing to "
                                           << table.capacity();
      }
    }
    ASSERT_LE(2 * table.size(), table.capacity());
  }
  EXPECT_GE(capacities.size(), 6u);
  for (const std::size_t c : capacities) EXPECT_TRUE((c & (c - 1)) == 0) << c;
  EXPECT_EQ(table.size(), 5000u);
  EXPECT_EQ(table.find(id_of(5000)), kNoList);

  // Capacity depends on the count only: small ids need as many cells.
  ReplicaTable small;
  for (std::uint32_t i = 0; i < 5000; ++i) small.insert(ReplicaId{i}, i);
  EXPECT_EQ(small.capacity(), table.capacity());
}

TEST(ReplicaTable, ForEachVisitsEachMappingOnce) {
  ReplicaTable table;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const std::uint32_t id = 0xffffffffu - i * 977;
    table.insert(ReplicaId{id}, i);
    want.emplace_back(id, i);
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  table.for_each([&got](ReplicaId id, std::uint32_t list) {
    got.emplace_back(id.value(), list);
  });
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace crp::core::engine_detail
