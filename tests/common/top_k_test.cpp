#include "common/top_k.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace crp {
namespace {

// (value desc, id asc) — a total order even with duplicate values, the
// shape every engine/service ranking uses.
struct Item {
  double value = 0.0;
  std::uint32_t id = 0;
  bool operator==(const Item&) const = default;
};

bool better(const Item& a, const Item& b) {
  return a.value > b.value || (a.value == b.value && a.id < b.id);
}

std::vector<Item> sort_truncate(std::vector<Item> items, std::size_t k) {
  std::sort(items.begin(), items.end(), better);
  if (items.size() > k) items.resize(k);
  return items;
}

std::vector<Item> heap_top_k(const std::vector<Item>& items, std::size_t k) {
  BoundedTopK<Item, decltype(&better)> heap(k, &better);
  for (const Item& item : items) heap.offer(item);
  return heap.take_sorted();
}

TEST(BoundedTopKTest, MatchesSortTruncateOnRandomInputs) {
  Rng rng{1234};
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    std::vector<Item> items;
    for (std::size_t i = 0; i < n; ++i) {
      // Coarse values force plenty of exact ties.
      items.push_back(Item{rng.uniform_int(0, 5) * 0.25,
                           static_cast<std::uint32_t>(i)});
    }
    rng.shuffle(items);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, n / 2, n, n + 7}) {
      EXPECT_EQ(heap_top_k(items, k), sort_truncate(items, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(BoundedTopKTest, ResultIndependentOfOfferOrder) {
  Rng rng{77};
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 40; ++i) {
    items.push_back(Item{rng.uniform_int(0, 3) * 0.5, i});
  }
  const auto expected = heap_top_k(items, 10);
  for (int round = 0; round < 20; ++round) {
    rng.shuffle(items);
    EXPECT_EQ(heap_top_k(items, 10), expected);
  }
}

TEST(BoundedTopKTest, ZeroKKeepsNothing) {
  BoundedTopK<Item, decltype(&better)> heap(0, &better);
  heap.offer(Item{1.0, 0});
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_TRUE(heap.take_sorted().empty());
}

TEST(BoundedTopKTest, KeepsEverythingWhenKExceedsInput) {
  const std::vector<Item> items = {{0.5, 2}, {0.5, 1}, {0.9, 3}};
  const auto kept = heap_top_k(items, 100);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0], (Item{0.9, 3}));
  EXPECT_EQ(kept[1], (Item{0.5, 1}));  // tie broken by id asc
  EXPECT_EQ(kept[2], (Item{0.5, 2}));
}

TEST(BoundedTopKTest, BoundAndSizeReport) {
  BoundedTopK<Item, decltype(&better)> heap(2, &better);
  EXPECT_EQ(heap.bound(), 2u);
  heap.offer(Item{0.1, 0});
  EXPECT_EQ(heap.size(), 1u);
  heap.offer(Item{0.2, 1});
  heap.offer(Item{0.3, 2});
  EXPECT_EQ(heap.size(), 2u);
  // Equal to the worst kept item by value, but better by id: a tie goes
  // through the full comparison, and it enters.
  heap.offer(Item{0.2, 0});
  EXPECT_EQ(heap.take_sorted(),
            (std::vector<Item>{Item{0.3, 2}, Item{0.2, 0}}));
}

}  // namespace
}  // namespace crp
