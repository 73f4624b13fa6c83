// Randomized invariant sweeps across modules: properties that must hold
// for *any* input, checked over many seeded random cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "dns/name.hpp"
#include "sim/event_scheduler.hpp"

namespace crp {
namespace {

// --- RatioMap canonicalization ---

TEST(RatioMapInvariants, RandomInputsAlwaysCanonical) {
  Rng rng{1001};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<core::RatioMap::Entry> entries;
    const int n = static_cast<int>(rng.uniform_int(0, 20));
    for (int i = 0; i < n; ++i) {
      // Deliberately hostile: duplicates, zeros, negatives.
      entries.emplace_back(
          ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))},
          rng.uniform(-0.5, 1.5));
    }
    const core::RatioMap map = core::RatioMap::from_ratios(entries);

    // Entries sorted by replica, strictly positive ratios, no dups.
    double sum = 0.0;
    ReplicaId prev;
    for (const auto& [replica, ratio] : map.entries()) {
      ASSERT_GT(ratio, 0.0);
      if (prev.valid()) {
        ASSERT_LT(prev, replica);
      }
      prev = replica;
      sum += ratio;
    }
    if (!map.empty()) {
      ASSERT_NEAR(sum, 1.0, 1e-9);
      ASSERT_NEAR(core::cosine_similarity(map, map), 1.0, 1e-9);
      ASSERT_LE(map.strongest_mapping(), 1.0 + 1e-12);
      ASSERT_GE(map.norm(), map.strongest_mapping() - 1e-12);
    }
  }
}

// --- Selection consistency ---

TEST(SelectionInvariants, TopKIsPrefixOfFullRanking) {
  Rng rng{1002};
  const auto random_map = [&rng] {
    std::vector<core::RatioMap::Entry> entries;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      entries.emplace_back(
          ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 11))},
          rng.uniform(0.05, 1.0));
    }
    return core::RatioMap::from_ratios(entries);
  };
  for (int trial = 0; trial < 100; ++trial) {
    const core::RatioMap client = random_map();
    std::vector<core::RatioMap> candidates;
    for (int i = 0; i < 12; ++i) candidates.push_back(random_map());

    const auto full = core::rank_candidates(client, candidates);
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, candidates.size()}) {
      const auto top = core::select_top_k(client, candidates, k);
      ASSERT_EQ(top.size(), std::min(k, candidates.size()));
      for (std::size_t i = 0; i < top.size(); ++i) {
        ASSERT_EQ(top[i].index, full[i].index);
      }
    }
    // Similarities nonincreasing along the ranking.
    for (std::size_t i = 1; i < full.size(); ++i) {
      ASSERT_GE(full[i - 1].similarity, full[i].similarity);
    }
    ASSERT_EQ(core::select_closest(client, candidates), full.front().index);
  }
}

// --- Event scheduler stress ---

TEST(SchedulerInvariants, RandomEventsFireInNondecreasingTimeOrder) {
  Rng rng{1003};
  sim::EventScheduler sched;
  std::vector<std::int64_t> fired;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t when = rng.uniform_int(0, 10'000);
    handles.push_back(sched.at(SimTime{when}, [&fired, &sched] {
      fired.push_back(sched.now().micros());
    }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (rng.bernoulli(1.0 / 3.0)) {
      sched.cancel(handles[i]);
      ++cancelled;
    }
  }
  sched.run_all();
  EXPECT_EQ(fired.size(), 500 - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(SchedulerInvariants, NestedSchedulingKeepsOrder) {
  Rng rng{1004};
  sim::EventScheduler sched;
  std::vector<std::int64_t> fired;
  // Events that schedule further events relative to their own time.
  std::function<void(int)> spawn = [&](int depth) {
    fired.push_back(sched.now().micros());
    if (depth > 0) {
      const std::int64_t delta = rng.uniform_int(1, 50);
      sched.after(Micros(delta), [&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 30; ++i) {
    sched.at(SimTime{rng.uniform_int(0, 100)}, [&spawn] { spawn(5); });
  }
  sched.run_all();
  EXPECT_EQ(fired.size(), 30u * 6u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// --- DNS name round trips ---

TEST(NameInvariants, RandomNamesRoundTripThroughText) {
  Rng rng{1005};
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const int labels = static_cast<int>(rng.uniform_int(1, 5));
    for (int l = 0; l < labels; ++l) {
      if (l != 0) text += '.';
      const int len = static_cast<int>(rng.uniform_int(1, 12));
      for (int c = 0; c < len; ++c) {
        const char* alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-";
        text += alphabet[rng.uniform_int(0, 36)];
      }
    }
    const dns::Name name = dns::Name::parse(text);
    ASSERT_EQ(dns::Name::parse(name.to_string()), name) << text;
    ASSERT_TRUE(name.is_subdomain_of(name));
  }
}

TEST(NameInvariants, PrefixedAlwaysSubdomain) {
  Rng rng{1006};
  for (int trial = 0; trial < 100; ++trial) {
    const dns::Name base = dns::Name::parse(
        "zone" + std::to_string(rng.uniform_int(0, 99)) + ".example");
    std::string label = "c";
    label += std::to_string(rng.uniform_int(0, 99));
    const dns::Name child = base.prefixed(label);
    ASSERT_TRUE(child.is_subdomain_of(base));
    ASSERT_FALSE(base.is_subdomain_of(child));
    ASSERT_EQ(child.num_labels(), base.num_labels() + 1);
  }
}

}  // namespace
}  // namespace crp
