#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "../test_util.hpp"

namespace crp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng{0};
  // xoshiro would be degenerate with all-zero state; seeding must avoid it.
  std::set<std::uint64_t> values;
  for (int i = 0; i < 50; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 45u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng{10};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng{11};
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    ASSERT_GE(v, -10);
    ASSERT_LE(v, -5);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{12};
  const int n = 20'000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{13};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{14};
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{15};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{16};
  int hits = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent{17};
  Rng child = parent.fork(1);
  const auto child_first = child();
  // Parent keeps producing values unrelated to the child's stream.
  EXPECT_NE(parent(), child_first);
}

TEST(Rng, ForkWithDifferentSaltsDiffers) {
  Rng parent{18};
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  EXPECT_NE(a(), b());
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng{19};
  const auto sample = rng.sample_indices(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique{sample.begin(), sample.end()};
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesFullPopulation) {
  Rng rng{20};
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique{sample.begin(), sample.end()};
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesThrowsWhenKExceedsN) {
  Rng rng{21};
  EXPECT_THROW((void)rng.sample_indices(5, 6), std::invalid_argument);
}

TEST(Rng, WeightedIndexNeverPicksZeroWeight) {
  Rng rng{22};
  const std::vector<double> weights{0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 500; ++i) {
    const std::size_t idx = rng.weighted_index(weights);
    EXPECT_TRUE(idx == 1 || idx == 3);
  }
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng{23};
  const std::vector<double> weights{1.0, 3.0};
  int hits1 = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (rng.weighted_index(weights) == 1) ++hits1;
  }
  EXPECT_NEAR(static_cast<double>(hits1) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexThrowsOnAllNonPositive) {
  Rng rng{24};
  const std::vector<double> weights{0.0, -1.0};
  EXPECT_THROW((void)rng.weighted_index(weights), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{25};
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(HashMix, AvalanchesOnSingleBitFlip) {
  const std::uint64_t a = hash_mix(0x1234);
  const std::uint64_t b = hash_mix(0x1235);
  // Expect roughly half the bits to differ.
  const int bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

TEST(HashCombine, OrderSensitive) {
  EXPECT_NE(hash_combine({1, 2}), hash_combine({2, 1}));
}

// The fold hash_combine and hash_extend document, written out: from the
// golden-ratio start, each key k maps h to hash_mix(h ^ (k + golden)).
template <std::size_t N>
std::uint64_t reference_fold(const std::array<std::uint64_t, N>& keys) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t k : keys) {
    h = hash_mix(h ^ (k + 0x9e3779b97f4a7c15ULL));
  }
  return h;
}

// hash_extend(hash_combine(keys[0, P)), keys[P, N)) == hash_combine(keys)
// == the written-out fold, for every split point P.
template <std::size_t N>
void expect_extend_continues(const std::array<std::uint64_t, N>& keys) {
  const std::uint64_t whole =
      std::apply([](auto... k) { return hash_combine({k...}); }, keys);
  ASSERT_EQ(whole, reference_fold(keys));
  const auto split = [&]<std::size_t P>(
                         std::integral_constant<std::size_t, P>) {
    const std::uint64_t prefix = [&]<std::size_t... I>(
                                     std::index_sequence<I...>) {
      return hash_combine({keys[I]...});
    }(std::make_index_sequence<P>{});
    const std::uint64_t extended = [&]<std::size_t... J>(
                                       std::index_sequence<J...>) {
      return hash_extend(prefix, {keys[P + J]...});
    }(std::make_index_sequence<N - P>{});
    EXPECT_EQ(extended, whole) << "split at " << P << " of " << N;
  };
  [&]<std::size_t... P>(std::index_sequence<P...>) {
    (split(std::integral_constant<std::size_t, P>{}), ...);
  }(std::make_index_sequence<N + 1>{});
}

template <std::size_t N, typename KeyFn>
std::array<std::uint64_t, N> draw_keys(const KeyFn& key) {
  std::array<std::uint64_t, N> keys{};
  for (std::uint64_t& k : keys) k = key();
  return keys;
}

TEST(HashExtend, ContinuesHashCombineAtEverySplit) {
  Rng rng{41};
  for (int trial = 0; trial < 200; ++trial) {
    // Full-width keys, plus small and all-ones keys (carry edges of the
    // key offset).
    const auto key = [&] {
      const double u = rng.uniform();
      if (u < 0.2) return static_cast<std::uint64_t>(rng.uniform_int(0, 3));
      if (u < 0.3) return ~std::uint64_t{0} - rng.uniform_int(0, 3);
      return rng();
    };
    [&]<std::size_t... N>(std::index_sequence<N...>) {
      (expect_extend_continues(draw_keys<N>(key)), ...);
    }(std::make_index_sequence<7>{});
  }
}

// HashNormal's deviate and cell, and every LognormalFactor floor, against
// Box-Muller recomputed by test::reference_normal: random hashes plus
// hashes forced into the 1e-12 clamp (u1 = 0 and just above), the
// smallest-u1 cell and the cells around u2 = 1/2, for positive, zero and
// negative sigmas.
TEST(LognormalFactor, FloorNeverExceedsTheFactor) {
  constexpr std::uint64_t kSalt = test::kLatencySalt;
  Rng rng{409};
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < 20000; ++i) hashes.push_back(rng());
  for (std::uint64_t k = 0; k < 2000; ++k) {
    hashes.push_back(k << 11);     // u1 = k * 2^-53, inside the clamp
    hashes.push_back(rng() >> 4);  // u1 < 1/16
  }
  for (const test::DrawCell cell :
       {test::DrawCell::kHalfU2, test::DrawCell::kBoth}) {
    for (int found = 0; found < 2000;) {
      const std::uint64_t h = rng() >> (cell == test::DrawCell::kBoth ? 4 : 0);
      if (test::draw_in(cell, h, kSalt)) {
        hashes.push_back(h);
        ++found;
      }
    }
  }
  for (const double sigma : {0.06, 0.12, 0.3, 0.5, 2.0, 0.0, -0.3, -2.0}) {
    const LognormalFactor factor{sigma};
    for (const std::uint64_t h : hashes) {
      const HashNormal draw{h, kSalt};
      const double z = test::reference_normal(h, kSalt);
      ASSERT_EQ(draw.z(), z) << h;
      ASSERT_EQ(draw.cell(),
                static_cast<std::size_t>(hash_to_unit(h) * 16) * 16 +
                    static_cast<std::size_t>(
                        hash_to_unit(hash_mix(h ^ kSalt)) * 16))
          << h;
      ASSERT_EQ(factor(draw), std::exp(sigma * z)) << h;
      ASSERT_LT(factor.floor(draw), std::exp(sigma * z))
          << "sigma " << sigma << " h " << h;
    }
  }
}

TEST(HashToUnit, InUnitInterval) {
  for (std::uint64_t x : {0ULL, 1ULL, ~0ULL, 0xdeadbeefULL}) {
    const double u = hash_to_unit(hash_mix(x));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StableHash, StableAndDistinguishes) {
  EXPECT_EQ(stable_hash("hello"), stable_hash("hello"));
  EXPECT_NE(stable_hash("hello"), stable_hash("hellp"));
  EXPECT_NE(stable_hash(""), stable_hash("a"));
}

}  // namespace
}  // namespace crp
