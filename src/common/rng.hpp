// Deterministic random number generation.
//
// All randomness in the repository flows from a single user-supplied seed
// through `Rng` so that every experiment is exactly reproducible. The
// generator is xoshiro256** (public domain, Blackman & Vigna), seeded via
// splitmix64. `Rng::fork` derives an independent child stream, which lets
// subsystems draw without perturbing each other's sequences.
//
// `hash_mix` exposes the stateless counterpart: a 64-bit mixing function
// used to derive pseudo-random values from (entity, epoch) pairs without
// storing any state — the backbone of the deterministic latency-dynamics
// and CDN-measurement-noise models, whose noise terms are `HashNormal`
// draws.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <numbers>
#include <span>
#include <string_view>
#include <vector>

namespace crp {

/// SplitMix64 step: advances `state` and returns the next output.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mixer with good avalanche behaviour. Combining values
/// with successive calls (`hash_mix(hash_mix(a) ^ b)`) yields a cheap,
/// deterministic pseudo-random function of the inputs.
[[nodiscard]] constexpr std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Continues a `hash_combine` fold from `state` with more keys:
/// `hash_extend(hash_combine({a, b}), {c}) == hash_combine({a, b, c})`
/// bit for bit, so a hot path can fold its fixed leading keys once and
/// hash only the keys that vary.
[[nodiscard]] constexpr std::uint64_t hash_extend(
    std::uint64_t state, std::initializer_list<std::uint64_t> keys) {
  for (std::uint64_t k : keys) {
    state = hash_mix(state ^ (k + 0x9e3779b97f4a7c15ULL));
  }
  return state;
}

/// Combines an arbitrary list of 64-bit keys into one well-mixed value.
[[nodiscard]] constexpr std::uint64_t hash_combine(
    std::initializer_list<std::uint64_t> keys) {
  return hash_extend(0x9e3779b97f4a7c15ULL, keys);
}

/// Maps a 64-bit hash to a double uniformly distributed in [0, 1).
[[nodiscard]] constexpr double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One standard-normal draw as a pure function of a hash: Box–Muller over
/// u1 = hash_to_unit(h), clamped to at least 1e-12, and u2 =
/// hash_to_unit(hash_mix(h ^ salt)). Each model that draws noise has its
/// own salt. The top four bits of the two hashes are ⌊16·u1⌋ and
/// ⌊16·u2⌋, the draw's cell in a `LognormalFactor`'s floor table, so a
/// caller can bound the draw before it pays for `log`, `sqrt` and `cos`.
class HashNormal {
 public:
  static constexpr std::size_t kCellsPerAxis = 16;

  constexpr HashNormal(std::uint64_t h, std::uint64_t salt)
      : h1_(h), h2_(hash_mix(h ^ salt)) {}

  /// The deviate.
  [[nodiscard]] double z() const {
    double u1 = hash_to_unit(h1_);
    const double u2 = hash_to_unit(h2_);
    if (u1 <= 1e-12) u1 = 1e-12;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// ⌊16·u1⌋ · 16 + ⌊16·u2⌋.
  [[nodiscard]] constexpr std::size_t cell() const {
    return static_cast<std::size_t>((h1_ >> 60) * kCellsPerAxis +
                                    (h2_ >> 60));
  }

 private:
  std::uint64_t h1_;
  std::uint64_t h2_;
};

/// A log-normal factor exp(sigma · z) of `HashNormal` draws, and a floor
/// for each of the draw's 16 × 16 cells (2 KiB), built once per sigma:
/// `floor(draw) <= (*this)(draw)` for every draw and any sign of sigma
/// (DESIGN.md §6, "Estimate floors").
class LognormalFactor {
 public:
  explicit LognormalFactor(double sigma);

  [[nodiscard]] double operator()(const HashNormal& draw) const {
    return std::exp(sigma_ * draw.z());
  }
  /// A lower bound of the factor that reads only the draw's cell.
  [[nodiscard]] double floor(const HashNormal& draw) const {
    return floors_[draw.cell()];
  }

 private:
  double sigma_;
  std::array<double, HashNormal::kCellsPerAxis * HashNormal::kCellsPerAxis>
      floors_{};
};

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies `std::uniform_random_bit_generator`, so it can also back
/// standard-library distributions and `std::shuffle`.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Raw 64 random bits.
  result_type operator()();

  /// Derives an independent child generator. `salt` distinguishes multiple
  /// forks from the same parent state.
  [[nodiscard]] Rng fork(std::uint64_t salt);

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal deviate (Box–Muller, no caching).
  double normal();
  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Log-normal deviate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Exponential deviate with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Pareto deviate with scale x_m and shape alpha (heavy tail).
  double pareto(double x_m, double alpha);
  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Uniformly random element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>{items});
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

  /// Picks an index with probability proportional to `weights[i]`.
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights);

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Stable 64-bit hash of a string (FNV-1a), for seeding from names.
/// `constexpr`, so a tag literal hashed on a hot path can be folded into
/// a named constant at compile time.
[[nodiscard]] constexpr std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace crp
