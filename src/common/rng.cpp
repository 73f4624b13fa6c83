#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_set>

namespace crp {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  return hash_mix(state);
}

LognormalFactor::LognormalFactor(double sigma) : sigma_(sigma) {
  // Covers the rounding of log, sqrt, cos, exp and the products (about
  // 1e-15 relative) many times over.
  constexpr double kMargin = 1e-9;
  constexpr std::size_t kAxis = HashNormal::kCellsPerAxis;
  const auto radius = [](double u1) {
    return std::sqrt(-2.0 * std::log(std::max(u1, 1e-12)));
  };
  const auto cosine = [](double u2) {
    return std::cos(2.0 * std::numbers::pi * u2);
  };
  for (std::size_t i = 0; i < kAxis; ++i) {
    // u1 in [i/16, (i+1)/16); the radius falls as u1 grows.
    const double r_max = radius(static_cast<double>(i) / kAxis);
    const double r_min = radius(static_cast<double>(i + 1) / kAxis);
    for (std::size_t j = 0; j < kAxis; ++j) {
      // u2 in [j/16, (j+1)/16]; cos(2π u2) falls to -1 at u2 = ½, then
      // rises, so its extremes are at the ends or, for the minimum, ½.
      const double a = static_cast<double>(j) / kAxis;
      const double b = static_cast<double>(j + 1) / kAxis;
      const double c_min =
          a <= 0.5 && 0.5 <= b ? -1.0 : std::min(cosine(a), cosine(b));
      const double c_max = std::max(cosine(a), cosine(b));
      // z = r · c over the cell's rectangle of (r, c).
      const double z_min = c_min < 0.0 ? r_max * c_min : r_min * c_min;
      const double z_max = c_max > 0.0 ? r_max * c_max : r_min * c_max;
      const double z = sigma >= 0.0 ? z_min - kMargin : z_max + kMargin;
      floors_[i * kAxis + j] = std::exp(sigma * z) * (1.0 - kMargin);
    }
  }
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro256** must not be seeded with all-zero state; splitmix64
  // guarantees a well-mixed non-degenerate initial state for any seed.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t salt) {
  return Rng{hash_combine({(*this)(), salt})};
}

double Rng::uniform() { return hash_to_unit((*this)()); }

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range requested
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() {
  // Box–Muller; draw u1 away from zero to keep log() finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  assert(rate > 0);
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / rate;
}

double Rng::pareto(double x_m, double alpha) {
  assert(x_m > 0 && alpha > 0);
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return x_m / std::pow(u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  if (k > n) {
    throw std::invalid_argument{"sample_indices: k > n"};
  }
  // For small k relative to n, rejection sampling beats a full shuffle.
  if (k * 3 < n) {
    std::unordered_set<std::size_t> chosen;
    std::vector<std::size_t> out;
    out.reserve(k);
    while (out.size() < k) {
      const auto idx = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (chosen.insert(idx).second) out.push_back(idx);
    }
    return out;
  }
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  shuffle(all);
  all.resize(k);
  return all;
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0 ? w : 0.0;
  if (total <= 0.0) {
    throw std::invalid_argument{"weighted_index: no positive weight"};
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  // Floating-point slack: fall back to the last positively weighted index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0) return i - 1;
  }
  return weights.size() - 1;
}

}  // namespace crp
