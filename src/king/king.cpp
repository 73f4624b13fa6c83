#include "king/king.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace crp::king {

KingEstimator::KingEstimator(const netsim::LatencyOracle& oracle,
                             HostId client, KingConfig config)
    : oracle_(&oracle), client_(client), config_(config) {}

namespace {
double hash_lognormal(std::uint64_t h, double sigma) {
  return std::exp(sigma * HashNormal{h, 0xfeedfaceULL}.z());
}
}  // namespace

double KingEstimator::one_trial_ms(HostId r1, HostId r2, SimTime t,
                                   std::uint64_t salt) const {
  // Turnaround 1: C -> R1, answered from R1's cache.
  const std::uint64_t h1 = hash_combine(
      {config_.seed, stable_hash("king-t1"), client_.value(), r1.value(),
       r2.value(), salt});
  const double cached_turnaround =
      oracle_->rtt_ms(client_, r1, t) *
      hash_lognormal(h1, config_.client_noise_sigma);

  // Turnaround 2: C -> R1 -> R2 -> R1 -> C, a moment later. The two legs
  // see (slightly) different network conditions, which is where King's
  // error comes from.
  const SimTime t2 = t + Millis(300);
  const std::uint64_t h2 = hash_combine(
      {config_.seed, stable_hash("king-t2"), client_.value(), r1.value(),
       r2.value(), salt});
  const double recursive_turnaround =
      (oracle_->rtt_ms(client_, r1, t2) + oracle_->rtt_ms(r1, r2, t2)) *
      hash_lognormal(h2, config_.client_noise_sigma);

  return recursive_turnaround - cached_turnaround;
}

double KingEstimator::estimate_ms(HostId r1, HostId r2, SimTime t) const {
  if (r1 == r2) return 0.0;
  std::vector<double> trials;
  trials.reserve(static_cast<std::size_t>(config_.samples));
  for (int i = 0; i < config_.samples; ++i) {
    const SimTime when = t + config_.trial_spacing * static_cast<double>(i);
    trials.push_back(
        one_trial_ms(r1, r2, when, static_cast<std::uint64_t>(i)));
  }
  std::sort(trials.begin(), trials.end());
  const std::size_t n = trials.size();
  const double med = n % 2 == 1
                         ? trials[n / 2]
                         : 0.5 * (trials[n / 2 - 1] + trials[n / 2]);
  return std::max(0.0, med);
}

std::vector<std::vector<double>> KingEstimator::pairwise_matrix(
    const std::vector<HostId>& hosts, SimTime t, ThreadPool* pool) const {
  const std::size_t n = hosts.size();
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  // Row i fills only its own upper-triangle cells, so rows are
  // independent; the mirror pass runs after every row is done.
  const auto fill_row = [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m[i][j] = estimate_ms(hosts[i], hosts[j], t);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) fill_row(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) m[j][i] = m[i][j];
  }
  return m;
}

}  // namespace crp::king
