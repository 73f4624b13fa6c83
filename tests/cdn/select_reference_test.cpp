// Reference oracle for `LatencyDrivenPolicy::select`.
//
// `Reference` is a test-local copy of the plain redirection algorithm,
// built from public APIs only: its own nearest-replica ranking by the
// oracle's base RTT, its own served test (a binary search of the sorted
// subset), one three-argument `estimate_ms` per served candidate per
// call, a full sort, and rank weights recomputed with `std::pow` on every
// call. The policy under test keeps base RTTs in its candidate lists,
// tests service with the customer's bitmap, reads estimates through a
// per-thread memo, skips the candidates whose estimate floor exceeds its
// bar, keeps only the rotation pool's best and precomputes its weights;
// every answer must still be the reference's. The cases steer the memo
// through each kind of key change (customer order, repeated instants,
// interleaved resolvers and policies), keep the health filter per call,
// reach the poorly-covered fallback branches and every rotation-pool
// edge, and race selects on one prepared policy across a 4-worker pool
// (run under TSan in CI). SelectReferenceModels repeats the checks under
// route shift, no jitter, and noise sigmas of 0, 0.5 and below 0, where
// the floors' other cells and signs meet the pruned select.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../test_util.hpp"
#include "cdn/redirection.hpp"
#include "common/thread_pool.hpp"
#include "sim/fault_plan.hpp"

namespace crp::cdn {
namespace {

struct ReferenceAnswer {
  std::vector<ReplicaId> picks;
  bool poorly_covered = false;
  /// Lowest estimate among the ranked candidates (NaN when none).
  double front_ms = std::numeric_limits<double>::quiet_NaN();
  /// Estimate of the ranked candidate nearest by static RTT (NaN when
  /// none): the front a select would see if it skipped the sort.
  double nearest_ms = std::numeric_limits<double>::quiet_NaN();
};

/// Whether `customer` serves `id`, by binary search of its sorted subset:
/// independent of `Customer::serves`, which the policy under test uses.
bool in_subset(const Customer& customer, ReplicaId id) {
  return std::binary_search(customer.replica_subset.begin(),
                            customer.replica_subset.end(), id);
}

struct Reference {
  const netsim::LatencyOracle& oracle;
  const Deployment& deployment;
  const MeasurementSystem& measurement;
  LatencyPolicyConfig config;
  const ReplicaHealth* health = nullptr;

  [[nodiscard]] std::vector<ReplicaId> nearest(HostId resolver) const {
    std::vector<std::pair<double, ReplicaId>> ranked;
    for (const ReplicaServer& r : deployment.replicas()) {
      if (r.origin_fallback) continue;
      ranked.emplace_back(oracle.base_rtt_ms(resolver, r.host), r.id);
    }
    std::sort(ranked.begin(), ranked.end());
    const std::size_t keep = std::min(config.candidate_pool, ranked.size());
    std::vector<ReplicaId> out;
    for (std::size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
    return out;
  }

  [[nodiscard]] ReferenceAnswer select(HostId resolver,
                                       const Customer& customer, SimTime now,
                                       int count) const {
    ReferenceAnswer answer;
    if (count <= 0) return answer;
    std::vector<std::pair<double, ReplicaId>> ranked;
    for (ReplicaId id : nearest(resolver)) {
      if (!in_subset(customer, id)) continue;
      if (health != nullptr && !health->available(id, now)) continue;
      ranked.emplace_back(
          measurement.estimate_ms(resolver, deployment.replica(id).host, now),
          id);
    }
    if (!ranked.empty()) answer.nearest_ms = ranked.front().first;
    std::sort(ranked.begin(), ranked.end());
    if (!ranked.empty()) answer.front_ms = ranked.front().first;

    const std::int64_t epoch =
        now.micros() /
        std::max<std::int64_t>(1, config.rotation_epoch.micros());
    Rng rng{hash_combine({config.seed, stable_hash("redirect"),
                          resolver.value(),
                          static_cast<std::uint64_t>(customer.index),
                          static_cast<std::uint64_t>(epoch)})};
    answer.poorly_covered =
        ranked.empty() || ranked.front().first > config.coverage_threshold_ms;
    const auto fallbacks = deployment.fallbacks();
    const auto wanted = static_cast<std::size_t>(count);
    if (answer.poorly_covered && !fallbacks.empty() &&
        rng.bernoulli(config.fallback_probability)) {
      const std::size_t take = std::min(wanted, fallbacks.size());
      for (std::size_t i : rng.sample_indices(fallbacks.size(), take)) {
        answer.picks.push_back(fallbacks[i]);
      }
      return answer;
    }
    if (ranked.empty()) {
      for (std::size_t i = 0;
           i < fallbacks.size() && answer.picks.size() < wanted; ++i) {
        answer.picks.push_back(fallbacks[i]);
      }
      return answer;
    }
    const std::size_t pool = std::min(config.rotation_pool, ranked.size());
    std::vector<double> weights(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      weights[i] = std::pow(1.0 + static_cast<double>(i), -config.rank_exponent);
    }
    const std::size_t want = std::min(wanted, pool);
    for (std::size_t pick = 0; pick < want; ++pick) {
      const std::size_t idx = rng.weighted_index(weights);
      answer.picks.push_back(ranked[idx].second);
      weights[idx] = 0.0;
    }
    return answer;
  }
};

class SelectReferenceOracle : public ::testing::Test {
 protected:
  SelectReferenceOracle() : world_{41} {}
  /// The same world under another latency model and measurement noise.
  SelectReferenceOracle(const netsim::LatencyConfig& latency,
                        double noise_sigma)
      : world_{41} {
    world_.oracle =
        std::make_unique<netsim::LatencyOracle>(world_.topo, latency);
    MeasurementConfig measurement = world_.measurement->config();
    measurement.noise_sigma = noise_sigma;
    world_.measurement =
        std::make_unique<MeasurementSystem>(*world_.oracle, measurement);
  }

  // The checks. Each TEST_F below runs one on MiniWorld's model, and
  // SelectReferenceModels runs them on the swept models.
  void both_customers_in_either_order();
  void interleaved_resolvers();
  void health_filter_stays_per_call();
  void poorly_covered_fallback_branches();
  void rotation_pool_edges();
  void memo_computes_each_estimate_once_per_key();

  [[nodiscard]] Reference reference(LatencyPolicyConfig config = {},
                                    const ReplicaHealth* health = nullptr,
                                    const MeasurementSystem* measurement =
                                        nullptr) const {
    return Reference{*world_.oracle, world_.deployment,
                     measurement != nullptr ? *measurement
                                            : *world_.measurement,
                     config, health};
  }

  /// One comparison; returns the reference answer for branch accounting.
  ReferenceAnswer expect_same(LatencyDrivenPolicy& policy,
                              const Reference& ref, HostId resolver,
                              const Customer& customer, SimTime now,
                              int count = 2) {
    const ReferenceAnswer want = ref.select(resolver, customer, now, count);
    EXPECT_EQ(policy.select(resolver, customer, now, count), want.picks)
        << "resolver " << resolver.value() << ", customer "
        << customer.index << ", t " << now.micros() << " us, count "
        << count;
    ++compared_;
    return want;
  }

  /// Instants spread over several measurement refreshes, rotation epochs
  /// and congestion epochs, some sharing a measurement epoch.
  [[nodiscard]] static std::vector<SimTime> instants() {
    std::vector<SimTime> out;
    for (int k = 0; k < 6; ++k) {
      out.push_back(SimTime::epoch() + Seconds(47 * k) + Minutes(40 * k));
    }
    return out;
  }

  /// Median lowest estimate over every (client, customer, instant): a
  /// coverage threshold that splits the world into poorly and well
  /// covered resolvers.
  [[nodiscard]] double median_front_ms() const {
    const Reference ref = reference();
    std::vector<double> fronts;
    for (HostId r : world_.clients) {
      for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
        for (SimTime t : instants()) {
          const double front =
              ref.select(r, world_.catalog.customer(c), t, 2).front_ms;
          if (!std::isnan(front)) fronts.push_back(front);
        }
      }
    }
    std::nth_element(fronts.begin(),
                     fronts.begin() + static_cast<long>(fronts.size() / 2),
                     fronts.end());
    return fronts[fronts.size() / 2];
  }

  /// A coverage threshold between the lowest estimate of some select and
  /// the estimate of its nearest candidate by static RTT (the select
  /// where that gap is widest): only a select that ranks the true
  /// minimum first judges that resolver well covered.
  [[nodiscard]] double min_discriminating_threshold() const {
    const Reference ref = reference();
    double gap = 0.0;
    double threshold = 0.0;
    for (HostId r : world_.clients) {
      for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
        for (SimTime t : instants()) {
          const auto a = ref.select(r, world_.catalog.customer(c), t, 2);
          if (a.nearest_ms - a.front_ms > gap) {
            gap = a.nearest_ms - a.front_ms;
            threshold = (a.nearest_ms + a.front_ms) / 2.0;
          }
        }
      }
    }
    EXPECT_GT(gap, 0.0);
    return threshold;
  }

  test::MiniWorld world_;
  std::size_t compared_ = 0;
};

void SelectReferenceOracle::both_customers_in_either_order() {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const Reference ref = reference();
  const Customer& c0 = world_.catalog.customer(0);
  const Customer& c1 = world_.catalog.customer(1);
  for (HostId r : world_.clients) {
    for (SimTime t : instants()) {
      // A probe's order, the reverse, then the same instant once more.
      expect_same(policy, ref, r, c0, t);
      expect_same(policy, ref, r, c1, t);
      expect_same(policy, ref, r, c1, t);
      expect_same(policy, ref, r, c0, t);
      expect_same(policy, ref, r, c0, t);
    }
  }
  EXPECT_EQ(compared_, world_.clients.size() * instants().size() * 5);
}

void SelectReferenceOracle::interleaved_resolvers() {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const Reference ref = reference();
  // Every select changes the resolver, so every select re-keys the memo,
  // and each (resolver, instant) comes back after the others.
  for (SimTime t : instants()) {
    for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
      for (HostId r : world_.clients) {
        expect_same(policy, ref, r, world_.catalog.customer(c), t);
      }
    }
  }
}

TEST_F(SelectReferenceOracle, TwoPoliciesInterleavedOnOneThread) {
  // The second policy measures with other noise, so reading the first
  // policy's memoized estimates would rank its candidates differently.
  MeasurementConfig other_config;
  other_config.seed = 4242;
  other_config.noise_sigma = 0.3;
  const MeasurementSystem other_measurement{*world_.oracle, other_config};
  LatencyPolicyConfig other_policy;
  other_policy.seed = 99;

  LatencyDrivenPolicy a{*world_.oracle, world_.deployment,
                        *world_.measurement};
  LatencyDrivenPolicy b{*world_.oracle, world_.deployment, other_measurement,
                        other_policy};
  const Reference ref_a = reference();
  const Reference ref_b = reference(other_policy, nullptr, &other_measurement);
  std::size_t differing = 0;
  for (HostId r : world_.clients) {
    for (SimTime t : instants()) {
      for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
        const Customer& customer = world_.catalog.customer(c);
        const auto want_a = expect_same(a, ref_a, r, customer, t);
        const auto want_b = expect_same(b, ref_b, r, customer, t);
        if (want_a.picks != want_b.picks) ++differing;
      }
    }
  }
  EXPECT_GT(differing, 0u);
}

void SelectReferenceOracle::health_filter_stays_per_call() {
  sim::FaultPlan plan{17};
  sim::FaultRule drain;
  drain.kind = sim::FaultKind::kReplicaDrain;
  drain.probability = 0.4;
  drain.epoch = Minutes(30);
  plan.add(drain);
  ReplicaHealth health{HealthConfig{}};
  health.set_fault_plan(&plan);

  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const Reference healthy = reference();
  const Reference drained = reference({}, &health);
  std::size_t drained_candidates = 0;
  for (HostId r : world_.clients) {
    for (SimTime t : instants()) {
      for (ReplicaId id : healthy.nearest(r)) {
        if (!health.available(id, t)) ++drained_candidates;
      }
      // The memo is filled only for the available candidates first; the
      // drained ones must be estimated once health is detached at the
      // same instant, and filtered again once it is re-attached.
      policy.set_health(&health);
      expect_same(policy, drained, r, world_.catalog.customer(0), t);
      policy.set_health(nullptr);
      expect_same(policy, healthy, r, world_.catalog.customer(0), t);
      expect_same(policy, healthy, r, world_.catalog.customer(1), t);
      policy.set_health(&health);
      expect_same(policy, drained, r, world_.catalog.customer(1), t);
    }
  }
  EXPECT_GT(drained_candidates, 0u);
}

void SelectReferenceOracle::poorly_covered_fallback_branches() {
  LatencyPolicyConfig config;
  config.coverage_threshold_ms = median_front_ms();
  config.fallback_probability = 0.5;
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement, config};
  const Reference ref = reference(config);
  std::size_t poor = 0;
  std::size_t fallback_answers = 0;
  for (HostId r : world_.clients) {
    for (SimTime t : instants()) {
      for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
        const auto want =
            expect_same(policy, ref, r, world_.catalog.customer(c), t);
        if (want.poorly_covered) ++poor;
        if (!want.picks.empty() &&
            world_.deployment.is_origin_fallback(want.picks[0])) {
          ++fallback_answers;
        }
      }
    }
  }
  EXPECT_GT(poor, 0u);
  EXPECT_LT(poor, compared_);
  EXPECT_GT(fallback_answers, 0u);
  EXPECT_LT(fallback_answers, poor);

  // Every edge replica down: nothing ranks, so each answer is either a
  // drawn fallback sample or the deterministic fallback list.
  HealthConfig all_down;
  all_down.outage_probability = 1.0;
  const ReplicaHealth down{all_down};
  policy.set_health(&down);
  const Reference empty_ref = reference(config, &down);
  for (HostId r : world_.clients) {
    for (SimTime t : instants()) {
      const auto want =
          expect_same(policy, empty_ref, r, world_.catalog.customer(0), t);
      EXPECT_TRUE(std::isnan(want.front_ms));
      ASSERT_FALSE(want.picks.empty());
    }
  }
}

void SelectReferenceOracle::rotation_pool_edges() {
  // A pool of 0 would answer no replica to a well-covered resolver, so
  // both latency-driven policies refuse it.
  LatencyPolicyConfig empty_pool;
  empty_pool.rotation_pool = 0;
  EXPECT_THROW((LatencyDrivenPolicy{*world_.oracle, world_.deployment,
                                    *world_.measurement, empty_pool}),
               std::invalid_argument);
  EXPECT_THROW((StickyPolicy{*world_.oracle, world_.deployment,
                             *world_.measurement, empty_pool}),
               std::invalid_argument);

  const double threshold = min_discriminating_threshold();
  const std::size_t candidate_pool = LatencyPolicyConfig{}.candidate_pool;
  for (const std::size_t rotation_pool :
       {std::size_t{1}, std::size_t{8}, candidate_pool + 52}) {
    SCOPED_TRACE("rotation_pool " + std::to_string(rotation_pool));
    LatencyPolicyConfig config;
    config.rotation_pool = rotation_pool;
    // With a pool of 1 only the front is drawn, and the coverage test
    // needs the true minimum there; every poorly covered answer is a
    // fallback, so a misjudged coverage changes the answer.
    config.coverage_threshold_ms = threshold;
    config.fallback_probability = 1.0;
    LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                               *world_.measurement, config};
    const Reference ref = reference(config);
    std::size_t poor = 0;
    std::size_t compared = 0;
    for (HostId r : world_.clients) {
      for (SimTime t : instants()) {
        for (const int count : {1, 2, 5}) {
          for (std::size_t c = 0; c < world_.catalog.size(); ++c) {
            const auto want = expect_same(
                policy, ref, r, world_.catalog.customer(c), t, count);
            if (want.poorly_covered) ++poor;
            ++compared;
          }
        }
      }
    }
    EXPECT_GT(poor, 0u);
    EXPECT_LT(poor, compared);
  }
}

void SelectReferenceOracle::memo_computes_each_estimate_once_per_key() {
  LatencyDrivenPolicy policy{*world_.oracle, world_.deployment,
                             *world_.measurement};
  const MeasurementSystem& m = *world_.measurement;
  const Customer& c0 = world_.catalog.customer(0);
  const Customer& c1 = world_.catalog.customer(1);
  std::size_t c0_computed = 0;
  std::size_t c0_served = 0;
  for (std::size_t i = 0; i < world_.clients.size(); ++i) {
    const HostId r = world_.clients[i];
    const SimTime t = SimTime::epoch() + Minutes(13 * static_cast<int>(i));
    std::size_t served_c0 = 0;
    std::size_t served_any = 0;
    for (const auto& candidate : policy.candidates(r)) {
      if (in_subset(c0, candidate.id)) ++served_c0;
      if (in_subset(c0, candidate.id) || in_subset(c1, candidate.id)) {
        ++served_any;
      }
    }
    ASSERT_LE(served_any, LatencyPolicyConfig{}.candidate_pool);

    // One customer alone estimates at most its served candidates...
    std::size_t before = m.estimates_computed();
    (void)policy.select(r, c0, t, 2);
    const std::size_t alone = m.estimates_computed() - before;
    EXPECT_LE(alone, served_c0);
    c0_computed += alone;
    c0_served += served_c0;
    // ...the second customer adds at most the candidates the first
    // lacks...
    (void)policy.select(r, c1, t, 2);
    EXPECT_LE(m.estimates_computed() - before, served_any);
    // ...and the same instant again costs nothing: a candidate the floors
    // skipped is skipped again at the same bar.
    before = m.estimates_computed();
    (void)policy.select(r, c1, t, 2);
    (void)policy.select(r, c0, t, 2);
    EXPECT_EQ(m.estimates_computed() - before, 0u);
  }
  // The floors skip candidates that cannot reach the rotation pool.
  EXPECT_LT(c0_computed, c0_served);

  // Sticky answers every instant as the first epoch, so one resolver's
  // consecutive selects share a single memo key.
  StickyPolicy sticky{*world_.oracle, world_.deployment, m};
  LatencyDrivenPolicy fresh{*world_.oracle, world_.deployment, m};
  const Reference ref = reference();
  for (HostId r : world_.clients) {
    std::size_t served_any = 0;
    for (const auto& candidate : fresh.candidates(r)) {
      if (in_subset(c0, candidate.id) || in_subset(c1, candidate.id)) {
        ++served_any;
      }
    }
    const std::size_t before = m.estimates_computed();
    for (SimTime t : instants()) {
      EXPECT_EQ(sticky.select(r, c0, t, 2),
                ref.select(r, c0, SimTime::epoch(), 2).picks);
      EXPECT_EQ(sticky.select(r, c1, t, 2),
                ref.select(r, c1, SimTime::epoch(), 2).picks);
    }
    // The reference's own estimates count too: two selects per instant.
    // Sticky's first instant estimates at most the union, the later ones
    // nothing.
    std::size_t reference_estimates = 0;
    for (const auto& candidate : fresh.candidates(r)) {
      reference_estimates += (in_subset(c0, candidate.id) ? 1 : 0) +
                             (in_subset(c1, candidate.id) ? 1 : 0);
    }
    EXPECT_LE(m.estimates_computed() - before,
              served_any + reference_estimates * instants().size());
  }
}

TEST_F(SelectReferenceOracle, BothCustomersAtOneInstantInEitherOrder) {
  both_customers_in_either_order();
}
TEST_F(SelectReferenceOracle, InterleavedResolvers) {
  interleaved_resolvers();
}
TEST_F(SelectReferenceOracle, HealthFilterStaysPerCall) {
  health_filter_stays_per_call();
}
TEST_F(SelectReferenceOracle, PoorlyCoveredFallbackBranches) {
  poorly_covered_fallback_branches();
}
TEST_F(SelectReferenceOracle, RotationPoolEdges) {
  rotation_pool_edges();
}
TEST_F(SelectReferenceOracle, MemoComputesEachEstimateOncePerKey) {
  memo_computes_each_estimate_once_per_key();
}

/// A latency model and a measurement noise sigma for the checks: the
/// floor tests' latency models (route shift with heavy congestion, no
/// jitter with short route-shift epochs, the defaults), each meeting a
/// noise sigma, including none and a negative one.
struct Model {
  const char* name;
  netsim::LatencyConfig latency;
  double noise_sigma;
};

void PrintTo(const Model& model, std::ostream* os) { *os << model.name; }

std::vector<Model> swept_models() {
  const std::vector<netsim::LatencyConfig> latency =
      test::swept_latency_configs(43);  // MiniWorld{41}'s latency seed
  return {{"RouteShift", latency[0], 0.12},
          {"NoJitterNoisy", latency[1], 0.5},
          {"Noiseless", latency[2], 0.0},
          {"NegativeNoise", latency[0], -0.3}};
}

class SelectReferenceModels : public SelectReferenceOracle,
                              public ::testing::WithParamInterface<Model> {
 protected:
  SelectReferenceModels()
      : SelectReferenceOracle(GetParam().latency, GetParam().noise_sigma) {}
};

TEST_P(SelectReferenceModels, BothCustomersAtOneInstantInEitherOrder) {
  both_customers_in_either_order();
}
TEST_P(SelectReferenceModels, InterleavedResolvers) {
  interleaved_resolvers();
}
TEST_P(SelectReferenceModels, HealthFilterStaysPerCall) {
  health_filter_stays_per_call();
}
TEST_P(SelectReferenceModels, PoorlyCoveredFallbackBranches) {
  poorly_covered_fallback_branches();
}
TEST_P(SelectReferenceModels, RotationPoolEdges) {
  rotation_pool_edges();
}
TEST_P(SelectReferenceModels, MemoComputesEachEstimateOncePerKey) {
  memo_computes_each_estimate_once_per_key();
}

INSTANTIATE_TEST_SUITE_P(SweptModels, SelectReferenceModels,
                         ::testing::ValuesIn(swept_models()),
                         [](const ::testing::TestParamInfo<Model>& info) {
                           return std::string{info.param.name};
                         });

TEST(ConcurrentSelect, PreparedPolicyMatchesReferenceFromFourWorkers) {
  const test::MiniWorld world{43};
  sim::FaultPlan plan{5};
  sim::FaultRule drain;
  drain.kind = sim::FaultKind::kReplicaDrain;
  drain.probability = 0.2;
  drain.epoch = Minutes(30);
  plan.add(drain);
  ReplicaHealth health{HealthConfig{}};
  health.set_fault_plan(&plan);

  LatencyDrivenPolicy policy{*world.oracle, world.deployment,
                             *world.measurement};
  policy.set_health(&health);
  ThreadPool workers{4};
  policy.prepare(world.clients, &workers);

  // Task i: (instant, resolver, customer) with the customer innermost, so
  // a worker often runs both customers of one probe back to back while
  // the other workers interleave other keys.
  const std::size_t num_times = 8;
  const std::size_t num_customers = world.catalog.size();
  const std::size_t tasks =
      num_times * world.clients.size() * num_customers;
  const auto decode = [&](std::size_t i) {
    const std::size_t c = i % num_customers;
    const std::size_t r = (i / num_customers) % world.clients.size();
    const std::size_t k = i / (num_customers * world.clients.size());
    return std::tuple{world.clients[r], c,
                      SimTime::epoch() +
                          Minutes(25 * static_cast<int>(k)) +
                          Seconds(static_cast<int>(r))};
  };
  std::vector<std::vector<ReplicaId>> got(tasks);
  for (int round = 0; round < 2; ++round) {
    workers.parallel_for(0, tasks, [&](std::size_t i) {
      const auto [r, c, t] = decode(i);
      got[i] = policy.select(r, world.catalog.customer(c), t, 2);
    });
    const Reference ref{*world.oracle, world.deployment, *world.measurement,
                        LatencyPolicyConfig{}, &health};
    for (std::size_t i = 0; i < tasks; ++i) {
      const auto [r, c, t] = decode(i);
      ASSERT_EQ(got[i], ref.select(r, world.catalog.customer(c), t, 2).picks)
          << "round " << round << ", task " << i;
    }
  }
}

}  // namespace
}  // namespace crp::cdn
