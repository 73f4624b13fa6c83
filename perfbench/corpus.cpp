#include "corpus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"

namespace crp::perfbench {

namespace {

// Chosen so the maps match the paper-scale campaign's statistics: about
// 22 distinct replicas per map (max 47), mostly from the home region.
constexpr std::int64_t kRegions = 32;
constexpr std::int64_t kReplicasPerRegion = 60;
/// Share of a map's draws that come from the home region.
constexpr double kHomeShare = 0.9;
/// Mean draws per map; repeated replicas merge, leaving about 22.
constexpr double kMeanDraws = 26.0;
constexpr double kMaxEntries = 47.0;

}  // namespace

std::string CorpusGenerator::id(std::size_t node) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node-%06zu", node);
  return std::string{buf};
}

core::RatioMap CorpusGenerator::map(std::size_t node,
                                    std::uint64_t version) const {
  // `base` fixes the node's identity (home region, replica draws);
  // `drift` perturbs it per version, so versions share most replicas.
  Rng base{hash_combine({seed_, node, stable_hash("corpus-base")})};
  Rng drift{hash_combine({seed_, node, version, stable_hash("corpus-drift")})};
  // Round-robin homes keep every region the same size, so corpora of
  // different seeds cost the same to serve.
  const auto home = static_cast<std::int64_t>(node % kRegions);
  const auto count = static_cast<std::size_t>(std::clamp<double>(
      std::round(base.normal(kMeanDraws, 7.0)), 4.0, kMaxEntries));
  constexpr std::int64_t kNeighbour[] = {-2, -1, 1, 2};

  std::vector<core::RatioMap::Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t region = home;
    if (base.uniform() >= kHomeShare) {
      region = (home + kNeighbour[base.uniform_int(0, 3)] + kRegions) % kRegions;
    }
    std::int64_t slot = base.uniform_int(0, kReplicasPerRegion - 1);
    double weight = std::exp(base.normal(0.0, 1.0));
    if (version > 0) {
      if (drift.uniform() < 0.2) {
        slot = drift.uniform_int(0, kReplicasPerRegion - 1);
      }
      weight *= std::exp(drift.normal(0.0, 0.3));
    }
    entries.emplace_back(
        ReplicaId{static_cast<std::uint32_t>(region * kReplicasPerRegion + slot)},
        weight);
  }
  return core::RatioMap::from_ratios(entries);
}

}  // namespace crp::perfbench
