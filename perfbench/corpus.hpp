// Seeded, region-structured ratio-map generator for the serving
// workloads.
//
// Campaign-built maps cluster by geography: a node is redirected mostly
// to replicas near it, so it shares replicas with the nodes of its own
// region and a few neighbours. The generator mimics that: each node has
// a home region (round robin, so regions are equally full) and holds
// about 22 distinct replicas (max 47, as the paper-scale campaign
// produces), drawn mostly from the home region's replica pool and the
// rest from the two regions on either side, with skewed redirection
// ratios. Every map is a pure function of (seed, node, version), so a
// workload can regenerate any node's drifted map on demand.
#pragma once

#include <cstdint>
#include <string>

#include "core/ratio_map.hpp"

namespace crp::perfbench {

class CorpusGenerator {
 public:
  explicit CorpusGenerator(std::uint64_t seed) : seed_(seed) {}

  /// Stable node name ("node-000042").
  [[nodiscard]] static std::string id(std::size_t node);
  /// Node's map at `version`. Version 0 is the initial map; each later
  /// version drifts it: about a fifth of the replicas move to another
  /// replica of the same region and every ratio is re-weighted.
  [[nodiscard]] core::RatioMap map(std::size_t node,
                                   std::uint64_t version) const;

 private:
  std::uint64_t seed_;
};

}  // namespace crp::perfbench
