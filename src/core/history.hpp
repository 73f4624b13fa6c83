// Redirection histories and probe windows.
//
// A CRP node records each observed redirection (a timestamped set of
// replica IDs). Ratio maps are derived from the most recent `window`
// probes — the knob Fig. 9 sweeps (all / 30 / 10 / 5 probes). Section VI's
// finding that unbounded histories can *hurt* under dynamic conditions is
// why the window is first-class here rather than an afterthought.
//
// The history keeps a running count per replica over its stored probes,
// updated as probes enter and leave the bounded window, so the map over
// every stored probe (the one a campaign refresh builds) costs
// O(distinct replicas) instead of a rescan of the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "core/ratio_map.hpp"

namespace crp::core {

/// One observed redirection: the replica set a single DNS answer named.
struct RedirectionProbe {
  SimTime when;
  std::vector<ReplicaId> replicas;
};

/// Use every recorded probe (no windowing).
inline constexpr std::size_t kAllProbes = 0;

/// Bounded log of redirection observations for one node.
class RedirectionHistory {
 public:
  /// `max_probes` bounds memory; the oldest probes are discarded beyond
  /// it (0 = unbounded).
  explicit RedirectionHistory(std::size_t max_probes = 4096);

  void record(SimTime when, std::span<const ReplicaId> replicas);

  [[nodiscard]] std::size_t num_probes() const { return probes_.size(); }
  [[nodiscard]] bool empty() const { return probes_.empty(); }
  [[nodiscard]] const RedirectionProbe& probe(std::size_t i) const {
    return probes_.at(i);
  }

  /// Ratio map over the last `window` probes (kAllProbes = everything).
  /// A window covering every stored probe (kAllProbes or >= num_probes())
  /// is built from the running counts in O(distinct replicas); a shorter
  /// one rescans its probes.
  [[nodiscard]] RatioMap ratio_map(std::size_t window = kAllProbes) const;

  /// Ratio map over every `stride`-th probe, anchored on the most
  /// recent one (like `ratio_map(window)`, newest first). Probing at a
  /// k-times-longer interval observes exactly the k-strided subsequence
  /// of a base trace, which is how Fig. 8 derives all interval curves
  /// from one campaign. Anchoring on the newest probe keeps the sampled
  /// subsequence stable as the bounded deque drops old probes — an
  /// oldest-anchored stride shifts by one whenever eviction happens,
  /// churning the map for no behavioural reason. `stride` 0 or 1 uses
  /// everything (from the running counts); a longer stride rescans.
  [[nodiscard]] RatioMap ratio_map_strided(std::size_t stride) const;

  /// Distinct replicas across the stored probes.
  [[nodiscard]] std::size_t distinct_replicas() const {
    return counts_.size();
  }

  /// Time of first/last probe (epoch if empty).
  [[nodiscard]] SimTime first_probe_time() const;
  [[nodiscard]] SimTime last_probe_time() const;

  void clear() {
    probes_.clear();
    counts_.clear();
  }

 private:
  /// Adds `delta` (+1 or -1) to each listed replica's count; duplicates
  /// count once per occurrence, like the rescan.
  void add_counts(std::span<const ReplicaId> replicas, int delta);

  std::size_t max_probes_;
  std::deque<RedirectionProbe> probes_;
  /// (replica, occurrences across `probes_`), sorted by replica, never 0.
  std::vector<std::pair<ReplicaId, std::uint64_t>> counts_;
};

}  // namespace crp::core
