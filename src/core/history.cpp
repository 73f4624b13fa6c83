#include "core/history.hpp"

#include <algorithm>
#include <unordered_map>

namespace crp::core {

RedirectionHistory::RedirectionHistory(std::size_t max_probes)
    : max_probes_(max_probes) {}

void RedirectionHistory::record(SimTime when,
                                std::span<const ReplicaId> replicas) {
  RedirectionProbe probe;
  probe.when = when;
  probe.replicas.assign(replicas.begin(), replicas.end());
  probes_.push_back(std::move(probe));
  add_counts(probes_.back().replicas, +1);
  if (max_probes_ != 0 && probes_.size() > max_probes_) {
    add_counts(probes_.front().replicas, -1);
    probes_.pop_front();
  }
}

void RedirectionHistory::add_counts(std::span<const ReplicaId> replicas,
                                    int delta) {
  for (ReplicaId id : replicas) {
    const auto it = std::lower_bound(
        counts_.begin(), counts_.end(), id,
        [](const auto& entry, ReplicaId target) {
          return entry.first < target;
        });
    if (delta > 0) {
      if (it != counts_.end() && it->first == id) {
        ++it->second;
      } else {
        counts_.emplace(it, id, 1);
      }
    } else if (--it->second == 0) {
      counts_.erase(it);
    }
  }
}

RatioMap RedirectionHistory::ratio_map(std::size_t window) const {
  if (window == kAllProbes || window >= probes_.size()) {
    return RatioMap::from_counts(counts_);
  }
  std::unordered_map<ReplicaId, std::uint64_t> counts;
  for (std::size_t i = probes_.size() - window; i < probes_.size(); ++i) {
    for (ReplicaId id : probes_[i].replicas) ++counts[id];
  }
  std::vector<std::pair<ReplicaId, std::uint64_t>> flat{counts.begin(),
                                                        counts.end()};
  return RatioMap::from_counts(flat);
}

RatioMap RedirectionHistory::ratio_map_strided(std::size_t stride) const {
  if (stride <= 1) return ratio_map();
  std::unordered_map<ReplicaId, std::uint64_t> counts;
  // Walk newest-backward so the subsequence is anchored on the most
  // recent probe (see header): offsets n-1, n-1-stride, n-1-2*stride, …
  for (std::size_t off = 0; off < probes_.size(); off += stride) {
    const RedirectionProbe& p = probes_[probes_.size() - 1 - off];
    for (ReplicaId id : p.replicas) ++counts[id];
  }
  std::vector<std::pair<ReplicaId, std::uint64_t>> flat{counts.begin(),
                                                        counts.end()};
  return RatioMap::from_counts(flat);
}

SimTime RedirectionHistory::first_probe_time() const {
  return probes_.empty() ? SimTime::epoch() : probes_.front().when;
}

SimTime RedirectionHistory::last_probe_time() const {
  return probes_.empty() ? SimTime::epoch() : probes_.back().when;
}

}  // namespace crp::core
