#include "service/serving_snapshot.hpp"

namespace crp::service {

void ServingSnapshot::check_invariants() const {
  serving_detail::check_tables(tables_, "ServingSnapshot");
}

std::vector<std::string> ServingSnapshot::same_cluster(
    const std::string& node_id, SimTime now) const {
  return serving_detail::same_cluster(tables_, node_id, now);
}

std::unordered_map<std::string, std::size_t>
ServingSnapshot::cluster_assignment(SimTime now) const {
  return serving_detail::cluster_assignment(tables_, now);
}

std::vector<std::string> ServingSnapshot::diverse_set(
    std::size_t n, SimTime now, std::uint64_t seed) const {
  return serving_detail::diverse_set(tables_, n, now, seed);
}

}  // namespace crp::service
