#include "cdn/customer.hpp"

#include <algorithm>

namespace crp::cdn {

CustomerCatalog CustomerCatalog::build(const Deployment& deployment,
                                       const CustomerCatalogConfig& config) {
  CustomerCatalog catalog;
  catalog.cdn_zone_ = dns::Name::parse(config.cdn_zone);
  Rng rng{hash_combine({config.seed, stable_hash("cdn-customers")})};

  // Edge replicas only; fallbacks are added by the redirection policy
  // itself when coverage is poor, for every customer.
  std::vector<ReplicaId> edge;
  for (const ReplicaServer& r : deployment.replicas()) {
    if (!r.origin_fallback) edge.push_back(r.id);
  }

  const auto subset_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(edge.size()) *
                                  config.subset_fraction));

  for (std::size_t i = 0; i < config.num_customers; ++i) {
    Customer c;
    c.index = i;
    c.web_name = dns::Name::parse("img.customer" + std::to_string(i) + "." +
                                  config.customer_zone_suffix);
    std::string cdn_label = "c";
    cdn_label += std::to_string(i);
    c.cdn_name = catalog.cdn_zone_.prefixed(cdn_label);
    c.answer_count = config.answer_count;

    const auto indices = rng.sample_indices(edge.size(), subset_size);
    c.replica_subset.reserve(indices.size());
    for (std::size_t idx : indices) c.replica_subset.push_back(edge[idx]);
    std::sort(c.replica_subset.begin(), c.replica_subset.end());
    c.served_.assign(c.replica_subset.back().value() / 64 + 1, 0);
    for (ReplicaId id : c.replica_subset) {
      c.served_[id.value() / 64] |= std::uint64_t{1} << (id.value() % 64);
    }

    catalog.customers_.push_back(std::move(c));
  }
  return catalog;
}

const Customer* CustomerCatalog::by_cdn_name(const dns::Name& name) const {
  for (const Customer& c : customers_) {
    if (c.cdn_name == name) return &c;
  }
  return nullptr;
}

std::vector<dns::Name> CustomerCatalog::web_names() const {
  std::vector<dns::Name> names;
  names.reserve(customers_.size());
  for (const Customer& c : customers_) names.push_back(c.web_name);
  return names;
}

}  // namespace crp::cdn
