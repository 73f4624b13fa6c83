// CDN customers ("CDN names").
//
// Content providers contract with the CDN; each customer's web name is a
// CNAME into the CDN's DNS namespace, where the dynamic authoritative
// answers with replica addresses. The paper drove CRP with two hand-picked
// customer names (a Yahoo image server and www.foxnews.com); the catalog
// generates any number, each mapped to a different (large) subset of the
// replica fleet — which is why comparing *sets* of replicas across names
// carries information.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdn/deployment.hpp"
#include "common/rng.hpp"
#include "dns/name.hpp"

namespace crp::cdn {

struct Customer {
  std::size_t index = 0;
  /// The public web name clients look up (e.g. "img.customer0.example").
  dns::Name web_name;
  /// CNAME target inside the CDN namespace ("c0.g.cdnsim.net").
  dns::Name cdn_name;
  /// Replica IDs this customer's content is served from. Sorted.
  std::vector<ReplicaId> replica_subset;
  /// A records returned per answer (Akamai classically returns two).
  int answer_count = 2;

  /// O(1) membership test: one bit load from a bitmap over replica ids
  /// that `CustomerCatalog::build` fills from `replica_subset`. Any id
  /// past the bitmap (the invalid id included) answers false.
  [[nodiscard]] bool serves(ReplicaId id) const {
    const std::size_t word = id.value() / 64;
    return word < served_.size() && ((served_[word] >> (id.value() % 64)) & 1U);
  }

 private:
  friend class CustomerCatalog;
  /// Bit `id` is set iff `replica_subset` holds `id`.
  std::vector<std::uint64_t> served_;
};

struct CustomerCatalogConfig {
  std::uint64_t seed = 11;
  std::size_t num_customers = 2;
  /// Fraction of the edge fleet allotted to each customer.
  double subset_fraction = 0.8;
  int answer_count = 2;
  /// DNS suffix for the CDN namespace.
  std::string cdn_zone = "g.cdnsim.net";
  /// DNS suffix under which customer web names live.
  std::string customer_zone_suffix = "example";
};

class CustomerCatalog {
 public:
  static CustomerCatalog build(const Deployment& deployment,
                               const CustomerCatalogConfig& config);

  [[nodiscard]] std::span<const Customer> customers() const {
    return customers_;
  }
  [[nodiscard]] const Customer& customer(std::size_t index) const {
    return customers_.at(index);
  }
  [[nodiscard]] std::size_t size() const { return customers_.size(); }

  /// The CDN zone apex all `cdn_name`s fall under.
  [[nodiscard]] const dns::Name& cdn_zone() const { return cdn_zone_; }

  /// Finds the customer owning the given CDN-side name, or nullptr.
  [[nodiscard]] const Customer* by_cdn_name(const dns::Name& name) const;

  /// All customer web names (what a CRP node probes).
  [[nodiscard]] std::vector<dns::Name> web_names() const;

 private:
  std::vector<Customer> customers_;
  dns::Name cdn_zone_;
};

}  // namespace crp::cdn
