#include "cdn/authoritative.hpp"

namespace crp::cdn {

CdnAuthoritative::CdnAuthoritative(const netsim::Topology& topo,
                                   const CustomerCatalog& catalog,
                                   const Deployment& deployment,
                                   RedirectionPolicy& policy, HostId host,
                                   CdnAuthoritativeConfig config)
    : topo_(&topo),
      catalog_(&catalog),
      deployment_(&deployment),
      policy_(&policy),
      host_(host),
      config_(config) {}

dns::Message CdnAuthoritative::resolve(const dns::Question& question,
                                       Ipv4 resolver_addr, SimTime now) {
  queries_.add();
  dns::Message reply;

  if (question.type != dns::RecordType::kA ||
      !question.name.is_subdomain_of(catalog_->cdn_zone())) {
    reply.rcode = dns::Rcode::kNxDomain;
    return reply;
  }
  const Customer* const customer = catalog_->by_cdn_name(question.name);
  if (customer == nullptr) {
    reply.rcode = dns::Rcode::kNxDomain;
    return reply;
  }

  // Recover the querying resolver's host from its lab address (10/8
  // encodes the host ID; see Host::address()).
  const std::uint32_t raw = resolver_addr.value() & 0x00ffffffu;
  if ((resolver_addr.value() >> 24) != 10 ||
      raw >= topo_->num_hosts()) {
    reply.rcode = dns::Rcode::kServFail;  // unknown client
    return reply;
  }
  const HostId resolver{raw};

  const std::vector<ReplicaId> picks =
      policy_->select(resolver, *customer, now, customer->answer_count);
  if (picks.empty()) {
    reply.rcode = dns::Rcode::kServFail;
    return reply;
  }
  reply.answers.reserve(picks.size());
  for (ReplicaId id : picks) {
    const HostId replica_host = deployment_->replica(id).host;
    reply.answers.push_back(dns::ResourceRecord::a(
        question.name, topo_->host(replica_host).address(),
        config_.answer_ttl));
  }
  return reply;
}

CdnDnsSetup register_cdn_dns(dns::ZoneRegistry& registry,
                             const netsim::Topology& topo,
                             const CustomerCatalog& catalog,
                             const Deployment& deployment,
                             RedirectionPolicy& policy, HostId cdn_dns_host,
                             HostId customer_dns_host,
                             CdnAuthoritativeConfig config) {
  CdnDnsSetup setup;
  setup.authoritative = std::make_unique<CdnAuthoritative>(
      topo, catalog, deployment, policy, cdn_dns_host, config);
  registry.register_zone(catalog.cdn_zone(), setup.authoritative.get());

  for (const Customer& customer : catalog.customers()) {
    // The customer's own zone holds only the CNAME into the CDN; give it
    // a long TTL — it is the A answer that must stay fresh.
    const dns::Name apex = customer.web_name.parent();
    auto zone = std::make_unique<dns::StaticZone>(apex, customer_dns_host);
    zone->add(dns::ResourceRecord::cname(customer.web_name,
                                         customer.cdn_name, Hours(4)));
    registry.register_zone(apex, zone.get());
    setup.customer_zones.push_back(std::move(zone));
  }
  return setup;
}

}  // namespace crp::cdn
