#include "dns/zone.hpp"

#include <utility>

namespace crp::dns {

StaticZone::StaticZone(Name apex, HostId host)
    : apex_(std::move(apex)), host_(host) {}

void StaticZone::add(ResourceRecord record) {
  if (!record.name.is_subdomain_of(apex_)) {
    throw std::invalid_argument{"StaticZone::add: record outside zone: " +
                                record.name.to_string()};
  }
  records_[record.name].push_back(std::move(record));
}

void StaticZone::add_wildcard_a(Ipv4 address, Duration ttl) {
  wildcard_a_.push_back(
      ResourceRecord::a(apex_.prefixed("*"), address, ttl));
}

Message StaticZone::resolve(const Question& question, Ipv4 /*resolver_addr*/,
                            SimTime /*now*/) {
  Message reply;
  if (!question.name.is_subdomain_of(apex_)) {
    reply.rcode = Rcode::kServFail;  // not authoritative — misdelegation
    return reply;
  }
  const auto it = records_.find(question.name);
  if (it != records_.end()) {
    // Return CNAMEs unconditionally (resolver follows them), otherwise
    // filter on the queried type.
    for (const ResourceRecord& rr : it->second) {
      if (rr.type == question.type || rr.type == RecordType::kCname) {
        reply.answers.push_back(rr);
      }
    }
    if (!reply.answers.empty()) return reply;
  }
  if (question.type == RecordType::kA && !wildcard_a_.empty()) {
    for (ResourceRecord rr : wildcard_a_) {
      rr.name = question.name;
      reply.answers.push_back(std::move(rr));
    }
    return reply;
  }
  reply.rcode = Rcode::kNxDomain;
  return reply;
}

void ZoneRegistry::register_zone(const Name& suffix,
                                 AuthoritativeServer* server) {
  if (server == nullptr) {
    throw std::invalid_argument{"register_zone: null server"};
  }
  zones_[suffix] = server;
}

AuthoritativeServer* ZoneRegistry::find(const Name& name) const {
  // Most specific first; the root is its own parent and ends the walk.
  for (Name suffix = name;; suffix = suffix.parent()) {
    const auto it = zones_.find(suffix);
    if (it != zones_.end()) return it->second;
    if (suffix.empty()) return nullptr;
  }
}

}  // namespace crp::dns
