#include "dns/zone.hpp"

#include <algorithm>

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

std::size_t ZoneRegistry::LabelsHash::operator()(
    Labels labels) const noexcept {
  // FNV-1a over the labels, each closed by a separator.
  std::size_t h = 14695981039346656037ULL;
  for (const std::string& label : labels) {
    for (const char c : label) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= '.';
    h *= 1099511628211ULL;
  }
  return h;
}

bool ZoneRegistry::LabelsEqual::operator()(Labels a, Labels b) const {
  return std::ranges::equal(a, b);
}

AuthoritativeServer* ZoneRegistry::find(const Name& name) const {
  // Try progressively shorter label suffixes of `name`, most specific
  // first; the last, empty suffix is the root. Labels are stored parsed
  // (lower-case, no dots), so matching them one by one finds exactly the
  // zone that re-parsing each dotted suffix would.
  const Labels labels = name.labels();
  for (std::size_t drop = 0; drop <= labels.size(); ++drop) {
    const auto it = zones_.find(labels.subspan(drop));
    if (it != zones_.end()) return it->second;
  }
  return nullptr;
}

}  // namespace crp::dns
