// Authoritative-side DNS: server interface, static zones and the registry.
//
// An `AuthoritativeServer` answers questions for the zones it serves. The
// `ZoneRegistry` maps name suffixes to servers (longest-suffix match),
// playing the role of the delegation hierarchy a real recursive resolver
// walks via root/TLD servers. The CDN's dynamic authoritative (cdn module)
// implements the same interface.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "dns/record.hpp"

namespace crp::dns {

/// Interface for an authoritative DNS server.
class AuthoritativeServer {
 public:
  virtual ~AuthoritativeServer() = default;

  /// Answers `question` for the resolver at `resolver_addr` at sim time
  /// `now`. CDN authoritatives use the resolver address for redirection —
  /// exactly the client granularity real CDNs see.
  virtual Message resolve(const Question& question, Ipv4 resolver_addr,
                          SimTime now) = 0;

  /// Host this server runs on (for latency accounting); may be invalid in
  /// unit tests, in which case upstream RTT is treated as zero.
  [[nodiscard]] virtual HostId host() const = 0;
};

/// Static zone data: exact-name record sets plus optional wildcard
/// A records ("*.zone").
class StaticZone final : public AuthoritativeServer {
 public:
  StaticZone(Name apex, HostId host);

  /// Adds a record; its name must fall under the zone apex.
  void add(ResourceRecord record);
  /// Adds a wildcard A record answering any otherwise-unmatched name
  /// under the apex.
  void add_wildcard_a(Ipv4 address, Duration ttl);

  Message resolve(const Question& question, Ipv4 resolver_addr,
                  SimTime now) override;
  [[nodiscard]] HostId host() const override { return host_; }

  [[nodiscard]] const Name& apex() const { return apex_; }

 private:
  Name apex_;
  HostId host_;
  std::unordered_map<Name, std::vector<ResourceRecord>> records_;
  std::vector<ResourceRecord> wildcard_a_;
};

/// Longest-suffix-match routing of questions to authoritative servers.
/// Does not own the servers.
class ZoneRegistry {
 public:
  /// Registers `server` as authoritative for everything under `suffix`.
  /// Re-registering the same suffix replaces the server.
  void register_zone(const Name& suffix, AuthoritativeServer* server);

  /// Server for the most specific registered suffix of `name`, or
  /// nullptr if no zone matches: probes `name`, then each parent.
  [[nodiscard]] AuthoritativeServer* find(const Name& name) const;

  [[nodiscard]] std::size_t size() const { return zones_.size(); }

 private:
  std::unordered_map<Name, AuthoritativeServer*> zones_;
};

}  // namespace crp::dns
