// DNS resource records and messages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "dns/name.hpp"

namespace crp::dns {

enum class RecordType : std::uint8_t { kA, kCname, kNs };

[[nodiscard]] const char* to_string(RecordType type);

/// A single resource record. `address` is meaningful for A records,
/// `target` for CNAME/NS records.
struct ResourceRecord {
  Name name;
  RecordType type = RecordType::kA;
  Duration ttl = Seconds(60);
  Ipv4 address;
  Name target;

  static ResourceRecord a(Name name, Ipv4 address, Duration ttl);
  static ResourceRecord cname(Name name, Name target, Duration ttl);
  static ResourceRecord ns(Name name, Name target, Duration ttl);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ResourceRecord&,
                         const ResourceRecord&) = default;
};

enum class Rcode : std::uint8_t { kNoError, kNxDomain, kServFail };

[[nodiscard]] const char* to_string(Rcode rcode);

struct Question {
  Name name;
  RecordType type = RecordType::kA;

  friend bool operator==(const Question&, const Question&) = default;
};

/// Simplified DNS message (response side).
struct Message {
  std::uint16_t id = 0;
  Rcode rcode = Rcode::kNoError;
  std::vector<ResourceRecord> answers;

  /// All A-record addresses in the answer section, in order.
  [[nodiscard]] std::vector<Ipv4> addresses() const;
};

}  // namespace crp::dns
