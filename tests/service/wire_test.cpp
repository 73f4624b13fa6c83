#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"

namespace crp::service {
namespace {

PositionReport sample_report() {
  PositionReport report;
  report.node_id = "dns-42.as7.eu-west";
  report.when = SimTime::epoch() + Hours(3);
  report.map = core::RatioMap::from_ratios(
      std::vector<core::RatioMap::Entry>{{ReplicaId{3}, 0.25},
                                         {ReplicaId{17}, 0.75}});
  return report;
}

TEST(Wire, RoundTrip) {
  const PositionReport report = sample_report();
  const std::string bytes = *encode(report);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, report);
}

TEST(Wire, EncodedSizeMatches) {
  const PositionReport report = sample_report();
  EXPECT_EQ(encode(report)->size(), *encoded_size(report));
}

TEST(Wire, EmptyMapRoundTrips) {
  PositionReport report;
  report.node_id = "x";
  report.when = SimTime::epoch();
  const auto decoded = decode(*encode(report));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->map.empty());
}

TEST(Wire, RejectsBadMagic) {
  std::string bytes = *encode(sample_report());
  bytes[0] = 'X';
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsBadVersion) {
  std::string bytes = *encode(sample_report());
  bytes[3] = 99;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsEveryTruncation) {
  const std::string bytes = *encode(sample_report());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode(std::string_view{bytes.data(), len}).has_value())
        << "accepted truncation at " << len;
  }
}

TEST(Wire, RejectsTrailingGarbage) {
  std::string bytes = *encode(sample_report());
  bytes.push_back('\0');
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsCorruptRatio) {
  // Flip the ratio bytes of the first entry to a NaN pattern.
  PositionReport report = sample_report();
  std::string bytes = *encode(report);
  // Layout: 3 magic + 1 ver + 2 len + id + 8 ts + 4 count + 4 replica.
  const std::size_t ratio_offset =
      3 + 1 + 2 + report.node_id.size() + 8 + 4 + 4;
  for (int i = 0; i < 8; ++i) bytes[ratio_offset + i] = '\xff';
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, RejectsOversizedCount) {
  PositionReport report = sample_report();
  std::string bytes = *encode(report);
  const std::size_t count_offset = 3 + 1 + 2 + report.node_id.size() + 8;
  bytes[count_offset + 3] = '\x7f';  // huge count
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Wire, DecodeNormalizesRatios) {
  // Hand-build bytes whose ratios do not sum to 1.
  PositionReport report;
  report.node_id = "n";
  report.when = SimTime::epoch();
  report.map = core::RatioMap::from_ratios(
      std::vector<core::RatioMap::Entry>{{ReplicaId{1}, 0.5},
                                         {ReplicaId{2}, 0.5}});
  std::string bytes = *encode(report);
  // Double the second ratio in place: 0.5 -> 1.0.
  const std::size_t second_ratio =
      bytes.size() - 8;  // last field is the final ratio
  const double two_thirds_breaker = 1.0;
  std::memcpy(bytes.data() + second_ratio, &two_thirds_breaker,
              sizeof(double));
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NEAR(decoded->map.ratio_of(ReplicaId{1}), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(decoded->map.ratio_of(ReplicaId{2}), 2.0 / 3.0, 1e-12);
}

/// A frame for node "n" whose entries (replicas 1, 2, ...) carry
/// `ratios` verbatim, unlike any frame `encode` writes from a RatioMap.
std::string frame_with_ratios(const std::vector<double>& ratios) {
  PositionReport report;
  report.node_id = "n";
  report.when = SimTime::epoch();
  std::vector<core::RatioMap::Entry> entries;
  for (std::uint32_t i = 0; i < ratios.size(); ++i) {
    entries.emplace_back(ReplicaId{i + 1}, 1.0);
  }
  report.map = core::RatioMap::from_ratios(entries);
  std::string bytes = *encode(report);
  // Layout: 3 magic + 1 ver + 2 len + id + 8 ts + 4 count, then per
  // entry 4 replica + 8 ratio.
  const std::size_t first = 3 + 1 + 2 + report.node_id.size() + 8 + 4;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    std::memcpy(bytes.data() + first + 12 * i + 4, &ratios[i],
                sizeof(double));
  }
  return bytes;
}

// Finite positive ratios pass decode's check even when their total
// overflows; the decoded map must still hold strictly positive ratios
// summing to 1, not zeros.
TEST(Wire, DecodeNormalizesOverflowingRatios) {
  const auto decoded = decode(frame_with_ratios({1e308, 1e308}));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->map.size(), 2u);
  EXPECT_EQ(decoded->map.ratio_of(ReplicaId{1}), 0.5);
  EXPECT_EQ(decoded->map.ratio_of(ReplicaId{2}), 0.5);
  EXPECT_GT(decoded->map.norm(), 0.0);
}

// A ratio that normalizes to 0 is dropped, so the map never lists a
// replica that `contains` denies.
TEST(Wire, DecodeDropsUnderflowedRatios) {
  const auto decoded = decode(frame_with_ratios({1e308, 1e-300}));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->map.size(), 1u);
  EXPECT_TRUE(decoded->map.contains(ReplicaId{1}));
  EXPECT_FALSE(decoded->map.contains(ReplicaId{2}));
  EXPECT_EQ(decoded->map.ratio_of(ReplicaId{1}), 1.0);
}

TEST(Wire, RandomizedRoundTripSweep) {
  Rng rng{424242};
  for (int trial = 0; trial < 200; ++trial) {
    PositionReport report;
    const auto id_len = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t i = 0; i < id_len; ++i) {
      report.node_id.push_back(
          static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    report.when = SimTime{rng.uniform_int(0, 1'000'000'000)};
    std::vector<core::RatioMap::Entry> entries;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
    for (std::size_t i = 0; i < n; ++i) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, 5000))},
                           rng.uniform(0.001, 1.0));
    }
    report.map = core::RatioMap::from_ratios(entries);
    const auto decoded = decode(*encode(report));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->node_id, report.node_id);
    ASSERT_EQ(decoded->when, report.when);
    // Decode re-normalizes, so ratios may differ in the last ulp.
    ASSERT_EQ(decoded->map.size(), report.map.size());
    for (const auto& [replica, ratio] : report.map.entries()) {
      ASSERT_NEAR(decoded->map.ratio_of(replica), ratio, 1e-12);
    }
  }
}

TEST(Wire, EncodeRejectsOversizedNodeId) {
  PositionReport report = sample_report();
  report.node_id.assign(kMaxNodeIdBytes, 'x');
  // The boundary id is legal and round-trips under its own identity.
  const auto at_bound = encode(report);
  ASSERT_TRUE(at_bound.has_value());
  const auto decoded = decode(*at_bound);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_id, report.node_id);
  EXPECT_EQ(*encoded_size(report), at_bound->size());

  // One byte past the bound: refused outright — never silently truncated
  // to a different identity.
  report.node_id.push_back('y');
  EXPECT_FALSE(encode(report).has_value());
  EXPECT_FALSE(encoded_size(report).has_value());
}

TEST(Wire, EncodeRejectsOversizedEntryCount) {
  PositionReport report;
  report.node_id = "big";
  report.when = SimTime::epoch();
  std::vector<core::RatioMap::Entry> entries;
  entries.reserve(kMaxEntries + 1);
  for (std::uint32_t i = 0; i < kMaxEntries + 1; ++i) {
    entries.emplace_back(ReplicaId{i}, 1.0);
  }
  report.map = core::RatioMap::from_ratios(entries);
  ASSERT_EQ(report.map.size(), kMaxEntries + 1);
  EXPECT_FALSE(encode(report).has_value());
  EXPECT_FALSE(encoded_size(report).has_value());

  // Exactly at the bound the encoding exists and decodes.
  entries.pop_back();
  report.map = core::RatioMap::from_ratios(entries);
  const auto at_bound = encode(report);
  ASSERT_TRUE(at_bound.has_value());
  EXPECT_EQ(at_bound->size(), *encoded_size(report));
  const auto decoded = decode(*at_bound);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map.size(), kMaxEntries);
}

TEST(Wire, RoundTripPropertyAndTruncationSweep) {
  // encode∘decode is the identity on random valid reports, including the
  // empty-window (no entries) and max-size-id edge cases — and no strict
  // prefix of a valid encoding ever decodes.
  Rng rng{20260806};
  for (int trial = 0; trial < 60; ++trial) {
    PositionReport report;
    // Bias the sweep toward the edges: empty ids are invalid on publish
    // but legal on the wire; max-length ids exercise the u16 length.
    const std::size_t id_len =
        trial % 5 == 0 ? kMaxNodeIdBytes
                       : static_cast<std::size_t>(rng.uniform_int(1, 64));
    for (std::size_t i = 0; i < id_len; ++i) {
      report.node_id.push_back(
          static_cast<char>(rng.uniform_int(0, 255)));
    }
    report.when = SimTime{rng.uniform_int(0, 2'000'000'000)};
    if (trial % 4 != 0) {  // every 4th report keeps an empty window
      std::vector<core::RatioMap::Entry> entries;
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
      for (std::size_t i = 0; i < n; ++i) {
        entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                                 rng.uniform_int(0, 4000))},
                             rng.uniform(0.01, 1.0));
      }
      report.map = core::RatioMap::from_ratios(entries);
    }

    const auto bytes = encode(report);
    ASSERT_TRUE(bytes.has_value());
    ASSERT_EQ(bytes->size(), *encoded_size(report));
    const auto decoded = decode(*bytes);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->node_id, report.node_id);
    ASSERT_EQ(decoded->when, report.when);
    ASSERT_EQ(decoded->map.size(), report.map.size());
    for (const auto& [replica, ratio] : report.map.entries()) {
      ASSERT_NEAR(decoded->map.ratio_of(replica), ratio, 1e-12);
    }
    // Re-encoding the decoded report reproduces the bytes exactly for
    // already-normalized maps (the common gossip-forwarding path).
    if (report.map.empty()) {
      EXPECT_EQ(*encode(*decoded), *bytes);
    }

    if (trial < 8) {  // full truncation sweep on a sample of reports
      for (std::size_t len = 0; len < bytes->size(); ++len) {
        ASSERT_FALSE(
            decode(std::string_view{bytes->data(), len}).has_value())
            << "accepted truncation at " << len << " of " << bytes->size();
      }
    }
  }
}

TEST(Wire, PeekNodeIdReadsIdWithoutFullDecode) {
  const PositionReport report = sample_report();
  const std::string bytes = *encode(report);
  const auto peeked = peek_node_id(bytes);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, report.node_id);
  // One-sided contract: whatever decode accepts, peek names the same id
  // — including a message truncated right after the id, which peek may
  // accept (it never validates the payload) but decode must reject.
  const std::size_t id_end = 6 + report.node_id.size();
  const std::string_view truncated{bytes.data(), id_end};
  EXPECT_FALSE(decode(truncated).has_value());
  const auto partial = peek_node_id(truncated);
  if (partial.has_value()) {
    EXPECT_EQ(*partial, report.node_id);
  }
}

TEST(Wire, PeekNodeIdRejectsBadHeaders) {
  const std::string bytes = *encode(sample_report());
  EXPECT_FALSE(peek_node_id("").has_value());
  EXPECT_FALSE(peek_node_id("CRP").has_value());  // shorter than header
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(peek_node_id(bad_magic).has_value());
  std::string bad_version = bytes;
  bad_version[3] = 99;
  EXPECT_FALSE(peek_node_id(bad_version).has_value());
  // id_len pointing past the buffer.
  std::string bad_len = bytes;
  bad_len[4] = static_cast<char>(0xff);
  bad_len[5] = static_cast<char>(0x7f);
  EXPECT_FALSE(peek_node_id(bad_len).has_value());
}

TEST(Wire, PeekAgreesWithDecodeOnFuzzedInput) {
  Rng rng{424242};
  const std::string valid = *encode(sample_report());
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    const auto decoded = decode(mutated);
    if (!decoded.has_value()) continue;
    const auto peeked = peek_node_id(mutated);
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(*peeked, decoded->node_id);
  }
}

TEST(Wire, FuzzDecodeNeverCrashes) {
  Rng rng{777};
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    (void)decode(junk);  // must not crash or throw
  }
  // Mutated valid messages, too.
  const std::string valid = *encode(sample_report());
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = valid;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    (void)decode(mutated);
  }
}

}  // namespace
}  // namespace crp::service
