// State-level fuzz of the write paths that take wire frames:
// PositionService::publish_batch, ShardedFrontend::publish_batch and
// ShardedFrontend::recover_shard. Seeded mutations of valid frames (bit
// flips, truncations, a false entry count or id length, splices of two
// frames) go in a batch at a time. Where decode accepts a frame, the end
// state must equal publishing decode(frame) on a twin; where it rejects
// one, only the reject counters move: reports_rejected, or
// routing_rejected when the front-end cannot even peek the id. State is
// compared through each checker, the membership epochs and a digest of
// every report_of.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"
#include "service/wire.hpp"
#include "sim/fault_plan.hpp"

namespace crp::service {
namespace {

constexpr SimTime kNow = SimTime::epoch() + Hours(2);
constexpr std::size_t kBatch = 16;
constexpr int kBatches = 150;  // 2,400 mutated frames per surface

/// Valid frames of `nodes` reports stamped over the hour before kNow, so
/// a flipped stamp bit lands in the future, past the staleness bound or
/// still in range.
std::vector<std::string> valid_frames(Rng& rng, int nodes) {
  std::vector<std::string> frames;
  for (int i = 0; i < nodes; ++i) {
    std::vector<core::RatioMap::Entry> entries;
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (int j = 0; j < k; ++j) {
      entries.emplace_back(
          ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 23))},
          rng.uniform(0.05, 1.0));
    }
    PositionReport report;
    report.node_id = "fz-" + std::to_string(i);
    report.when = kNow - Minutes(rng.uniform_int(0, 59));
    report.map = core::RatioMap::from_ratios(entries);
    frames.push_back(*encode(report));
  }
  return frames;
}

/// The little-endian field of `bytes` bytes at `at` of a valid frame.
std::uint64_t get_le(const std::string& frame, std::size_t at,
                     std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t b = 0; b < bytes; ++b) {
    value |= std::uint64_t{static_cast<unsigned char>(frame[at + b])}
             << (8 * b);
  }
  return value;
}

void put_le(std::string& frame, std::size_t at, std::uint64_t value,
            std::size_t bytes) {
  for (std::size_t b = 0; b < bytes; ++b) {
    frame[at + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

/// One seeded mutation of a random valid frame. The layout is MAGIC(3)
/// VERSION(1) id_len(u16) id timestamp(i64) entry_count(u32) entries.
std::string mutate(Rng& rng, const std::vector<std::string>& frames) {
  const auto pick = [&] {
    return frames[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(frames.size()) - 1))];
  };
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::string frame = pick();
  const std::uint64_t id_len = get_le(frame, 4, 2);
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // bit flips
      const int flips = static_cast<int>(rng.uniform_int(1, 3));
      for (int f = 0; f < flips; ++f) {
        frame[below(frame.size())] ^=
            static_cast<char>(1 << rng.uniform_int(0, 7));
      }
      break;
    }
    case 1:  // truncation
      frame.resize(below(frame.size()));
      break;
    case 2: {  // a false entry count: off by a little, or anything
      const std::size_t at = 3 + 1 + 2 + id_len + 8;
      const std::uint64_t value =
          rng.uniform_int(0, 1) == 0
              ? get_le(frame, at, 4) +
                    static_cast<std::uint64_t>(rng.uniform_int(-2, 2))
              : static_cast<std::uint64_t>(rng.uniform_int(
                    0, std::numeric_limits<std::uint32_t>::max()));
      put_le(frame, at, value, 4);
      break;
    }
    case 3: {  // a false id length: near the true one, at the cap, or any
      const std::uint64_t lengths[] = {0,
                                       id_len - 1,
                                       id_len + 1,
                                       kMaxNodeIdBytes,
                                       kMaxNodeIdBytes + 1,
                                       static_cast<std::uint64_t>(
                                           rng.uniform_int(0, 0xffff))};
      put_le(frame, 4, lengths[below(std::size(lengths))], 2);
      break;
    }
    default: {  // a splice: one frame's head on another's tail
      const std::string tail = pick();
      frame = frame.substr(0, below(frame.size() + 1)) +
              tail.substr(below(tail.size() + 1));
      break;
    }
  }
  return frame;
}

/// FNV-1a over every report_of(id) of `ids` (absent ones included), in
/// id order: each id, stamp and entry, with the ratios' bits.
template <typename Store>
std::uint64_t reports_digest(const Store& store,
                             const std::set<std::string>& ids) {
  std::uint64_t h = 1469598103934665603ull;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const std::string& id : ids) {
    const auto report = store.report_of(id);
    const bool known = report.has_value();
    bytes(&known, sizeof known);
    if (!known) continue;
    bytes(report->node_id.data(), report->node_id.size());
    const std::int64_t when = report->when.micros();
    bytes(&when, sizeof when);
    for (const auto& [replica, ratio] : report->map.entries()) {
      const std::uint32_t r = replica.value();
      bytes(&r, sizeof r);
      bytes(&ratio, sizeof ratio);
    }
  }
  return h;
}

/// What a twin that publishes decode(frame) must do with `batch`: the
/// decoded reports to publish, plus how many frames decode rejects and
/// how many of those do not even peek.
struct Decoded {
  std::vector<PositionReport> reports;
  std::uint64_t rejected = 0;
  std::uint64_t unpeekable = 0;
};

Decoded decode_all(const std::vector<std::string>& batch,
                   std::set<std::string>& ids) {
  Decoded d;
  for (const std::string& frame : batch) {
    auto report = decode(frame);
    if (!report.has_value()) {
      ++d.rejected;
      if (!peek_node_id(frame).has_value()) ++d.unpeekable;
      continue;
    }
    ids.insert(report->node_id);
    d.reports.push_back(std::move(*report));
  }
  return d;
}

TEST(StateFuzz, PublishBatchOnServiceMatchesDecodedTwin) {
  Rng rng{8101};
  const std::vector<std::string> frames = valid_frames(rng, 40);
  PositionService fuzzed;
  PositionService twin;
  std::set<std::string> ids;
  ThreadPool pool{2};
  ASSERT_EQ(fuzzed.publish_batch(frames, kNow, &pool), frames.size());
  for (const PositionReport& r : decode_all(frames, ids).reports) {
    ASSERT_TRUE(twin.publish(r, kNow));
  }
  std::uint64_t decode_rejected = 0;
  std::uint64_t decoded = 0;
  for (int round = 0; round < kBatches; ++round) {
    SCOPED_TRACE(::testing::Message() << "batch " << round);
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(mutate(rng, frames));
    }
    const Decoded d = decode_all(batch, ids);
    (void)fuzzed.publish_batch(batch, kNow, &pool);
    for (const PositionReport& r : d.reports) (void)twin.publish(r, kNow);
    decode_rejected += d.rejected;
    decoded += d.reports.size();
    ASSERT_NO_THROW(fuzzed.check_invariants());
    ASSERT_EQ(fuzzed.membership_epoch(), twin.membership_epoch());
    ASSERT_EQ(fuzzed.size(), twin.size());
    ASSERT_EQ(fuzzed.reports_accepted(), twin.reports_accepted());
    ASSERT_EQ(fuzzed.reports_rejected(),
              twin.reports_rejected() + decode_rejected);
    ASSERT_EQ(reports_digest(fuzzed, ids), reports_digest(twin, ids));
  }
  // The mutations must reach both sides of decode, and some decoded
  // frames must change state.
  EXPECT_GT(decode_rejected, 1000u);
  EXPECT_GT(decoded, 200u);
  EXPECT_GT(twin.reports_accepted(), frames.size() + 50);
}

TEST(StateFuzz, PublishBatchOnShardedFrontendMatchesDecodedTwin) {
  Rng rng{8102};
  const std::vector<std::string> frames = valid_frames(rng, 40);
  ShardedFrontendConfig fc;
  fc.shards = 4;
  ShardedFrontend fuzzed{fc};
  ShardedFrontend twin{fc};
  std::set<std::string> ids;
  ThreadPool pool{2};
  ASSERT_EQ(fuzzed.publish_batch(frames, kNow, &pool), frames.size());
  for (const PositionReport& r : decode_all(frames, ids).reports) {
    ASSERT_TRUE(twin.publish(r, kNow));
  }
  std::uint64_t decode_rejected = 0;
  std::uint64_t unpeekable = 0;
  for (int round = 0; round < kBatches; ++round) {
    SCOPED_TRACE(::testing::Message() << "batch " << round);
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(mutate(rng, frames));
    }
    const Decoded d = decode_all(batch, ids);
    (void)fuzzed.publish_batch(batch, kNow, &pool);
    for (const PositionReport& r : d.reports) (void)twin.publish(r, kNow);
    decode_rejected += d.rejected - d.unpeekable;
    unpeekable += d.unpeekable;
    ASSERT_NO_THROW(fuzzed.check_invariants());
    ASSERT_EQ(fuzzed.write_epochs(), twin.write_epochs());
    ASSERT_EQ(fuzzed.size(), twin.size());
    const ServiceStats got = fuzzed.stats();
    const ServiceStats want = twin.stats();
    ASSERT_EQ(got.reports_accepted, want.reports_accepted);
    ASSERT_EQ(got.reports_rejected, want.reports_rejected + decode_rejected);
    ASSERT_EQ(got.routing_rejected, unpeekable);
    ASSERT_EQ(want.routing_rejected, 0u);
    ASSERT_EQ(reports_digest(fuzzed, ids), reports_digest(twin, ids));
  }
  EXPECT_GT(decode_rejected, 300u);
  EXPECT_GT(unpeekable, 100u);
}

// recover_shard replays only the frames its shard owns, so the crashed
// shard must end as a fresh service fed decode(frame) for each of them,
// its reject counter moving by the owned frames decode rejects, the
// routing counter by the frames that do not peek, and no other shard
// moving.
TEST(StateFuzz, RecoverShardMatchesDecodedTwin) {
  for (std::size_t crashed = 0; crashed < 4; ++crashed) {
    SCOPED_TRACE(::testing::Message() << "crashed shard " << crashed);
    Rng rng{8200 + crashed};
    const std::vector<std::string> frames = valid_frames(rng, 40);
    ShardedFrontendConfig fc;
    fc.shards = 4;
    ShardedFrontend fe{fc};
    ThreadPool pool{2};
    ASSERT_EQ(fe.publish_batch(frames, kNow, &pool), frames.size());
    sim::FaultPlan plan{8300 + crashed};
    plan.add({.kind = sim::FaultKind::kShardCrash,
              .start = kNow,
              .end = kNow + Minutes(1),
              .probability = 1.0,
              .entity = crashed});
    fe.set_fault_plan(&plan);
    fe.tick(kNow);
    ASSERT_EQ(fe.shards_needing_recovery(),
              std::vector<std::size_t>{crashed});
    ASSERT_EQ(fe.shard(crashed).size(), 0u);

    std::vector<std::string> replay;
    for (int i = 0; i < 4 * kBatches; ++i) {
      replay.push_back(mutate(rng, frames));
    }
    std::vector<std::string> owned;
    std::uint64_t unpeekable = 0;
    for (const std::string& frame : replay) {
      const auto id = peek_node_id(frame);
      if (!id.has_value()) {
        ++unpeekable;
      } else if (fe.shard_of(*id) == crashed) {
        owned.push_back(frame);
      }
    }
    std::set<std::string> ids;
    const Decoded d = decode_all(owned, ids);
    PositionService twin{fe.config().service};
    for (const PositionReport& r : d.reports) (void)twin.publish(r, kNow);

    const std::vector<std::uint64_t> epochs = fe.write_epochs();
    const ServiceStats before = fe.shard(crashed).stats();
    const std::uint64_t routing = fe.stats().routing_rejected;
    EXPECT_EQ(fe.recover_shard(crashed, replay, kNow, &pool),
              twin.reports_accepted());
    ASSERT_NO_THROW(fe.check_invariants());
    EXPECT_TRUE(fe.shards_needing_recovery().empty());
    const PositionService& shard = fe.shard(crashed);
    const ServiceStats after = shard.stats();
    EXPECT_EQ(shard.size(), twin.size());
    EXPECT_EQ(shard.membership_epoch() - epochs[crashed],
              twin.membership_epoch());
    EXPECT_EQ(after.reports_accepted - before.reports_accepted,
              twin.reports_accepted());
    EXPECT_EQ(after.reports_rejected - before.reports_rejected,
              twin.reports_rejected() + d.rejected);
    EXPECT_EQ(reports_digest(shard, ids), reports_digest(twin, ids));
    EXPECT_EQ(fe.stats().routing_rejected, routing + unpeekable);
    for (std::size_t s = 0; s < fe.shard_count(); ++s) {
      if (s != crashed) {
        EXPECT_EQ(fe.write_epochs()[s], epochs[s]) << "shard " << s;
      }
    }
    EXPECT_GT(d.rejected, 50u);
    EXPECT_GT(unpeekable, 10u);
    EXPECT_GT(twin.reports_accepted(), 5u);
  }
}

// One frame that does not peek in an otherwise valid replay moves
// routing_rejected by exactly 1; the crashed shard's own frames are all
// accepted, and other shards' frames are filtered without a count.
TEST(StateFuzz, RecoverShardCountsAnUnpeekableFrame) {
  Rng rng{8400};
  const std::vector<std::string> frames = valid_frames(rng, 24);
  ShardedFrontendConfig fc;
  fc.shards = 2;
  ShardedFrontend fe{fc};
  ASSERT_EQ(fe.publish_batch(frames, kNow), frames.size());
  const std::size_t owned = fe.shard(1).size();
  ASSERT_GT(owned, 0u);
  ASSERT_LT(owned, frames.size());
  sim::FaultPlan plan{8401};
  plan.add({.kind = sim::FaultKind::kShardCrash,
            .start = kNow,
            .end = kNow + Minutes(1),
            .probability = 1.0,
            .entity = 1});
  fe.set_fault_plan(&plan);
  fe.tick(kNow);
  ASSERT_EQ(fe.shards_needing_recovery(), std::vector<std::size_t>{1});

  std::vector<std::string> replay = frames;
  const std::string garbage = frames[0].substr(0, 5);
  ASSERT_FALSE(peek_node_id(garbage).has_value());
  replay.insert(replay.begin() + 3, garbage);
  const std::uint64_t routing = fe.stats().routing_rejected;
  EXPECT_EQ(fe.recover_shard(1, replay, kNow), owned);
  EXPECT_EQ(fe.stats().routing_rejected, routing + 1);
  EXPECT_EQ(fe.shard(1).size(), owned);
  ASSERT_NO_THROW(fe.check_invariants());
}

}  // namespace
}  // namespace crp::service
