// Sharded multi-service front-end: scatter/gather serving over
// per-shard snapshots (DESIGN.md §9).
//
// One PositionService holds every node behind a single writer; the
// ROADMAP's production-scale serving tier wants that population
// partitioned so N writers ingest in parallel and queries scale out.
// ShardedFrontend is that tier: N single-writer PositionService shards,
// nodes hash-partitioned by id (stable_hash(id) % N), each publishing
// lock-free ServingSnapshots through its own SnapshotHandle.
//
//   * Writes route to the owning shard: publish/remove go straight
//     there; publish_batch peeks each report's node id out of the wire
//     header, groups the batch per shard, and applies the groups in
//     parallel (distinct shards are distinct single-writer domains, so
//     the shard tasks never share mutable state).
//   * Reads scatter/gather: a View acquires every shard's published
//     snapshot — in shard order, recording each snapshot's membership
//     epoch into a cross-shard epoch vector — then answers from exactly
//     those snapshots, through the serving core every owner shares
//     (service/serving_detail.hpp) over one borrowed table per shard.
//     The client's frozen corpus row comes from its owning shard; every
//     shard scores that row against its own partition (bit-identical to
//     one unsharded engine, because row queries renormalize nothing and
//     pairwise similarity sees only the two rows involved); per-shard
//     top-k partials merge under the core's (similarity desc, id asc)
//     total order. Under a total order the global top-k is a subset of
//     the union of per-shard top-k's, so the merged answer is
//     bit-identical to a single unsharded PositionService over the same
//     corpus.
//
// Epoch vector: View::epochs() is the membership epoch each shard's
// snapshot froze. Callers pin a View to answer several queries from one
// consistent capture, and epoch_lag(view) bounds how far any shard has
// written past it — the sharded analogue of the single-service epoch.
//
// Freshness: the front-end serves queries from snapshots, so the
// default configuration forces snapshots on with max_epoch_lag=1 —
// every completed write is visible to the next query, which is what
// makes the front-end behave observably like one mutable service. A
// caller that explicitly enables snapshots keeps its own pacing (lag >1
// trades freshness for republish cost; the epoch vector then tells
// readers exactly how far behind each shard they are).
//
// Out of scope: the cluster queries (same_cluster/cluster_assignment/
// diverse_set) stay per-shard — SMF clustering is global by nature and
// cannot be merged from per-partition runs; callers needing them run
// them on shard(i) against that partition (DESIGN.md §9 discusses why).
//
// Thread safety: the front-end itself follows the single-writer
// contract — writes from one thread at a time; view() and every query
// are safe from any thread concurrently with the writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/snapshot_handle.hpp"
#include "common/time.hpp"
#include "core/ratio_map.hpp"
#include "service/position_service.hpp"
#include "service/serving_snapshot.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::sim {
class FaultPlan;
}

namespace crp::service {

/// Per-shard circuit-breaker tuning (DESIGN.md §9). All decisions are
/// deterministic: failures come from `FaultPlan` draws (pure hashes) and
/// the half-open probe is scheduled by sim-time cooldown, so two runs of
/// the same write sequence transition breakers identically regardless of
/// thread count.
struct ShardBreakerConfig {
  /// Consecutive write failures that trip a closed breaker open.
  std::size_t failure_threshold = 3;
  /// Consecutive half-open probe successes that re-close it.
  std::size_t success_threshold = 2;
  /// Sim-time an open breaker waits before admitting half-open probes.
  Duration open_cooldown = Minutes(5);
  /// Extra attempts after the first failed write admission (0 = fail
  /// fast). Each retry draws independently at a backoff-advanced clock.
  std::size_t max_retries = 2;
  /// Backoff before retry r is 2^(r-1) * retry_backoff (exponential).
  Duration retry_backoff = Seconds(2);
};

struct ShardedFrontendConfig {
  /// Shard count; clamped to at least 1. Every count answers alike: one
  /// serving core serves N >= 1 shards, and one shard reads inline.
  std::size_t shards = 4;
  /// Per-shard service configuration. When `service.snapshots.enabled`
  /// is false (the default) the front-end forces snapshots on with
  /// max_epoch_lag=1 so queries always see the latest completed write;
  /// an explicitly enabled config keeps the caller's pacing.
  ServiceConfig service;
  /// Circuit-breaker behaviour once a fault plan is armed; inert (never
  /// consulted) without one.
  ShardBreakerConfig breaker;
};

/// Circuit-breaker state of one shard. Closed is healthy; open sheds
/// writes and serves reads from the shard's stale fallback snapshot;
/// half-open admits probe writes that decide between re-closing and
/// re-opening.
enum class ShardHealth : std::uint8_t {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2,
};

/// Per-shard completeness of a gathered answer: which shards actually
/// contributed, and on what terms. The reader's contract: `complete()`
/// and no stale flags = the answer is exactly the healthy frontend's;
/// stale flags = complete but shards {i} answered from their last-known
/// fallback snapshot; `missing_shards` nonempty = partial (those
/// partitions are invisible to this answer).
struct ShardCompleteness {
  /// Shards that contributed (fresh or via stale fallback).
  std::size_t shards_answered = 0;
  /// Shards excluded entirely (failed, fallback older than the usable
  /// bound), ascending.
  std::vector<std::size_t> missing_shards;
  /// stale_shards[s]: shard s answered from a failed shard's fallback
  /// snapshot (one flag per shard, parallel to the epoch vector).
  std::vector<bool> stale_shards;

  [[nodiscard]] bool complete() const { return missing_shards.empty(); }
  [[nodiscard]] bool any_stale() const {
    for (const bool s : stale_shards) {
      if (s) return true;
    }
    return false;
  }
};

/// A tiered answer plus the per-shard completeness vector it was
/// gathered under — the fault-aware query result (DESIGN.md §9).
struct GatheredAnswer {
  TieredAnswer tiered;
  ShardCompleteness completeness;
};

/// Cumulative fault-handling accounting for one ShardedFrontend. All
/// zero until a fault plan is armed and something actually degrades.
struct FrontendHealthStats {
  /// Breaker transitions: closed/half-open -> open.
  std::uint64_t breaker_opens = 0;
  /// open -> half-open (cooldown expired, probes admitted).
  std::uint64_t breaker_half_opens = 0;
  /// half-open -> closed (probes succeeded / recovery caught up).
  std::uint64_t breaker_closes = 0;
  /// Write attempts re-drawn after a stall (per retry, not per report).
  std::uint64_t write_retries = 0;
  /// Reports dropped after exhausting retries against a stalled shard.
  std::uint64_t writes_failed = 0;
  /// Reports shed without attempting because the breaker was open.
  std::uint64_t writes_shed = 0;
  /// Scheduled kShardCrash events that wiped a shard.
  std::uint64_t shard_crashes = 0;
  /// Reports re-ingested into crashed shards by recover_shard().
  std::uint64_t recovery_replays = 0;
  /// View captures that substituted a failed shard's fallback snapshot
  /// (counted per shard substitution, not per view).
  std::uint64_t stale_fallback_views = 0;
  /// Gathered answers that included at least one stale-fallback shard.
  std::uint64_t degraded_answers = 0;
  /// Gathered answers that excluded at least one shard.
  std::uint64_t partial_answers = 0;
};

/// Reader-bumped health counters (degraded/partial answers, fallback
/// substitutions). Heap-shared between the frontend and its Views so a
/// detached View never writes through a dangling pointer — the same
/// shared-ownership grace period snapshots use.
struct FrontendHealthCounters {
  std::atomic<std::uint64_t> degraded_answers{0};
  std::atomic<std::uint64_t> partial_answers{0};
  std::atomic<std::uint64_t> stale_fallback_views{0};
};

class ShardedFrontend {
 public:
  /// One acquire-all capture of every shard's published snapshot plus
  /// the epoch vector it implies. Queries on a View answer from exactly
  /// the captured snapshots — concurrent republishing never shifts an
  /// answer mid-View. Its reads (TableReads) are each bit-identical to
  /// the PositionService read of the same name over the union corpus at
  /// this view's epochs. Safe to query from any number of threads; cheap
  /// to copy (shared_ptrs).
  class View : public TableReads<View> {
   public:
    [[nodiscard]] std::size_t shard_count() const { return snaps_.size(); }
    /// Membership epoch per shard at capture, in shard order.
    [[nodiscard]] std::span<const std::uint64_t> epochs() const {
      return epochs_;
    }
    [[nodiscard]] const ServingSnapshot& shard(std::size_t index) const {
      return *snaps_[index];
    }
    /// Nodes known to the captured snapshots (live or not).
    [[nodiscard]] std::size_t size() const;

    // --- fault-aware (gathered) queries ---
    /// Health captured per shard at view() time (all kClosed without an
    /// armed fault plan — the healthy view is indistinguishable).
    [[nodiscard]] ShardHealth shard_health(std::size_t index) const {
      return static_cast<ShardHealth>(health_[index]);
    }
    /// The completeness vector a gathered query at `now` answers under:
    /// healthy shards answer; failed shards answer from their fallback
    /// when it is younger than the usable bound, else go missing.
    [[nodiscard]] ShardCompleteness completeness(SimTime now) const;
    /// closest_any/closest with an explicit completeness account. On an
    /// all-healthy view the tiered part is bit-identical to
    /// closest_any_tiered/closest_tiered; under shard failure the answer
    /// degrades (stale fallback shards widen to the stale band, missing
    /// shards are excluded) instead of vanishing. A client whose owning
    /// shard is missing refuses with kShardUnavailable. The candidate
    /// form ranks inline, as `closest_tiered` does, and takes no pool.
    [[nodiscard]] GatheredAnswer closest_any_gathered(
        const std::string& client, std::size_t k, SimTime now,
        ThreadPool* pool = nullptr) const;
    [[nodiscard]] GatheredAnswer closest_gathered(
        const std::string& client, std::span<const std::string> candidates,
        std::size_t k, SimTime now) const;

   private:
    friend class ShardedFrontend;
    friend class TableReads<View>;
    View() = default;

    /// The captured tables, one per shard, lent to the serving core.
    [[nodiscard]] serving_detail::Tables tables() const { return tables_; }

    /// Shared body of the gathered queries: the tiered read with each
    /// shard's health band, plus the completeness it was gathered under.
    [[nodiscard]] GatheredAnswer gathered(const std::string& client,
                                          serving_detail::Candidates candidates,
                                          std::size_t k, SimTime now,
                                          ThreadPool* pool) const;

    std::vector<std::shared_ptr<const ServingSnapshot>> snaps_;
    /// Each captured snapshot's tables, lent to the serving core.
    std::vector<serving_detail::TableView> tables_;
    std::vector<std::uint64_t> epochs_;
    /// ShardHealth per shard at capture (uint8_t to stay vector-packed).
    std::vector<std::uint8_t> health_;
    /// max(staleness_bound, stale_usable_bound) of the shard config —
    /// how old a failed shard's fallback may be and still answer.
    Duration usable_bound_{0};
    /// Shared with the owning frontend so degraded/partial accounting
    /// survives a View outliving it.
    std::shared_ptr<FrontendHealthCounters> counters_;
  };

  explicit ShardedFrontend(ShardedFrontendConfig config = {});

  // --- topology ---
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Owning shard of `node_id`: stable_hash(id) % shards. Pure —
  /// identical for every frontend with the same shard count.
  [[nodiscard]] static std::size_t shard_index(std::string_view node_id,
                                               std::size_t shard_count);
  [[nodiscard]] std::size_t shard_of(std::string_view node_id) const {
    return shard_index(node_id, shards_.size());
  }
  /// Direct shard access (tests, per-shard stats, cluster queries).
  /// Mutating a shard directly is writer-side, like any service write.
  [[nodiscard]] PositionService& shard(std::size_t index) {
    return *shards_[index];
  }
  [[nodiscard]] const PositionService& shard(std::size_t index) const {
    return *shards_[index];
  }
  [[nodiscard]] const ShardedFrontendConfig& config() const {
    return config_;
  }

  // --- writes (single writer; routed to the owning shard) ---
  bool publish(PositionReport report, SimTime now);
  bool publish_encoded(std::string_view bytes, SimTime now);
  /// Routes each report to its owning shard by peeking the node id out
  /// of the wire header (frames whose header won't even peek are
  /// counted in `routing_rejected` and delivered nowhere — decode would
  /// reject them anyway, and counting at the routing layer keeps the
  /// drop attributable instead of burying it in one shard's reject
  /// counter), then applies the per-shard groups in parallel on `pool`.
  /// Relative order within a shard is batch order, so the end state is
  /// identical to routing the reports one by one. With a fault plan
  /// armed, each shard's group passes write admission as one unit.
  /// Returns how many were accepted.
  std::size_t publish_batch(std::span<const std::string> batch, SimTime now,
                            ThreadPool* pool = nullptr);
  bool remove(const std::string& node_id);
  /// Expires every shard's partition; each shard republishes only its
  /// own snapshot. Returns the total dropped.
  std::size_t expire(SimTime now);
  /// Unconditionally republishes every shard's snapshot at `now` (the
  /// campaign-boundary hook; each shard cuts only its own partition).
  void publish_snapshots(SimTime now);

  // --- inspection (routed to the owning shard) ---
  [[nodiscard]] std::optional<core::RatioMap> map_of(
      const std::string& node_id) const;
  [[nodiscard]] std::optional<PositionReport> report_of(
      const std::string& node_id) const;
  [[nodiscard]] std::size_t size() const;

  // --- epochs (writer-side, like PositionService::membership_epoch) ---
  [[nodiscard]] std::vector<std::uint64_t> write_epochs() const;
  /// How far the writer has moved past `view`: max over shards of
  /// (current membership epoch - the view's captured epoch).
  [[nodiscard]] std::uint64_t epoch_lag(const View& view) const;

  // --- reads ---
  /// Acquire-all-then-answer: loads every shard's published snapshot in
  /// shard order. Never contains a null snapshot (the constructor
  /// publishes an empty one per shard). Safe from any thread. Every read
  /// goes through a View: pin one to answer several queries from one
  /// capture.
  [[nodiscard]] View view() const;

  // --- fault tolerance (DESIGN.md §9) ---
  /// Arms (or with nullptr disarms) a deterministic fault plan. While
  /// armed, writes consult kShardStall/kShardCrash draws and the
  /// per-shard breakers; unarmed, every fault path short-circuits and
  /// the frontend is bit-identical to one that never heard of faults.
  /// The plan must outlive the frontend (not copied). Writer-side.
  void set_fault_plan(const sim::FaultPlan* plan);
  [[nodiscard]] const sim::FaultPlan* fault_plan() const { return plan_; }
  /// Advances fault scheduling to `now` without writing: fires due
  /// crash events and moves cooled-down open breakers to half-open.
  /// Writes do this implicitly for the shards they touch; campaigns
  /// call this at time boundaries so a write-quiet shard still crashes
  /// and probes on schedule. Writer-side. No-op unless a plan is armed.
  void tick(SimTime now);
  /// Current breaker state of shard `index` (kClosed when unarmed).
  /// Safe from any thread.
  [[nodiscard]] ShardHealth shard_health(std::size_t index) const;
  /// Shards wiped by a crash event and not yet re-fed (ascending).
  /// Writer-side.
  [[nodiscard]] std::vector<std::size_t> shards_needing_recovery() const;
  /// Anti-entropy crash recovery: re-ingests `replay` (wire-encoded
  /// reports gathered from gossip peers; frames owned by other shards
  /// are filtered out, so callers may pass a whole peer store, and
  /// frames whose header won't peek are counted in `routing_rejected`)
  /// into the crashed shard, republishes its snapshot at `now`, drops
  /// the held pre-crash snapshot and force-closes the breaker. Returns
  /// reports accepted.
  /// No-op (returns 0) for shards not needing recovery. Writer-side.
  std::size_t recover_shard(std::size_t index,
                            std::span<const std::string> replay, SimTime now,
                            ThreadPool* pool = nullptr);
  /// Cumulative fault-handling counters. Safe from any thread.
  [[nodiscard]] FrontendHealthStats health_stats() const;
  /// Throws std::logic_error naming the first broken invariant: each
  /// shard's own (PositionService::check_invariants); every id in shard
  /// s's slot table owned by s (shard_index); a shard still needing
  /// recovery has an open breaker and holds its pre-crash snapshot, and
  /// no other shard holds one; breaker closes and half-opens never
  /// outnumber opens. Writer-side.
  void check_invariants() const;

  // --- stats ---
  /// Aggregate over all shards (field-wise sum; epoch-lag fields take
  /// the max — a fleet is as far behind as its worst shard). The
  /// frontend's own `routing_rejected` count is added on top (shards
  /// never see unpeekable frames). queries_served, accept/reject and
  /// the tier counters aggregate to exactly what one unsharded service
  /// would count under the same traffic; the similarity_queries/
  /// maps_touched pair counts real per-shard work — a scattered query
  /// pays one partial read per shard.
  [[nodiscard]] ServiceStats stats() const;
  /// Per-shard breakdown, in shard order.
  [[nodiscard]] std::vector<ServiceStats> shard_stats() const;

 private:
  /// Writer-owned fault bookkeeping for one shard. `health` and
  /// `fallback` are the reader-visible edge (relaxed atomic + snapshot
  /// handle per the §8 counter contract); the rest is writer-only.
  struct ShardRuntime {
    std::atomic<std::uint8_t> health{
        static_cast<std::uint8_t>(ShardHealth::kClosed)};
    /// The snapshot the shard published before its crash, held from the
    /// crash to its recovery (null otherwise) — what Views serve for a
    /// crashed shard instead of its wiped one. A shard that failed
    /// without crashing serves its published snapshot: writes to it are
    /// shed and maintenance skips it, so that is its last known good.
    SnapshotHandle<ServingSnapshot> fallback;
    // writer-only breaker bookkeeping
    std::size_t consecutive_failures = 0;
    std::size_t half_open_successes = 0;
    SimTime opened_at{-1};
    bool needs_recovery = false;
    bool crash_seen = false;
    std::uint64_t last_crash_key = 0;
  };

  /// Crash events + half-open scheduling for shard `s` at `now`
  /// (armed-plan only; callers gate).
  void process_shard_faults(std::size_t s, SimTime now);
  /// Write admission for shard `s`: breaker check then bounded
  /// stall-retry. `weight` is how many reports ride on the admission
  /// (sheds/failures count per report). True = deliver the write.
  bool admit_write(std::size_t s, SimTime now, std::size_t weight);
  void note_write_success(std::size_t s);
  void note_write_failure(std::size_t s, SimTime now);
  void open_breaker(std::size_t s, SimTime now);

  ShardedFrontendConfig config_;
  std::vector<std::unique_ptr<PositionService>> shards_;
  /// One runtime per shard (unique_ptr: atomics pin the address).
  std::vector<std::unique_ptr<ShardRuntime>> runtime_;
  /// Armed fault plan; nullptr = every fault path inert.
  const sim::FaultPlan* plan_ = nullptr;
  std::shared_ptr<FrontendHealthCounters> health_counters_ =
      std::make_shared<FrontendHealthCounters>();
  // Writer-bumped, reader-read (relaxed, §8).
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> breaker_half_opens_{0};
  std::atomic<std::uint64_t> breaker_closes_{0};
  std::atomic<std::uint64_t> write_retries_{0};
  std::atomic<std::uint64_t> writes_failed_{0};
  std::atomic<std::uint64_t> writes_shed_{0};
  std::atomic<std::uint64_t> shard_crashes_{0};
  std::atomic<std::uint64_t> recovery_replays_{0};
  /// Satellite: wire frames whose header would not even peek — counted
  /// at the routing layer instead of being delivered anywhere.
  std::atomic<std::uint64_t> routing_rejected_{0};
};

}  // namespace crp::service
