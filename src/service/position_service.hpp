// The stand-alone CRP positioning service the paper leaves as future
// work (§III.B): a shared registry of position reports answering the
// three location queries of §IV.B plus closest-node selection (§IV.A),
// for any application, with no probing anywhere.
//
// Semantics:
//  * Nodes publish `PositionReport`s (ratio map + timestamp); newer
//    reports replace older ones, stale reports expire.
//  * `closest` ranks candidate nodes by similarity to a client node.
//  * Cluster queries run SMF lazily over the engine corpus and cache the
//    result until the membership changes or the cache ages out. Stale
//    members are filtered out of every answer at query time, so a cached
//    clustering never serves nodes whose reports have aged past the
//    staleness bound.
//
// Serving machinery: the service keeps one incrementally maintained
// `core::SimilarityEngine` (DESIGN.md §6) as the source of truth for
// similarity. publish/remove/expire mutate the engine in place
// (add/update/remove with swap-removed postings + arena compaction)
// instead of rebuilding a corpus copy; `closest`/`closest_any` answer
// from one engine query per request, and `ensure_clustering` feeds
// `smf_cluster` straight from the engine without recopying a single map.
// Engine scores are bit-identical to per-pair `similarity()` (the §6
// determinism contract), so query answers are byte-for-byte what the
// naive per-pair implementation produced.
//
// Concurrent serving (DESIGN.md §8): the service stays single-writer —
// publish/remove/expire and the cluster-cache queries mutate state and
// must come from one thread at a time — but it can *publish snapshots*:
// immutable `ServingSnapshot` objects any number of reader threads
// query lock-free, cut at configurable epoch/age boundaries
// (`SnapshotConfig`) and republished through a `SnapshotHandle`. The
// service reads its live tables and a snapshot its frozen ones through
// one serving core (service/serving_detail.hpp), so snapshot answers are
// bit-identical to the service's at the snapshot's membership epoch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sharded_counter.hpp"
#include "common/snapshot_handle.hpp"
#include "common/time.hpp"
#include "core/clustering.hpp"
#include "core/ratio_map.hpp"
#include "core/similarity.hpp"
#include "core/similarity_engine.hpp"
#include "service/serving_detail.hpp"
#include "service/wire.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::service {

class ServingSnapshot;

/// Concurrent-serving snapshot policy (DESIGN.md §8).
struct SnapshotConfig {
  /// Master switch. When false (default) the service never cuts
  /// snapshots on its own — `maybe_publish_snapshot` is a no-op and the
  /// write paths behave byte-for-byte as they always did. Explicit
  /// `publish_snapshot` calls work either way.
  bool enabled = false;
  /// Republish once the mutable state is this many membership epochs
  /// ahead of the published snapshot. 1 republishes after every
  /// accepted mutation; 0 behaves as 1.
  std::uint64_t max_epoch_lag = 64;
  /// Republish once the published snapshot's freeze time is this much
  /// sim-time behind the write clock, even with no membership change —
  /// snapshots filter liveness against their own frozen clock, so this
  /// bounds how stale that filter can run during write-quiet periods.
  Duration max_age = Minutes(1);
  /// Run `ensure_clustering` at every freeze and attach the clustering,
  /// so snapshot cluster queries always answer. When false a snapshot
  /// still carries the cached clustering if the cache happens to be
  /// current at freeze time (sharing it costs nothing), and answers
  /// cluster queries empty otherwise.
  bool clustering = false;
};

struct ServiceConfig {
  /// Reports older than this are ignored and eventually dropped.
  Duration staleness_bound = Hours(6);
  /// Degraded-mode serving (DESIGN.md §7): reports older than
  /// `staleness_bound` but within this bound may still answer *tiered*
  /// queries, marked `AnswerTier::kStale`. Must exceed
  /// `staleness_bound` to have any effect; the default 0 disables the
  /// stale tier entirely, leaving every non-tiered query byte-for-byte
  /// what it always was.
  Duration stale_usable_bound = Duration{0};
  /// Similarity metric for every query the service answers — selection
  /// and clustering share the one engine, so `clustering.metric` is
  /// overridden with this value at construction.
  core::SimilarityKind metric = core::SimilarityKind::kCosine;
  /// SMF settings for the cluster queries.
  core::SmfConfig clustering;
  /// Cached clustering is recomputed after this long, or whenever the
  /// set of known nodes changes.
  Duration recluster_after = Minutes(30);
  /// Concurrent-serving snapshot policy (disabled by default).
  SnapshotConfig snapshots;
};

/// A similarity-ranked peer.
struct RankedNode {
  std::string node_id;
  double similarity = 0.0;
};

/// Which freshness tier a tiered query answered from.
enum class AnswerTier : std::uint8_t {
  kFresh,    // client and candidates within staleness_bound
  kStale,    // answered from stale-but-usable reports (degraded mode)
  kRefused,  // no usable answer; see DegradedReason
};

/// Why a tiered query degraded below the fresh tier or refused. Typed so
/// callers can distinguish "ask again later" from "this node is gone" —
/// instead of every failure collapsing into a silent empty vector.
enum class DegradedReason : std::uint8_t {
  kNone,               // fresh answer, nothing degraded
  kUnknownClient,      // client never published a report
  kClientExpired,      // client's report aged past even the stale tier
  kStaleClient,        // answered, but from a stale-tier client report
  kNoUsableCandidates, // client usable but nothing to rank against
  // Sharded front-end only (DESIGN.md §9): the gathered-query reasons.
  kStaleShard,         // answered, but a failed shard served its stale
                       // fallback snapshot (client itself fresh)
  kShardUnavailable,   // the client's owning shard is down with no
                       // usable fallback — nothing knows the client
};

/// Result of a tiered closest query: the ranking plus an explicit
/// account of how degraded the answer is.
struct TieredAnswer {
  AnswerTier tier = AnswerTier::kRefused;
  DegradedReason reason = DegradedReason::kNone;
  std::vector<RankedNode> ranked;

  [[nodiscard]] bool answered() const {
    return tier != AnswerTier::kRefused;
  }
};

/// Serving counters, cumulative since construction (see stats()).
///
/// Coherence under concurrent readers: stats() may be called from any
/// thread while snapshot readers serve queries and the single writer
/// publishes. Every source counter is either thread-sharded
/// (ShardedCounter) or a relaxed atomic, so each *field* is a torn-free,
/// monotonically consistent value — but the struct as a whole is not a
/// transaction. Tolerances per field:
///  * queries_served / similarity_queries / maps_touched /
///    fresh_answers / stale_answers / refused_queries — bumped by
///    concurrent readers; a stats() racing a query may see the query
///    counted but not yet its maps_touched (or vice versa). Ratios
///    computed across fields are approximate while traffic is in
///    flight, exact once it quiesces.
///  * reports_accepted / reports_rejected / reclusters /
///    recluster_seconds / recluster_maps_touched /
///    clustering_cache_hits / engine_rebuilds_avoided /
///    postings_tombstoned / compactions — written by the single writer
///    only; a racing stats() sees some prefix of the writer's bumps
///    (e.g. a publish counted in reports_accepted whose removed postings
///    are not yet in postings_tombstoned). Never torn, never decreasing.
struct ServiceStats {
  std::uint64_t queries_served = 0;
  std::uint64_t reports_accepted = 0;
  std::uint64_t reports_rejected = 0;
  /// Cluster queries answered from the cached clustering.
  std::uint64_t clustering_cache_hits = 0;
  /// Reclusterings that reused the incrementally maintained engine —
  /// each one is a from-scratch corpus copy + engine build avoided.
  std::uint64_t engine_rebuilds_avoided = 0;
  /// Engine churn (mirrors SimilarityEngine::MutationStats):
  /// postings removed by updates and removes, and arena compactions.
  std::uint64_t postings_tombstoned = 0;
  std::uint64_t compactions = 0;
  /// Similarity queries answered and the corpus maps they touched
  /// (shared ≥1 replica with the client) — touched/query is the
  /// effective fan-out of the engine's inverted index.
  std::uint64_t similarity_queries = 0;
  std::uint64_t maps_touched = 0;
  /// Clustering rebuilds actually executed (cache misses), the wall
  /// time they took in total, and the candidate rows the center-indexed
  /// SMF touched while doing so — touched/(nodes·rebuild) versus the
  /// corpus size is the clustering speedup the center index delivers.
  std::uint64_t reclusters = 0;
  double recluster_seconds = 0.0;
  std::uint64_t recluster_maps_touched = 0;
  /// Degraded-mode serving outcomes (tiered queries only; the plain
  /// query paths never touch these).
  std::uint64_t fresh_answers = 0;
  std::uint64_t stale_answers = 0;
  std::uint64_t refused_queries = 0;
  /// Snapshot epoch lag the writer observed after its most recent
  /// write (membership epoch minus the published snapshot's epoch),
  /// and the largest value ever observed. Meaningful only with
  /// snapshots enabled — always 0 otherwise. Relaxed atomics at the
  /// source, so stats() reads them from any thread (§8 contract).
  std::uint64_t epoch_lag_last = 0;
  std::uint64_t epoch_lag_max = 0;
  /// Sharded front-end only: wire frames whose header would not even
  /// peek, counted at the routing layer instead of being dumped into
  /// shard 0's decode — so reports_rejected keeps meaning "a shard
  /// refused a routed report" (stale, malformed body, out-of-order).
  /// Always 0 on an unsharded service.
  std::uint64_t routing_rejected = 0;

  /// Field-wise accumulation — how a sharded front-end aggregates its
  /// per-shard stats into one fleet view. Counters sum; so does
  /// recluster_seconds (total wall time across shards). The epoch-lag
  /// observations take the max instead: the fleet's lag is its worst
  /// shard's, and summing lags would mean nothing.
  ServiceStats& operator+=(const ServiceStats& other);
};

/// Sum of per-shard stats (see operator+=). Empty input is all zeros.
[[nodiscard]] ServiceStats aggregate_stats(
    std::span<const ServiceStats> per_shard);

/// Query-path counters, shared (by shared_ptr) between the service and
/// every ServingSnapshot it publishes: snapshot readers bump the same
/// counters the mutable query paths bump, so stats() aggregates the
/// read path wherever it runs. All fields are thread-sharded — safe to
/// bump from any thread, including long after the service republished.
struct ServingCounters {
  ShardedCounter queries_served;
  ShardedCounter similarity_queries;
  ShardedCounter maps_touched;
  ShardedCounter fresh_answers;
  ShardedCounter stale_answers;
  ShardedCounter refused_queries;
};

/// The read surface of PositionService, ServingSnapshot and
/// ShardedFrontend::View. Every query is one call into the serving core
/// (service/serving_detail.hpp) over the owner's borrowed shard tables
/// (`Owner::tables()`: the service's one live table, a snapshot's one
/// frozen table, a View's captured table per shard), so the three answer
/// alike by construction. `pool` runs a single read's shards and a
/// batch's clients (nullptr: `ThreadPool::shared()`); a one-table single
/// read runs inline, so for the service and a snapshot only batches use
/// it. Answers are pool-size-independent. Reads are const; a service's
/// are safe to run concurrently while no write runs, a snapshot's and a
/// View's always.
template <typename Owner>
class TableReads {
 public:
  /// Nodes with non-stale reports at `now`, in lexicographic order.
  /// The sortedness is a contract, not an implementation detail:
  /// GossipMesh::coverage binary-searches the result (and asserts the
  /// order). Keep it sorted.
  [[nodiscard]] std::vector<std::string> live_nodes(SimTime now) const {
    return serving_detail::live_nodes(lent(), now);
  }

  // --- §IV.A closest-node selection ---
  /// Ranks `candidates` (live, known) by similarity to `client`, best
  /// first, at most k entries. Unknown/stale candidates are skipped;
  /// unknown client yields empty.
  [[nodiscard]] std::vector<RankedNode> closest(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now, ThreadPool* pool = nullptr) const {
    return serving_detail::closest(lent(), client, candidates, k, now, pool);
  }
  /// Same, but over every live node except the client.
  [[nodiscard]] std::vector<RankedNode> closest_any(
      const std::string& client, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const {
    return serving_detail::closest(lent(), client, std::nullopt, k, now,
                                   pool);
  }
  /// Ranks every live node by similarity to an external query map (a
  /// position that never published — e.g. a prospective node probing
  /// where it would land), best first, at most k entries. Same
  /// (similarity desc, id asc) total order as the closest paths.
  [[nodiscard]] std::vector<RankedNode> top_k(
      const core::RatioMap& query, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const {
    return serving_detail::top_k(lent(), query, k, now, pool);
  }

  // --- degraded-mode serving (DESIGN.md §7) ---
  /// `closest_any` with explicit staleness tiers: a fresh client ranks
  /// live candidates (identical content to `closest_any`); a client in
  /// the stale-but-usable band ranks candidates usable at that band and
  /// the answer is marked kStale; otherwise the query *refuses* with a
  /// typed reason instead of silently returning empty. With the stale
  /// tier disabled (default config) only kFresh/kRefused occur.
  [[nodiscard]] TieredAnswer closest_any_tiered(
      const std::string& client, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const {
    return serving_detail::closest_tiered(lent(), client, std::nullopt, {},
                                          k, now, pool);
  }
  /// Candidate-list variant of `closest_any_tiered`; the fresh tier
  /// ranks exactly what `closest` would.
  [[nodiscard]] TieredAnswer closest_tiered(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now, ThreadPool* pool = nullptr) const {
    return serving_detail::closest_tiered(lent(), client, candidates, {}, k,
                                          now, pool);
  }

  // --- batched serving (DESIGN.md §6 "Batched query execution") ---
  /// `closest_any` for a whole batch of clients: result `i` is
  /// bit-identical to `closest_any(clients[i], k, now)`, with the same
  /// counter totals. Clients run in parallel on `pool`, each one
  /// touched-only engine read of its own corpus row per shard, so a
  /// client costs O(rows sharing a replica with it), not O(corpus).
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const {
    return serving_detail::closest_batch(lent(), clients, std::nullopt, k,
                                         now, pool);
  }
  /// Candidate-list variant: result `i` is bit-identical to
  /// `closest(clients[i], candidates, k, now)`. The candidate set is
  /// vetted (known + live) once per shard for the batch; each client
  /// then scores only the vetted slots.
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients,
      std::span<const std::string> candidates, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const {
    return serving_detail::closest_batch(lent(), clients, candidates, k, now,
                                         pool);
  }

 private:
  /// The owner's tables: a span, or the service's one table by value,
  /// which lives until the end of the read's full expression.
  [[nodiscard]] auto lent() const {
    return static_cast<const Owner&>(*this).tables();
  }
};

class PositionService : public TableReads<PositionService> {
 public:
  explicit PositionService(ServiceConfig config = {});

  // --- publication ---
  /// Registers/updates a node's position. Reports older than the one
  /// already held (or stale on arrival) are rejected; returns whether
  /// the report was accepted.
  bool publish(PositionReport report, SimTime now);
  /// Convenience: publish straight from wire bytes.
  bool publish_encoded(std::string_view bytes, SimTime now);
  /// Publishes a batch of wire-encoded reports: decoding (which is pure)
  /// runs in parallel on `pool`, engine mutations then apply
  /// sequentially in batch order — the end state is identical to calling
  /// publish_encoded element by element. Malformed entries are rejected
  /// individually and never affect their neighbours. Returns how many
  /// reports were accepted.
  std::size_t publish_batch(std::span<const std::string> batch, SimTime now,
                            ThreadPool* pool = nullptr);
  /// Removes a node entirely. Returns whether it was known (and hence
  /// actually dropped).
  bool remove(const std::string& node_id);
  /// Crash support for the fault-tolerant serving tier (DESIGN.md §9):
  /// drops every report (the engine corpus and the slot table) and the
  /// cached clustering — what a process losing its in-memory state
  /// loses — then bumps the membership epoch once (monotonic, never
  /// rewound, so epoch vectors and lag arithmetic stay valid across
  /// the wipe) and publishes an empty snapshot at `now`. Readers still
  /// holding the pre-crash snapshot keep it alive (shared ownership is
  /// the grace period) — the sharded front-end serves exactly that as
  /// a crashed shard's stale fallback. Cumulative stats survive: they
  /// model an external observer a process restart does not reset.
  /// Writer-side.
  void reset(SimTime now);

  // --- inspection ---
  [[nodiscard]] std::optional<core::RatioMap> map_of(
      const std::string& node_id) const;
  /// Full stored report including its original timestamp (what gossip
  /// forwards — provenance must survive multi-hop distribution). Rebuilt
  /// from the node's engine row and slot, it equals the accepted report
  /// bit for bit.
  [[nodiscard]] std::optional<PositionReport> report_of(
      const std::string& node_id) const;
  [[nodiscard]] std::size_t size() const { return by_id_->size(); }

  // --- §IV.B clustering queries ---
  /// Query 1: live nodes in the same cluster as `node_id` (excluding
  /// it). Empty if `node_id` is unknown or stale at `now`.
  [[nodiscard]] std::vector<std::string> same_cluster(
      const std::string& node_id, SimTime now);
  /// Query 2: cluster index for every live node. Indices are
  /// engine-internal — meaningful for equality comparisons only.
  [[nodiscard]] std::unordered_map<std::string, std::size_t>
  cluster_assignment(SimTime now);
  /// Query 3: up to n live nodes, pairwise in different clusters (for
  /// failure-independent peer sets). Deterministic given the seed.
  [[nodiscard]] std::vector<std::string> diverse_set(std::size_t n,
                                                     SimTime now,
                                                     std::uint64_t seed = 0);

  // --- concurrent serving (DESIGN.md §8) ---
  /// The currently published serving snapshot, or nullptr if none was
  /// published yet. Lock-free and safe from any thread — this is the
  /// readers' entry point. A reader queries the returned snapshot for
  /// as long as it likes; the writer republishing does not invalidate
  /// it, only age it.
  [[nodiscard]] std::shared_ptr<const ServingSnapshot> snapshot() const {
    return snapshot_.load();
  }
  /// Cuts and publishes a snapshot of the current state, frozen at
  /// `now`, unconditionally (works with snapshots disabled too —
  /// callers doing their own pacing). Writer-side. Storage the engine
  /// did not dirty since the last freeze is shared with the previous
  /// snapshot, not copied; so is the id table unless a node joined or
  /// left (or a `reset` ran) since then, and the stamp table unless the
  /// membership epoch moved.
  std::shared_ptr<const ServingSnapshot> publish_snapshot(SimTime now);
  /// Publishes a fresh snapshot iff `config().snapshots.enabled` and
  /// the published one has fallen past `max_epoch_lag` membership
  /// epochs or `max_age` of sim-time (or none exists yet). The write
  /// paths call this themselves — explicit calls are for callers that
  /// advance time without writing. Writer-side.
  void maybe_publish_snapshot(SimTime now);
  /// Current membership epoch (bumped by every accepted publish and
  /// every actual drop). Writer-side only: racing this from reader
  /// threads is undefined — readers learn their epoch from
  /// `ServingSnapshot::membership_epoch()`.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }

  // --- maintenance & stats ---
  /// Drops reports no longer usable at `now` — older than the stale
  /// tier's bound when it is enabled, else older than the staleness
  /// bound (the historical behavior). Returns how many were removed.
  std::size_t expire(SimTime now);
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t queries_served() const {
    return counters_->queries_served.total();
  }
  [[nodiscard]] std::uint64_t reports_accepted() const {
    return reports_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reports_rejected() const {
    return reports_rejected_.load(std::memory_order_relaxed);
  }
  /// Snapshot of all serving counters, engine churn included.
  [[nodiscard]] ServiceStats stats() const;
  /// The engine slots currently backing the corpus (live + tombstoned);
  /// exposed for tests and capacity monitoring.
  [[nodiscard]] std::size_t engine_slots() const { return engine_.size(); }
  /// Throws std::logic_error naming the first broken invariant: the node
  /// table's (serving_detail::check_tables: slot table, sorted index,
  /// engine liveness) and the engine's own
  /// (SimilarityEngine::check_invariants). The two are the service's
  /// only per-node record, so nothing else can disagree with them.
  void check_invariants() const;

 private:
  friend class TableReads<PositionService>;
  friend class ShardedFrontend;  // check_invariants reads the slot table

  /// The live tables, borrowed by the serving core (one shard); valid
  /// until the next write.
  [[nodiscard]] std::array<serving_detail::TableView, 1> tables() const;
  /// publish() minus the snapshot hook — the shared core publish,
  /// publish_encoded and publish_batch apply per report.
  bool publish_impl(PositionReport report, SimTime now);
  /// Records the writer's current snapshot epoch lag into the relaxed
  /// atomic mirrors stats() reads (writer-side, after every snapshot
  /// pacing decision).
  void note_epoch_lag();
  /// Copies the engine's MutationStats into the atomic mirrors stats()
  /// reads (writer-side, after any engine mutation).
  void sync_engine_stats();
  /// Age bound past which a report is useless even for degraded
  /// serving (= staleness_bound unless the stale tier extends it).
  [[nodiscard]] Duration usable_bound() const;
  /// Erases one node from the engine, the slot table and by_id_.
  /// Returns whether the node was known. The membership epoch is bumped
  /// only on an actual drop — an unknown id is a no-op and must not
  /// invalidate the cached clustering.
  bool drop_node(const std::string& node_id);
  /// One binary search of by_id_: where `node_id` sits there (or where a
  /// join inserts it), and its slot (npos if it is unknown).
  struct IndexHit {
    std::size_t at = 0;
    std::size_t slot = serving_detail::TableView::npos;
  };
  [[nodiscard]] IndexHit search(const std::string& node_id) const;
  /// by_id_ for a join or a leave: copied first if a snapshot shares it.
  /// Updates never edit it.
  [[nodiscard]] std::vector<std::uint32_t>& writable_index();
  /// Whether the cached clustering covers the current membership and is
  /// at most `recluster_after` old at `now`.
  [[nodiscard]] bool clustering_current(SimTime now) const;
  /// Recomputes the cached clustering unless it is current. The
  /// clustering covers every engine row (stale-but-known nodes
  /// included); answers filter liveness afterwards.
  void ensure_clustering(SimTime now);

  ServiceConfig config_;

  // A node's only record: its engine row (the accepted map's entries,
  // verbatim), ids_[slot] and stamps_[slot], its id and report time (""
  // and -1 for tombstoned rows) — the tables a snapshot freezes.
  // report_of rebuilds the accepted report from the three.
  core::SimilarityEngine engine_;
  std::vector<std::string> ids_;
  std::vector<SimTime> stamps_;
  // Whether the published snapshot's id table equals ids_: no join,
  // leave or reset since it was cut, so the next one shares it.
  bool ids_published_ = false;
  // Occupied slots sorted by node id — the index every read's find() and
  // every write's search() binary-search, here and in snapshots. Kept
  // sorted by insert/erase at the searched position as nodes join and
  // leave; once a snapshot shares it, the next join or leave edits a
  // copy (writable_index).
  std::shared_ptr<std::vector<std::uint32_t>> by_id_ =
      std::make_shared<std::vector<std::uint32_t>>();
  bool by_id_frozen_ = false;

  // Cached clustering over the engine corpus. The clusterer lives here
  // so its center/singleton index allocations survive across rebuilds.
  // The clustering itself is shared-ownership so a freeze can attach
  // the cached generation to a snapshot without copying; every
  // recompute swaps in a fresh object and never mutates a published
  // one. Never null (starts as an empty clustering).
  core::SmfClusterer clusterer_;
  std::shared_ptr<const core::Clustering> clustering_ =
      std::make_shared<const core::Clustering>();
  SimTime clustered_at_ = SimTime{-1};

  // WRITER-ONLY STATE — the pinned contract (audited with the
  // concurrent read path; keep it true):
  // `membership_epoch_`, `clustered_epoch_`, `clustered_at_`,
  // `write_now_` and the snapshot pacing fields below are plain
  // integers read and written exclusively by the single writer thread
  // (publish/remove/expire/cluster queries/freeze). They are never
  // read by stats() and never touched from the lock-free read path —
  // readers see epochs only through the immutable snapshot they hold.
  // Anything a reader thread may touch lives in `counters_` (sharded)
  // or in the atomics below instead.
  std::uint64_t membership_epoch_ = 0;   // bumped on publish/remove
  std::uint64_t clustered_epoch_ = ~0ULL;
  SimTime write_now_ = SimTime::epoch(); // high-water mark of write times
  std::uint64_t snapshot_epoch_ = 0;     // epoch of the published snapshot
  SimTime snapshot_at_ = SimTime{-1};    // freeze time of the published one
  // reset() baselines: the engine's cumulative mutation counters
  // restart with the engine, so the pre-wipe values fold into these to
  // keep stats() monotonic across a crash (writer-only).
  std::uint64_t tombstoned_base_ = 0;
  std::uint64_t compactions_base_ = 0;

  // Query-path counters are thread-sharded (bumped through const query
  // methods on this service *and* on published snapshots — the struct
  // is shared with them). Writer-path counters are relaxed atomics:
  // only the writer increments them, but stats() may read them from
  // any thread, and a plain uint64 there would be a load/store race
  // even with a single writer. recluster_seconds accumulates as
  // integral nanoseconds so it can be a lock-free uint64 atomic.
  std::shared_ptr<ServingCounters> counters_ =
      std::make_shared<ServingCounters>();
  std::atomic<std::uint64_t> reports_accepted_{0};
  std::atomic<std::uint64_t> reports_rejected_{0};
  std::atomic<std::uint64_t> clustering_cache_hits_{0};
  std::atomic<std::uint64_t> engine_rebuilds_avoided_{0};
  std::atomic<std::uint64_t> reclusters_{0};
  std::atomic<std::uint64_t> recluster_nanos_{0};
  std::atomic<std::uint64_t> recluster_maps_touched_{0};
  // Mirrors of the engine's (plain) MutationStats, refreshed by the
  // writer after every engine mutation so stats() never reads the
  // engine's internals concurrently with a mutation.
  std::atomic<std::uint64_t> postings_tombstoned_{0};
  std::atomic<std::uint64_t> compactions_{0};
  // Epoch-lag observations (see ServiceStats::epoch_lag_last): written
  // by the writer after each snapshot pacing decision, read by stats()
  // from any thread.
  std::atomic<std::uint64_t> epoch_lag_last_{0};
  std::atomic<std::uint64_t> epoch_lag_max_{0};

  // The published snapshot (readers' entry point; see snapshot()).
  SnapshotHandle<ServingSnapshot> snapshot_;
};

}  // namespace crp::service
