// Immutable serving snapshot: the lock-free read path of DESIGN.md §8.
//
// A ServingSnapshot is a frozen PositionService — a membership-epoch-
// tagged bundle of the engine's frozen corpus (core::EngineSnapshot),
// the slot/liveness table, and (optionally) the cached clustering. It
// answers every read query the mutable service answers, from any number
// of threads concurrently, with no locks and no coordination with the
// writer: everything it touches is immutable, and the only shared
// mutable state — the serving counters — is thread-sharded.
//
// Determinism contract: every query is bit-identical to the same query
// against the PositionService at the snapshot's membership epoch with
// the same `now`. The similarity layer holds by the engine-snapshot
// contract (same kernels, verbatim arrays); the serving layer holds
// because ranking runs through the same serving_detail helpers under a
// *total* order, making results independent of candidate iteration
// order — the one place this class iterates differently (its id-sorted
// node table versus the service's slot table).
//
// Liveness is filtered against the caller's `now` per query, exactly
// like the mutable path — a snapshot does not pin time, only
// membership. Cluster queries answer empty when the snapshot carries no
// clustering (see SnapshotConfig::clustering); they never compute one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "core/engine_snapshot.hpp"
#include "service/position_service.hpp"
#include "service/serving_detail.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::service {

class ServingSnapshot {
 public:
  /// "No such slot" — the value find()/resident() report for unknown
  /// ids, and the exclude_slot callers pass when nothing is excluded.
  static constexpr std::size_t npos = ~std::size_t{0};

  // --- provenance ---
  /// Membership epoch of the service state this snapshot froze.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }
  /// Sim-time at which the snapshot was cut.
  [[nodiscard]] SimTime frozen_at() const { return frozen_at_; }
  /// The frozen similarity corpus backing every similarity answer.
  [[nodiscard]] const std::shared_ptr<const core::EngineSnapshot>& engine()
      const {
    return engine_;
  }
  /// Whether cluster queries can answer (a clustering was attached).
  [[nodiscard]] bool has_clustering() const { return clustering_ != nullptr; }
  /// Nodes known at freeze time (live or not).
  [[nodiscard]] std::size_t size() const { return by_id_->size(); }

  // --- identity probes (tests: structural sharing across republishes) ---
  [[nodiscard]] const void* nodes_identity() const { return slots_.get(); }
  [[nodiscard]] const void* counters_identity() const {
    return counters_.get();
  }

  // --- inspection ---
  [[nodiscard]] std::vector<std::string> live_nodes(SimTime now) const;

  // --- queries (each bit-identical to the PositionService method of
  // --- the same name at this snapshot's epoch) ---
  [[nodiscard]] std::vector<RankedNode> closest(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now) const;
  [[nodiscard]] std::vector<RankedNode> closest_any(const std::string& client,
                                                    std::size_t k,
                                                    SimTime now) const;
  [[nodiscard]] TieredAnswer closest_any_tiered(const std::string& client,
                                                std::size_t k,
                                                SimTime now) const;
  [[nodiscard]] TieredAnswer closest_tiered(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now) const;
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const;
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients,
      std::span<const std::string> candidates, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const;
  /// External-query ranking (the snapshot twin of
  /// PositionService::top_k): live nodes ranked against a query map
  /// that has no corpus row.
  [[nodiscard]] std::vector<RankedNode> top_k(const core::RatioMap& query,
                                              std::size_t k,
                                              SimTime now) const;

  // --- scatter/gather partial reads (service/sharded_frontend.hpp) ---
  //
  // A sharded front-end answers a query by fetching the client's frozen
  // row from its owning shard's snapshot (`resident`), asking every
  // shard snapshot for its local top-k against that row (`partial_*`),
  // and merging the partials under serving_detail's total order. Row
  // queries renormalize nothing and pairwise similarity depends only on
  // the two rows involved, so each partial score is bit-identical to
  // what one unsharded engine would have produced — which makes the
  // merged answer bit-identical to the unsharded service's.
  //
  // Partials are borrowed refs (score + pointer to an id), best first;
  // the caller builds ids once, for the merged answer. An any-shaped
  // partial borrows its ids from this snapshot's slot table, a
  // candidate-list partial from the caller's candidate span: the refs
  // stay valid while the caller holds this snapshot and that span.

  /// A node resident in this shard snapshot: its engine slot, its
  /// frozen corpus row (valid while the snapshot is held), and its
  /// freshness at `now`. nullopt when the id is unknown here.
  struct Resident {
    std::size_t slot = npos;
    core::RowView row;
    bool live = false;
    bool stale_usable = false;
  };
  [[nodiscard]] std::optional<Resident> resident(const std::string& node_id,
                                                 SimTime now) const;

  /// One candidate surviving this shard's vetting: the caller's id
  /// string (borrowed) plus its local engine slot.
  using Vetted = serving_detail::Vetted;
  using ScoredRef = serving_detail::ScoredRef;
  /// Vets a candidate list against this shard: kept iff resident here
  /// and usable at `now` (live, or stale-usable when `stale_band` — the
  /// degraded tier's widened candidate band). Caller order preserved.
  /// The client is NOT excluded here — its id can only be resident on
  /// its owning shard, where rank-time slot exclusion removes it,
  /// exactly like the unsharded batch path.
  [[nodiscard]] std::vector<Vetted> vet_candidates(
      std::span<const std::string> candidates, bool stale_band,
      SimTime now) const;

  /// This shard's partial answer to a closest-any query: every resident
  /// node usable at `now` (minus `exclude_slot` — the client's own slot
  /// when this is its owning shard, else npos) ranked against the
  /// external client row, at most k kept. Only the rows sharing a
  /// replica with the client are scored and ranked; zero-score rows pad
  /// a short answer (serving_detail::rank_touched), so the partial still
  /// holds this shard's exact k best. `client` may be any row — a node
  /// resident elsewhere, or an external query map (top_k, exclude npos).
  [[nodiscard]] std::vector<ScoredRef> partial_closest_any(
      const core::RowView& client, std::size_t exclude_slot,
      bool stale_band, std::size_t k, SimTime now) const;
  /// Candidate-list form over a pre-vetted subset (see vet_candidates).
  [[nodiscard]] std::vector<ScoredRef> partial_closest(
      const core::RowView& client, std::size_t exclude_slot,
      std::span<const Vetted> candidates, std::size_t k) const;

  /// One client of a cross-shard batch: its frozen row plus where it
  /// lives, so each shard can exclude it iff it owns it.
  struct ExternalClient {
    core::RowView row;
    std::size_t owner = 0;      // owning shard index
    std::size_t slot = npos;    // client's slot on the owning shard
  };
  /// partial_closest_any for every client of a cross-shard batch, in
  /// order. `self_shard` is this snapshot's shard index (for owner-only
  /// exclusion). Result i pairs with clients[i].
  [[nodiscard]] std::vector<std::vector<ScoredRef>> partial_closest_batch(
      std::span<const ExternalClient> clients, std::size_t self_shard,
      std::size_t k, SimTime now) const;
  /// Candidate-list form over a pre-vetted subset.
  [[nodiscard]] std::vector<std::vector<ScoredRef>> partial_closest_batch(
      std::span<const ExternalClient> clients, std::size_t self_shard,
      std::span<const Vetted> candidates, std::size_t k) const;

  /// Throws std::logic_error naming the first broken invariant of the
  /// node table that find() and the zero-score padding rely on:
  ///  * `by_id_` is strictly increasing by id;
  ///  * every slot it lists has a non-empty id, and every non-empty
  ///    slot is listed exactly once;
  ///  * the slot table is as long as the engine;
  ///  * a slot's id is non-empty exactly when its engine row is alive.
  void check_invariants() const;

  /// Outcome accounting for gathered queries: the front-end decides
  /// what a scattered query answered, so it bumps queries_served and
  /// the tier counters here (on the shard owning the client), exactly
  /// once per front-end query — keeping those counters' aggregate equal
  /// to an unsharded service's under the same traffic.
  void count_queries(std::uint64_t n = 1) const {
    counters_->queries_served.add(n);
  }
  void count_outcome(AnswerTier tier) const;

  /// Cluster queries: as the service's, but const (the clustering was
  /// computed — or not — at freeze time) and empty when no clustering
  /// is attached.
  [[nodiscard]] std::vector<std::string> same_cluster(
      const std::string& node_id, SimTime now) const;
  [[nodiscard]] std::unordered_map<std::string, std::size_t>
  cluster_assignment(SimTime now) const;
  [[nodiscard]] std::vector<std::string> diverse_set(
      std::size_t n, SimTime now, std::uint64_t seed = 0) const;

 private:
  friend class PositionService;
  ServingSnapshot() = default;

  using SlotRec = serving_detail::SlotRec;

  /// Engine slot of `node_id`, or npos if unknown at freeze time
  /// (binary search over the by-id index).
  [[nodiscard]] std::size_t find(const std::string& node_id) const;
  [[nodiscard]] bool live_at(std::size_t slot, SimTime now) const {
    return now - (*slots_)[slot].when <= config_.staleness_bound;
  }
  [[nodiscard]] bool stale_usable_at(std::size_t slot, SimTime now) const {
    const Duration age = now - (*slots_)[slot].when;
    return config_.stale_usable_bound > config_.staleness_bound &&
           age > config_.staleness_bound &&
           age <= config_.stale_usable_bound;
  }
  /// Live, or stale-usable when `stale_band` widens the candidate band.
  [[nodiscard]] bool usable_at(std::size_t slot, bool stale_band,
                               SimTime now) const {
    return live_at(slot, now) || (stale_band && stale_usable_at(slot, now));
  }
  /// Shared core of the tiered queries (the snapshot twin of
  /// PositionService::tiered_query): `any` means "every known node".
  [[nodiscard]] TieredAnswer closest_tiered_impl(
      const std::string& client, std::span<const std::string> candidates,
      bool any, std::size_t k, SimTime now) const;
  /// One subset engine read over the vetted candidates' `slots`, with
  /// stats accounting, ranked minus `exclude_slot` — every
  /// candidate-list read ends here. Runs the engine read even for an
  /// empty list, as the unsharded service does.
  [[nodiscard]] std::vector<ScoredRef> rank_candidates(
      const core::RowView& client, std::size_t exclude_slot,
      std::span<const Vetted> candidates, std::span<const std::size_t> slots,
      std::size_t k) const;

  ServiceConfig config_;  // frozen copy: liveness bounds, metric, policy
  std::uint64_t membership_epoch_ = 0;
  SimTime frozen_at_ = SimTime{-1};
  std::shared_ptr<const core::EngineSnapshot> engine_;
  /// Slot-indexed node table ("" id = tombstoned slot). Shared with the
  /// previous snapshot when the membership epoch did not move.
  std::shared_ptr<const std::vector<SlotRec>> slots_;
  /// Occupied slots sorted by node id — find() binary-searches it and
  /// live_nodes()/closest_any walk it (already in the contract's
  /// lexicographic order).
  std::shared_ptr<const std::vector<std::uint32_t>> by_id_;
  /// Attached clustering, or nullptr (cluster queries answer empty).
  std::shared_ptr<const core::Clustering> clustering_;
  /// Shared with the owning service: readers bump the same sharded
  /// counters stats() aggregates.
  std::shared_ptr<ServingCounters> counters_;
};

}  // namespace crp::service
