// Immutable serving snapshot: the lock-free read path of DESIGN.md §8.
//
// A ServingSnapshot is a frozen PositionService: a membership-epoch-
// tagged bundle of the engine's frozen corpus (core::EngineSnapshot),
// the slot/liveness table with its id-sorted index, and (optionally) the
// cached clustering. Any number of threads query it concurrently with no
// locks and no coordination with the writer: everything it touches is
// immutable, and the only shared mutable state — the serving counters —
// is thread-sharded.
//
// Determinism contract: every query is bit-identical to the same query
// against the PositionService at the snapshot's membership epoch with
// the same `now`. That is structural: both lend their tables (live or
// frozen) to the same serving core (service/serving_detail.hpp), which
// calls the same engine kernels over them.
//
// Liveness is filtered against the caller's `now` per query, exactly
// like the mutable path — a snapshot does not pin time, only
// membership. Cluster queries answer empty when the snapshot carries no
// clustering (see SnapshotConfig::clustering); they never compute one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "core/engine_snapshot.hpp"
#include "service/position_service.hpp"
#include "service/serving_detail.hpp"

namespace crp::service {

/// Reads (TableReads): each bit-identical to the PositionService method
/// of the same name at this snapshot's epoch — the same code over the
/// frozen tables.
class ServingSnapshot : public TableReads<ServingSnapshot> {
 public:
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
  [[nodiscard]] const void* nodes_identity() const { return ids_.get(); }
  [[nodiscard]] const void* stamps_identity() const { return stamps_.get(); }
  [[nodiscard]] const void* counters_identity() const {
    return counters_.get();
  }

  /// Throws std::logic_error naming the first broken invariant of the
  /// node table (serving_detail::check_tables).
  void check_invariants() const;

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
  friend class ShardedFrontend;  // a View copies tables_
  friend class TableReads<ServingSnapshot>;
  ServingSnapshot() = default;

  /// The frozen tables, borrowed by the serving core (one shard); valid
  /// while this snapshot is held.
  [[nodiscard]] serving_detail::Tables tables() const { return {&tables_, 1}; }

  std::uint64_t membership_epoch_ = 0;
  SimTime frozen_at_ = SimTime{-1};
  std::shared_ptr<const core::EngineSnapshot> engine_;
  /// Slot-indexed node table: ids ("" = tombstoned slot) and report
  /// stamps. The ids are shared with the previous snapshot unless a node
  /// joined or left since it; the stamps unless the membership epoch
  /// moved.
  std::shared_ptr<const std::vector<std::string>> ids_;
  std::shared_ptr<const std::vector<SimTime>> stamps_;
  /// Occupied slots sorted by node id (shared with the writer until
  /// membership changes).
  std::shared_ptr<const std::vector<std::uint32_t>> by_id_;
  /// Attached clustering, or nullptr (cluster queries answer empty).
  std::shared_ptr<const core::Clustering> clustering_;
  /// Shared with the owning service: readers bump the same sharded
  /// counters stats() aggregates.
  std::shared_ptr<ServingCounters> counters_;
  /// The view of all of the above, built once at the freeze: the tables
  /// never change, and a View capture copies it instead of rebuilding it.
  serving_detail::TableView tables_;
};

}  // namespace crp::service
