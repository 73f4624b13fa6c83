// Immutable, shared-ownership snapshot of a SimilarityEngine corpus —
// the unit of the concurrent read path (DESIGN.md §8).
//
// `SimilarityEngine::freeze(epoch)` cuts one, tagged with the caller's
// membership epoch. It shares the engine's entry-arena chunks (the row
// bytes themselves), its replica index until a new replica appears, and
// every frozen posting list no write touched since the previous freeze;
// it owns fresh copies of the flat row tables and of the list-view table
// the kernels walk. Its queries are the engine's own (`CorpusReads`,
// core/engine_kernels.hpp) over those frozen bytes — so a snapshot query
// is bit-identical to the same query against the engine at the moment of
// the freeze. That is the whole determinism story: one query surface,
// two storage owners.
//
// Thread safety: an EngineSnapshot is deeply immutable after freeze();
// any number of threads may query one concurrently with no locking (the
// kernels' scratch is thread_local). The writer keeps appending into the
// arena's tail chunk while readers hold it, but only past every byte a
// published row points at. Lifetime is shared_ptr-managed, so a reader's
// results stay valid however long it holds its snapshot, while the
// writer keeps mutating the live engine and cutting newer snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine_kernels.hpp"
#include "core/ratio_map.hpp"
#include "core/similarity.hpp"

namespace crp::core {

class SimilarityEngine;

class EngineSnapshot : public CorpusReads<EngineSnapshot> {
 public:
  /// Row-slot count (dead slots included), the length of dense score
  /// vectors — mirrors SimilarityEngine::size() at the freeze.
  [[nodiscard]] std::size_t size() const { return rows_->size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t live_size() const { return live_rows_; }
  [[nodiscard]] bool alive(std::size_t index) const {
    return (*rows_)[index].live;
  }
  [[nodiscard]] SimilarityKind kind() const { return kind_; }
  [[nodiscard]] std::size_t distinct_replicas() const {
    return live_replicas_;
  }
  /// The membership epoch the writer passed to freeze() — how readers
  /// (and tests) tell which corpus generation answered them.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] double strongest_mapping(std::size_t index) const {
    return (*strongest_)[index];
  }
  /// Raw view of row `index` (empty for dead rows). Unlike the mutable
  /// engine's row_view, stays valid as long as the snapshot is held.
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return view().row_view(index);
  }

  /// Throws std::logic_error naming the first broken invariant:
  ///  * every row segment lies in an arena chunk the snapshot holds, and
  ///    every list view in a posting segment it holds;
  ///  * each posting names a live row's entry for its list's replica,
  ///    each live entry is named once, and live counts agree;
  ///  * given `source` — the engine right after it cut this snapshot —
  ///    every row and every frozen list equals the writer's, item for
  ///    item.
  void check_invariants(const SimilarityEngine* source = nullptr) const;

  /// The kernels' borrowed view of the frozen storage, also lent to the
  /// serving core. Valid while the snapshot is held.
  [[nodiscard]] engine_detail::CorpusView view() const {
    return engine_detail::CorpusView{kind_,   *rows_, *norms_, *strongest_,
                                     replicas_.get(), *lists_,
                                     live_rows_};
  }

  // --- storage-identity probes (tests of structural sharing only) ---

  [[nodiscard]] const void* rows_identity() const { return rows_.get(); }
  /// The arena chunk list: shared while rows only append into the tail
  /// chunk, replaced when a chunk opens or compaction repacks.
  [[nodiscard]] const void* entries_identity() const { return chunks_.get(); }
  /// The list-view table: shared while no posting list was written.
  [[nodiscard]] const void* postings_identity() const { return lists_.get(); }

 private:
  friend class SimilarityEngine;  // the only producer
  EngineSnapshot() = default;

  SimilarityKind kind_ = SimilarityKind::kCosine;
  std::uint64_t epoch_ = 0;
  std::size_t live_rows_ = 0;
  std::size_t live_replicas_ = 0;

  // Frozen storage. Row tables (rows/norms/strongest) are copied when a
  // row was written and shared otherwise; `chunks_` keeps alive the
  // arena chunks the rows point into; `lists_` is the kernels' list
  // table, each view pointing into one of the `segments_` it keeps
  // alive.
  std::shared_ptr<const std::vector<engine_detail::Row>> rows_;
  std::shared_ptr<const std::vector<double>> norms_;
  std::shared_ptr<const std::vector<double>> strongest_;
  std::shared_ptr<const engine_detail::ChunkList> chunks_;
  std::shared_ptr<const engine_detail::ReplicaTable> replicas_;
  std::shared_ptr<const std::vector<engine_detail::ListView>> lists_;
  std::shared_ptr<const engine_detail::SegmentList> segments_;
};

}  // namespace crp::core
