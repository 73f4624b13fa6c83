// Immutable, shared-ownership snapshot of a SimilarityEngine corpus —
// the unit of the concurrent read path (DESIGN.md §8).
//
// `SimilarityEngine::freeze(epoch)` cuts one: verbatim copies of the
// engine's CSR arrays and posting lists (components no mutation dirtied
// since the previous freeze are shared with that snapshot, not copied),
// tagged with the caller's membership epoch. Every query here runs the
// same `engine_detail` kernels the mutable engine runs, over those
// frozen bytes — so a snapshot query is bit-identical to the same query
// against the engine at the moment of the freeze. That is the whole
// determinism story: one kernel implementation, two storage owners.
//
// Thread safety: an EngineSnapshot is deeply immutable after freeze();
// any number of threads may query one concurrently with no locking (the
// kernels' scratch is thread_local). Lifetime is shared_ptr-managed, so
// a reader's results stay valid however long it holds its snapshot,
// while the writer keeps mutating the live engine and cutting newer
// snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/engine_kernels.hpp"
#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp::core {

class EngineSnapshot {
 public:
  using RowView = core::RowView;

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

  // --- queries: each bit-identical to its SimilarityEngine namesake at
  // --- the frozen epoch (same kernels, same bytes) ---

  [[nodiscard]] std::vector<double> scores(const RatioMap& query) const;
  void scores(const RatioMap& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const;
  [[nodiscard]] std::vector<double> scores_of(std::size_t index) const;
  void scores_of(std::size_t index, std::span<double> out,
                 std::size_t* touched_maps = nullptr) const;
  /// Subset read with a raw row view (possibly another shard's) as the
  /// query — the scatter/gather candidate-list path.
  void scores_subset(const RowView& query,
                     std::span<const std::size_t> subset,
                     std::span<double> out,
                     std::size_t* touched_maps = nullptr) const;
  void touched_scores(const RowView& query,
                      std::vector<RankedCandidate>& out) const;
  [[nodiscard]] std::optional<RankedCandidate> best_match(
      const RowView& query, std::size_t* touched_maps = nullptr) const;
  [[nodiscard]] std::vector<RankedCandidate> rank_all(
      const RatioMap& query) const;
  [[nodiscard]] std::vector<RankedCandidate> top_k(const RatioMap& query,
                                                   std::size_t k) const;
  [[nodiscard]] std::size_t comparable_count(const RatioMap& query) const;

  // --- storage-identity probes (tests of structural sharing only) ---

  [[nodiscard]] const void* rows_identity() const { return rows_.get(); }
  [[nodiscard]] const void* entries_identity() const { return entries_.get(); }
  [[nodiscard]] const void* postings_identity() const { return post_.get(); }

 private:
  friend class SimilarityEngine;  // the only producer
  EngineSnapshot() = default;

  [[nodiscard]] engine_detail::CorpusView view() const {
    return engine_detail::CorpusView{kind_,       *rows_, *entries_,
                                     *norms_,     *strongest_,
                                     replica_slot_.get(), *post_,
                                     live_rows_};
  }

  SimilarityKind kind_ = SimilarityKind::kCosine;
  std::uint64_t epoch_ = 0;
  std::size_t live_rows_ = 0;
  std::size_t live_replicas_ = 0;

  // Frozen storage, component-shared across consecutive freezes. Three
  // components dirty independently: row metadata (rows/norms/strongest),
  // the CSR entry array, and the posting index (slot map + lists).
  std::shared_ptr<const std::vector<engine_detail::Row>> rows_;
  std::shared_ptr<const std::vector<RatioMap::Entry>> entries_;
  std::shared_ptr<const std::vector<double>> norms_;
  std::shared_ptr<const std::vector<double>> strongest_;
  std::shared_ptr<const std::unordered_map<ReplicaId, std::uint32_t>>
      replica_slot_;
  std::shared_ptr<const std::vector<engine_detail::PostingList>> post_;
};

}  // namespace crp::core
