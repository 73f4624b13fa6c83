// Batch similarity engine over a corpus of ratio maps.
//
// Every evaluation path of the reproduction — closest-node selection,
// SMF clustering, the ablations — reduces to "compare one ratio map
// against ~a thousand others". Doing that with per-pair sorted merges
// (`similarity()` in a loop) rescans every candidate map for every query
// and does work even for pairs that share no replica, whose similarity is
// 0 *by construction* for all three metrics. The engine exploits that
// sparsity structure:
//
//   * Entry arena — every map's (replica, ratio) entries in one
//     contiguous segment of a fixed-size chunk, plus precomputed norms,
//     entry counts and strongest mappings in flat per-row tables. Rows
//     append into the tail chunk; a row never straddles two chunks.
//   * Inverted replica index — a flat table from each replica to its
//     posting list of (map index, entry position, ratio) for the live
//     maps that contain it. A query walks only the postings of its own
//     replicas, so maps sharing no replica with the query are never
//     touched (they keep similarity 0 implicitly).
//   * Dense per-query accumulator — scatter-add over postings instead of
//     per-pair merges. For each touched map the partial sums accumulate
//     in increasing replica-id order — the same order as the sorted
//     merge — so every score is bit-identical to `similarity()`.
//
// Incremental corpus maintenance (the PositionService's serving mode —
// see DESIGN.md §6): `add`/`update`/`remove` mutate the corpus in place,
// in O(row entries). Lists hold live postings only: removal moves a
// list's last posting into the freed place, found through a writer-only
// back-link per row entry. Removed rows orphan their arena segments;
// once orphans outnumber live entries the engine repacks the arena,
// touching no posting list and no row index (removed rows keep their
// slot; `add` reuses freed slots). Scores over a mutated engine are
// bit-identical to scores over a freshly built engine of the live maps:
// a row appears at most once per list, so per touched map accumulation
// still follows increasing replica-id order whatever the posting order,
// and norms/sizes come from the same `RatioMap` the fresh build would
// ingest.
//
// Queries: the five of `CorpusReads` (core/engine_kernels.hpp), shared
// with `EngineSnapshot` — dense `scores`, `scores_subset`,
// `touched_scores`, `best_match` and `top_k`, each over `view()`.
// Mutations are not thread-safe; quiesce queries before calling
// add/update/remove/compact.
//
// Concurrent serving (DESIGN.md §8): `freeze()` produces an immutable
// `EngineSnapshot` sharing this engine's query kernels, its arena chunks
// and — until a new replica appears — its replica index; it copies only
// the flat row tables and the posting lists written since the previous
// freeze. The engine itself stays single-writer: freeze() is a
// writer-side call, and published snapshots are what reader threads
// query lock-free.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine_kernels.hpp"
#include "core/ratio_map.hpp"
#include "core/similarity.hpp"

namespace crp::core {

class EngineSnapshot;

class SimilarityEngine : public CorpusReads<SimilarityEngine> {
 public:
  /// Mutation counters (monotonic over the engine's lifetime).
  struct MutationStats {
    std::uint64_t adds = 0;
    std::uint64_t updates = 0;
    std::uint64_t removes = 0;
    /// Postings removed by update/remove, one per old row entry (the
    /// name is kept for the counter's readers).
    std::uint64_t postings_tombstoned = 0;
    std::uint64_t compactions = 0;
    /// Postings copied into frozen segments by freeze(): the lists
    /// written since the previous freeze, or every list on a repack.
    std::uint64_t postings_frozen = 0;
    /// Freezes that repacked every list into one segment.
    std::uint64_t repacks = 0;
  };

  /// Orphaned-entry floor below which automatic compaction never
  /// triggers (tiny corpora churn freely without rewrite storms).
  static constexpr std::size_t kCompactMinDeadEntries = 256;
  /// Entries per arena chunk (rows longer than this get a chunk of their
  /// own).
  static constexpr std::size_t kArenaChunkEntries = 4096;

  /// An empty mutable engine; grow it with `add`.
  explicit SimilarityEngine(SimilarityKind kind);

  /// Ingests `corpus` (maps are copied into the arena; the span need not
  /// outlive the engine). `kind` fixes the metric for all queries.
  explicit SimilarityEngine(std::span<const RatioMap> corpus,
                            SimilarityKind kind = SimilarityKind::kCosine);

  // The tail chunk and the replica index are written in place, so two
  // engines must never share them: no copies.
  SimilarityEngine(const SimilarityEngine&) = delete;
  SimilarityEngine& operator=(const SimilarityEngine&) = delete;
  SimilarityEngine(SimilarityEngine&&) = default;
  SimilarityEngine& operator=(SimilarityEngine&&) = default;

  /// Number of row slots, dead ones included — the length of dense score
  /// vectors. Equals the corpus size for a never-mutated engine.
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Rows currently holding a live map.
  [[nodiscard]] std::size_t live_size() const { return live_rows_; }
  /// Whether row `index` holds a live map (false once removed).
  [[nodiscard]] bool alive(std::size_t index) const {
    return rows_[index].live;
  }
  [[nodiscard]] SimilarityKind kind() const { return kind_; }
  /// Number of distinct replicas across the live corpus.
  [[nodiscard]] std::size_t distinct_replicas() const {
    return live_replicas_;
  }
  /// Corpus map i's strongest mapping (max ratio; 0 for an empty or
  /// removed map).
  [[nodiscard]] double strongest_mapping(std::size_t index) const {
    return strongest_[index];
  }
  /// Raw view of row `index` (empty for dead rows). Invalidated by any
  /// mutation of this engine.
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return RowView{row(index), norms_[index], strongest_[index]};
  }

  // --- incremental corpus maintenance ---

  /// Adds a row and returns its row index. The row's entries, norm and
  /// strongest mapping are stored verbatim — a RatioMap brings its own,
  /// another engine's `row_view` the ones that engine stored — so nothing
  /// is renormalized. Entries must be sorted by replica id with at most
  /// one entry per replica, as every RatioMap and RowView is. Freed slots
  /// (from `remove`) are reused before new ones are appended, so `size()`
  /// stays bounded by the high-water mark of live rows.
  std::size_t add(const RowView& row);
  /// Empties the engine (rows, entries, postings, back-links, free list,
  /// mutation counters) and re-fixes the metric, keeping the replica
  /// index and every allocation — the cheap way to reuse one engine
  /// across unrelated corpora, which is what keeps the SMF center index
  /// nearly allocation-free across reclusterings. Rows restart in a
  /// fresh arena; snapshots keep the old chunks.
  void clear(SimilarityKind kind);
  /// Replaces the row at live row `index` (precondition: alive(index)),
  /// stored as `add` stores it. The old row's postings are removed and
  /// its arena segment orphaned.
  void update(std::size_t index, const RowView& row);
  /// Removes the map at live row `index` (precondition: alive(index)).
  /// The slot survives — dense scores keep their positions — and scores
  /// against it are 0 from here on.
  void remove(std::size_t index);
  /// Repacks the live rows (and back-links) into a fresh arena,
  /// preserving every row index; postings name (row, entry position), so
  /// no list changes. Called automatically once orphaned entries
  /// outnumber live ones (past `kCompactMinDeadEntries`); callable
  /// explicitly after bulk churn. Snapshots keep the old chunks alive for
  /// as long as they are held.
  void compact();
  /// Orphaned arena entries not yet reclaimed by compaction.
  [[nodiscard]] std::size_t dead_entries() const { return dead_entries_; }
  [[nodiscard]] const MutationStats& mutation_stats() const {
    return mstats_;
  }
  /// Throws std::logic_error naming the first broken storage invariant:
  ///  * each posting names a live row's entry for its list's replica,
  ///    with the same ratio, and each live entry is named exactly once;
  ///  * each live entry's back-link points at that posting;
  ///  * the live-row, live-replica and live/orphaned entry totals agree
  ///    with the rows, lists and back-links;
  ///  * the kernels' list table matches the lists;
  ///  * each row's segment lies in a chunk the engine holds;
  ///  * the frozen-segment bookkeeping matches the newest snapshot.
  void check_invariants() const;

  /// The kernels' borrowed view of this engine's storage, also lent to
  /// the serving core (service/serving_detail.hpp). Valid until the next
  /// mutation.
  [[nodiscard]] engine_detail::CorpusView view() const {
    return engine_detail::CorpusView{kind_,      rows_,
                                     norms_,     strongest_,
                                     replicas_.get(), list_views_,
                                     live_rows_};
  }

  // --- freezing (the concurrent read path, DESIGN.md §8) ---

  /// Returns an immutable snapshot of the live corpus, tagged with the
  /// caller's membership `epoch`. Queries against the snapshot are
  /// bit-identical to the same queries against this engine right now —
  /// they run through the same kernels over the same entry bytes and
  /// item-for-item copies of the posting lists. The cost is what the
  /// writes since the previous freeze changed, plus three flat tables:
  ///  * entries are never copied: the snapshot shares the arena chunks;
  ///  * the replica index is shared until a new replica appears;
  ///  * the lists written since the previous freeze are packed into one
  ///    new immutable segment; every other list's frozen copy is shared.
  ///    Once superseded frozen postings reach the live ones (past
  ///    `kCompactMinDeadEntries`), every list is repacked into one
  ///    segment so dead segments are released;
  ///  * the row tables (metadata, norms, strongest) and the list-view
  ///    table are copied when dirty.
  /// A freeze with nothing written since the previous one shares every
  /// component, and returns that very snapshot for the same epoch.
  /// Writer-side call: not safe concurrently with mutations, and the
  /// engine retains the newest snapshot to share from.
  [[nodiscard]] std::shared_ptr<const EngineSnapshot> freeze(
      std::uint64_t epoch);

 private:
  friend class EngineSnapshot;  // check_invariants compares with its source

  /// The writer's own state for one posting list; `list_views_` is the
  /// kernels' flat table over the same items.
  struct ListState {
    std::vector<engine_detail::Posting> items;
    std::uint32_t segment = kNoSegment;  // frozen copy's segment record
    bool dirty = false;                  // written since the last freeze
  };
  /// A frozen posting segment and the number of lists whose current
  /// frozen copy lives in it; released when that reaches zero.
  struct FrozenSegment {
    std::shared_ptr<const engine_detail::PostingSegment> block;
    std::uint32_t lists = 0;
  };
  static constexpr std::uint32_t kNoSegment = 0xffffffffu;

  [[nodiscard]] std::span<const RatioMap::Entry> row(std::size_t index) const {
    return {rows_[index].entries, rows_[index].len};
  }

  /// Copies `src` to the arena's tail, opening a chunk when it does not
  /// fit, and returns where it landed (nullptr for an empty row).
  const RatioMap::Entry* append_entries(
      std::span<const RatioMap::Entry> src);
  /// The posting list of replica `id`, created on first sight.
  std::uint32_t list_of(ReplicaId id);
  void mark_dirty(std::uint32_t list);
  /// Writes the view's entries as row `index`'s segment (at the arena's
  /// tail) and appends its postings and back-links.
  void write_row(std::size_t index, const RowView& source);
  /// Swap-removes row `index`'s postings and orphans its entry segment
  /// and back-links.
  void unlink_row(std::size_t index);
  void maybe_compact();
  /// Drops list `list`'s frozen copy (`size` postings) from its segment,
  /// releasing the segment once no list's frozen copy lives in it.
  void retire_frozen(std::uint32_t list, std::size_t size);
  /// freeze()'s posting half: packs the dirty lists (every list on a
  /// repack) into one new segment and hands `snap` the list-view table.
  void freeze_postings(EngineSnapshot& snap);

  SimilarityKind kind_;

  // Row tables: one arena segment per row, norms and strongest mappings.
  std::vector<engine_detail::Row> rows_;
  std::vector<double> norms_;       // RatioMap::norm() per row
  std::vector<double> strongest_;   // RatioMap::strongest_mapping() per row
  std::vector<std::uint32_t> free_rows_;  // dead slots, reused LIFO by add
  std::size_t live_rows_ = 0;
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;  // orphaned in the arena and in links_

  // Entry arena. `chunks_` lists every chunk a row may point into and is
  // replaced, never mutated, when a chunk opens, so snapshots share it
  // by pointer. The writer appends at `tail_fill_` in `tail_` while
  // readers read earlier bytes of the same chunk: no byte a published
  // row points at is ever rewritten.
  std::shared_ptr<const engine_detail::ChunkList> chunks_;
  std::shared_ptr<engine_detail::EntryChunk> tail_;
  std::size_t tail_fill_ = 0;

  // Inverted index: replica -> posting list. A list holds one posting
  // per live row containing the replica, in no particular order (removal
  // swaps the last posting into the freed place); posting order never
  // affects the per-map accumulation order, which follows the query's
  // sorted entries. Once a freeze shares `replicas_`, it is copied
  // before the next new replica is inserted.
  std::shared_ptr<engine_detail::ReplicaTable> replicas_;
  bool replicas_frozen_ = false;
  std::vector<ListState> lists_;
  std::vector<engine_detail::ListView> list_views_;
  std::size_t live_replicas_ = 0;  // non-empty posting lists

  // Writer-only back-links: entry e of row m has its posting at
  // links_[link_at_[m] + e] in its list. Appended, orphaned and repacked
  // along with the row's arena segment.
  std::vector<std::uint32_t> links_;
  std::vector<std::uint32_t> link_at_;  // per row slot

  MutationStats mstats_;

  // Freeze state. The row tables dirty together on any row write;
  // posting lists dirty individually (dirty_lists_). `frozen_dead_`
  // counts the postings held in segments that no list's current frozen
  // copy uses — the repack rule's dead weight.
  bool rows_dirty_ = false;
  std::vector<std::uint32_t> dirty_lists_;
  std::vector<FrozenSegment> segments_;  // null blocks are free records
  std::size_t frozen_dead_ = 0;
  std::shared_ptr<const EngineSnapshot> frozen_;  // the newest snapshot
};

}  // namespace crp::core
