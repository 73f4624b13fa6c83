// Shared storage types and query kernels behind SimilarityEngine and
// EngineSnapshot.
//
// The mutable engine and its frozen snapshots answer queries through the
// *same* compiled kernels, each presenting its storage as a borrowed
// `CorpusView`. That is the whole bit-identity argument for the
// concurrent read path (DESIGN.md §8): a snapshot holds the engine's
// very entry bytes (shared arena chunks) and item-for-item copies of its
// posting lists, and a query never sees which of the two owners lent it
// the view — there is no second implementation to drift.
//
// Everything in `engine_detail` is internal: layouts and kernel
// signatures may change freely between PRs. User code queries through
// `SimilarityEngine` / `EngineSnapshot`, which both inherit their five
// queries from `CorpusReads` below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ratio_map.hpp"
#include "core/replica_table.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp::core {

/// Borrowed view of one corpus row or query map: its entries (sorted by
/// replica id, at most one per replica) plus its norm and strongest
/// mapping. Every query takes one, and `SimilarityEngine::add` ingests
/// one. A view of engine A's row can be replayed into engine B or used as
/// a query with bit-identical results — nothing is renormalized, so not
/// a single bit of the ratios or the norm changes in transit. This is how
/// the center-indexed SMF mirrors corpus rows into its small center
/// engine, and how every query shape (RatioMap, corpus row, foreign row)
/// funnels into one kernel. Views into a mutable engine are invalidated
/// by any mutation of it; views into an EngineSnapshot stay valid as long
/// as the snapshot is held.
struct RowView {
  std::span<const RatioMap::Entry> entries;
  double norm = 0.0;
  double strongest = 0.0;

  RowView() = default;
  RowView(std::span<const RatioMap::Entry> entries, double norm,
          double strongest)
      : entries(entries), norm(norm), strongest(strongest) {}
  /// Implicit, so a query or an `add` takes a RatioMap as it is. Carries
  /// the map's own norm and strongest mapping — the values a corpus row
  /// built from it stores. The view borrows the map's entries and must
  /// not outlive the map: passing a temporary map to a call is fine,
  /// keeping a view of one is not.
  RowView(const RatioMap& map)
      : entries(map.entries()),
        norm(map.norm()),
        strongest(map.strongest_mapping()) {}
};

namespace engine_detail {

/// A row: `len` entries at `entries`, one contiguous segment of an
/// entry-arena chunk. Updates point it at a fresh segment and orphan the
/// old one until compaction; the bytes of a published segment are never
/// rewritten.
struct Row {
  const RatioMap::Entry* entries = nullptr;
  std::uint32_t len = 0;
  bool live = false;
};

/// One posting: a live corpus row containing the replica, the position
/// of that replica's entry within the row, and its ratio. `entry` fills
/// what would be padding (the struct stays 16 bytes); it locates the
/// row entry whose back-link the writer repoints when it moves this
/// posting, and the kernels never read it.
struct Posting {
  std::uint32_t map = 0;
  std::uint32_t entry = 0;
  double ratio = 0.0;
};

/// The kernels' handle on one replica's posting list: `size` postings at
/// `items`, every one of them live, in no particular order. The mutable
/// engine points it into its own lists, a snapshot into its frozen
/// segments; a kernel cannot tell the two apart.
struct ListView {
  const Posting* items = nullptr;
  std::uint32_t size = 0;

  [[nodiscard]] std::span<const Posting> postings() const {
    return {items, size};
  }
};

/// Entry-arena chunk: fixed capacity, allocated once, appended into and
/// never rewritten. Rows never straddle two chunks.
using EntryChunk = std::vector<RatioMap::Entry>;
using ChunkList = std::vector<std::shared_ptr<const EntryChunk>>;
/// Frozen posting segment: the lists one freeze packed, back to back.
using PostingSegment = std::vector<Posting>;
using SegmentList = std::vector<std::shared_ptr<const PostingSegment>>;

/// Borrowed, read-only view of a whole corpus — the row table, the
/// inverted replica index and the liveness summary. Both owners build
/// one in O(1): the mutable engine over its members (valid until the
/// next mutation; the single-writer contract says no mutation runs
/// concurrently with a query), the snapshot over its frozen shared
/// tables (valid while the snapshot is held).
struct CorpusView {
  SimilarityKind kind = SimilarityKind::kCosine;
  std::span<const Row> rows;
  std::span<const double> norms;
  std::span<const double> strongest;
  const ReplicaTable* replicas = nullptr;
  std::span<const ListView> lists;
  std::size_t live_rows = 0;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
  [[nodiscard]] std::span<const RatioMap::Entry> row(std::size_t index) const {
    return {rows[index].entries, rows[index].len};
  }
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return RowView{row(index), norms[index], strongest[index]};
  }
};

// --- query kernels ---
// All take the query as a RowView; `query.entries.size()` doubles as the
// query size (RatioMap::size() is its entry count). Every score is
// bit-identical to `similarity()` of the query and the row.

/// Dense scores for every corpus row, 0 for dead/untouched rows.
void dense_scores(const CorpusView& v, const RowView& query,
                  std::span<double> out, std::size_t* touched_maps);

/// Scores for the given rows only: out[i] = score of subset[i].
void subset_scores(const CorpusView& v, const RowView& query,
                   std::span<const std::size_t> subset, std::span<double> out,
                   std::size_t* touched_maps);

/// (row, score) for every row sharing a replica with the query, in
/// first-touch order: exactly the rows `dense_scores` writes, with the
/// same score bits; every other row scores 0. `out` is overwritten, and
/// its size is the query's touched-map count.
void touched_scores(const CorpusView& v, const RowView& query,
                    std::vector<RankedCandidate>& out);

/// A borrowed predicate over row indices, for `select_touched`: it points
/// at the caller's callable, which must outlive the call, and allocates
/// nothing.
template <typename... Rows>
class RowFn {
 public:
  template <typename F>
  RowFn(const F& f)  // implicit: a lambda passes as it is
      : fn_(&f), call_([](const void* fn, Rows... rows) -> bool {
          return (*static_cast<const F*>(fn))(rows...);
        }) {}
  bool operator()(Rows... rows) const { return call_(fn_, rows...); }

 private:
  const void* fn_;
  bool (*call_)(const void*, Rows...);
};
/// Whether a row may be ranked at all.
using KeepRow = RowFn<std::uint32_t>;
/// Whether row `a` ranks ahead of row `b` at equal scores: a strict
/// total order over the rows `KeepRow` accepts.
using TieOrder = RowFn<std::uint32_t, std::uint32_t>;

/// The k best touched rows that `keep` accepts, best first by (score
/// desc, `tie_before`): bit for bit the positive rows of `touched_scores`
/// that `keep` accepts, sorted and cut to k, so a shorter result holds
/// all of them. One pass finishes each touched row's score and skips the
/// row if it is <= 0 or, once k rows are kept, below the k-th; only a
/// row that passes (a tie does) reaches `keep`, then the k-heap; neither
/// callable may run a kernel. The span lives in the calling thread's
/// scratch until its next kernel call; `*touched_maps` (if non-null)
/// gets the touched-map count.
[[nodiscard]] std::span<const RankedCandidate> select_touched(
    const CorpusView& v, const RowView& query, std::size_t k, KeepRow keep,
    TieOrder tie_before, std::size_t* touched_maps);

/// Best-scoring live row (ties to the lowest index; first live row at 0
/// similarity when nothing is comparable); nullopt iff no live rows.
[[nodiscard]] std::optional<RankedCandidate> best_match(
    const CorpusView& v, const RowView& query, std::size_t* touched_maps);

/// Top-k live rows by (similarity desc, index asc), zero-similarity
/// padding in row order.
[[nodiscard]] std::vector<RankedCandidate> top_k(const CorpusView& v,
                                                 const RowView& query,
                                                 std::size_t k);

// --- invariant checking (shared by both owners' check_invariants) ---

/// Throws std::logic_error, prefixed with `owner`, on the first broken
/// invariant of the row table and the list table as the kernels see
/// them: the replica index maps each replica to its own list; each
/// posting names a live row's entry for the list's replica, with the
/// same ratio, and each live entry is named exactly once; dead rows are
/// empty; `v.live_rows` and `live_replicas` (the non-empty lists) agree
/// with the tables. O(postings + entries).
void check_view(const CorpusView& v, std::size_t live_replicas,
                const std::string& owner);

/// Whether [p, p + n) lies inside one of `blocks` (true for n == 0).
template <typename T>
[[nodiscard]] bool held_by(
    std::span<const std::shared_ptr<const std::vector<T>>> blocks,
    const T* p, std::size_t n) {
  if (n == 0) return true;
  const std::less<const T*> lt;
  for (const auto& b : blocks) {
    if (!lt(p, b->data()) && !lt(b->data() + b->size(), p + n)) return true;
  }
  return false;
}

}  // namespace engine_detail

/// The five queries of SimilarityEngine and EngineSnapshot: one surface
/// over the owner's borrowed storage (`Owner::view()`, valid until the
/// engine's next mutation; while the snapshot is held), so the two
/// answer alike by construction. Each query takes a `RowView` — a
/// RatioMap converts implicitly, a corpus row comes from `row_view` —
/// and answers from one pass over the query's posting lists, in the
/// calling thread's own scratch: callers run many at once with a
/// `parallel_for` whose slots are indexed by query, and the results are
/// bit-identical for any pool size.
template <typename Owner>
class CorpusReads {
 public:
  /// Similarity of `query` to every corpus row, indexed by row position
  /// (0 for dead rows); `out.size()` must be `size()`. Bit-identical to
  /// calling `similarity(kind, query, map)` per live map. If
  /// `touched_maps` is non-null it receives the number of corpus maps
  /// sharing at least one replica with the query — the work the
  /// inverted index actually did.
  void scores(const RowView& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const {
    engine_detail::dense_scores(corpus(), query, out, touched_maps);
  }

  /// Similarity of the query to the given corpus rows only:
  /// `out[i] = similarity(query, row subset[i])`, bit-identical to the
  /// dense `scores` read at those positions (0 for dead rows), without
  /// materializing — or zero-filling — a corpus-sized vector. Cost is
  /// O(query postings + subset). Duplicate or unordered subset indices
  /// are fine.
  void scores_subset(const RowView& query, std::span<const std::size_t> subset,
                     std::span<double> out,
                     std::size_t* touched_maps = nullptr) const {
    engine_detail::subset_scores(corpus(), query, subset, out, touched_maps);
  }

  /// (row, score) for every corpus row sharing a replica with `query`:
  /// the rows the dense `scores` writes, bit-identical, in first-touch
  /// order. Every other row scores exactly 0, so a ranking over these
  /// alone costs O(touched), not O(corpus). `out.size()` afterwards is
  /// the touched-map count the dense form reports.
  void touched_scores(const RowView& query,
                      std::vector<RankedCandidate>& out) const {
    engine_detail::touched_scores(corpus(), query, out);
  }

  /// The best-scoring *live* row for the query — `top_k(query, 1)[0]`
  /// without the sort or the allocation: highest similarity, ties to the
  /// lowest row index, and the first live row (at similarity 0) when no
  /// row shares a replica with the query. nullopt iff no live rows.
  /// This is SMF's argmax-over-centers: O(query postings), independent
  /// of the corpus row count.
  [[nodiscard]] std::optional<RankedCandidate> best_match(
      const RowView& query, std::size_t* touched_maps = nullptr) const {
    return engine_detail::best_match(corpus(), query, touched_maps);
  }

  /// The k best *live* rows by (similarity desc, row asc), without
  /// scoring or sorting the rows the query shares no replica with:
  /// zero-similarity live rows pad the tail in row order when k exceeds
  /// the comparable ones. `top_k(query, live_size())` is the full
  /// ranking — the same contract, bit for bit, as `rank_candidates` over
  /// the live maps. Dead rows are never returned.
  [[nodiscard]] std::vector<RankedCandidate> top_k(const RowView& query,
                                                   std::size_t k) const {
    return engine_detail::top_k(corpus(), query, k);
  }

 private:
  [[nodiscard]] engine_detail::CorpusView corpus() const {
    return static_cast<const Owner&>(*this).view();
  }
};

}  // namespace crp::core
