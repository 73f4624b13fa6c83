#include "core/engine_kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "common/top_k.hpp"

namespace crp::core::engine_detail {

namespace {

// Reused across queries (thread_local, see scratch()): `mark`/`epoch`
// implement O(touched) clearing — a slot belongs to the current query only
// if mark[m] == epoch, so no O(corpus) zeroing per query is needed.
// Thread-locality is also what makes the kernels safe for concurrent
// readers: two threads querying the same (frozen or quiescent) corpus
// never share an accumulator.
struct Scratch {
  std::vector<double> acc;           // cosine / weighted-overlap partial sums
  std::vector<std::uint32_t> inter;  // jaccard intersection counts
  std::vector<std::uint64_t> mark;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> touched;

  void begin(std::size_t n) {
    if (mark.size() < n) {
      mark.resize(n, 0);
      acc.resize(n, 0.0);
      inter.resize(n, 0);
    }
    ++epoch;
    touched.clear();
  }
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

// Scratch for one tile of the batched kernel. The accumulator blocks are
// SoA: acc(q, m) / inter(q, m) hold query q's partial sum against map m,
// and qmask[m] records which queries of the tile touched map m (bit q).
// Query-major layout on purpose: each query scatters into its own
// 8-byte-stride row — the same access pattern (and footprint per query)
// as the scalar accumulator — instead of striding tile-width cache lines
// apart.
// Like the scalar Scratch, clearing is O(touched): the blocks hold stale
// garbage between tiles by design — the qmask bit decides assign-vs-add
// on first touch, so no O(maps x tile) zeroing happens per tile.
struct BatchScratch {
  struct Tagged {  // one query entry, tagged with its in-tile query index
    ReplicaId id{};
    std::uint32_t q = 0;
    double ratio = 0.0;
  };
  std::vector<Tagged> gathered;
  std::vector<std::uint64_t> mark;
  std::vector<std::uint64_t> qmask;
  std::uint64_t epoch = 0;
  // Per-query first-touch lists: touched_q[q] holds the maps query q
  // shares a replica with, in first-touch (ascending replica) order.
  // Finalizing walks exactly these cells — O(touched), never O(tile x
  // maps) — and each walk stays inside the query's own scratch row.
  std::vector<std::vector<std::uint32_t>> touched_q;
  FlatMatrix<double> acc;           // cosine / weighted-overlap sums
  FlatMatrix<std::uint32_t> inter;  // jaccard intersection counts

  void begin(std::size_t n, std::size_t width, SimilarityKind kind) {
    if (mark.size() < n) {
      mark.resize(n, 0);
      qmask.resize(n, 0);
    }
    if (touched_q.size() < width) touched_q.resize(width);
    for (std::size_t q = 0; q < width; ++q) touched_q[q].clear();
    // Grow-only: reshaping would also re-zero rows * cols elements.
    if (kind == SimilarityKind::kJaccard) {
      if (inter.rows() < width || inter.cols() < n) {
        inter.assign(std::max(width, inter.rows()), std::max(n, inter.cols()),
                     0);
      }
    } else {
      if (acc.rows() < width || acc.cols() < n) {
        acc.assign(std::max(width, acc.rows()), std::max(n, acc.cols()), 0.0);
      }
    }
    ++epoch;
  }
};

BatchScratch& batch_scratch() {
  static thread_local BatchScratch s;
  return s;
}

/// Scatter-adds `entries` (sorted by replica id) over the posting lists.
/// Afterwards `scratch.touched` lists every corpus map sharing a replica
/// with the query, with per-map partial sums in `scratch.acc` /
/// `scratch.inter`.
void accumulate(const CorpusView& v, std::span<const RatioMap::Entry> entries,
                Scratch& s) {
  s.begin(v.size());
  for (const auto& [id, q_ratio] : entries) {
    const std::uint32_t l = v.replicas->find(id);
    if (l == ReplicaTable::kNoList) continue;
    const ListView& list = v.lists[l];
    // Query entries arrive in increasing replica-id order, so each touched
    // map accumulates its shared replicas in exactly the order the
    // per-pair sorted merge visits them — scores stay bit-identical.
    switch (v.kind) {
      case SimilarityKind::kCosine:
        for (const Posting& p : list.postings()) {
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.acc[m] = 0.0;
            s.touched.push_back(m);
          }
          s.acc[m] += q_ratio * p.ratio;
        }
        break;
      case SimilarityKind::kJaccard:
        for (const Posting& p : list.postings()) {
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.inter[m] = 0;
            s.touched.push_back(m);
          }
          ++s.inter[m];
        }
        break;
      case SimilarityKind::kWeightedOverlap:
        for (const Posting& p : list.postings()) {
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.acc[m] = 0.0;
            s.touched.push_back(m);
          }
          s.acc[m] += std::min(q_ratio, p.ratio);
        }
        break;
    }
  }
}

/// The single scoring expression behind both the scalar and batched
/// paths: final score of touched map `m` from its accumulated partial
/// sum (`acc`, cosine/weighted-overlap) or intersection count (`inter`,
/// jaccard). Sharing it is what makes the two paths bit-identical by
/// construction.
double finish_score(const CorpusView& v, std::size_t m, double query_norm,
                    std::size_t query_size, double acc, std::uint32_t inter) {
  switch (v.kind) {
    case SimilarityKind::kCosine: {
      const double denominator = query_norm * v.norms[m];
      if (denominator <= 0.0) return 0.0;
      return std::clamp(acc / denominator, 0.0, 1.0);
    }
    case SimilarityKind::kJaccard: {
      const std::size_t uni = query_size + v.rows[m].len - inter;
      if (uni == 0) return 0.0;
      return static_cast<double>(inter) / static_cast<double>(uni);
    }
    case SimilarityKind::kWeightedOverlap:
      return std::clamp(acc, 0.0, 1.0);
  }
  return 0.0;
}

/// Final score of touched map `m` given the query's norm and size.
double score_touched(const CorpusView& v, std::size_t m, double query_norm,
                     std::size_t query_size, const Scratch& s) {
  // The sibling accumulator (acc for jaccard, inter otherwise) holds a
  // stale value from an earlier query; finish_score never reads it.
  return finish_score(v, m, query_norm, query_size, s.acc[m], s.inter[m]);
}

/// One tile of the batched kernel: scatter-adds every query in `tile`
/// (at most kMaxQueryTile RowViews) over the posting lists, visiting
/// the tile's distinct replicas in increasing replica-id order so each
/// (query, map) partial sum accumulates in exactly the scalar order.
void accumulate_tile(const CorpusView& v, std::span<const RowView> tile,
                     BatchScratch& s) {
  assert(tile.size() <= kMaxQueryTile);
  s.begin(v.size(), tile.size(), v.kind);

  // Gather every query entry of the tile, tagged with its query index,
  // and order by (replica id, query). Each distinct replica of the tile
  // then costs one slot lookup shared by every query holding it, while
  // each query's own entries keep their increasing replica-id order.
  // That order is the scalar accumulation order, which is what keeps
  // every (query, map) partial sum bit-identical to `accumulate`: per
  // pair, the same terms in the same order.
  s.gathered.clear();
  std::size_t total = 0;
  for (const RowView& q : tile) total += q.entries.size();
  s.gathered.reserve(total);
  for (std::uint32_t q = 0; q < tile.size(); ++q) {
    for (const auto& [id, ratio] : tile[q].entries) {
      s.gathered.push_back(BatchScratch::Tagged{id, q, ratio});
    }
  }
  std::sort(s.gathered.begin(), s.gathered.end(),
            [](const BatchScratch::Tagged& a, const BatchScratch::Tagged& b) {
              return a.id != b.id ? a.id < b.id : a.q < b.q;
            });

  for (std::size_t g = 0; g < s.gathered.size();) {
    const ReplicaId id = s.gathered[g].id;
    std::size_t g_end = g + 1;
    while (g_end < s.gathered.size() && s.gathered[g_end].id == id) ++g_end;
    const std::uint32_t l = v.replicas->find(id);
    if (l == ReplicaTable::kNoList) {
      g = g_end;
      continue;
    }
    const ListView& list = v.lists[l];
    // For each gathered query holding this replica, walk the posting
    // list once, scattering terms into that query's accumulator row.
    // A query has at most one entry per replica, so per (query, map)
    // pair a group contributes exactly one term — entry order within the
    // group cannot reorder any pair's partial sums, and groups ascend by
    // replica id, which is the scalar accumulation order. First touch
    // per (query, map) assigns instead of adding, so the accumulator
    // block never needs zeroing — and an assigned first term is bitwise
    // the term itself, exactly as if added to a zeroed slot.
    for (std::size_t t = g; t < g_end; ++t) {
      const BatchScratch::Tagged& e = s.gathered[t];
      const std::uint64_t bit = std::uint64_t{1} << e.q;
      switch (v.kind) {
        case SimilarityKind::kCosine: {
          const auto acc_row = s.acc.row(e.q);
          auto& tq = s.touched_q[e.q];
          for (const Posting& p : list.postings()) {
            const std::uint32_t m = p.map;
            if (s.mark[m] != s.epoch) {
              s.mark[m] = s.epoch;
              s.qmask[m] = 0;
            }
            const double val = e.ratio * p.ratio;
            if ((s.qmask[m] & bit) != 0) {
              acc_row[m] += val;
            } else {
              acc_row[m] = val;
              s.qmask[m] |= bit;
              tq.push_back(m);
            }
          }
          break;
        }
        case SimilarityKind::kJaccard: {
          const auto inter_row = s.inter.row(e.q);
          auto& tq = s.touched_q[e.q];
          for (const Posting& p : list.postings()) {
            const std::uint32_t m = p.map;
            if (s.mark[m] != s.epoch) {
              s.mark[m] = s.epoch;
              s.qmask[m] = 0;
            }
            if ((s.qmask[m] & bit) != 0) {
              ++inter_row[m];
            } else {
              inter_row[m] = 1;
              s.qmask[m] |= bit;
              tq.push_back(m);
            }
          }
          break;
        }
        case SimilarityKind::kWeightedOverlap: {
          const auto acc_row = s.acc.row(e.q);
          auto& tq = s.touched_q[e.q];
          for (const Posting& p : list.postings()) {
            const std::uint32_t m = p.map;
            if (s.mark[m] != s.epoch) {
              s.mark[m] = s.epoch;
              s.qmask[m] = 0;
            }
            const double val = std::min(e.ratio, p.ratio);
            if ((s.qmask[m] & bit) != 0) {
              acc_row[m] += val;
            } else {
              acc_row[m] = val;
              s.qmask[m] |= bit;
              tq.push_back(m);
            }
          }
          break;
        }
      }
    }
    g = g_end;
  }
}

/// Runs `finalize(q0, tile_queries, scratch)` over `queries` split
/// into tiles of `tile`, tiles parallel across `pool`. Collects the
/// per-query touched totals into `maps_touched` deterministically.
template <typename Finalize>
void batch_tiles(const CorpusView& v, std::span<const RowView> queries,
                 ThreadPool* pool, std::size_t tile,
                 std::uint64_t* maps_touched, const Finalize& finalize) {
  tile = std::clamp<std::size_t>(tile, 1, kMaxQueryTile);
  const std::size_t tiles = (queries.size() + tile - 1) / tile;
  // Per-tile slots summed in tile order afterwards: touched totals stay
  // deterministic for any pool size (the deterministic-merge pattern).
  std::vector<std::uint64_t> tile_touched(tiles, 0);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, tiles, [&](std::size_t t) {
    const std::size_t q0 = t * tile;
    const std::size_t qn = std::min(tile, queries.size() - q0);
    BatchScratch& s = batch_scratch();
    accumulate_tile(v, queries.subspan(q0, qn), s);
    std::uint64_t touched = 0;
    for (std::size_t q = 0; q < qn; ++q) touched += s.touched_q[q].size();
    tile_touched[t] = touched;
    finalize(q0, queries.subspan(q0, qn), s);
  });
  if (maps_touched != nullptr) {
    std::uint64_t total = 0;
    for (const std::uint64_t t : tile_touched) total += t;
    *maps_touched = total;
  }
}

/// Reads query q's accumulated value for map m out of the tile scratch.
/// Only the kind-relevant block is allocated; the other reads as 0.
struct TileCell {
  double acc = 0.0;
  std::uint32_t inter = 0;
};

}  // namespace

void dense_scores(const CorpusView& v, const RowView& query,
                  std::span<double> out, std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  std::fill(out.begin(), out.end(), 0.0);
  for (const std::uint32_t m : s.touched) {
    out[m] = score_touched(v, m, query.norm, query.entries.size(), s);
  }
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
}

void subset_scores(const CorpusView& v, const RowView& query,
                   std::span<const std::size_t> subset, std::span<double> out,
                   std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const std::size_t m = subset[i];
    out[i] = s.mark[m] == s.epoch
                 ? score_touched(v, m, query.norm, query.entries.size(), s)
                 : 0.0;
  }
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
}

void touched_scores(const CorpusView& v, const RowView& query,
                    std::vector<RankedCandidate>& out) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  out.clear();
  out.reserve(s.touched.size());
  for (const std::uint32_t m : s.touched) {
    out.push_back(RankedCandidate{
        m, score_touched(v, m, query.norm, query.entries.size(), s)});
  }
}

std::optional<RankedCandidate> best_match(const CorpusView& v,
                                          const RowView& query,
                                          std::size_t* touched_maps) {
  if (v.live_rows == 0) {
    if (touched_maps != nullptr) *touched_maps = 0;
    return std::nullopt;
  }
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
  // Scan the touched maps only. A dense argmax starting at -1 with a
  // strict `>` comparison picks (max score, lowest index) over all rows;
  // untouched live rows all score exactly 0, so whenever some touched map
  // scores > 0 the touched-only scan agrees with the dense one. If no
  // touched map beats 0, the dense argmax lands on the first live row at
  // 0 — reproduced by the fallback below.
  double best = 0.0;
  std::size_t best_index = v.size();
  for (const std::uint32_t m : s.touched) {
    const double score =
        score_touched(v, m, query.norm, query.entries.size(), s);
    if (score > best || (score == best && m < best_index)) {
      best = score;
      best_index = m;
    }
  }
  if (best > 0.0) return RankedCandidate{best_index, best};
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (v.rows[m].live) return RankedCandidate{m, 0.0};
  }
  return std::nullopt;  // unreachable: live_rows > 0
}

std::vector<RankedCandidate> rank_all(const CorpusView& v,
                                      const RowView& query) {
  // Same algorithm as rank_candidates, with the per-pair merges replaced
  // by one engine query: dense scores, then a stable descending sort.
  // Dead rows are dropped up front — they are not corpus members.
  std::vector<double> all(v.size());
  dense_scores(v, query, all, nullptr);
  std::vector<RankedCandidate> ranked;
  ranked.reserve(v.live_rows);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!v.rows[i].live) continue;
    ranked.push_back(RankedCandidate{i, all[i]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.similarity > b.similarity;
                   });
  return ranked;
}

void top_k_into(const CorpusView& v, const RowView& query, std::size_t k,
                std::vector<RankedCandidate>& out) {
  out.clear();
  const std::size_t want = std::min(k, v.live_rows);
  if (want == 0) return;

  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  // (similarity, index) pairs are unique per map, so ranking by
  // (similarity desc, index asc) is a total order: the bounded heap keeps
  // exactly the maps a full sort + truncate would, in the same order —
  // matching rank_candidates' stable sort — at O(touched log k).
  const auto better = [](const RankedCandidate& a, const RankedCandidate& b) {
    return a.similarity > b.similarity ||
           (a.similarity == b.similarity && a.index < b.index);
  };
  BoundedTopK<RankedCandidate, decltype(better)> heap(want, better);
  for (const std::uint32_t m : s.touched) {
    const double score =
        score_touched(v, m, query.norm, query.entries.size(), s);
    if (score > 0.0) heap.offer(RankedCandidate{m, score});
  }
  out = heap.take_sorted();
  // A short heap kept every positive-similarity map, so padding skips
  // exactly the already-ranked indices.
  if (out.size() < want) pad_zero_rows(v, out, want);
}

void pad_zero_rows(const CorpusView& v, std::vector<RankedCandidate>& out,
                   std::size_t want) {
  // Pad with zero-similarity live maps in row order (the order the stable
  // sort leaves ties in), skipping the maps already ranked.
  std::vector<std::uint32_t> taken;
  taken.reserve(out.size());
  for (const RankedCandidate& rc : out) {
    taken.push_back(static_cast<std::uint32_t>(rc.index));
  }
  std::sort(taken.begin(), taken.end());
  std::size_t next_taken = 0;
  for (std::size_t m = 0; m < v.size() && out.size() < want; ++m) {
    if (next_taken < taken.size() && taken[next_taken] == m) {
      ++next_taken;
      continue;
    }
    if (!v.rows[m].live) continue;
    out.push_back(RankedCandidate{m, 0.0});
  }
}

std::size_t comparable_count(const CorpusView& v, const RowView& query) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  std::size_t count = 0;
  for (const std::uint32_t m : s.touched) {
    // A touched map shares a replica, so its intersection (jaccard) or
    // partial sum (cosine, weighted overlap) is positive unless the
    // products underflowed — the same condition similarity() > 0 tests.
    if (v.kind == SimilarityKind::kJaccard ? s.inter[m] > 0 : s.acc[m] > 0.0) {
      ++count;
    }
  }
  return count;
}

void check_view(const CorpusView& v, std::size_t live_replicas,
                const std::string& owner) {
  const auto fail = [&owner](const std::string& what) {
    throw std::logic_error(owner + " invariant: " + what);
  };
  if (v.norms.size() != v.size() || v.strongest.size() != v.size()) {
    fail("row tables disagree in length");
  }
  if (v.replicas->size() != v.lists.size()) {
    fail("replica index has " + std::to_string(v.replicas->size()) +
         " replicas, list table " + std::to_string(v.lists.size()));
  }
  // The replica each list indexes; every list is exactly one replica's.
  std::vector<ReplicaId> replica_of(v.lists.size());
  std::vector<bool> indexed(v.lists.size(), false);
  v.replicas->for_each([&](ReplicaId id, std::uint32_t l) {
    if (l >= v.lists.size() || indexed[l]) {
      fail("replica " + std::to_string(id.value()) + " maps to list " +
           std::to_string(l) + ", past the table or shared");
    }
    if (v.replicas->find(id) != l) {
      fail("replica " + std::to_string(id.value()) + " is unreachable");
    }
    indexed[l] = true;
    replica_of[l] = id;
  });

  // Live entries numbered row by row: row m's are [first[m], first[m+1]).
  std::size_t live_rows = 0;
  std::vector<std::size_t> first(v.size() + 1, 0);
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (v.rows[m].live) {
      ++live_rows;
    } else if (v.rows[m].len != 0) {
      fail("dead row " + std::to_string(m) + " has entries");
    }
    first[m + 1] = first[m] + v.rows[m].len;
  }
  if (live_rows != v.live_rows) fail("live row count is off");

  std::vector<bool> named(first.back(), false);
  std::size_t lists_live = 0;
  for (std::size_t l = 0; l < v.lists.size(); ++l) {
    if (v.lists[l].size > 0) ++lists_live;
    for (const Posting& p : v.lists[l].postings()) {
      const auto at = [&] {
        return "list " + std::to_string(l) + " posting for row " +
               std::to_string(p.map) + " entry " + std::to_string(p.entry);
      };
      if (p.map >= v.size() || !v.rows[p.map].live) fail(at() + ": dead row");
      if (p.entry >= v.rows[p.map].len) fail(at() + ": past the row's end");
      const auto& [id, ratio] = v.row(p.map)[p.entry];
      if (id != replica_of[l]) fail(at() + ": another replica's entry");
      if (ratio != p.ratio) fail(at() + ": ratio differs");
      if (named[first[p.map] + p.entry]) fail(at() + ": entry posted twice");
      named[first[p.map] + p.entry] = true;
    }
  }
  if (lists_live != live_replicas) fail("live replica count is off");
  if (std::find(named.begin(), named.end(), false) != named.end()) {
    fail("a live entry has no posting");
  }
}

void scores_batch(const CorpusView& v, std::span<const RowView> refs,
                  FlatMatrix<double>& out, ThreadPool* pool,
                  std::uint64_t* maps_touched, std::size_t tile) {
  const bool jaccard = v.kind == SimilarityKind::kJaccard;
  batch_tiles(v, refs, pool, tile, maps_touched,
              [&v, &out, jaccard](std::size_t q0,
                                  std::span<const RowView> tile_q,
                                  BatchScratch& s) {
                // Rows start zeroed, so writing the touched cells only
                // reproduces the scalar zero-fill + touched-overwrite —
                // and each query's walk stays inside its own scratch and
                // output rows.
                for (std::uint32_t q = 0; q < tile_q.size(); ++q) {
                  const auto out_row = out.row(q0 + q);
                  for (const std::uint32_t m : s.touched_q[q]) {
                    TileCell cell;
                    if (jaccard) {
                      cell.inter = s.inter(q, m);
                    } else {
                      cell.acc = s.acc(q, m);
                    }
                    out_row[m] =
                        finish_score(v, m, tile_q[q].norm,
                                     tile_q[q].entries.size(), cell.acc,
                                     cell.inter);
                  }
                }
              });
}

std::vector<std::vector<RankedCandidate>> topk_batch(
    const CorpusView& v, std::span<const RowView> refs, std::size_t k,
    ThreadPool* pool, std::uint64_t* maps_touched, std::size_t tile) {
  std::vector<std::vector<RankedCandidate>> out(refs.size());
  const std::size_t want = std::min(k, v.live_rows);
  const bool jaccard = v.kind == SimilarityKind::kJaccard;
  const auto better = [](const RankedCandidate& a, const RankedCandidate& b) {
    return a.similarity > b.similarity ||
           (a.similarity == b.similarity && a.index < b.index);
  };
  batch_tiles(v, refs, pool, tile, maps_touched,
              [&v, &out, want, jaccard, better](
                  std::size_t q0, std::span<const RowView> tile_q,
                  BatchScratch& s) {
                if (want == 0) return;  // out slots stay empty, as scalar
                std::vector<BoundedTopK<RankedCandidate, decltype(better)>>
                    heaps;
                heaps.reserve(tile_q.size());
                for (std::size_t q = 0; q < tile_q.size(); ++q) {
                  heaps.emplace_back(want, better);
                }
                // Offers follow each query's first-touch order; the
                // bounded heap keeps the same k for any offer order
                // (total order), so this matches the scalar result.
                for (std::uint32_t q = 0; q < tile_q.size(); ++q) {
                  for (const std::uint32_t m : s.touched_q[q]) {
                    TileCell cell;
                    if (jaccard) {
                      cell.inter = s.inter(q, m);
                    } else {
                      cell.acc = s.acc(q, m);
                    }
                    const double score =
                        finish_score(v, m, tile_q[q].norm,
                                     tile_q[q].entries.size(), cell.acc,
                                     cell.inter);
                    if (score > 0.0) heaps[q].offer(RankedCandidate{m, score});
                  }
                }
                for (std::size_t q = 0; q < tile_q.size(); ++q) {
                  out[q0 + q] = heaps[q].take_sorted();
                  if (out[q0 + q].size() < want) {
                    pad_zero_rows(v, out[q0 + q], want);
                  }
                }
              });
  return out;
}

}  // namespace crp::core::engine_detail
