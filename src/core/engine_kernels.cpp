#include "core/engine_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

namespace crp::core::engine_detail {

namespace {

// One row's accumulator: its partial sum (cosine / weighted overlap) or
// intersection count (jaccard, an exact integer-valued double), and the
// epoch of the query that last touched it. Together in one 16-byte cell,
// so a touched row costs one cache line, not one per array.
struct Cell {
  double acc = 0.0;
  std::uint64_t mark = 0;
};

// Reused across queries (thread_local, see scratch()): `mark`/`epoch`
// implement O(touched) clearing — a cell belongs to the current query only
// if its mark equals the epoch, so no O(corpus) zeroing per query is
// needed. The epoch is 64-bit and never wraps.
// Thread-locality is also what makes the kernels safe for concurrent
// readers: two threads querying the same (frozen or quiescent) corpus
// never share an accumulator.
struct Scratch {
  std::vector<Cell> cells;
  std::uint64_t epoch = 0;
  // The rows the query touched, in first-touch order, are the first
  // `count` entries. Sized one past the corpus: the scatter writes every
  // posting's row to touched[count] before it knows whether the row is
  // new, so with every row touched the next write lands at index n.
  std::vector<std::uint32_t> touched;
  std::size_t count = 0;
  // The query's non-empty posting lists, each with the query's ratio.
  std::vector<std::pair<ListView, double>> lists;
  // select_touched's k-heap, and then its sorted result.
  std::vector<RankedCandidate> kept;

  void begin(std::size_t n) {
    if (cells.size() < n) cells.resize(n);
    if (touched.size() <= n) touched.resize(n + 1);
    ++epoch;
    count = 0;
    lists.clear();
  }
  [[nodiscard]] std::span<const std::uint32_t> touched_rows() const {
    return {touched.data(), count};
  }
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

constexpr std::uint32_t kPostingsPerLine = 64 / sizeof(Posting);

/// Adds `contribution(q_ratio, posting ratio)` of every posting of the
/// resolved lists to its row's cell, with no branch per posting. On a
/// first touch the mask clears every bit of the cell's stale sum, so it
/// adds onto +0.0: `+0.0 + x` is exactly the `acc = 0.0; acc += x` of a
/// branching first touch, and the row's id joins `touched` at the same
/// position.
template <typename Contribution>
void scatter(Scratch& s, Contribution contribution) {
  Cell* const cells = s.cells.data();
  std::uint32_t* const touched = s.touched.data();
  const std::uint64_t epoch = s.epoch;
  std::size_t count = 0;
  for (const auto& [list, q_ratio] : s.lists) {
    for (const Posting& p : list.postings()) {
      Cell& cell = cells[p.map];
      const std::uint64_t first = cell.mark != epoch;
      // All ones iff the row already holds a partial sum of this query.
      const std::uint64_t keep = first - 1;
      touched[count] = p.map;
      count += first;
      cell.acc = std::bit_cast<double>(std::bit_cast<std::uint64_t>(cell.acc) &
                                       keep) +
                 contribution(q_ratio, p.ratio);
      cell.mark = epoch;
    }
  }
  s.count = count;
}

/// Scatter-adds `entries` (sorted by replica id) over the posting lists.
/// Afterwards `scratch.touched_rows()` lists every corpus map sharing a
/// replica with the query, with per-map partial sums in `scratch.cells`.
void accumulate(const CorpusView& v, std::span<const RatioMap::Entry> entries,
                Scratch& s) {
  s.begin(v.size());
  // First pass: resolve every entry's list and start loading its first
  // two cache lines, so the scatter below does not stall on one list
  // head after another. Both addresses stay inside the list.
  for (const auto& [id, q_ratio] : entries) {
    const std::uint32_t l = v.replicas->find(id);
    if (l == ReplicaTable::kNoList || v.lists[l].size == 0) continue;
    const ListView& list = v.lists[l];
    __builtin_prefetch(list.items);
    if (list.size > kPostingsPerLine) {
      __builtin_prefetch(list.items + kPostingsPerLine);
    }
    s.lists.emplace_back(list, q_ratio);
  }
  // Lists keep the query's increasing replica-id order, so each touched
  // map accumulates its shared replicas in exactly the order the per-pair
  // sorted merge visits them — scores stay bit-identical.
  switch (v.kind) {
    case SimilarityKind::kCosine:
      scatter(s, [](double q, double r) { return q * r; });
      break;
    case SimilarityKind::kJaccard:
      scatter(s, [](double, double) { return 1.0; });
      break;
    case SimilarityKind::kWeightedOverlap:
      scatter(s, [](double q, double r) { return std::min(q, r); });
      break;
  }
}

/// Calls `f(finish)` with the final-score step of `v`'s metric, switched
/// once per query: `finish(m)` is touched row m's score from its cell's
/// partial sum (cosine, weighted overlap) or intersection count
/// (jaccard). A touched row shares a replica with the query, so its
/// jaccard union is never 0.
template <typename F>
void with_finish(const CorpusView& v, const RowView& query, const Scratch& s,
                 const F& f) {
  const Cell* const cells = s.cells.data();
  switch (v.kind) {
    case SimilarityKind::kCosine:
      return f([&](std::size_t m) {
        const double denominator = query.norm * v.norms[m];
        if (denominator <= 0.0) return 0.0;
        return std::clamp(cells[m].acc / denominator, 0.0, 1.0);
      });
    case SimilarityKind::kJaccard:
      return f([&](std::size_t m) {
        const auto inter = static_cast<std::uint32_t>(cells[m].acc);
        const std::size_t uni = query.entries.size() + v.rows[m].len - inter;
        return static_cast<double>(inter) / static_cast<double>(uni);
      });
    case SimilarityKind::kWeightedOverlap:
      return f([&](std::size_t m) {
        return std::clamp(cells[m].acc, 0.0, 1.0);
      });
  }
}

/// The engine's own selection: every touched row is live (only live rows
/// have postings), and rows tie in index order.
constexpr auto every_row = [](std::uint32_t) { return true; };
constexpr auto by_index = [](std::uint32_t a, std::uint32_t b) {
  return a < b;
};

/// Appends zero-similarity live rows in row order (the order
/// `rank_candidates`' stable sort leaves ties in) until `out` reaches
/// `want` entries, skipping the rows already ranked in `out`.
void pad_zero_rows(const CorpusView& v, std::vector<RankedCandidate>& out,
                   std::size_t want) {
  std::vector<std::size_t> taken;
  for (const RankedCandidate& c : out) taken.push_back(c.index);
  std::sort(taken.begin(), taken.end());
  for (std::size_t m = 0; m < v.size() && out.size() < want; ++m) {
    if (v.rows[m].live && !std::binary_search(taken.begin(), taken.end(), m)) {
      out.push_back(RankedCandidate{m, 0.0});
    }
  }
}

}  // namespace

void dense_scores(const CorpusView& v, const RowView& query,
                  std::span<double> out, std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  std::fill(out.begin(), out.end(), 0.0);
  with_finish(v, query, s, [&](const auto& finish) {
    for (const std::uint32_t m : s.touched_rows()) out[m] = finish(m);
  });
  if (touched_maps != nullptr) *touched_maps = s.count;
}

void touched_scores(const CorpusView& v, const RowView& query,
                    std::vector<RankedCandidate>& out) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  out.clear();
  out.reserve(s.count);
  with_finish(v, query, s, [&](const auto& finish) {
    for (const std::uint32_t m : s.touched_rows()) {
      out.push_back(RankedCandidate{m, finish(m)});
    }
  });
}

std::span<const RankedCandidate> select_touched(const CorpusView& v,
                                                const RowView& query,
                                                std::size_t k, KeepRow keep,
                                                TieOrder tie_before,
                                                std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  if (touched_maps != nullptr) *touched_maps = s.count;
  std::vector<RankedCandidate>& heap = s.kept;
  heap.clear();
  if (k == 0) return {};
  const auto better = [tie_before](const RankedCandidate& a,
                                   const RankedCandidate& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return tie_before(static_cast<std::uint32_t>(a.index),
                      static_cast<std::uint32_t>(b.index));
  };
  with_finish(v, query, s, [&](const auto& finish) {
    // The least positive double until k rows are kept, so that exactly
    // the rows scoring <= 0 fall below it; then the worst kept score.
    double bar = std::numeric_limits<double>::denorm_min();
    for (const std::uint32_t m : s.touched_rows()) {
      const double score = finish(m);
      if (score < bar || !keep(m)) continue;
      const RankedCandidate c{m, score};
      if (heap.size() < k) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(c, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = c;
        std::push_heap(heap.begin(), heap.end(), better);
      }
      if (heap.size() == k) bar = heap.front().similarity;
    }
  });
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

std::optional<RankedCandidate> best_match(const CorpusView& v,
                                          const RowView& query,
                                          std::size_t* touched_maps) {
  // A dense argmax over every live row picks (max score, lowest index).
  // Untouched live rows all score exactly 0, so whenever some touched
  // row scores > 0 the best of the touched rows is the dense answer;
  // otherwise the dense argmax lands on the first live row at 0. With no
  // live row there are no postings, and nothing is touched.
  const auto best =
      select_touched(v, query, 1, every_row, by_index, touched_maps);
  if (!best.empty()) return best.front();
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (v.rows[m].live) return RankedCandidate{m, 0.0};
  }
  return std::nullopt;
}

std::vector<RankedCandidate> top_k(const CorpusView& v, const RowView& query,
                                   std::size_t k) {
  const std::size_t want = std::min(k, v.live_rows);
  // (similarity, index) is a total order over rows, so the selection
  // keeps exactly the rows a full sort + truncate would, in the same
  // order — matching rank_candidates' stable sort.
  const auto kept = select_touched(v, query, want, every_row, by_index,
                                   /*touched_maps=*/nullptr);
  std::vector<RankedCandidate> out(kept.begin(), kept.end());
  // A short result kept every positive-similarity row, so padding skips
  // exactly the already-ranked indices.
  if (out.size() < want) pad_zero_rows(v, out, want);
  return out;
}

FlatCorpus::FlatCorpus(SimilarityKind kind, std::span<const RowView> rows)
    : kind_(kind),
      rows_(rows.size()),
      norms_(rows.size()),
      strongest_(rows.size()) {
  std::size_t entries = 0;
  for (std::size_t m = 0; m < rows.size(); ++m) {
    const RowView& r = rows[m];
    rows_[m] = Row{r.entries.data(),
                   static_cast<std::uint32_t>(r.entries.size()), true};
    norms_[m] = r.norm;
    strongest_[m] = r.strongest;
    entries += r.entries.size();
  }
  // Counting pass: each entry's list, looked up once, and each list's
  // posting count in `at`.
  std::vector<std::uint32_t> list_of(entries);
  std::vector<std::uint32_t> at;
  std::size_t e = 0;
  for (const Row& r : rows_) {
    for (std::uint32_t i = 0; i < r.len; ++i) {
      const ReplicaId id = r.entries[i].first;
      std::uint32_t l = replicas_.find(id);
      if (l == ReplicaTable::kNoList) {
        l = static_cast<std::uint32_t>(at.size());
        replicas_.insert(id, l);
        at.push_back(0);
      }
      ++at[l];
      list_of[e++] = l;
    }
  }
  // Prefix offsets place the lists back to back in one block; `at` then
  // holds each list's fill cursor, and the fill walks the rows in order.
  postings_.resize(entries);
  lists_.resize(at.size());
  Posting* const block = postings_.data();
  std::uint32_t offset = 0;
  for (std::size_t l = 0; l < at.size(); ++l) {
    lists_[l] = ListView{block + offset, at[l]};
    at[l] = offset;
    offset += lists_[l].size;
  }
  e = 0;
  for (std::uint32_t m = 0; m < rows_.size(); ++m) {
    const Row& r = rows_[m];
    for (std::uint32_t i = 0; i < r.len; ++i) {
      block[at[list_of[e++]]++] = Posting{m, i, r.entries[i].second};
    }
  }
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

}  // namespace crp::core::engine_detail
