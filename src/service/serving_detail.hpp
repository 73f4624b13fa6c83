// Ranking helpers shared by PositionService and ServingSnapshot.
//
// Both owners rank candidates through the exact same comparator and
// materialization code — included from one header so the mutable path
// and the snapshot read path cannot drift apart (the serving-level
// analogue of core/engine_kernels.hpp). Internal: not part of the
// service API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/top_k.hpp"
#include "core/selection.hpp"

namespace crp::service {

struct RankedNode;

namespace serving_detail {

/// One engine slot's occupant: its id ("" for a tombstoned slot) and
/// its report timestamp (what liveness filters against). The service
/// keeps one per engine row; a snapshot freezes a copy.
struct SlotRec {
  std::string id;
  SimTime when = SimTime{-1};
};

/// One candidate surviving a candidate-list read's vetting: the
/// caller's id string (borrowed) plus its engine slot.
struct Vetted {
  const std::string* id = nullptr;
  std::size_t slot = 0;
};

/// Heap entry for the closest paths: a borrowed node id plus its score.
/// Every ranker and every sharded partial holds these; only
/// `materialize` copies ids, once per answer.
struct ScoredRef {
  const std::string* id = nullptr;
  double sim = 0.0;
};

/// The (similarity desc, node_id asc) total order every closest path
/// ranks by. Total ⇒ the bounded heap's output is identical to the
/// stable-sort-then-truncate baseline (duplicate candidates compare
/// equal both ways and are interchangeable copies) — and independent of
/// offer order, which is why the snapshot path may iterate its sorted
/// node table where the mutable path iterates its slot table and
/// still answer byte-for-byte identically.
inline bool better_ref(const ScoredRef& a, const ScoredRef& b) {
  if (a.sim != b.sim) return a.sim > b.sim;
  return *a.id < *b.id;
}

using RefHeap = BoundedTopK<ScoredRef, decltype(&better_ref)>;

/// Copies ranked refs into owned RankedNodes: the one place an answer's
/// ids are built, once per answer, after every merge (templated only so
/// this header needn't depend on position_service.hpp).
template <typename RankedNodeT>
std::vector<RankedNodeT> materialize(std::span<const ScoredRef> kept) {
  std::vector<RankedNodeT> ranked;
  ranked.reserve(kept.size());
  for (const ScoredRef& r : kept) {
    ranked.push_back(RankedNodeT{*r.id, r.sim});
  }
  return ranked;
}

/// The calling thread's touched list for an any-shaped read (the engine
/// overwrites it on every read), so repeated reads allocate none. Hold
/// it only until the thread's next read.
inline std::vector<core::RankedCandidate>& touched_buffer() {
  static thread_local std::vector<core::RankedCandidate> touched;
  return touched;
}

/// Ranks an any-shaped read — every usable node except slot `exclude` —
/// from the engine's touched list alone (`touched_scores`). A row that
/// shares no replica with the query scores exactly 0, and no score is
/// negative, so the usable touched rows scoring > 0 rank ahead of every
/// other usable row. The heap therefore sees only those; if fewer than
/// k survive, every one of them is kept and the rest of the answer is
/// the zero-score usable rows in id order. That is bit-identical to
/// ranking every usable row by its dense score, at O(touched log k)
/// whenever k rows share a replica with the query.
///
/// The bar: once the heap is full, a row scoring below its worst cannot
/// enter whatever its id (better_ref orders by score first), so it is
/// skipped before its slot record is read. A row that ties the worst
/// still goes through `usable` and the full comparison. A heap that ends
/// short of k never skipped a row.
///
/// `by_id` lists the occupied slots in id order, so padding stops at
/// the k-th row; without it (nullptr) padding offers every occupied
/// slot to the heap, which keeps the smallest ids. The refs borrow ids
/// from `slots`.
template <typename Usable>
std::vector<ScoredRef> rank_touched(
    std::span<const core::RankedCandidate> touched,
    std::span<const SlotRec> slots, const std::vector<std::uint32_t>* by_id,
    std::size_t exclude, std::size_t k, const Usable& usable) {
  const auto ranked = [&](std::size_t slot) {
    return slot != exclude && usable(slot);
  };
  RefHeap heap(k, &better_ref);
  for (const core::RankedCandidate& t : touched) {
    if (t.similarity <= 0.0 ||
        (heap.full() && t.similarity < heap.worst().sim)) {
      continue;
    }
    if (ranked(t.index)) {
      heap.offer(ScoredRef{&slots[t.index].id, t.similarity});
    }
  }
  if (heap.size() < k) {
    std::vector<std::size_t> positive;
    for (const core::RankedCandidate& t : touched) {
      if (t.similarity > 0.0 && ranked(t.index)) positive.push_back(t.index);
    }
    std::sort(positive.begin(), positive.end());
    const auto pad = [&](std::size_t slot) {
      if (slots[slot].id.empty() || !ranked(slot) ||
          std::binary_search(positive.begin(), positive.end(), slot)) {
        return;
      }
      heap.offer(ScoredRef{&slots[slot].id, 0.0});
    };
    if (by_id != nullptr) {
      // Ascending ids: once the heap is full, every later zero row
      // ranks behind everything in it.
      for (const std::uint32_t slot : *by_id) {
        if (heap.size() == k) break;
        pad(slot);
      }
    } else {
      for (std::size_t slot = 0; slot < slots.size(); ++slot) pad(slot);
    }
  }
  return heap.take_sorted();
}

/// Ranks a vetted candidate list from its subset scores (`scores[i]`
/// belongs to `vetted[i]`), skipping slot `exclude` — the client itself.
/// The refs borrow the vetted ids.
inline std::vector<ScoredRef> rank_vetted(std::span<const Vetted> vetted,
                                          std::span<const double> scores,
                                          std::size_t exclude, std::size_t k) {
  RefHeap heap(k, &better_ref);
  for (std::size_t i = 0; i < vetted.size(); ++i) {
    if (vetted[i].slot != exclude) {
      heap.offer(ScoredRef{vetted[i].id, scores[i]});
    }
  }
  return heap.take_sorted();
}

/// The engine slots of a vetted list, in list order — the subset a
/// candidate-list read scores.
inline std::vector<std::size_t> slots_of(std::span<const Vetted> vetted) {
  std::vector<std::size_t> slots;
  slots.reserve(vetted.size());
  for (const Vetted& v : vetted) slots.push_back(v.slot);
  return slots;
}

}  // namespace serving_detail
}  // namespace crp::service
