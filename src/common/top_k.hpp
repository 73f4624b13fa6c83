// Bounded top-k selection without a full sort.
//
// Every ranking path in the repo ends the same way: score n candidates,
// keep the best k, emit them best-first. Sorting all n costs O(n log n)
// and — for the service paths — copies n node-id strings around just to
// throw most of them away. BoundedTopK keeps a k-element binary heap with
// the *worst* kept item at the root: each candidate is one comparison
// against the current worst, and only candidates that enter the kept set
// are ever copied. O(n log k) total, O(k) space.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace crp {

/// Keeps the `Better`-best k of the items offered to it, and emits them
/// best-first. `Better(a, b)` must be a strict total order ("a ranks
/// strictly ahead of b"): under a total order the kept set and the output
/// order are independent of offer order — exactly what a full sort plus
/// truncate would produce — which is what lets the batched query paths
/// stay bit-identical to the sorted scalar baselines (DESIGN.md §6).
/// Items that compare equal both ways are interchangeable duplicates, so
/// determinism survives them too.
template <typename T, typename Better>
class BoundedTopK {
 public:
  BoundedTopK(std::size_t k, Better better)
      : k_(k), better_(std::move(better)) {
    // Callers may pass k far beyond the candidate count ("give me
    // everything"); cap the speculative reservation and let the vector
    // grow if the offers really do.
    heap_.reserve(std::min<std::size_t>(k, 1024));
  }

  /// Considers one candidate. Rejected candidates (not better than the
  /// current worst of a full heap) cost one comparison and no copy.
  void offer(const T& item) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(item);
      // With comp = better_, "greatest" means "least better": the heap
      // root is the worst kept item, the one a new candidate must beat.
      std::push_heap(heap_.begin(), heap_.end(), better_);
      return;
    }
    if (!better_(item, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), better_);
    heap_.back() = item;
    std::push_heap(heap_.begin(), heap_.end(), better_);
  }

  /// Items kept so far (min(k, offers)).
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] std::size_t bound() const { return k_; }

  /// Destructively extracts the kept items, best first. Offer nothing
  /// more afterwards.
  [[nodiscard]] std::vector<T> take_sorted() {
    std::sort_heap(heap_.begin(), heap_.end(), better_);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  Better better_;
  std::vector<T> heap_;
};

}  // namespace crp
