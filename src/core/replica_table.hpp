// Replica id -> posting-list index: the root of the engine's inverted
// index.
//
// Every query entry and every corpus mutation looks a replica up here,
// so the table is flat: linear probing over a power-of-two array of
// cells kept at most half full, with a multiplicative hash of the id.
// A cell is empty while its list field is `kNoList`, so every 32-bit id
// is a valid key, 0xFFFFFFFF included. The table only grows — the engine
// never forgets a replica — and its size depends only on how many
// distinct ids it holds, never on their values: a report naming huge
// ids cannot make it allocate more than one naming small ids.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"

namespace crp::core::engine_detail {

class ReplicaTable {
 public:
  /// `find`'s answer for an absent id; never a list index.
  static constexpr std::uint32_t kNoList = 0xffffffffu;

  ReplicaTable() : cells_(kMinCells) {}

  /// The list `id` maps to, or kNoList.
  [[nodiscard]] std::uint32_t find(ReplicaId id) const {
    for (std::size_t c = home(id);; c = (c + 1) & mask()) {
      const Cell& cell = cells_[c];
      // At most half full, so the probe always reaches an empty cell.
      if (cell.list == kNoList || cell.id == id.value()) return cell.list;
    }
  }

  /// Maps `id` to `list`. Preconditions: `id` is absent, list < kNoList.
  void insert(ReplicaId id, std::uint32_t list) {
    if (2 * (size_ + 1) > cells_.size()) {
      std::vector<Cell> old(2 * cells_.size());
      old.swap(cells_);
      --shift_;
      for (const Cell& cell : old) {
        if (cell.list != kNoList) place(cell);
      }
    }
    place(Cell{id.value(), list});
    ++size_;
  }

  /// Mappings held.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Cells allocated: a power of two, at least twice size().
  [[nodiscard]] std::size_t capacity() const { return cells_.size(); }
  /// The cell `id`'s probe sequence starts at.
  [[nodiscard]] std::size_t home(ReplicaId id) const {
    return static_cast<std::size_t>((id.value() * kMultiplier) >> shift_);
  }

  /// Calls `f(id, list)` once per mapping, in cell order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Cell& cell : cells_) {
      if (cell.list != kNoList) f(ReplicaId{cell.id}, cell.list);
    }
  }

 private:
  struct Cell {
    std::uint32_t id = 0;
    std::uint32_t list = kNoList;
  };
  static constexpr std::size_t kMinCells = 16;
  // 2^64 / golden ratio: the top bits of id * kMultiplier spread
  // consecutive ids across the table (Fibonacci hashing).
  static constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ull;

  [[nodiscard]] std::size_t mask() const { return cells_.size() - 1; }
  void place(const Cell& cell) {
    std::size_t c = home(ReplicaId{cell.id});
    while (cells_[c].list != kNoList) c = (c + 1) & mask();
    cells_[c] = cell;
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  int shift_ = 64 - std::countr_zero(kMinCells);  // 64 - log2(capacity)
};

}  // namespace crp::core::engine_detail
