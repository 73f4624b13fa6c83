// Row-major dense matrix in one contiguous allocation.
//
// One row-major buffer sized up front instead of `vector<vector<T>>`'s
// n separate heap blocks: rows are addressable as contiguous spans, so
// per-row writers (thread-pool bodies, such as SMF's pass-2 score tiles)
// each write only through their own slot.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace crp {

template <typename T = double>
class FlatMatrix {
 public:
  FlatMatrix() = default;
  FlatMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] T& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Row `i` as a contiguous span (the unit parallel writers own).
  [[nodiscard]] std::span<T> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const T> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  /// Reshapes to rows x cols and resets every element to `init`,
  /// reusing the allocation when it is already large enough.
  void assign(std::size_t rows, std::size_t cols, T init = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, init);
  }

  friend bool operator==(const FlatMatrix&, const FlatMatrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace crp
