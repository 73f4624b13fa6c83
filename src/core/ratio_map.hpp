// Ratio maps — CRP's position representation (paper §III.B).
//
// A node's ratio map records, for every CDN replica server the node has
// been redirected to during the observation window, the fraction of
// redirections that went to that replica:
//
//     nu_N = <(r_k, f_k), (r_l, f_l), ..., (r_m, f_m)>,  sum f_i = 1.
//
// Ratio maps are the *only* state a CRP node needs, and cosine similarity
// between two maps is the paper's relative-proximity metric.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace crp::core {

/// Normalized redirection-frequency vector, sparse over replica IDs.
/// Entries are kept sorted by replica ID; ratios are strictly positive
/// and sum to 1 (within floating-point tolerance) unless the map is empty.
class RatioMap {
 public:
  using Entry = std::pair<ReplicaId, double>;

  RatioMap() = default;

  /// Builds a map from raw redirection counts. Zero/negative counts are
  /// dropped; the rest are normalized. Duplicate replica IDs accumulate.
  static RatioMap from_counts(
      std::span<const std::pair<ReplicaId, std::uint64_t>> counts);

  /// Builds directly from (replica, ratio) pairs, normalizing the ratios.
  /// Non-positive and infinite ratios are dropped; duplicates accumulate.
  /// Any finite positive input keeps the class invariant: ratios so large
  /// that their sum overflows are scaled down first, and a ratio too
  /// small to survive normalizing is dropped.
  static RatioMap from_ratios(std::span<const Entry> ratios);

  /// Copies entries that already hold the class invariant, verbatim:
  /// nothing is renormalized, so entries taken from a map (or from an
  /// engine row that stored one) rebuild that map bit for bit.
  /// Precondition: sorted by replica id, one entry per replica, each
  /// ratio positive, the ratios summing to 1 — as a RatioMap stores them.
  static RatioMap from_canonical(std::span<const Entry> entries);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::span<const Entry> entries() const { return entries_; }

  /// Ratio for a replica (0 if absent).
  [[nodiscard]] double ratio_of(ReplicaId id) const;
  [[nodiscard]] bool contains(ReplicaId id) const;

  /// The map's strongest association: max_i f_i (0 for an empty map).
  /// SMF clustering seeds centers by this value.
  [[nodiscard]] double strongest_mapping() const;

  /// Dot product with another map (sparse intersection).
  [[nodiscard]] double dot(const RatioMap& other) const;
  /// Euclidean norm of the ratio vector.
  [[nodiscard]] double norm() const;

  /// Number of replicas present in both maps.
  [[nodiscard]] std::size_t overlap_count(const RatioMap& other) const;

  friend bool operator==(const RatioMap&, const RatioMap&) = default;

 private:
  std::vector<Entry> entries_;  // sorted by ReplicaId, ratios sum to 1
};

/// Cosine similarity of two ratio maps, in [0, 1] (paper §III.B):
///
///   cos_sim(A, B) = sum_i nu_A,i * nu_B,i /
///                   sqrt(sum nu_A,i^2 * sum nu_B,i^2)
///
/// 1 for identical maps, 0 for maps with no replica in common (in which
/// case CRP can only say the nodes are *not* likely to be near each
/// other). Returns 0 if either map is empty.
[[nodiscard]] double cosine_similarity(const RatioMap& a, const RatioMap& b);

}  // namespace crp::core
