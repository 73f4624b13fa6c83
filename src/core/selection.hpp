// Closest-node selection (paper §IV.A).
//
// Given a client's ratio map and the ratio maps of candidate servers, rank
// the candidates by similarity to the client: the most similar candidate
// is CRP's closest-node recommendation. Candidates sharing no replica with
// the client have similarity zero — CRP can then only say "not nearby".
//
// Each function takes the candidates as a span and scores them with
// per-pair similarity merges — fine for one-off queries, and the
// reference every engine ranking is tested against. For many queries
// over one corpus, build a `SimilarityEngine` once: its `top_k(client,
// live_size())` is `rank_candidates` over the live maps, bit for bit.
// `select_closest` and `comparable_count` also take an engine directly
// and answer as the span forms would over its live maps (an index is
// then a row index).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/ratio_map.hpp"
#include "core/similarity.hpp"

namespace crp::core {

class SimilarityEngine;

struct RankedCandidate {
  std::size_t index = 0;   // position in the input span
  double similarity = 0.0;

  friend bool operator==(const RankedCandidate&,
                         const RankedCandidate&) = default;
};

/// Ranks all candidates by similarity to `client`, best first. Ties break
/// by input index (stable, deterministic). Candidates with zero
/// similarity are included — at the bottom — so the caller can see how
/// many were comparable at all.
[[nodiscard]] std::vector<RankedCandidate> rank_candidates(
    const RatioMap& client, std::span<const RatioMap> candidates,
    SimilarityKind kind = SimilarityKind::kCosine);

/// Top-k of `rank_candidates` (k clamped to the candidate count).
[[nodiscard]] std::vector<RankedCandidate> select_top_k(
    const RatioMap& client, std::span<const RatioMap> candidates,
    std::size_t k, SimilarityKind kind = SimilarityKind::kCosine);

/// Index of the single best candidate, or nullopt iff `candidates` is
/// empty. A zero-similarity winner is still returned (the paper's CRP
/// always answers; accuracy in poorly covered regions suffers instead) —
/// with an empty or fully disjoint client map that winner is simply the
/// first candidate. The engine form answers from `best_match`: the best
/// live row, the first live row when nothing is comparable, and nullopt
/// iff no row is live.
[[nodiscard]] std::optional<std::size_t> select_closest(
    const RatioMap& client, std::span<const RatioMap> candidates,
    SimilarityKind kind = SimilarityKind::kCosine);
[[nodiscard]] std::optional<std::size_t> select_closest(
    const RatioMap& client, const SimilarityEngine& corpus);

/// Number of candidates with strictly positive similarity to the client.
/// The engine form counts the live rows `touched_scores` scores above 0.
[[nodiscard]] std::size_t comparable_count(
    const RatioMap& client, std::span<const RatioMap> candidates,
    SimilarityKind kind = SimilarityKind::kCosine);
[[nodiscard]] std::size_t comparable_count(const RatioMap& client,
                                           const SimilarityEngine& corpus);

}  // namespace crp::core
