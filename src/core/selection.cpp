#include "core/selection.hpp"

#include <algorithm>

#include "core/similarity_engine.hpp"

namespace crp::core {

std::vector<RankedCandidate> rank_candidates(
    const RatioMap& client, std::span<const RatioMap> candidates,
    SimilarityKind kind) {
  std::vector<RankedCandidate> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ranked.push_back(RankedCandidate{i, similarity(kind, client,
                                                   candidates[i])});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.similarity > b.similarity;
                   });
  return ranked;
}

std::vector<RankedCandidate> select_top_k(const RatioMap& client,
                                          std::span<const RatioMap> candidates,
                                          std::size_t k,
                                          SimilarityKind kind) {
  auto ranked = rank_candidates(client, candidates, kind);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::optional<std::size_t> select_closest(const RatioMap& client,
                                          std::span<const RatioMap> candidates,
                                          SimilarityKind kind) {
  if (candidates.empty()) return std::nullopt;
  std::size_t best = 0;
  double best_sim = -1.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double s = similarity(kind, client, candidates[i]);
    if (s > best_sim) {
      best_sim = s;
      best = i;
    }
  }
  return best;
}

std::optional<std::size_t> select_closest(const RatioMap& client,
                                          const SimilarityEngine& corpus) {
  const auto best = corpus.best_match(client);
  if (!best.has_value()) return std::nullopt;
  return best->index;
}

std::size_t comparable_count(const RatioMap& client,
                             std::span<const RatioMap> candidates,
                             SimilarityKind kind) {
  std::size_t count = 0;
  for (const RatioMap& c : candidates) {
    if (similarity(kind, client, c) > 0.0) ++count;
  }
  return count;
}

std::size_t comparable_count(const RatioMap& client,
                             const SimilarityEngine& corpus) {
  std::vector<RankedCandidate> touched;
  corpus.touched_scores(client, touched);
  std::size_t count = 0;
  for (const RankedCandidate& t : touched) {
    if (t.similarity > 0.0) ++count;
  }
  return count;
}

}  // namespace crp::core
