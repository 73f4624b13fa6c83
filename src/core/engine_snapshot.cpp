#include "core/engine_snapshot.hpp"

namespace crp::core {

void EngineSnapshot::scores(const RatioMap& query, std::span<double> out,
                            std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), engine_detail::as_query(query), out,
                              touched_maps);
}

std::vector<double> EngineSnapshot::scores(const RatioMap& query) const {
  std::vector<double> out(size());
  scores(query, out);
  return out;
}

void EngineSnapshot::scores_of(std::size_t index, std::span<double> out,
                               std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), row_view(index), out, touched_maps);
}

std::vector<double> EngineSnapshot::scores_of(std::size_t index) const {
  std::vector<double> out(size());
  scores_of(index, out);
  return out;
}

void EngineSnapshot::scores_subset(const RowView& query,
                                   std::span<const std::size_t> subset,
                                   std::span<double> out,
                                   std::size_t* touched_maps) const {
  engine_detail::subset_scores(view(), query, subset, out, touched_maps);
}

void EngineSnapshot::touched_scores(const RowView& query,
                                    std::vector<RankedCandidate>& out) const {
  engine_detail::touched_scores(view(), query, out);
}

std::optional<RankedCandidate> EngineSnapshot::best_match(
    const RowView& query, std::size_t* touched_maps) const {
  return engine_detail::best_match(view(), query, touched_maps);
}

std::vector<RankedCandidate> EngineSnapshot::rank_all(
    const RatioMap& query) const {
  return engine_detail::rank_all(view(), engine_detail::as_query(query));
}

std::vector<RankedCandidate> EngineSnapshot::top_k(const RatioMap& query,
                                                   std::size_t k) const {
  std::vector<RankedCandidate> out;
  engine_detail::top_k_into(view(), engine_detail::as_query(query), k, out);
  return out;
}

std::size_t EngineSnapshot::comparable_count(const RatioMap& query) const {
  return engine_detail::comparable_count(view(),
                                         engine_detail::as_query(query));
}

}  // namespace crp::core
