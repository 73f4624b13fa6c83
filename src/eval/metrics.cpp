#include "eval/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/similarity_engine.hpp"

namespace crp::eval {

std::vector<SelectionOutcome> evaluate_crp_selection(
    const GroundTruthMatrix& gt, std::span<const core::RatioMap> client_maps,
    std::span<const core::RatioMap> candidate_maps, std::size_t top_k,
    core::SimilarityKind kind) {
  if (client_maps.size() != gt.num_clients() ||
      candidate_maps.size() != gt.num_candidates()) {
    throw std::invalid_argument{"evaluate_crp_selection: size mismatch"};
  }
  if (top_k == 0) top_k = 1;

  // One engine over the candidate corpus serves every client's query.
  // Rankings are bit-identical to per-client `select_top_k`, and outcomes
  // are per-client slots, so the result stays thread-count independent.
  const core::SimilarityEngine engine{candidate_maps, kind};
  std::vector<SelectionOutcome> outcomes(client_maps.size());
  ThreadPool::shared().parallel_for(
      0, client_maps.size(), [&](std::size_t c) {
        const auto ranked = engine.top_k(client_maps[c], top_k);
        SelectionOutcome outcome;
        outcome.client = c;
        outcome.selected = ranked.empty() ? 0 : ranked.front().index;
        outcome.comparable =
            !ranked.empty() && ranked.front().similarity > 0.0;

        double rtt_sum = 0.0;
        double rank_sum = 0.0;
        std::size_t counted = 0;
        for (const core::RankedCandidate& rc : ranked) {
          rtt_sum += gt.rtt_ms(c, rc.index);
          rank_sum += static_cast<double>(gt.rank_of(c, rc.index));
          ++counted;
        }
        if (counted > 0) {
          outcome.rtt_ms = rtt_sum / static_cast<double>(counted);
          outcome.rank = rank_sum / static_cast<double>(counted);
          outcome.relative_error_ms = outcome.rtt_ms - gt.optimal_rtt_ms(c);
        }
        outcomes[c] = outcome;
      });
  return outcomes;
}

std::vector<SelectionOutcome> evaluate_fixed_selection(
    const GroundTruthMatrix& gt, std::span<const std::size_t> selected) {
  if (selected.size() != gt.num_clients()) {
    throw std::invalid_argument{"evaluate_fixed_selection: size mismatch"};
  }
  std::vector<SelectionOutcome> outcomes;
  outcomes.reserve(selected.size());
  for (std::size_t c = 0; c < selected.size(); ++c) {
    SelectionOutcome outcome;
    outcome.client = c;
    outcome.selected = selected[c];
    outcome.rtt_ms = gt.rtt_ms(c, selected[c]);
    outcome.rank = static_cast<double>(gt.rank_of(c, selected[c]));
    outcome.relative_error_ms = outcome.rtt_ms - gt.optimal_rtt_ms(c);
    outcomes.push_back(outcome);
  }
  return outcomes;
}

namespace {
template <typename Getter>
std::vector<double> extract(std::span<const SelectionOutcome> outcomes,
                            bool comparable_only, Getter get) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const SelectionOutcome& o : outcomes) {
    if (comparable_only && !o.comparable) continue;
    out.push_back(get(o));
  }
  return out;
}
}  // namespace

std::vector<double> rtts_of(std::span<const SelectionOutcome> outcomes,
                            bool comparable_only) {
  return extract(outcomes, comparable_only,
                 [](const SelectionOutcome& o) { return o.rtt_ms; });
}

std::vector<double> ranks_of(std::span<const SelectionOutcome> outcomes,
                             bool comparable_only) {
  return extract(outcomes, comparable_only,
                 [](const SelectionOutcome& o) { return o.rank; });
}

std::vector<double> relative_errors_of(
    std::span<const SelectionOutcome> outcomes, bool comparable_only) {
  return extract(outcomes, comparable_only, [](const SelectionOutcome& o) {
    return o.relative_error_ms;
  });
}

double fraction_within(std::span<const double> a, std::span<const double> b,
                       double eps) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) <= eps) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

double fraction_better(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

double fraction_ratio_above(std::span<const double> a,
                            std::span<const double> b, double factor) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > factor * b[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

}  // namespace crp::eval
