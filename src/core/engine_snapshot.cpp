#include "core/engine_snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/similarity_engine.hpp"

namespace crp::core {

void EngineSnapshot::check_invariants(const SimilarityEngine* source) const {
  const std::string owner = "EngineSnapshot";
  const auto fail = [&owner](const std::string& what) {
    throw std::logic_error(owner + " invariant: " + what);
  };
  // Ownership first: the content checks below read through these.
  const engine_detail::CorpusView v = view();
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (!engine_detail::held_by<RatioMap::Entry>(*chunks_, v.rows[m].entries,
                                                 v.rows[m].len)) {
      fail("row " + std::to_string(m) + " lies outside the held chunks");
    }
  }
  for (std::size_t l = 0; l < v.lists.size(); ++l) {
    if (!engine_detail::held_by<engine_detail::Posting>(
            *segments_, v.lists[l].items, v.lists[l].size)) {
      fail("list " + std::to_string(l) + " lies outside the held segments");
    }
  }
  engine_detail::check_view(v, live_replicas_, owner);
  if (source == nullptr) return;

  // Right after the freeze: the writer's rows and lists, item for item.
  const engine_detail::CorpusView w = source->view();
  if (w.size() != v.size() || w.lists.size() != v.lists.size() ||
      w.live_rows != v.live_rows || source->kind() != kind_) {
    fail("shape differs from the source engine");
  }
  for (std::size_t m = 0; m < v.size(); ++m) {
    const auto a = v.row(m);
    const auto b = w.row(m);
    if (v.rows[m].live != w.rows[m].live ||
        !std::equal(a.begin(), a.end(), b.begin(), b.end()) ||
        v.norms[m] != w.norms[m] || v.strongest[m] != w.strongest[m]) {
      fail("row " + std::to_string(m) + " differs from the source engine");
    }
  }
  for (std::size_t l = 0; l < v.lists.size(); ++l) {
    const auto a = v.lists[l].postings();
    const auto b = w.lists[l].postings();
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const engine_detail::Posting& x,
                       const engine_detail::Posting& y) {
                      return x.map == y.map && x.entry == y.entry &&
                             x.ratio == y.ratio;
                    })) {
      fail("list " + std::to_string(l) + " differs from the source engine");
    }
  }
}

}  // namespace crp::core
