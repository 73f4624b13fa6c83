#include "core/ratio_map.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace crp::core {

namespace {

/// Sorts by replica, merges duplicates, drops non-positive and infinite
/// ratios, normalizes, and drops ratios that normalizing underflowed to 0.
std::vector<RatioMap::Entry> canonicalize(
    std::vector<RatioMap::Entry> entries) {
  std::erase_if(entries, [](const RatioMap::Entry& e) {
    return !(e.second > 0.0 && std::isfinite(e.second));
  });
  // Ratios near the largest double can sum to +inf, which would
  // normalize every ratio to 0. Such inputs are first divided by their
  // largest ratio, so they sum to at most their count; half the largest
  // double leaves room for the merge's different summation order.
  // Ordinary inputs skip this and keep exact arithmetic.
  double total = 0.0;
  double top = 0.0;
  for (const auto& [id, ratio] : entries) {
    total += ratio;
    top = std::max(top, ratio);
  }
  if (!(total <= std::numeric_limits<double>::max() / 2)) {
    for (auto& [id, ratio] : entries) ratio /= top;
  }
  std::sort(entries.begin(), entries.end(),
            [](const RatioMap::Entry& a, const RatioMap::Entry& b) {
              return a.first < b.first;
            });
  // Merge duplicates in place.
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].first == entries[i].first) {
      entries[out - 1].second += entries[i].second;
    } else {
      entries[out++] = entries[i];
    }
  }
  entries.resize(out);

  total = 0.0;
  for (const auto& [id, ratio] : entries) total += ratio;
  if (total > 0.0) {
    for (auto& [id, ratio] : entries) ratio /= total;
  }
  // A ratio that underflowed to 0 would list a replica `contains` denies.
  std::erase_if(entries,
                [](const RatioMap::Entry& e) { return e.second == 0.0; });
  return entries;
}

}  // namespace

RatioMap RatioMap::from_counts(
    std::span<const std::pair<ReplicaId, std::uint64_t>> counts) {
  std::vector<Entry> entries;
  entries.reserve(counts.size());
  for (const auto& [id, count] : counts) {
    entries.emplace_back(id, static_cast<double>(count));
  }
  RatioMap map;
  map.entries_ = canonicalize(std::move(entries));
  return map;
}

RatioMap RatioMap::from_ratios(std::span<const Entry> ratios) {
  RatioMap map;
  map.entries_ = canonicalize({ratios.begin(), ratios.end()});
  return map;
}

RatioMap RatioMap::from_canonical(std::span<const Entry> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return !(a.first < b.first);
                            }) == entries.end());
  RatioMap map;
  map.entries_.assign(entries.begin(), entries.end());
  return map;
}

double RatioMap::ratio_of(ReplicaId id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, ReplicaId target) { return e.first < target; });
  if (it == entries_.end() || it->first != id) return 0.0;
  return it->second;
}

bool RatioMap::contains(ReplicaId id) const { return ratio_of(id) > 0.0; }

double RatioMap::strongest_mapping() const {
  double best = 0.0;
  for (const auto& [id, ratio] : entries_) best = std::max(best, ratio);
  return best;
}

double RatioMap::dot(const RatioMap& other) const {
  double sum = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      sum += a->second * b->second;
      ++a;
      ++b;
    }
  }
  return sum;
}

double RatioMap::norm() const {
  double sum = 0.0;
  for (const auto& [id, ratio] : entries_) sum += ratio * ratio;
  return std::sqrt(sum);
}

std::size_t RatioMap::overlap_count(const RatioMap& other) const {
  std::size_t count = 0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

double cosine_similarity(const RatioMap& a, const RatioMap& b) {
  if (a.empty() || b.empty()) return 0.0;
  const double denominator = a.norm() * b.norm();
  if (denominator <= 0.0) return 0.0;
  // Clamp for floating-point safety: callers rely on [0, 1].
  return std::clamp(a.dot(b) / denominator, 0.0, 1.0);
}

}  // namespace crp::core
