#include "service/serving_snapshot.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace crp::service {

using serving_detail::materialize;

std::size_t ServingSnapshot::find(const std::string& node_id) const {
  const std::vector<std::uint32_t>& index = *by_id_;
  const std::vector<SlotRec>& slots = *slots_;
  const auto it = std::lower_bound(
      index.begin(), index.end(), node_id,
      [&slots](std::uint32_t slot, const std::string& id) {
        return slots[slot].id < id;
      });
  if (it == index.end() || slots[*it].id != node_id) return npos;
  return *it;
}

std::vector<std::string> ServingSnapshot::live_nodes(SimTime now) const {
  // by_id_ is sorted lexicographically, so the output comes out in the
  // contract's order with no sort — identical to the mutable path's
  // walk-then-sort.
  std::vector<std::string> nodes;
  nodes.reserve(by_id_->size());
  for (const std::uint32_t slot : *by_id_) {
    if (live_at(slot, now)) nodes.push_back((*slots_)[slot].id);
  }
  return nodes;
}

std::vector<RankedNode> ServingSnapshot::closest(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t client_slot = find(client);
  if (client_slot == npos || !live_at(client_slot, now)) return {};
  const std::vector<Vetted> vetted =
      vet_candidates(candidates, /*stale_band=*/false, now);
  return materialize<RankedNode>(
      rank_candidates(engine_->row_view(client_slot), client_slot, vetted,
                      serving_detail::slots_of(vetted), k));
}

std::vector<RankedNode> ServingSnapshot::closest_any(
    const std::string& client, std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t client_slot = find(client);
  if (client_slot == npos || !live_at(client_slot, now)) return {};
  return materialize<RankedNode>(
      partial_closest_any(engine_->row_view(client_slot), client_slot,
                          /*stale_band=*/false, k, now));
}

TieredAnswer ServingSnapshot::closest_any_tiered(const std::string& client,
                                                 std::size_t k,
                                                 SimTime now) const {
  return closest_tiered_impl(client, {}, /*any=*/true, k, now);
}

TieredAnswer ServingSnapshot::closest_tiered(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return closest_tiered_impl(client, candidates, /*any=*/false, k, now);
}

TieredAnswer ServingSnapshot::closest_tiered_impl(
    const std::string& client, std::span<const std::string> candidates,
    bool any, std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  TieredAnswer out;
  const std::size_t client_slot = find(client);
  if (client_slot == npos) {
    out.reason = DegradedReason::kUnknownClient;
    counters_->refused_queries.add();
    return out;
  }
  const bool fresh = live_at(client_slot, now);
  if (!fresh && !stale_usable_at(client_slot, now)) {
    out.reason = DegradedReason::kClientExpired;
    counters_->refused_queries.add();
    return out;
  }

  const core::RowView row = engine_->row_view(client_slot);
  if (any) {
    out.ranked = materialize<RankedNode>(
        partial_closest_any(row, client_slot, !fresh, k, now));
  } else {
    const std::vector<Vetted> vetted = vet_candidates(candidates, !fresh, now);
    out.ranked = materialize<RankedNode>(rank_candidates(
        row, client_slot, vetted, serving_detail::slots_of(vetted), k));
  }
  if (out.ranked.empty()) {
    out.tier = AnswerTier::kRefused;
    out.reason = DegradedReason::kNoUsableCandidates;
    counters_->refused_queries.add();
    return out;
  }
  out.tier = fresh ? AnswerTier::kFresh : AnswerTier::kStale;
  out.reason = fresh ? DegradedReason::kNone : DegradedReason::kStaleClient;
  (fresh ? counters_->fresh_answers : counters_->stale_answers).add();
  return out;
}

std::vector<RankedNode> ServingSnapshot::top_k(const core::RatioMap& query,
                                               std::size_t k,
                                               SimTime now) const {
  counters_->queries_served.add();
  return materialize<RankedNode>(
      partial_closest_any(query, npos, /*stale_band=*/false, k, now));
}

std::optional<ServingSnapshot::Resident> ServingSnapshot::resident(
    const std::string& node_id, SimTime now) const {
  const std::size_t slot = find(node_id);
  if (slot == npos) return std::nullopt;
  Resident r;
  r.slot = slot;
  r.row = engine_->row_view(slot);
  r.live = live_at(slot, now);
  r.stale_usable = stale_usable_at(slot, now);
  return r;
}

std::vector<ServingSnapshot::Vetted> ServingSnapshot::vet_candidates(
    std::span<const std::string> candidates, bool stale_band,
    SimTime now) const {
  std::vector<Vetted> vetted;
  vetted.reserve(candidates.size());
  for (const std::string& candidate : candidates) {
    const std::size_t slot = find(candidate);
    if (slot == npos || !usable_at(slot, stale_band, now)) continue;
    vetted.push_back(Vetted{&candidate, slot});
  }
  return vetted;
}

std::vector<ServingSnapshot::ScoredRef> ServingSnapshot::partial_closest_any(
    const core::RowView& client, std::size_t exclude_slot, bool stale_band,
    std::size_t k, SimTime now) const {
  auto& touched = serving_detail::touched_buffer();
  engine_->touched_scores(client, touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched.size());
  return serving_detail::rank_touched(
      touched, *slots_, by_id_.get(), exclude_slot, k,
      [&](std::size_t slot) { return usable_at(slot, stale_band, now); });
}

std::vector<ServingSnapshot::ScoredRef> ServingSnapshot::partial_closest(
    const core::RowView& client, std::size_t exclude_slot,
    std::span<const Vetted> candidates, std::size_t k) const {
  if (candidates.empty()) return {};
  return rank_candidates(client, exclude_slot, candidates,
                         serving_detail::slots_of(candidates), k);
}

std::vector<std::vector<ServingSnapshot::ScoredRef>>
ServingSnapshot::partial_closest_batch(std::span<const ExternalClient> clients,
                                       std::size_t self_shard, std::size_t k,
                                       SimTime now) const {
  // Partial reads never widen to the stale band: the batch path, like
  // the unsharded one, serves fresh clients only.
  std::vector<std::vector<ScoredRef>> out(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t exclude =
        clients[i].owner == self_shard ? clients[i].slot : npos;
    out[i] = partial_closest_any(clients[i].row, exclude,
                                 /*stale_band=*/false, k, now);
  }
  return out;
}

std::vector<std::vector<ServingSnapshot::ScoredRef>>
ServingSnapshot::partial_closest_batch(std::span<const ExternalClient> clients,
                                       std::size_t self_shard,
                                       std::span<const Vetted> candidates,
                                       std::size_t k) const {
  std::vector<std::vector<ScoredRef>> out(clients.size());
  if (candidates.empty()) return out;
  const std::vector<std::size_t> slots = serving_detail::slots_of(candidates);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t exclude =
        clients[i].owner == self_shard ? clients[i].slot : npos;
    out[i] = rank_candidates(clients[i].row, exclude, candidates, slots, k);
  }
  return out;
}

void ServingSnapshot::check_invariants() const {
  const std::vector<SlotRec>& slots = *slots_;
  const auto fail = [](const std::string& what) {
    throw std::logic_error("ServingSnapshot invariant: " + what);
  };
  if (slots.size() != engine_->size()) {
    fail("slot table has " + std::to_string(slots.size()) +
         " slots, engine has " + std::to_string(engine_->size()) + " rows");
  }
  std::vector<char> listed(slots.size(), 0);
  for (std::size_t i = 0; i < by_id_->size(); ++i) {
    const std::uint32_t slot = (*by_id_)[i];
    if (slot >= slots.size() || slots[slot].id.empty()) {
      fail("by_id lists empty slot " + std::to_string(slot));
    }
    if (listed[slot] != 0) fail("by_id lists slot twice: " + slots[slot].id);
    listed[slot] = 1;
    if (i > 0 && !(slots[(*by_id_)[i - 1]].id < slots[slot].id)) {
      fail("by_id not strictly increasing at " + slots[slot].id);
    }
  }
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    const bool occupied = !slots[slot].id.empty();
    if (occupied && listed[slot] == 0) {
      fail("by_id misses slot of " + slots[slot].id);
    }
    if (occupied != engine_->alive(slot)) {
      fail("slot " + std::to_string(slot) +
           (occupied ? " has an id but a dead engine row"
                     : " has no id but a live engine row"));
    }
  }
}

void ServingSnapshot::count_outcome(AnswerTier tier) const {
  switch (tier) {
    case AnswerTier::kFresh:
      counters_->fresh_answers.add();
      break;
    case AnswerTier::kStale:
      counters_->stale_answers.add();
      break;
    case AnswerTier::kRefused:
      counters_->refused_queries.add();
      break;
  }
}

std::vector<ServingSnapshot::ScoredRef> ServingSnapshot::rank_candidates(
    const core::RowView& client, std::size_t exclude_slot,
    std::span<const Vetted> candidates, std::span<const std::size_t> slots,
    std::size_t k) const {
  std::vector<double> scores(slots.size());
  std::size_t touched = 0;
  engine_->scores_subset(client, slots, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  return serving_detail::rank_vetted(candidates, scores, exclude_slot, k);
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  counters_->queries_served.add(clients.size());
  std::vector<std::vector<RankedNode>> out(clients.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, clients.size(), [&](std::size_t i) {
    const std::size_t slot = find(clients[i]);
    if (slot == npos || !live_at(slot, now)) return;
    out[i] = materialize<RankedNode>(partial_closest_any(
        engine_->row_view(slot), slot, /*stale_band=*/false, k, now));
  });
  return out;
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  counters_->queries_served.add(clients.size());
  std::vector<std::vector<RankedNode>> out(clients.size());
  // The candidate list is vetted once for the whole batch; each client
  // then skips only itself, by slot.
  const std::vector<Vetted> vetted =
      vet_candidates(candidates, /*stale_band=*/false, now);
  const std::vector<std::size_t> slots = serving_detail::slots_of(vetted);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, clients.size(), [&](std::size_t i) {
    const std::size_t slot = find(clients[i]);
    if (slot == npos || !live_at(slot, now)) return;
    out[i] = materialize<RankedNode>(
        rank_candidates(engine_->row_view(slot), slot, vetted, slots, k));
  });
  return out;
}

std::vector<std::string> ServingSnapshot::same_cluster(
    const std::string& node_id, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t slot = find(node_id);
  if (slot == npos || !live_at(slot, now)) return {};
  if (clustering_ == nullptr) return {};
  const auto& cluster =
      clustering_->clusters[clustering_->assignment[slot]];
  std::vector<std::string> out;
  for (std::size_t member : cluster.members) {
    if (member == slot) continue;
    const SlotRec& rec = (*slots_)[member];
    if (rec.id.empty() || !live_at(member, now)) continue;
    out.push_back(rec.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<std::string, std::size_t>
ServingSnapshot::cluster_assignment(SimTime now) const {
  counters_->queries_served.add();
  std::unordered_map<std::string, std::size_t> out;
  if (clustering_ == nullptr) return out;
  for (std::size_t slot = 0; slot < slots_->size(); ++slot) {
    const SlotRec& rec = (*slots_)[slot];
    if (rec.id.empty() || !live_at(slot, now)) continue;
    out[rec.id] = clustering_->assignment[slot];
  }
  return out;
}

std::vector<std::string> ServingSnapshot::diverse_set(
    std::size_t n, SimTime now, std::uint64_t seed) const {
  counters_->queries_served.add();
  if (clustering_ == nullptr) return {};

  struct Candidate {
    std::string id;
    std::size_t live_members = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(clustering_->clusters.size());
  for (const auto& cluster : clustering_->clusters) {
    Candidate c;
    bool center_live = false;
    std::string smallest;
    for (std::size_t member : cluster.members) {
      const SlotRec& rec = (*slots_)[member];
      if (rec.id.empty() || !live_at(member, now)) continue;
      ++c.live_members;
      if (member == cluster.center) center_live = true;
      if (smallest.empty() || rec.id < smallest) smallest = rec.id;
    }
    if (c.live_members == 0) continue;
    c.id = center_live ? (*slots_)[cluster.center].id : smallest;
    candidates.push_back(std::move(c));
  }

  std::vector<std::size_t> cluster_order(candidates.size());
  for (std::size_t i = 0; i < cluster_order.size(); ++i) {
    cluster_order[i] = i;
  }
  Rng rng{hash_combine({seed, stable_hash("diverse-set")})};
  rng.shuffle(cluster_order);
  std::stable_sort(cluster_order.begin(), cluster_order.end(),
                   [&candidates](std::size_t a, std::size_t b) {
                     return candidates[a].live_members >
                            candidates[b].live_members;
                   });

  std::vector<std::string> out;
  for (std::size_t ci : cluster_order) {
    if (out.size() == n) break;
    out.push_back(candidates[ci].id);
  }
  return out;
}

}  // namespace crp::service
