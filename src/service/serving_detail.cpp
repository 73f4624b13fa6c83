#include "service/serving_detail.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/top_k.hpp"
#include "core/clustering.hpp"
#include "service/position_service.hpp"

namespace crp::service::serving_detail {
namespace {

constexpr std::size_t npos = TableView::npos;

/// Heap entry: a borrowed node id plus its score. Every ranker and every
/// partial holds these; only `materialize` copies ids, once per answer.
struct ScoredRef {
  const std::string* id = nullptr;
  double sim = 0.0;
};

/// The (similarity desc, node_id asc) total order every read ranks by.
/// Total ⇒ the bounded heap's output equals the stable-sort-then-truncate
/// baseline (duplicate candidates compare equal both ways and are
/// interchangeable copies), whatever order rows and shards are offered
/// in.
bool better_ref(const ScoredRef& a, const ScoredRef& b) {
  if (a.sim != b.sim) return a.sim > b.sim;
  return *a.id < *b.id;
}

using RefHeap = BoundedTopK<ScoredRef, decltype(&better_ref)>;

/// A candidate list vetted against one shard: the candidates resident
/// and usable there, in caller order, as borrowed ids plus the slots the
/// subset read scores. The client is not removed here; the owning shard
/// skips it by slot at rank time.
struct Vetted {
  std::vector<const std::string*> ids;
  std::vector<std::size_t> slots;
};

/// The client of a scattered read: its row, plus where it lives. Slot
/// numbers are per shard, so only the owning shard excludes the slot; an
/// external query (top_k) excludes nothing.
struct Client {
  core::RowView row;
  std::size_t owner = 0;
  std::size_t slot = npos;
};

std::vector<RankedNode> materialize(std::span<const ScoredRef> kept) {
  std::vector<RankedNode> ranked;
  ranked.reserve(kept.size());
  for (const ScoredRef& r : kept) ranked.push_back(RankedNode{*r.id, r.sim});
  return ranked;
}

/// Ranks an any-shaped read — every usable node except slot `exclude` —
/// with the kernel's selection over the touched rows. A row sharing no
/// replica with the query scores exactly 0 and no score is negative, so
/// the usable rows scoring > 0 rank ahead of every other usable row; the
/// selection keeps the k best of those by (score, id), reading a slot's
/// age and id only for a row that passes its bar. A result shorter than
/// k holds every positive usable row, so the rest of the answer is the
/// zero-score usable rows in id order, walked from `by_id` past the kept
/// slots up to the k-th. That is the dense ranking over every usable
/// row, bit for bit. `*touched` gets the touched-map count.
std::vector<ScoredRef> rank_any(const TableView& t, const core::RowView& row,
                                std::size_t exclude, bool stale_band,
                                std::size_t k, SimTime now,
                                std::size_t* touched) {
  const auto ranked = [&](std::uint32_t slot) {
    return slot != exclude && t.usable(slot, stale_band, now);
  };
  const auto by_id = [&t](std::uint32_t a, std::uint32_t b) {
    return t.ids[a] < t.ids[b];
  };
  const auto kept = core::engine_detail::select_touched(t.corpus, row, k,
                                                        ranked, by_id, touched);
  std::vector<ScoredRef> refs;
  refs.reserve(kept.size());
  for (const core::RankedCandidate& c : kept) {
    refs.push_back(ScoredRef{&t.ids[c.index], c.similarity});
  }
  if (refs.size() == k) return refs;
  std::vector<std::size_t> taken;
  for (const core::RankedCandidate& c : kept) taken.push_back(c.index);
  std::sort(taken.begin(), taken.end());
  for (const std::uint32_t slot : t.by_id) {
    if (refs.size() == k) break;
    if (!ranked(slot) ||
        std::binary_search(taken.begin(), taken.end(), slot)) {
      continue;
    }
    refs.push_back(ScoredRef{&t.ids[slot], 0.0});
  }
  return refs;
}

/// Ranks a vetted list from its subset scores (`scores[i]` belongs to
/// candidate i), skipping slot `exclude`. The refs borrow the vetted ids.
std::vector<ScoredRef> rank_vetted(const Vetted& vetted,
                                   std::span<const double> scores,
                                   std::size_t exclude, std::size_t k) {
  RefHeap heap(k, &better_ref);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (vetted.slots[i] != exclude) {
      heap.offer(ScoredRef{vetted.ids[i], scores[i]});
    }
  }
  return heap.take_sorted();
}

Vetted vet(const TableView& t, std::span<const std::string> candidates,
           bool stale_band, SimTime now) {
  Vetted vetted;
  vetted.ids.reserve(candidates.size());
  vetted.slots.reserve(candidates.size());
  for (const std::string& candidate : candidates) {
    const std::size_t slot = t.find(candidate);
    if (slot == npos || !t.usable(slot, stale_band, now)) continue;
    vetted.ids.push_back(&candidate);
    vetted.slots.push_back(slot);
  }
  return vetted;
}

/// Shard `s`'s partial answer: its own k best for `client`, over every
/// node (`vetted` null) or over its vetted candidates, as refs into its
/// slot table or the caller's candidates. An empty vetted list reads
/// nothing and counts nothing.
std::vector<ScoredRef> partial(const TableView& t, std::size_t s,
                               const Client& client, bool stale_band,
                               const Vetted* vetted, std::size_t k,
                               SimTime now) {
  const std::size_t exclude = s == client.owner ? client.slot : npos;
  std::size_t touched = 0;
  std::vector<ScoredRef> refs;
  if (vetted == nullptr) {
    refs = rank_any(t, client.row, exclude, stale_band, k, now, &touched);
  } else {
    if (vetted->slots.empty()) return {};
    std::vector<double> scores(vetted->slots.size());
    core::engine_detail::subset_scores(t.corpus, client.row, vetted->slots,
                                       scores, &touched);
    refs = rank_vetted(*vetted, scores, exclude, k);
  }
  t.counters->similarity_queries.add();
  t.counters->maps_touched.add(touched);
  return refs;
}

/// Merges the shards' partials into the global top k and builds its ids
/// once. Exact under the total order: a node in the global top k beats
/// all but fewer than k others, so fewer than k within its own shard,
/// which puts it in its shard's partial. One partial is the answer.
std::vector<RankedNode> merge(std::span<const std::vector<ScoredRef>> partials,
                              std::size_t k) {
  if (partials.size() == 1) return materialize(partials[0]);
  RefHeap heap(k, &better_ref);
  for (const std::vector<ScoredRef>& refs : partials) {
    for (const ScoredRef& ref : refs) heap.offer(ref);
  }
  return materialize(heap.take_sorted());
}

/// The scatter core of a single read: ranks `client` on every shard not
/// kSkip (`bands` empty: all kLive), vetting `candidates` per shard, and
/// merges. Shards run on `pool` (nullptr: shared), one shard inline.
std::vector<RankedNode> scatter(Tables tables, const Client& client,
                                Candidates candidates,
                                std::span<const Band> bands, std::size_t k,
                                SimTime now, ThreadPool* pool) {
  std::vector<std::vector<ScoredRef>> partials(tables.size());
  const auto run = [&](std::size_t s) {
    const Band band = bands.empty() ? Band::kLive : bands[s];
    if (band == Band::kSkip) return;
    const bool stale_band = band == Band::kStale;
    if (!candidates) {
      partials[s] = partial(tables[s], s, client, stale_band, nullptr, k, now);
      return;
    }
    const Vetted vetted = vet(tables[s], *candidates, stale_band, now);
    partials[s] = partial(tables[s], s, client, stale_band, &vetted, k, now);
  };
  if (tables.size() == 1) {
    run(0);
  } else {
    (pool != nullptr ? *pool : ThreadPool::shared())
        .parallel_for(0, tables.size(), run);
  }
  return merge(partials, k);
}

}  // namespace

std::size_t TableView::find(const std::string& id) const {
  const auto it = std::lower_bound(
      by_id.begin(), by_id.end(), id,
      [this](std::uint32_t slot, const std::string& key) {
        return ids[slot] < key;
      });
  if (it == by_id.end() || ids[*it] != id) return npos;
  return *it;
}

std::size_t TableView::live_slot(const std::string& id, SimTime now) const {
  const std::size_t slot = find(id);
  return slot != npos && live(slot, now) ? slot : npos;
}

std::size_t shard_index(std::string_view id, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(stable_hash(id) % shards);
}

std::vector<RankedNode> closest(Tables tables, const std::string& client,
                                Candidates candidates, std::size_t k,
                                SimTime now, ThreadPool* pool) {
  const std::size_t owner = shard_index(client, tables.size());
  const TableView& home = tables[owner];
  home.counters->queries_served.add();
  const std::size_t slot = home.live_slot(client, now);
  if (slot == npos) return {};
  return scatter(tables, {home.corpus.row_view(slot), owner, slot},
                 candidates, {}, k, now, pool);
}

TieredAnswer closest_tiered(Tables tables, const std::string& client,
                            Candidates candidates,
                            std::span<const Band> health, std::size_t k,
                            SimTime now, ThreadPool* pool) {
  const std::size_t owner = shard_index(client, tables.size());
  const TableView& home = tables[owner];
  home.counters->queries_served.add();
  TieredAnswer out;
  // A refusal is typed, never an empty vector indistinguishable from
  // "client gone".
  const auto refuse = [&](DegradedReason reason) {
    out.reason = reason;
    home.counters->refused_queries.add();
    return out;
  };
  const auto band = [&](std::size_t s) {
    return health.empty() ? Band::kLive : health[s];
  };
  // Nothing left knows the client: its shard is down and the fallback
  // aged out ("retry after recovery", not "node gone").
  if (band(owner) == Band::kSkip) {
    return refuse(DegradedReason::kShardUnavailable);
  }
  const std::size_t slot = home.find(client);
  if (slot == npos) return refuse(DegradedReason::kUnknownClient);
  const bool fresh = home.live(slot, now);
  if (!fresh && !home.stale_usable(slot, now)) {
    return refuse(DegradedReason::kClientExpired);
  }
  // The fresh tier ranks what the plain queries rank. A stale client
  // widens every answering shard to the stale band: a degraded client
  // deserves whatever usable information the corpus still holds.
  const bool stale_shard =
      std::find(health.begin(), health.end(), Band::kStale) != health.end();
  std::vector<Band> widened;
  if (!fresh) {
    for (std::size_t s = 0; s < tables.size(); ++s) {
      widened.push_back(band(s) == Band::kSkip ? Band::kSkip : Band::kStale);
    }
  }
  out.ranked = scatter(tables, {home.corpus.row_view(slot), owner, slot},
                       candidates, fresh ? health : widened, k, now, pool);
  if (out.ranked.empty()) return refuse(DegradedReason::kNoUsableCandidates);
  out.tier = fresh && !stale_shard ? AnswerTier::kFresh : AnswerTier::kStale;
  out.reason = !fresh       ? DegradedReason::kStaleClient
               : stale_shard ? DegradedReason::kStaleShard
                             : DegradedReason::kNone;
  (out.tier == AnswerTier::kFresh ? home.counters->fresh_answers
                                  : home.counters->stale_answers)
      .add();
  return out;
}

std::vector<RankedNode> top_k(Tables tables, const core::RowView& query,
                              std::size_t k, SimTime now, ThreadPool* pool) {
  // No owning shard and no slot to exclude; the query counts on shard 0.
  tables[0].counters->queries_served.add();
  return scatter(tables, {query, 0, npos}, std::nullopt, {}, k, now, pool);
}

std::vector<std::vector<RankedNode>> closest_batch(
    Tables tables, std::span<const std::string> clients,
    Candidates candidates, std::size_t k, SimTime now, ThreadPool* pool) {
  const std::size_t n = tables.size();
  std::vector<std::uint64_t> served(n, 0);
  for (const std::string& client : clients) ++served[shard_index(client, n)];
  for (std::size_t s = 0; s < n; ++s) {
    if (served[s] != 0) tables[s].counters->queries_served.add(served[s]);
  }
  // Batches serve fresh clients against live nodes. The candidate list
  // is vetted once per shard for the whole batch.
  std::vector<Vetted> vetted;
  if (candidates) {
    for (const TableView& t : tables) {
      vetted.push_back(vet(t, *candidates, /*stale_band=*/false, now));
    }
  }
  // One task per client: it scatters over the shards inline and merges
  // at once, so a one-shard batch keeps its parallelism over clients.
  std::vector<std::vector<RankedNode>> out(clients.size());
  (pool != nullptr ? *pool : ThreadPool::shared())
      .parallel_for(0, clients.size(), [&](std::size_t i) {
        const std::size_t owner = shard_index(clients[i], n);
        const std::size_t slot = tables[owner].live_slot(clients[i], now);
        if (slot == npos) return;
        const Client client{tables[owner].corpus.row_view(slot), owner, slot};
        std::vector<std::vector<ScoredRef>> partials(n);
        for (std::size_t s = 0; s < n; ++s) {
          partials[s] = partial(tables[s], s, client, /*stale_band=*/false,
                                candidates ? &vetted[s] : nullptr, k, now);
        }
        out[i] = merge(partials, k);
      });
  return out;
}

std::vector<std::string> live_nodes(Tables tables, SimTime now) {
  // Each index is sorted and the partitions are disjoint, so pairwise
  // merges keep the union sorted.
  std::vector<std::string> merged;
  for (const TableView& t : tables) {
    std::vector<std::string> part;
    part.reserve(t.by_id.size());
    for (const std::uint32_t slot : t.by_id) {
      if (t.live(slot, now)) part.push_back(t.ids[slot]);
    }
    if (merged.empty()) {
      merged = std::move(part);
      continue;
    }
    std::vector<std::string> next;
    next.reserve(merged.size() + part.size());
    std::merge(std::make_move_iterator(merged.begin()),
               std::make_move_iterator(merged.end()),
               std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()),
               std::back_inserter(next));
    merged = std::move(next);
  }
  return merged;
}

std::vector<std::string> same_cluster(const TableView& t,
                                      const std::string& id, SimTime now) {
  t.counters->queries_served.add();
  const std::size_t slot = t.live_slot(id, now);
  if (slot == npos || t.clustering == nullptr) return {};
  std::vector<std::string> out;
  const auto& cluster = t.clustering->clusters[t.clustering->assignment[slot]];
  for (const std::size_t member : cluster.members) {
    // Tombstoned slots and members gone stale since the clustering was
    // computed are filtered here, at answer time.
    if (member == slot || t.ids[member].empty() || !t.live(member, now)) {
      continue;
    }
    out.push_back(t.ids[member]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<std::string, std::size_t> cluster_assignment(
    const TableView& t, SimTime now) {
  t.counters->queries_served.add();
  std::unordered_map<std::string, std::size_t> out;
  if (t.clustering == nullptr) return out;
  for (std::size_t slot = 0; slot < t.ids.size(); ++slot) {
    if (t.ids[slot].empty() || !t.live(slot, now)) continue;
    out[t.ids[slot]] = t.clustering->assignment[slot];
  }
  return out;
}

std::vector<std::string> diverse_set(const TableView& t, std::size_t n,
                                     SimTime now, std::uint64_t seed) {
  t.counters->queries_served.add();
  if (t.clustering == nullptr) return {};
  // One live representative per cluster, preferring clusters with more
  // live members (their centers are corroborated positions), in random
  // order. Clusters with no live member contribute nothing.
  struct Candidate {
    std::string id;
    std::size_t live_members = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(t.clustering->clusters.size());
  for (const auto& cluster : t.clustering->clusters) {
    Candidate c;
    bool center_live = false;
    std::string smallest;
    for (const std::size_t member : cluster.members) {
      const std::string& id = t.ids[member];
      if (id.empty() || !t.live(member, now)) continue;
      ++c.live_members;
      if (member == cluster.center) center_live = true;
      if (smallest.empty() || id < smallest) smallest = id;
    }
    if (c.live_members == 0) continue;
    // Prefer the center; if it went stale, the lexicographically
    // smallest live member stands in for it.
    c.id = center_live ? t.ids[cluster.center] : smallest;
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
  for (const std::size_t ci : cluster_order) {
    if (out.size() == n) break;
    out.push_back(candidates[ci].id);
  }
  return out;
}

void check_tables(const TableView& t, const std::string& owner) {
  const auto fail = [&owner](const std::string& what) {
    throw std::logic_error(owner + " invariant: " + what);
  };
  if (t.ids.size() != t.corpus.size() || t.stamps.size() != t.ids.size()) {
    fail("id and stamp tables have " + std::to_string(t.ids.size()) +
         " and " + std::to_string(t.stamps.size()) + " slots, engine has " +
         std::to_string(t.corpus.size()) + " rows");
  }
  std::vector<char> listed(t.ids.size(), 0);
  for (std::size_t i = 0; i < t.by_id.size(); ++i) {
    const std::uint32_t slot = t.by_id[i];
    if (slot >= t.ids.size() || t.ids[slot].empty()) {
      fail("by_id lists empty slot " + std::to_string(slot));
    }
    if (listed[slot] != 0) fail("by_id lists slot twice: " + t.ids[slot]);
    listed[slot] = 1;
    if (i > 0 && !(t.ids[t.by_id[i - 1]] < t.ids[slot])) {
      fail("by_id not strictly increasing at " + t.ids[slot]);
    }
  }
  for (std::size_t slot = 0; slot < t.ids.size(); ++slot) {
    const bool occupied = !t.ids[slot].empty();
    if (occupied && listed[slot] == 0) {
      fail("by_id misses slot of " + t.ids[slot]);
    }
    if (occupied != t.corpus.rows[slot].live) {
      fail("slot " + std::to_string(slot) +
           (occupied ? " has an id but a dead engine row"
                     : " has no id but a live engine row"));
    }
  }
}

}  // namespace crp::service::serving_detail
