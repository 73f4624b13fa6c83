#include "core/similarity_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "common/thread_pool.hpp"
#include "core/engine_snapshot.hpp"

namespace crp::core {

using engine_detail::kDeadPosting;
using engine_detail::Posting;
using engine_detail::PostingList;
using engine_detail::Row;

SimilarityEngine::SimilarityEngine(SimilarityKind kind) : kind_(kind) {}

SimilarityEngine::SimilarityEngine(std::span<const RatioMap> corpus,
                                   SimilarityKind kind)
    : kind_(kind) {
  const std::size_t n = corpus.size();
  std::size_t total = 0;
  for (const RatioMap& map : corpus) total += map.size();

  rows_.reserve(n);
  entries_.reserve(total);
  norms_.reserve(n);
  strongest_.reserve(n);
  // Building via add() keeps each posting list ordered by row index
  // (insertion order), matching the historical static build.
  for (const RatioMap& map : corpus) (void)add(map);
  mstats_ = MutationStats{};  // a fresh build is not "mutation" churn
}

void SimilarityEngine::write_row(std::size_t index, const RowView& source) {
  Row& r = rows_[index];
  r.begin = entries_.size();
  r.len = static_cast<std::uint32_t>(source.entries.size());
  r.live = true;
  const auto src = source.entries;
  entries_.insert(entries_.end(), src.begin(), src.end());
  norms_[index] = source.norm;
  strongest_[index] = source.strongest;
  live_entries_ += src.size();
  ++rows_version_;
  ++entries_version_;
  ++postings_version_;

  for (const auto& [id, ratio] : src) {
    const auto [it, inserted] =
        replica_slot_.try_emplace(id, static_cast<std::uint32_t>(post_.size()));
    if (inserted) post_.emplace_back();
    PostingList& list = post_[it->second];
    if (list.live == 0) ++live_replicas_;
    ++list.live;
    list.items.push_back(
        Posting{static_cast<std::uint32_t>(index), ratio});
  }
}

void SimilarityEngine::tombstone_row(std::size_t index) {
  const Row& r = rows_[index];
  for (const auto& [id, ratio] : row(index)) {
    PostingList& list = post_[replica_slot_.at(id)];
    for (Posting& p : list.items) {
      // Tombstoned postings carry kDeadPosting, so this match finds the
      // row's single live posting for the replica.
      if (p.map == static_cast<std::uint32_t>(index)) {
        p.map = kDeadPosting;
        break;
      }
    }
    if (--list.live == 0) --live_replicas_;
    ++mstats_.postings_tombstoned;
  }
  dead_entries_ += r.len;
  live_entries_ -= r.len;
  // The orphaned entry segment's bytes are untouched, so only the
  // posting index dirties here (entries_version_ stays put — that is
  // what lets remove-only churn share the entry array across freezes).
  ++postings_version_;
}

std::size_t SimilarityEngine::add_impl(const RowView& source) {
  std::size_t index;
  if (!free_rows_.empty()) {
    index = free_rows_.back();
    free_rows_.pop_back();
  } else {
    index = rows_.size();
    rows_.emplace_back();
    norms_.push_back(0.0);
    strongest_.push_back(0.0);
  }
  write_row(index, source);
  ++live_rows_;
  ++mstats_.adds;
  return index;
}

std::size_t SimilarityEngine::add(const RatioMap& map) {
  return add_impl(RowView{map.entries(), map.norm(), map.strongest_mapping()});
}

std::size_t SimilarityEngine::add_row(const RowView& row) {
  return add_impl(row);
}

void SimilarityEngine::clear(SimilarityKind kind) {
  kind_ = kind;
  rows_.clear();
  entries_.clear();
  norms_.clear();
  strongest_.clear();
  free_rows_.clear();
  live_rows_ = 0;
  live_entries_ = 0;
  dead_entries_ = 0;
  // Keep the replica map's buckets and the posting-list vectors — the
  // whole point of clear() over a fresh engine is reusing them — but
  // empty every list.
  for (PostingList& list : post_) {
    list.items.clear();
    list.live = 0;
  }
  live_replicas_ = 0;
  mstats_ = MutationStats{};
  ++rows_version_;
  ++entries_version_;
  ++postings_version_;
}

void SimilarityEngine::update(std::size_t index, const RatioMap& map) {
  assert(index < rows_.size() && rows_[index].live);
  tombstone_row(index);
  write_row(index,
            RowView{map.entries(), map.norm(), map.strongest_mapping()});
  ++mstats_.updates;
  maybe_compact();
}

void SimilarityEngine::remove(std::size_t index) {
  assert(index < rows_.size() && rows_[index].live);
  tombstone_row(index);
  Row& r = rows_[index];
  r.live = false;
  r.len = 0;
  norms_[index] = 0.0;
  strongest_[index] = 0.0;
  free_rows_.push_back(static_cast<std::uint32_t>(index));
  --live_rows_;
  ++mstats_.removes;
  ++rows_version_;
  maybe_compact();
}

void SimilarityEngine::maybe_compact() {
  if (dead_entries_ >= kCompactMinDeadEntries &&
      dead_entries_ >= live_entries_) {
    compact();
  }
}

void SimilarityEngine::compact() {
  if (dead_entries_ == 0) return;
  // Repack live row segments in row order; dead rows keep their slot
  // (and their zero length), so no external index moves.
  std::vector<RatioMap::Entry> packed;
  packed.reserve(live_entries_);
  for (Row& r : rows_) {
    if (!r.live) continue;
    const std::size_t begin = packed.size();
    packed.insert(packed.end(), entries_.begin() + static_cast<std::ptrdiff_t>(r.begin),
                  entries_.begin() + static_cast<std::ptrdiff_t>(r.begin + r.len));
    r.begin = begin;
  }
  entries_ = std::move(packed);

  // Drop tombstoned postings, preserving the survivors' order.
  for (PostingList& list : post_) {
    std::erase_if(list.items,
                  [](const Posting& p) { return p.map == kDeadPosting; });
    list.items.shrink_to_fit();
  }
  dead_entries_ = 0;
  ++mstats_.compactions;
  ++rows_version_;
  ++entries_version_;
  ++postings_version_;
}

std::shared_ptr<const EngineSnapshot> SimilarityEngine::freeze(
    std::uint64_t epoch) {
  FreezeCache& c = freeze_cache_;
  const bool clean = c.snapshot != nullptr &&
                     c.rows_version == rows_version_ &&
                     c.entries_version == entries_version_ &&
                     c.postings_version == postings_version_;
  if (clean && c.snapshot->epoch() == epoch) return c.snapshot;

  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->kind_ = kind_;
  snap->epoch_ = epoch;
  snap->live_rows_ = live_rows_;
  snap->live_replicas_ = live_replicas_;
  // Copy exactly the components a mutation dirtied since the retained
  // snapshot was cut; share the rest. The row-metadata component bundles
  // rows_/norms_/strongest_ (they dirty together).
  if (c.snapshot != nullptr && c.rows_version == rows_version_) {
    snap->rows_ = c.snapshot->rows_;
    snap->norms_ = c.snapshot->norms_;
    snap->strongest_ = c.snapshot->strongest_;
  } else {
    snap->rows_ = std::make_shared<const std::vector<Row>>(rows_);
    snap->norms_ = std::make_shared<const std::vector<double>>(norms_);
    snap->strongest_ = std::make_shared<const std::vector<double>>(strongest_);
  }
  if (c.snapshot != nullptr && c.entries_version == entries_version_) {
    snap->entries_ = c.snapshot->entries_;
  } else {
    snap->entries_ =
        std::make_shared<const std::vector<RatioMap::Entry>>(entries_);
  }
  if (c.snapshot != nullptr && c.postings_version == postings_version_) {
    snap->replica_slot_ = c.snapshot->replica_slot_;
    snap->post_ = c.snapshot->post_;
  } else {
    snap->replica_slot_ = std::make_shared<
        const std::unordered_map<ReplicaId, std::uint32_t>>(replica_slot_);
    snap->post_ = std::make_shared<const std::vector<PostingList>>(post_);
  }
  c.snapshot = snap;
  c.rows_version = rows_version_;
  c.entries_version = entries_version_;
  c.postings_version = postings_version_;
  return snap;
}

// --- query forwarding: every public query runs the shared kernels over
// --- this engine's CorpusView (bit-identity with EngineSnapshot by
// --- construction — same code, same storage bytes).

void SimilarityEngine::scores(const RatioMap& query, std::span<double> out,
                              std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), engine_detail::as_query(query), out,
                              touched_maps);
}

std::vector<double> SimilarityEngine::scores(const RatioMap& query) const {
  std::vector<double> out(size());
  scores(query, out);
  return out;
}

void SimilarityEngine::scores_of(std::size_t index, std::span<double> out,
                                 std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), row_view(index), out, touched_maps);
}

std::vector<double> SimilarityEngine::scores_of(std::size_t index) const {
  std::vector<double> out(size());
  scores_of(index, out);
  return out;
}

void SimilarityEngine::scores(const RowView& query, std::span<double> out,
                              std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), query, out, touched_maps);
}

void SimilarityEngine::scores_subset(const RatioMap& query,
                                     std::span<const std::size_t> subset,
                                     std::span<double> out,
                                     std::size_t* touched_maps) const {
  engine_detail::subset_scores(view(), engine_detail::as_query(query), subset,
                               out, touched_maps);
}

void SimilarityEngine::scores_of_subset(std::size_t index,
                                        std::span<const std::size_t> subset,
                                        std::span<double> out,
                                        std::size_t* touched_maps) const {
  engine_detail::subset_scores(view(), row_view(index), subset, out,
                               touched_maps);
}

void SimilarityEngine::touched_scores(
    const RowView& query, std::vector<RankedCandidate>& out) const {
  engine_detail::touched_scores(view(), query, out);
}

std::optional<RankedCandidate> SimilarityEngine::best_match(
    const RowView& query, std::size_t* touched_maps) const {
  return engine_detail::best_match(view(), query, touched_maps);
}

std::vector<RankedCandidate> SimilarityEngine::rank_all(
    const RatioMap& query) const {
  return engine_detail::rank_all(view(), engine_detail::as_query(query));
}

std::vector<RankedCandidate> SimilarityEngine::top_k(const RatioMap& query,
                                                     std::size_t k) const {
  std::vector<RankedCandidate> out;
  engine_detail::top_k_into(view(), engine_detail::as_query(query), k, out);
  return out;
}

std::size_t SimilarityEngine::comparable_count(const RatioMap& query) const {
  return engine_detail::comparable_count(view(),
                                         engine_detail::as_query(query));
}

FlatMatrix<double> SimilarityEngine::scores_batch(
    std::span<const RatioMap> queries, ThreadPool* pool,
    std::uint64_t* maps_touched, std::size_t tile) const {
  std::vector<RowView> refs;
  refs.reserve(queries.size());
  for (const RatioMap& q : queries) refs.push_back(engine_detail::as_query(q));
  FlatMatrix<double> out(queries.size(), size());  // zero-initialised
  engine_detail::scores_batch(view(), refs, out, pool, maps_touched, tile);
  return out;
}

void SimilarityEngine::scores_of_batch(std::span<const std::size_t> rows,
                                       FlatMatrix<double>& out,
                                       ThreadPool* pool,
                                       std::uint64_t* maps_touched,
                                       std::size_t tile) const {
  std::vector<RowView> refs;
  refs.reserve(rows.size());
  for (const std::size_t index : rows) refs.push_back(row_view(index));
  out.assign(rows.size(), size(), 0.0);
  engine_detail::scores_batch(view(), refs, out, pool, maps_touched, tile);
}

std::vector<std::vector<RankedCandidate>> SimilarityEngine::topk_batch(
    std::span<const RatioMap> queries, std::size_t k, ThreadPool* pool,
    std::uint64_t* maps_touched, std::size_t tile) const {
  std::vector<RowView> refs;
  refs.reserve(queries.size());
  for (const RatioMap& q : queries) refs.push_back(engine_detail::as_query(q));
  return engine_detail::topk_batch(view(), refs, k, pool, maps_touched, tile);
}

std::vector<std::vector<RankedCandidate>> SimilarityEngine::all_top_k(
    std::size_t k, ThreadPool* pool) const {
  std::vector<std::vector<RankedCandidate>> out(size());
  const engine_detail::CorpusView v = view();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, size(), [this, v, k, &out](std::size_t i) {
    engine_detail::top_k_into(v, row_view(i), k, out[i]);
  });
  return out;
}

FlatMatrix<double> SimilarityEngine::scores_many(
    std::span<const RatioMap> queries, ThreadPool* pool) const {
  FlatMatrix<double> out(queries.size(), size());
  const engine_detail::CorpusView v = view();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, queries.size(), [v, queries, &out](std::size_t i) {
    engine_detail::dense_scores(v, engine_detail::as_query(queries[i]),
                                out.row(i), nullptr);
  });
  return out;
}

FlatMatrix<double> SimilarityEngine::pairwise_similarities(
    ThreadPool* pool) const {
  FlatMatrix<double> out(size(), size());
  const engine_detail::CorpusView v = view();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, size(), [this, v, &out](std::size_t i) {
    engine_detail::dense_scores(v, row_view(i), out.row(i), nullptr);
  });
  return out;
}

}  // namespace crp::core
