#include "core/similarity_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine_snapshot.hpp"

namespace crp::core {

using engine_detail::ChunkList;
using engine_detail::EntryChunk;
using engine_detail::ListView;
using engine_detail::Posting;
using engine_detail::PostingSegment;
using engine_detail::ReplicaTable;
using engine_detail::Row;
using engine_detail::SegmentList;

SimilarityEngine::SimilarityEngine(SimilarityKind kind)
    : kind_(kind),
      chunks_(std::make_shared<const ChunkList>()),
      replicas_(std::make_shared<ReplicaTable>()) {}

SimilarityEngine::SimilarityEngine(std::span<const RatioMap> corpus,
                                   SimilarityKind kind)
    : SimilarityEngine(kind) {
  const std::size_t n = corpus.size();
  rows_.reserve(n);
  norms_.reserve(n);
  strongest_.reserve(n);
  // Building via add() keeps each posting list ordered by row index
  // (insertion order), matching the historical static build.
  for (const RatioMap& map : corpus) (void)add(map);
  mstats_ = MutationStats{};  // a fresh build is not "mutation" churn
}

const RatioMap::Entry* SimilarityEngine::append_entries(
    std::span<const RatioMap::Entry> src) {
  if (src.empty()) return nullptr;
  if (tail_ == nullptr || tail_fill_ + src.size() > tail_->size()) {
    // The full tail stays in chunks_ (rows point into it); snapshots
    // holding the old list keep sharing it.
    tail_ = std::make_shared<EntryChunk>(
        std::max(kArenaChunkEntries, src.size()));
    auto chunks = std::make_shared<ChunkList>(*chunks_);
    chunks->push_back(tail_);
    chunks_ = std::move(chunks);
    tail_fill_ = 0;
  }
  RatioMap::Entry* const at = tail_->data() + tail_fill_;
  std::copy(src.begin(), src.end(), at);
  tail_fill_ += src.size();
  return at;
}

std::uint32_t SimilarityEngine::list_of(ReplicaId id) {
  if (const std::uint32_t l = replicas_->find(id); l != ReplicaTable::kNoList) {
    return l;
  }
  // A snapshot may be reading this index: insert into a private copy.
  if (replicas_frozen_) {
    replicas_ = std::make_shared<ReplicaTable>(*replicas_);
    replicas_frozen_ = false;
  }
  const auto list = static_cast<std::uint32_t>(lists_.size());
  replicas_->insert(id, list);
  lists_.emplace_back();
  list_views_.emplace_back();
  return list;
}

void SimilarityEngine::mark_dirty(std::uint32_t list) {
  if (!lists_[list].dirty) {
    lists_[list].dirty = true;
    dirty_lists_.push_back(list);
  }
}

void SimilarityEngine::write_row(std::size_t index, const RowView& source) {
  const auto src = source.entries;
  Row& r = rows_[index];
  r.entries = append_entries(src);
  r.len = static_cast<std::uint32_t>(src.size());
  r.live = true;
  norms_[index] = source.norm;
  strongest_[index] = source.strongest;
  live_entries_ += src.size();
  rows_dirty_ = true;

  link_at_[index] = static_cast<std::uint32_t>(links_.size());
  for (std::uint32_t e = 0; e < src.size(); ++e) {
    const std::uint32_t l = list_of(src[e].first);
    std::vector<Posting>& items = lists_[l].items;
    if (items.empty()) ++live_replicas_;
    links_.push_back(static_cast<std::uint32_t>(items.size()));
    items.push_back(
        Posting{static_cast<std::uint32_t>(index), e, src[e].second});
    list_views_[l] =
        ListView{items.data(), static_cast<std::uint32_t>(items.size())};
    mark_dirty(l);
  }
}

void SimilarityEngine::unlink_row(std::size_t index) {
  const auto entries = row(index);
  for (std::uint32_t e = 0; e < entries.size(); ++e) {
    const std::uint32_t l = replicas_->find(entries[e].first);
    std::vector<Posting>& items = lists_[l].items;
    // Swap-remove: the list's last posting takes the freed place, and
    // its entry's back-link follows it.
    const std::uint32_t at = links_[link_at_[index] + e];
    const Posting last = items.back();
    items[at] = last;
    links_[link_at_[last.map] + last.entry] = at;
    items.pop_back();
    list_views_[l] =
        ListView{items.data(), static_cast<std::uint32_t>(items.size())};
    if (items.empty()) --live_replicas_;
    mark_dirty(l);
    ++mstats_.postings_tombstoned;
  }
  // The orphaned segment's bytes stay where they are: snapshots cut
  // before this point still read them.
  dead_entries_ += entries.size();
  live_entries_ -= entries.size();
}

std::size_t SimilarityEngine::add(const RowView& row) {
  std::size_t index;
  if (!free_rows_.empty()) {
    index = free_rows_.back();
    free_rows_.pop_back();
  } else {
    index = rows_.size();
    rows_.emplace_back();
    norms_.push_back(0.0);
    strongest_.push_back(0.0);
    link_at_.push_back(0);
  }
  write_row(index, row);
  ++live_rows_;
  ++mstats_.adds;
  return index;
}

void SimilarityEngine::clear(SimilarityKind kind) {
  kind_ = kind;
  rows_.clear();
  norms_.clear();
  strongest_.clear();
  free_rows_.clear();
  links_.clear();
  link_at_.clear();
  live_rows_ = 0;
  live_entries_ = 0;
  dead_entries_ = 0;
  // A fresh arena: the old chunks live on in any snapshot holding them.
  chunks_ = std::make_shared<const ChunkList>();
  tail_.reset();
  tail_fill_ = 0;
  // Keep the replica table and the posting-list vectors — the whole point
  // of clear() over a fresh engine is reusing them — but empty every
  // list. Every list dirties, so the next freeze releases every segment.
  for (std::uint32_t l = 0; l < lists_.size(); ++l) {
    lists_[l].items.clear();
    list_views_[l] = ListView{lists_[l].items.data(), 0};
    mark_dirty(l);
  }
  live_replicas_ = 0;
  mstats_ = MutationStats{};
  rows_dirty_ = true;
}

void SimilarityEngine::update(std::size_t index, const RowView& row) {
  assert(index < rows_.size() && rows_[index].live);
  unlink_row(index);
  write_row(index, row);
  ++mstats_.updates;
  maybe_compact();
}

void SimilarityEngine::remove(std::size_t index) {
  assert(index < rows_.size() && rows_[index].live);
  unlink_row(index);
  rows_[index] = Row{};
  norms_[index] = 0.0;
  strongest_[index] = 0.0;
  free_rows_.push_back(static_cast<std::uint32_t>(index));
  --live_rows_;
  ++mstats_.removes;
  rows_dirty_ = true;
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
  // Repack live row segments and their back-links in row order; dead
  // rows keep their slot (and their zero length), so no row index or
  // posting changes. `old` keeps the source chunks alive through the
  // copy.
  const std::shared_ptr<const ChunkList> old =
      std::exchange(chunks_, std::make_shared<const ChunkList>());
  tail_.reset();
  tail_fill_ = 0;
  std::vector<std::uint32_t> links;
  links.reserve(live_entries_);
  for (std::size_t m = 0; m < rows_.size(); ++m) {
    Row& r = rows_[m];
    if (!r.live) continue;
    r.entries = append_entries({r.entries, r.len});
    const auto from = links_.begin() + link_at_[m];
    link_at_[m] = static_cast<std::uint32_t>(links.size());
    links.insert(links.end(), from, from + r.len);
  }
  links_ = std::move(links);
  dead_entries_ = 0;
  ++mstats_.compactions;
  rows_dirty_ = true;
}

void SimilarityEngine::retire_frozen(std::uint32_t list, std::size_t size) {
  std::uint32_t& seg = lists_[list].segment;
  if (seg == kNoSegment) return;
  FrozenSegment& s = segments_[seg];
  frozen_dead_ += size;
  if (--s.lists == 0) {
    frozen_dead_ -= s.block->size();
    s.block.reset();
  }
  seg = kNoSegment;
}

void SimilarityEngine::freeze_postings(EngineSnapshot& snap) {
  auto table = std::make_shared<std::vector<ListView>>();
  if (frozen_ != nullptr) *table = *frozen_->lists_;
  table->resize(lists_.size());
  for (const std::uint32_t l : dirty_lists_) retire_frozen(l, (*table)[l].size);
  // Repack rule — compaction's, one layer down: once superseded frozen
  // postings reach the live ones (one per live entry), every list is
  // packed afresh, which releases every older segment.
  if (frozen_dead_ >= kCompactMinDeadEntries &&
      frozen_dead_ >= live_entries_) {
    ++mstats_.repacks;
    for (std::uint32_t l = 0; l < lists_.size(); ++l) {
      retire_frozen(l, (*table)[l].size);
      mark_dirty(l);
    }
  }

  std::size_t total = 0;
  for (const std::uint32_t l : dirty_lists_) total += lists_[l].items.size();
  auto block = std::make_shared<PostingSegment>();
  block->reserve(total);  // never grows past this: the views stay put
  // The new segment's record: the first free one, else a new one.
  const auto seg = static_cast<std::uint32_t>(
      std::find_if(segments_.begin(), segments_.end(),
                   [](const FrozenSegment& s) { return s.block == nullptr; }) -
      segments_.begin());
  if (seg == segments_.size()) segments_.emplace_back();
  for (const std::uint32_t l : dirty_lists_) {
    ListState& list = lists_[l];
    list.dirty = false;
    if (list.items.empty()) {
      (*table)[l] = ListView{};
      continue;
    }
    (*table)[l] = ListView{block->data() + block->size(),
                           static_cast<std::uint32_t>(list.items.size())};
    block->insert(block->end(), list.items.begin(), list.items.end());
    list.segment = seg;
    ++segments_[seg].lists;
  }
  dirty_lists_.clear();
  if (total > 0) segments_[seg].block = std::move(block);
  mstats_.postings_frozen += total;

  auto held = std::make_shared<SegmentList>();
  for (const FrozenSegment& s : segments_) {
    if (s.block != nullptr) held->push_back(s.block);
  }
  snap.lists_ = std::move(table);
  snap.segments_ = std::move(held);
}

std::shared_ptr<const EngineSnapshot> SimilarityEngine::freeze(
    std::uint64_t epoch) {
  const bool rows_clean = frozen_ != nullptr && !rows_dirty_;
  const bool lists_clean = frozen_ != nullptr && dirty_lists_.empty();
  if (rows_clean && lists_clean && frozen_->epoch() == epoch) return frozen_;

  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->kind_ = kind_;
  snap->epoch_ = epoch;
  snap->live_rows_ = live_rows_;
  snap->live_replicas_ = live_replicas_;
  if (rows_clean) {
    snap->rows_ = frozen_->rows_;
    snap->norms_ = frozen_->norms_;
    snap->strongest_ = frozen_->strongest_;
  } else {
    snap->rows_ = std::make_shared<const std::vector<Row>>(rows_);
    snap->norms_ = std::make_shared<const std::vector<double>>(norms_);
    snap->strongest_ = std::make_shared<const std::vector<double>>(strongest_);
  }
  snap->chunks_ = chunks_;
  snap->replicas_ = replicas_;
  replicas_frozen_ = true;
  if (lists_clean) {
    snap->lists_ = frozen_->lists_;
    snap->segments_ = frozen_->segments_;
  } else {
    freeze_postings(*snap);
  }
  frozen_ = snap;
  rows_dirty_ = false;
  return snap;
}

void SimilarityEngine::check_invariants() const {
  const std::string owner = "SimilarityEngine";
  const auto fail = [&owner](const std::string& what) {
    throw std::logic_error(owner + " invariant: " + what);
  };
  // Ownership first: the content checks below read through these.
  if (tail_ != nullptr &&
      (chunks_->empty() || chunks_->back() != tail_ ||
       tail_fill_ > tail_->size())) {
    fail("tail chunk is not the arena's last");
  }
  for (std::size_t m = 0; m < rows_.size(); ++m) {
    if (!engine_detail::held_by<RatioMap::Entry>(*chunks_, rows_[m].entries,
                                                 rows_[m].len)) {
      fail("row " + std::to_string(m) + " lies outside the arena");
    }
  }
  if (list_views_.size() != lists_.size()) fail("list table length is off");
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    const ListView& lv = list_views_[l];
    if (lv.items != lists_[l].items.data() ||
        lv.size != lists_[l].items.size()) {
      fail("list table entry " + std::to_string(l) + " is stale");
    }
  }

  // check_view pairs postings with live entries one to one; each
  // entry's back-link must hold its posting's position.
  engine_detail::check_view(view(), live_replicas_, owner);
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    for (std::uint32_t at = 0; at < lists_[l].items.size(); ++at) {
      const Posting& p = lists_[l].items[at];
      const std::size_t link = link_at_[p.map] + std::size_t{p.entry};
      if (link >= links_.size() || links_[link] != at) {
        fail("list " + std::to_string(l) + " back-link is stale");
      }
    }
  }
  std::size_t live_entries = 0;
  for (const Row& r : rows_) live_entries += r.len;
  if (live_entries != live_entries_) fail("live entry total is off");
  if (links_.size() != live_entries_ + dead_entries_) {
    fail("back-link total is off");
  }
  for (const std::uint32_t slot : free_rows_) {
    if (slot >= rows_.size() || rows_[slot].live) fail("free row is live");
  }

  // Frozen bookkeeping: each segment record counts the lists whose
  // current frozen copy lives in it, and the dead weight is what the
  // held segments hold beyond those copies.
  std::vector<std::uint32_t> lists_in(segments_.size(), 0);
  std::size_t dirty = 0;
  for (std::size_t l = 0; l < lists_.size(); ++l) {
    if (lists_[l].dirty) ++dirty;
    const std::uint32_t seg = lists_[l].segment;
    if (seg == kNoSegment) continue;
    if (seg >= segments_.size() || segments_[seg].block == nullptr) {
      fail("list " + std::to_string(l) + " frozen into a released segment");
    }
    ++lists_in[seg];
  }
  if (dirty != dirty_lists_.size()) fail("dirty list set is off");
  std::size_t held = 0;
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    if (segments_[seg].lists != lists_in[seg]) {
      fail("segment " + std::to_string(seg) + " list count is off");
    }
    if ((segments_[seg].block != nullptr) != (lists_in[seg] > 0)) {
      fail("segment " + std::to_string(seg) + " is held without lists");
    }
    if (segments_[seg].block != nullptr) held += segments_[seg].block->size();
  }
  std::size_t current = 0;
  if (frozen_ != nullptr) {
    for (std::size_t l = 0; l < frozen_->lists_->size(); ++l) {
      if (l < lists_.size() && lists_[l].segment != kNoSegment) {
        current += (*frozen_->lists_)[l].size;
      }
    }
  }
  if (held != current + frozen_dead_) fail("frozen dead weight is off");
}

}  // namespace crp::core
