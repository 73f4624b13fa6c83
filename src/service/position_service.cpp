#include "service/position_service.hpp"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.hpp"
#include "service/serving_snapshot.hpp"

namespace crp::service {

ServiceStats& ServiceStats::operator+=(const ServiceStats& other) {
  queries_served += other.queries_served;
  reports_accepted += other.reports_accepted;
  reports_rejected += other.reports_rejected;
  clustering_cache_hits += other.clustering_cache_hits;
  engine_rebuilds_avoided += other.engine_rebuilds_avoided;
  postings_tombstoned += other.postings_tombstoned;
  compactions += other.compactions;
  similarity_queries += other.similarity_queries;
  maps_touched += other.maps_touched;
  reclusters += other.reclusters;
  recluster_seconds += other.recluster_seconds;
  recluster_maps_touched += other.recluster_maps_touched;
  fresh_answers += other.fresh_answers;
  stale_answers += other.stale_answers;
  refused_queries += other.refused_queries;
  routing_rejected += other.routing_rejected;
  // Lag is a level, not a flow: a fleet is as far behind as its worst
  // shard, so aggregation takes the max instead of summing.
  epoch_lag_last = std::max(epoch_lag_last, other.epoch_lag_last);
  epoch_lag_max = std::max(epoch_lag_max, other.epoch_lag_max);
  return *this;
}

ServiceStats aggregate_stats(std::span<const ServiceStats> per_shard) {
  ServiceStats total;
  for (const ServiceStats& s : per_shard) total += s;
  return total;
}

PositionService::PositionService(ServiceConfig config)
    : config_(config), engine_(config.metric) {
  // One engine serves both selection and clustering, so a single metric
  // governs both query families.
  config_.clustering.metric = config_.metric;
}

Duration PositionService::usable_bound() const {
  return config_.stale_usable_bound > config_.staleness_bound
             ? config_.stale_usable_bound
             : config_.staleness_bound;
}

std::array<serving_detail::TableView, 1> PositionService::tables() const {
  return {serving_detail::TableView{
      engine_.view(), ids_, stamps_, *by_id_, config_.staleness_bound,
      config_.stale_usable_bound, counters_.get(), clustering_.get()}};
}

void PositionService::sync_engine_stats() {
  // The engine's counters restart from zero when reset() clears it; the
  // baselines hold everything counted before the wipe, keeping the
  // published totals monotonic across a crash.
  const auto& engine = engine_.mutation_stats();
  postings_tombstoned_.store(tombstoned_base_ + engine.postings_tombstoned,
                             std::memory_order_relaxed);
  compactions_.store(compactions_base_ + engine.compactions,
                     std::memory_order_relaxed);
}

bool PositionService::publish_impl(PositionReport report, SimTime now) {
  if (now > write_now_) write_now_ = now;
  if (report.node_id.empty() || report.map.empty() ||
      !serving_detail::within(report.when, now, config_.staleness_bound) ||
      report.when > now) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const IndexHit hit = search(report.node_id);
  if (hit.slot != serving_detail::TableView::npos) {
    if (stamps_[hit.slot] > report.when) {
      // out-of-order delivery of an older report
      reports_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    engine_.update(hit.slot, report.map);
    stamps_[hit.slot] = report.when;
  } else {
    const std::size_t slot = engine_.add(report.map);
    std::vector<std::uint32_t>& index = writable_index();
    index.insert(index.begin() + static_cast<std::ptrdiff_t>(hit.at),
                 static_cast<std::uint32_t>(slot));
    if (slot == ids_.size()) {
      ids_.push_back(std::move(report.node_id));
      stamps_.push_back(report.when);
    } else {  // reused tombstoned slot
      ids_[slot] = std::move(report.node_id);
      stamps_[slot] = report.when;
    }
    ids_published_ = false;
  }
  sync_engine_stats();
  reports_accepted_.fetch_add(1, std::memory_order_relaxed);
  ++membership_epoch_;
  return true;
}

bool PositionService::publish(PositionReport report, SimTime now) {
  const bool accepted = publish_impl(std::move(report), now);
  maybe_publish_snapshot(now);
  return accepted;
}

bool PositionService::publish_encoded(std::string_view bytes, SimTime now) {
  auto report = decode(bytes);
  if (!report.has_value()) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return publish(std::move(*report), now);
}

PositionService::IndexHit PositionService::search(
    const std::string& node_id) const {
  const auto it =
      std::lower_bound(by_id_->begin(), by_id_->end(), node_id,
                       [this](std::uint32_t slot, const std::string& id) {
                         return ids_[slot] < id;
                       });
  IndexHit hit;
  hit.at = static_cast<std::size_t>(it - by_id_->begin());
  if (it != by_id_->end() && ids_[*it] == node_id) hit.slot = *it;
  return hit;
}

std::vector<std::uint32_t>& PositionService::writable_index() {
  // A copy keeps every position, so a searched offset stays valid.
  if (by_id_frozen_) {
    by_id_ = std::make_shared<std::vector<std::uint32_t>>(*by_id_);
    by_id_frozen_ = false;
  }
  return *by_id_;
}

std::size_t PositionService::publish_batch(std::span<const std::string> batch,
                                           SimTime now, ThreadPool* pool) {
  // Amortized wire handling: decoding is pure, so it fans out across the
  // pool into per-index slots; the engine mutations then apply
  // sequentially in batch order, so the end state — acceptances,
  // rejections, slot assignments — is identical to calling
  // publish_encoded element by element. A malformed entry costs its own
  // rejection and nothing else. The snapshot boundary check runs once
  // for the whole batch, after the last report applied.
  std::vector<std::optional<PositionReport>> decoded(batch.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, batch.size(), [&batch, &decoded](std::size_t i) {
    decoded[i] = decode(batch[i]);
  });
  std::size_t accepted = 0;
  for (auto& report : decoded) {
    if (!report.has_value()) {
      reports_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (publish_impl(std::move(*report), now)) ++accepted;
  }
  maybe_publish_snapshot(now);
  return accepted;
}

bool PositionService::drop_node(const std::string& node_id) {
  const IndexHit hit = search(node_id);
  // Unknown id: membership is unchanged, so the cached clustering stays
  // valid — bumping the epoch here would force a needless recluster.
  if (hit.slot == serving_detail::TableView::npos) return false;
  std::vector<std::uint32_t>& index = writable_index();
  index.erase(index.begin() + static_cast<std::ptrdiff_t>(hit.at));
  engine_.remove(hit.slot);
  ids_[hit.slot] = std::string{};
  stamps_[hit.slot] = SimTime{-1};
  ids_published_ = false;
  sync_engine_stats();
  ++membership_epoch_;
  return true;
}

void PositionService::reset(SimTime now) {
  if (now > write_now_) write_now_ = now;
  // Fold the doomed engine's mutation counters into the baselines
  // before the wipe — clear() restarts them from zero.
  const auto& engine = engine_.mutation_stats();
  tombstoned_base_ += engine.postings_tombstoned;
  compactions_base_ += engine.compactions;
  ids_.clear();
  stamps_.clear();
  ids_published_ = false;
  by_id_ = std::make_shared<std::vector<std::uint32_t>>();
  by_id_frozen_ = false;
  engine_.clear(config_.metric);
  // Fresh generation, not a mutation: snapshots holding the pre-crash
  // clustering keep it alive untouched.
  clustering_ = std::make_shared<const core::Clustering>();
  clustered_at_ = SimTime{-1};
  clustered_epoch_ = ~0ULL;
  sync_engine_stats();
  // One bump for the whole wipe: the epoch stays monotonic, so readers
  // comparing epoch vectors see the crash as ordinary churn.
  ++membership_epoch_;
  publish_snapshot(now);
}

bool PositionService::remove(const std::string& node_id) {
  const bool dropped = drop_node(node_id);
  // remove() carries no timestamp, so the boundary check runs at the
  // write clock's high-water mark.
  maybe_publish_snapshot(write_now_);
  return dropped;
}

std::optional<core::RatioMap> PositionService::map_of(
    const std::string& node_id) const {
  auto report = report_of(node_id);
  if (!report.has_value()) return std::nullopt;
  return std::move(report->map);
}

std::optional<PositionReport> PositionService::report_of(
    const std::string& node_id) const {
  const std::size_t slot = search(node_id).slot;
  if (slot == serving_detail::TableView::npos) return std::nullopt;
  // The row holds the accepted map's entries verbatim (the engine
  // renormalizes nothing), and the slot its id and stamp.
  return PositionReport{
      ids_[slot], stamps_[slot],
      core::RatioMap::from_canonical(engine_.row_view(slot).entries)};
}

bool PositionService::clustering_current(SimTime now) const {
  return clustered_epoch_ == membership_epoch_ &&
         clustered_at_ >= SimTime::epoch() &&
         serving_detail::within(clustered_at_, now, config_.recluster_after);
}

void PositionService::ensure_clustering(SimTime now) {
  if (clustering_current(now)) {
    clustering_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // SMF runs straight off the engine's corpus — no per-recluster map
  // copies, no fresh engine build — through the long-lived clusterer,
  // whose center index (and its allocations) survives across rebuilds.
  // Tombstoned rows score 0 against everything and end up as singletons
  // the answers skip. The result lands in a fresh shared_ptr generation:
  // snapshots holding the previous one keep it alive, unmutated.
  const auto start = std::chrono::steady_clock::now();
  clustering_ = std::make_shared<const core::Clustering>(
      clusterer_.run(engine_, config_.clustering));
  recluster_nanos_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  reclusters_.fetch_add(1, std::memory_order_relaxed);
  recluster_maps_touched_.fetch_add(clusterer_.last_stats().maps_touched,
                                    std::memory_order_relaxed);
  engine_rebuilds_avoided_.fetch_add(1, std::memory_order_relaxed);
  clustered_at_ = now;
  clustered_epoch_ = membership_epoch_;
}

std::vector<std::string> PositionService::same_cluster(
    const std::string& node_id, SimTime now) {
  // Only a live client's answer needs the clustering.
  if (tables()[0].live_slot(node_id, now) != serving_detail::TableView::npos) {
    ensure_clustering(now);
  }
  return serving_detail::same_cluster(tables()[0], node_id, now);
}

std::unordered_map<std::string, std::size_t>
PositionService::cluster_assignment(SimTime now) {
  ensure_clustering(now);
  return serving_detail::cluster_assignment(tables()[0], now);
}

std::vector<std::string> PositionService::diverse_set(std::size_t n,
                                                      SimTime now,
                                                      std::uint64_t seed) {
  ensure_clustering(now);
  return serving_detail::diverse_set(tables()[0], n, now, seed);
}

std::shared_ptr<const ServingSnapshot> PositionService::publish_snapshot(
    SimTime now) {
  if (now > write_now_) write_now_ = now;
  const std::shared_ptr<const ServingSnapshot> prev = snapshot_.load();
  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->membership_epoch_ = membership_epoch_;
  snap->frozen_at_ = now;
  snap->engine_ = engine_.freeze(membership_epoch_);
  // The id table is shared until a node joins or leaves; the stamps
  // until any accepted publish or drop (the epoch bumps on each,
  // updates included).
  snap->ids_ = prev != nullptr && ids_published_
                   ? prev->ids_
                   : std::make_shared<const std::vector<std::string>>(ids_);
  snap->stamps_ =
      prev != nullptr && prev->membership_epoch_ == membership_epoch_
          ? prev->stamps_
          : std::make_shared<const std::vector<SimTime>>(stamps_);
  ids_published_ = true;
  // The id index is shared until a node joins or leaves.
  snap->by_id_ = by_id_;
  by_id_frozen_ = true;
  if (config_.snapshots.clustering) {
    ensure_clustering(now);
    snap->clustering_ = clustering_;
  } else if (clustering_current(now)) {
    // Not asked to cluster, but the cache happens to be current —
    // attaching the shared generation costs nothing and lets snapshot
    // cluster queries answer.
    snap->clustering_ = clustering_;
  }
  snap->counters_ = counters_;
  snap->tables_ = {snap->engine_->view(), *snap->ids_, *snap->stamps_,
                   *snap->by_id_, config_.staleness_bound,
                   config_.stale_usable_bound, counters_.get(),
                   snap->clustering_.get()};
  snapshot_epoch_ = membership_epoch_;
  snapshot_at_ = now;
  std::shared_ptr<const ServingSnapshot> published = std::move(snap);
  snapshot_.store(published);
  note_epoch_lag();
  return published;
}

void PositionService::note_epoch_lag() {
  const std::uint64_t lag = membership_epoch_ - snapshot_epoch_;
  epoch_lag_last_.store(lag, std::memory_order_relaxed);
  if (lag > epoch_lag_max_.load(std::memory_order_relaxed)) {
    epoch_lag_max_.store(lag, std::memory_order_relaxed);
  }
}

void PositionService::maybe_publish_snapshot(SimTime now) {
  if (!config_.snapshots.enabled) return;
  if (now < write_now_) now = write_now_;
  if (snapshot_at_ < SimTime::epoch()) {  // nothing published yet
    publish_snapshot(now);
    return;
  }
  const std::uint64_t max_lag =
      std::max<std::uint64_t>(config_.snapshots.max_epoch_lag, 1);
  if (membership_epoch_ - snapshot_epoch_ >= max_lag ||
      now - snapshot_at_ >= config_.snapshots.max_age) {
    publish_snapshot(now);
  } else {
    // Chose not to republish — record how far behind the published
    // snapshot is (publish_snapshot records its own zero-lag point).
    note_epoch_lag();
  }
}

std::size_t PositionService::expire(SimTime now) {
  if (now > write_now_) write_now_ = now;
  // With the stale tier enabled, reports in the stale-but-usable band
  // survive expiry — they still serve degraded answers. The bound
  // collapses to staleness_bound when the tier is off.
  const Duration bound = usable_bound();
  std::vector<std::string> stale;
  for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
    if (!ids_[slot].empty() &&
        !serving_detail::within(stamps_[slot], now, bound)) {
      stale.push_back(ids_[slot]);
    }
  }
  std::size_t dropped = 0;
  for (const std::string& id : stale) {
    if (drop_node(id)) ++dropped;
  }
  maybe_publish_snapshot(now);
  return dropped;
}

void PositionService::check_invariants() const {
  serving_detail::check_tables(tables()[0], "PositionService");
  engine_.check_invariants();
}

ServiceStats PositionService::stats() const {
  ServiceStats s;
  s.queries_served = counters_->queries_served.total();
  s.reports_accepted = reports_accepted_.load(std::memory_order_relaxed);
  s.reports_rejected = reports_rejected_.load(std::memory_order_relaxed);
  s.clustering_cache_hits =
      clustering_cache_hits_.load(std::memory_order_relaxed);
  s.engine_rebuilds_avoided =
      engine_rebuilds_avoided_.load(std::memory_order_relaxed);
  s.postings_tombstoned = postings_tombstoned_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.similarity_queries = counters_->similarity_queries.total();
  s.maps_touched = counters_->maps_touched.total();
  s.reclusters = reclusters_.load(std::memory_order_relaxed);
  s.recluster_seconds =
      static_cast<double>(recluster_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  s.recluster_maps_touched =
      recluster_maps_touched_.load(std::memory_order_relaxed);
  s.fresh_answers = counters_->fresh_answers.total();
  s.stale_answers = counters_->stale_answers.total();
  s.refused_queries = counters_->refused_queries.total();
  s.epoch_lag_last = epoch_lag_last_.load(std::memory_order_relaxed);
  s.epoch_lag_max = epoch_lag_max_.load(std::memory_order_relaxed);
  // routing_rejected stays 0 here: only the sharded front-end routes.
  return s;
}

}  // namespace crp::service
