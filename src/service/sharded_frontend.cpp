#include "service/sharded_frontend.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "service/serving_detail.hpp"
#include "service/wire.hpp"
#include "sim/fault_plan.hpp"

namespace crp::service {
namespace {

/// Whether at least `d` has passed from `since` to `now`: `now - since
/// >= d` without forming a difference past the int64 range (such a
/// difference exceeds every `d` when `now` is later and none when it is
/// earlier).
bool elapsed(SimTime since, SimTime now, Duration d) {
  std::int64_t gap = 0;
  return __builtin_sub_overflow(now.micros(), since.micros(), &gap)
             ? now > since
             : gap >= d.micros();
}

}  // namespace

ShardedFrontend::ShardedFrontend(ShardedFrontendConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (!config_.service.snapshots.enabled) {
    // The front-end answers from snapshots, so by default every
    // completed write must be visible to the next query — republish
    // after every accepted mutation. Callers that enabled snapshots
    // themselves keep their own pacing (and use the epoch vector to
    // bound what they are reading).
    config_.service.snapshots.enabled = true;
    config_.service.snapshots.max_epoch_lag = 1;
  }
  shards_.reserve(config_.shards);
  runtime_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<PositionService>(config_.service));
    // Publish the empty snapshot so a View never holds a null — reads
    // before the first write answer empty, not undefined.
    (void)shards_.back()->publish_snapshot(SimTime::epoch());
    runtime_.push_back(std::make_unique<ShardRuntime>());
  }
}

std::size_t ShardedFrontend::shard_index(std::string_view node_id,
                                         std::size_t shard_count) {
  return serving_detail::shard_index(node_id, shard_count);
}

// --- fault machinery (inert while plan_ == nullptr) ---

void ShardedFrontend::set_fault_plan(const sim::FaultPlan* plan) {
  plan_ = plan != nullptr && plan->empty() ? nullptr : plan;
}

void ShardedFrontend::open_breaker(std::size_t s, SimTime now) {
  ShardRuntime& rt = *runtime_[s];
  rt.health.store(static_cast<std::uint8_t>(ShardHealth::kOpen),
                  std::memory_order_relaxed);
  rt.opened_at = now;
  rt.consecutive_failures = 0;
  rt.half_open_successes = 0;
  breaker_opens_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedFrontend::process_shard_faults(std::size_t s, SimTime now) {
  ShardRuntime& rt = *runtime_[s];
  // Crash events first: the event key is pure (rule, epoch), so the
  // wipe happens exactly once per scheduled crash no matter how many
  // writes, ticks or expiries observe it.
  const auto crash = plan_->shard_crash_event(s, now);
  if (crash.has_value() && (!rt.crash_seen || *crash != rt.last_crash_key)) {
    rt.crash_seen = true;
    rt.last_crash_key = *crash;
    // The wipe: the shard publishes an empty snapshot, but Views serve
    // the pre-crash one held here until recovery. A crash of a shard
    // still awaiting recovery keeps the snapshot of the first crash.
    if (!rt.needs_recovery) rt.fallback.store(shards_[s]->snapshot());
    shards_[s]->reset(now);
    rt.needs_recovery = true;
    shard_crashes_.fetch_add(1, std::memory_order_relaxed);
    if (static_cast<ShardHealth>(rt.health.load(
            std::memory_order_relaxed)) != ShardHealth::kOpen) {
      open_breaker(s, now);
    } else {
      rt.opened_at = now;  // crash while open restarts the cooldown
    }
  }
  // Half-open scheduling: deterministic sim-time cooldown, and never
  // while the shard still needs a replay — a probe into an empty shard
  // would "succeed" and close the breaker over a hollow partition.
  if (static_cast<ShardHealth>(rt.health.load(std::memory_order_relaxed)) ==
          ShardHealth::kOpen &&
      !rt.needs_recovery && rt.opened_at >= SimTime::epoch() &&
      elapsed(rt.opened_at, now, config_.breaker.open_cooldown)) {
    rt.health.store(static_cast<std::uint8_t>(ShardHealth::kHalfOpen),
                    std::memory_order_relaxed);
    rt.half_open_successes = 0;
    breaker_half_opens_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedFrontend::note_write_success(std::size_t s) {
  ShardRuntime& rt = *runtime_[s];
  rt.consecutive_failures = 0;
  if (static_cast<ShardHealth>(rt.health.load(std::memory_order_relaxed)) ==
      ShardHealth::kHalfOpen) {
    if (++rt.half_open_successes >= config_.breaker.success_threshold) {
      rt.health.store(static_cast<std::uint8_t>(ShardHealth::kClosed),
                      std::memory_order_relaxed);
      rt.half_open_successes = 0;
      breaker_closes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ShardedFrontend::note_write_failure(std::size_t s, SimTime now) {
  ShardRuntime& rt = *runtime_[s];
  if (static_cast<ShardHealth>(rt.health.load(std::memory_order_relaxed)) ==
      ShardHealth::kHalfOpen) {
    // A failed probe re-opens immediately — half-open admits traffic on
    // sufferance.
    open_breaker(s, now);
    return;
  }
  if (++rt.consecutive_failures >= config_.breaker.failure_threshold) {
    open_breaker(s, now);
  }
}

bool ShardedFrontend::admit_write(std::size_t s, SimTime now,
                                  std::size_t weight) {
  if (plan_ == nullptr) return true;
  process_shard_faults(s, now);
  ShardRuntime& rt = *runtime_[s];
  if (static_cast<ShardHealth>(rt.health.load(std::memory_order_relaxed)) ==
      ShardHealth::kOpen) {
    writes_shed_.fetch_add(weight, std::memory_order_relaxed);
    return false;
  }
  // Bounded retry with exponential backoff: retry r draws at
  // now + 2^(r-1) * retry_backoff, so a stall epoch boundary inside the
  // backoff window lets a retry succeed — and the draws stay pure
  // functions of (shard, attempt, advanced clock). A retry whose
  // backoff or draw time would leave the int64 range is not attempted:
  // the write fails as if it had drawn a stall. (A backoff saturated at
  // INT64_MAX would still draw from a clock at or before 0, at a time
  // that is not the retry's.)
  const ShardBreakerConfig& br = config_.breaker;
  SimTime t = now;
  std::int64_t backoff = br.retry_backoff.micros();
  bool backoff_fits = true;
  for (std::size_t attempt = 0;; ++attempt) {
    if (!plan_->shard_stalled(s, t, attempt)) {
      note_write_success(s);
      return true;
    }
    std::int64_t next = 0;
    if (attempt == br.max_retries || !backoff_fits ||
        __builtin_add_overflow(now.micros(), backoff, &next)) {
      break;
    }
    t = SimTime{next};
    backoff_fits = !__builtin_mul_overflow(backoff, 2, &backoff);
    write_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  writes_failed_.fetch_add(weight, std::memory_order_relaxed);
  note_write_failure(s, now);
  return false;
}

void ShardedFrontend::tick(SimTime now) {
  if (plan_ == nullptr) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    process_shard_faults(s, now);
  }
}

ShardHealth ShardedFrontend::shard_health(std::size_t index) const {
  return static_cast<ShardHealth>(
      runtime_[index]->health.load(std::memory_order_relaxed));
}

std::vector<std::size_t> ShardedFrontend::shards_needing_recovery() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < runtime_.size(); ++s) {
    if (runtime_[s]->needs_recovery) out.push_back(s);
  }
  return out;
}

std::size_t ShardedFrontend::recover_shard(std::size_t index,
                                           std::span<const std::string> replay,
                                           SimTime now, ThreadPool* pool) {
  ShardRuntime& rt = *runtime_[index];
  if (!rt.needs_recovery) return 0;
  // Keep only this shard's frames: peers hand over whole stores, and
  // replaying another shard's nodes here would corrupt the partition.
  // A frame that does not peek is a routing failure, counted as
  // publish_batch counts it; another shard's frame is not.
  std::vector<std::string> owned;
  owned.reserve(replay.size());
  for (const std::string& bytes : replay) {
    const auto id = peek_node_id(bytes);
    if (!id.has_value()) {
      routing_rejected_.fetch_add(1, std::memory_order_relaxed);
    } else if (shard_of(*id) == index) {
      owned.push_back(bytes);
    }
  }
  const std::size_t accepted =
      shards_[index]->publish_batch(owned, now, pool);
  (void)shards_[index]->publish_snapshot(now);
  recovery_replays_.fetch_add(accepted, std::memory_order_relaxed);
  rt.needs_recovery = false;
  rt.fallback.store(nullptr);
  // Caught up: the breaker closes without half-open ceremony — the
  // replay itself was the probe.
  if (static_cast<ShardHealth>(rt.health.load(std::memory_order_relaxed)) !=
      ShardHealth::kClosed) {
    rt.health.store(static_cast<std::uint8_t>(ShardHealth::kClosed),
                    std::memory_order_relaxed);
    breaker_closes_.fetch_add(1, std::memory_order_relaxed);
  }
  rt.consecutive_failures = 0;
  rt.half_open_successes = 0;
  return accepted;
}

FrontendHealthStats ShardedFrontend::health_stats() const {
  FrontendHealthStats s;
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.breaker_half_opens =
      breaker_half_opens_.load(std::memory_order_relaxed);
  s.breaker_closes = breaker_closes_.load(std::memory_order_relaxed);
  s.write_retries = write_retries_.load(std::memory_order_relaxed);
  s.writes_failed = writes_failed_.load(std::memory_order_relaxed);
  s.writes_shed = writes_shed_.load(std::memory_order_relaxed);
  s.shard_crashes = shard_crashes_.load(std::memory_order_relaxed);
  s.recovery_replays = recovery_replays_.load(std::memory_order_relaxed);
  s.stale_fallback_views =
      health_counters_->stale_fallback_views.load(std::memory_order_relaxed);
  s.degraded_answers =
      health_counters_->degraded_answers.load(std::memory_order_relaxed);
  s.partial_answers =
      health_counters_->partial_answers.load(std::memory_order_relaxed);
  return s;
}

void ShardedFrontend::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("ShardedFrontend invariant: " + what);
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->check_invariants();
    for (const std::string& id : shards_[s]->ids_) {
      if (!id.empty() && shard_of(id) != s) {
        fail(id + " sits on shard " + std::to_string(s) +
             " but is owned by shard " + std::to_string(shard_of(id)));
      }
    }
    if (runtime_[s]->needs_recovery && shard_health(s) != ShardHealth::kOpen) {
      fail("shard " + std::to_string(s) +
           " needs recovery but its breaker is not open");
    }
    if ((runtime_[s]->fallback.load() != nullptr) !=
        runtime_[s]->needs_recovery) {
      fail("shard " + std::to_string(s) +
           " holds a pre-crash snapshot iff it needs no recovery");
    }
  }
  const FrontendHealthStats hs = health_stats();
  if (hs.breaker_closes > hs.breaker_opens ||
      hs.breaker_half_opens > hs.breaker_opens) {
    fail("breaker closes or half-opens outnumber its opens");
  }
}

// --- writes ---

bool ShardedFrontend::publish(PositionReport report, SimTime now) {
  const std::size_t s = shard_of(report.node_id);
  if (!admit_write(s, now, 1)) return false;
  return shards_[s]->publish(std::move(report), now);
}

bool ShardedFrontend::publish_encoded(std::string_view bytes, SimTime now) {
  // Route by the peeked id; frames whose header won't even peek are a
  // routing failure, counted here and delivered nowhere (decode would
  // reject them anyway — peek failing implies decode rejects).
  const auto id = peek_node_id(bytes);
  if (!id.has_value()) {
    routing_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t s = shard_of(*id);
  if (!admit_write(s, now, 1)) return false;
  return shards_[s]->publish_encoded(bytes, now);
}

std::size_t ShardedFrontend::publish_batch(std::span<const std::string> batch,
                                           SimTime now, ThreadPool* pool) {
  if (shards_.size() == 1) {
    if (!admit_write(0, now, batch.size())) return 0;
    return shards_[0]->publish_batch(batch, now, pool);
  }
  std::vector<std::vector<std::string>> groups(shards_.size());
  for (const std::string& bytes : batch) {
    const auto id = peek_node_id(bytes);
    if (!id.has_value()) {
      routing_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    groups[shard_of(*id)].push_back(bytes);
  }
  // Admission runs sequentially on the writer (breaker state is
  // writer-owned); each non-empty group passes or sheds as one unit.
  // Crash/probe scheduling advances for every shard, traffic or not.
  std::vector<char> admitted(shards_.size(), 1);
  if (plan_ != nullptr) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (groups[s].empty()) {
        process_shard_faults(s, now);
      } else {
        admitted[s] = admit_write(s, now, groups[s].size()) ? 1 : 0;
      }
    }
  }
  // Distinct shards are distinct single-writer domains, so the groups
  // apply in parallel; within a shard the group keeps batch order, so
  // per-id acceptance is exactly the sequential routing's. The nested
  // per-shard decode parallel_for runs inline on the worker.
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  std::vector<std::size_t> accepted(shards_.size(), 0);
  p.parallel_for(0, shards_.size(), [&](std::size_t s) {
    if (admitted[s] == 0) return;
    accepted[s] = shards_[s]->publish_batch(groups[s], now, &p);
  });
  std::size_t total = 0;
  for (const std::size_t a : accepted) total += a;
  return total;
}

bool ShardedFrontend::remove(const std::string& node_id) {
  const std::size_t s = shard_of(node_id);
  // remove() carries no timestamp, so there is no clock to draw a stall
  // against — admission checks only the breaker.
  if (plan_ != nullptr && shard_health(s) == ShardHealth::kOpen) {
    writes_shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return shards_[s]->remove(node_id);
}

std::size_t ShardedFrontend::expire(SimTime now) {
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (plan_ != nullptr) {
      // Maintenance, not client traffic: a stalled or failed shard just
      // skips this sweep — no retries, no breaker transitions.
      process_shard_faults(s, now);
      if (shard_health(s) != ShardHealth::kClosed ||
          plan_->shard_stalled(s, now)) {
        continue;
      }
    }
    dropped += shards_[s]->expire(now);
  }
  return dropped;
}

void ShardedFrontend::publish_snapshots(SimTime now) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (plan_ != nullptr) {
      process_shard_faults(s, now);
      if (shard_health(s) != ShardHealth::kClosed ||
          plan_->shard_stalled(s, now)) {
        continue;  // a stalled shard stops republishing, per the kind
      }
    }
    (void)shards_[s]->publish_snapshot(now);
  }
}

// --- inspection ---

std::optional<core::RatioMap> ShardedFrontend::map_of(
    const std::string& node_id) const {
  return shards_[shard_of(node_id)]->map_of(node_id);
}

std::optional<PositionReport> ShardedFrontend::report_of(
    const std::string& node_id) const {
  return shards_[shard_of(node_id)]->report_of(node_id);
}

std::size_t ShardedFrontend::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

// --- epochs ---

std::vector<std::uint64_t> ShardedFrontend::write_epochs() const {
  std::vector<std::uint64_t> epochs;
  epochs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    epochs.push_back(shard->membership_epoch());
  }
  return epochs;
}

std::uint64_t ShardedFrontend::epoch_lag(const View& view) const {
  std::uint64_t lag = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    lag = std::max(lag,
                   shards_[s]->membership_epoch() - view.epochs()[s]);
  }
  return lag;
}

// --- reads ---

ShardedFrontend::View ShardedFrontend::view() const {
  View v;
  v.snaps_.reserve(shards_.size());
  v.epochs_.reserve(shards_.size());
  v.health_.reserve(shards_.size());
  v.tables_.reserve(shards_.size());
  v.usable_bound_ =
      std::max(config_.service.staleness_bound,
               config_.service.stale_usable_bound);
  v.counters_ = health_counters_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::uint8_t h = static_cast<std::uint8_t>(ShardHealth::kClosed);
    std::shared_ptr<const ServingSnapshot> snap;
    if (plan_ != nullptr) {
      h = runtime_[s]->health.load(std::memory_order_relaxed);
      if (static_cast<ShardHealth>(h) != ShardHealth::kClosed) {
        // Failed shard: serve its last known good — the pre-crash
        // snapshot while it awaits recovery, else what it published last
        // (a failed shard publishes nothing new).
        snap = runtime_[s]->fallback.load();
        health_counters_->stale_fallback_views.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    if (snap == nullptr) snap = shards_[s]->snapshot();
    v.epochs_.push_back(snap->membership_epoch());
    v.tables_.push_back(snap->tables_);
    v.snaps_.push_back(std::move(snap));
    v.health_.push_back(h);
  }
  return v;
}

ShardCompleteness ShardedFrontend::View::completeness(SimTime now) const {
  const std::size_t n = snaps_.size();
  ShardCompleteness c;
  c.stale_shards.assign(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    if (static_cast<ShardHealth>(health_[s]) == ShardHealth::kClosed) {
      ++c.shards_answered;
    } else if (serving_detail::within(snaps_[s]->frozen_at(), now,
                                      usable_bound_)) {
      // The fallback is within the stale-usable window: the shard
      // answers, flagged, from its last-known-good capture.
      ++c.shards_answered;
      c.stale_shards[s] = true;
    } else {
      c.missing_shards.push_back(s);
    }
  }
  return c;
}

std::size_t ShardedFrontend::View::size() const {
  std::size_t total = 0;
  for (const auto& snap : snaps_) total += snap->size();
  return total;
}

GatheredAnswer ShardedFrontend::View::gathered(
    const std::string& client, serving_detail::Candidates candidates,
    std::size_t k, SimTime now, ThreadPool* pool) const {
  using serving_detail::Band;
  GatheredAnswer out;
  out.completeness = completeness(now);
  // A stale-fallback shard widens to the stale band (its capture is old;
  // its stale-but-usable reports are the whole point of serving it); a
  // missing shard sits the read out.
  std::vector<Band> health(tables_.size(), Band::kLive);
  for (std::size_t s = 0; s < health.size(); ++s) {
    if (out.completeness.stale_shards[s]) health[s] = Band::kStale;
  }
  for (const std::size_t s : out.completeness.missing_shards) {
    health[s] = Band::kSkip;
  }
  out.tiered = serving_detail::closest_tiered(tables_, client, candidates,
                                              health, k, now, pool);
  if (out.tiered.answered() && counters_ != nullptr) {
    if (out.completeness.any_stale()) {
      counters_->degraded_answers.fetch_add(1, std::memory_order_relaxed);
    }
    if (!out.completeness.complete()) {
      counters_->partial_answers.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return out;
}

GatheredAnswer ShardedFrontend::View::closest_any_gathered(
    const std::string& client, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return gathered(client, std::nullopt, k, now, pool);
}

GatheredAnswer ShardedFrontend::View::closest_gathered(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return gathered(client, candidates, k, now, nullptr);
}

// --- stats ---

std::vector<ServiceStats> ShardedFrontend::shard_stats() const {
  std::vector<ServiceStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

ServiceStats ShardedFrontend::stats() const {
  ServiceStats total = aggregate_stats(shard_stats());
  // Routing happens above the shards, so its reject count lives here.
  total.routing_rejected +=
      routing_rejected_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace crp::service
