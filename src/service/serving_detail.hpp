// The one serving read path (DESIGN.md §8, §9).
//
// PositionService, ServingSnapshot and ShardedFrontend::View answer
// every read (plain, tiered, gathered, top_k, batch and cluster queries)
// through the functions here, over N >= 1 borrowed shard tables: the
// service lends one `TableView` over its live tables, a snapshot one over
// its frozen tables, a View one per captured snapshot. No owner ranks,
// vets, tiers or batches anything itself, so an answer cannot depend on
// which owner lent the tables (the serving-level analogue of
// core/engine_kernels.hpp). Internal: not part of the service API.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "core/engine_kernels.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::core {
struct Clustering;
}

namespace crp::service {

struct RankedNode;
struct TieredAnswer;
struct ServingCounters;

namespace serving_detail {

/// Whether a report stamped `when` is at most `bound` old at `now`. The
/// one age test of the service: it compares `when` with `now - bound`
/// rather than computing an age, so a stamp from the far past is old
/// instead of wrapping to a negative age. Where `now - bound` leaves the
/// int64 range, it lies below every stamp (bound > 0) or above every
/// stamp (bound < 0).
[[nodiscard]] constexpr bool within(SimTime when, SimTime now,
                                    Duration bound) {
  std::int64_t floor = 0;
  return __builtin_sub_overflow(now.micros(), bound.micros(), &floor)
             ? bound.micros() > 0
             : when.micros() >= floor;
}

/// One shard's serving tables, borrowed: the engine's corpus view; each
/// engine slot's id ("" when tombstoned) and report stamp, in two arrays
/// so an age test loads 8 bytes; the occupied slots sorted by id; the
/// two age bounds, the shared counters and the attached clustering
/// (nullptr: none). Each owner builds one in O(1); it stays valid as long
/// as the owner's tables do (until the service's next write; while a
/// snapshot is held).
struct TableView {
  static constexpr std::size_t npos = ~std::size_t{0};

  core::engine_detail::CorpusView corpus;
  std::span<const std::string> ids;
  std::span<const SimTime> stamps;
  std::span<const std::uint32_t> by_id;
  Duration staleness_bound{0};
  Duration stale_usable_bound{0};
  ServingCounters* counters = nullptr;
  const core::Clustering* clustering = nullptr;

  /// Slot of `id` (binary search over `by_id`), or npos.
  [[nodiscard]] std::size_t find(const std::string& id) const;
  /// Slot of `id` if it is known and live at `now`, else npos.
  [[nodiscard]] std::size_t live_slot(const std::string& id,
                                      SimTime now) const;
  [[nodiscard]] bool live(std::size_t slot, SimTime now) const {
    return within(stamps[slot], now, staleness_bound);
  }
  /// Older than the staleness bound, within an enabled stale tier.
  [[nodiscard]] bool stale_usable(std::size_t slot, SimTime now) const {
    return stale_usable_bound > staleness_bound && !live(slot, now) &&
           within(stamps[slot], now, stale_usable_bound);
  }
  /// Live, or stale-usable when `stale_band` widens the band.
  [[nodiscard]] bool usable(std::size_t slot, bool stale_band,
                            SimTime now) const {
    return live(slot, now) || (stale_band && stale_usable(slot, now));
  }
};

/// The shards a read runs over, in shard order.
using Tables = std::span<const TableView>;
/// How one shard takes part in a read: it ranks its live nodes, widens
/// to its stale-usable ones too, or sits the read out.
enum class Band : std::uint8_t { kLive, kStale, kSkip };
/// A candidate list, or nullopt for an any-shaped read.
using Candidates = std::optional<std::span<const std::string>>;

/// Owning shard of `id`: stable_hash(id) % shards (0 for one shard).
[[nodiscard]] std::size_t shard_index(std::string_view id,
                                      std::size_t shards);

// --- reads over N >= 1 shards, each bit-identical to one unsharded
// --- service over the union corpus. An any-shaped single read runs its
// --- shards on `pool` (nullptr: the shared pool), a batch its clients;
// --- a one-shard single read and every candidate-list single read run
// --- inline and touch no pool (`pool` is unread for them). The client's
// --- owning shard counts the query and its tier. An any-shaped read
// --- counts one similarity read on each shard it ranks. A
// --- candidate-list read ranks one flat corpus of its usable candidates
// --- (a batch builds it once for every client) and counts one
// --- similarity read, and the candidate rows it touched, on the
// --- client's owning shard; with no usable candidate it runs no read
// --- and counts nothing.

/// closest (a candidate list) or closest_any (nullopt): a live client
/// ranked against the live nodes, itself excluded.
[[nodiscard]] std::vector<RankedNode> closest(Tables tables,
                                              const std::string& client,
                                              Candidates candidates,
                                              std::size_t k, SimTime now,
                                              ThreadPool* pool);
/// The tiered queries. `health` (empty: every shard kLive) is each
/// shard's band before the client's tier widens it: a gathered read
/// marks a stale-fallback shard kStale, which tints the answer
/// kStaleShard, and a missing one kSkip, which refuses the client it
/// owns with kShardUnavailable.
[[nodiscard]] TieredAnswer closest_tiered(Tables tables,
                                          const std::string& client,
                                          Candidates candidates,
                                          std::span<const Band> health,
                                          std::size_t k, SimTime now,
                                          ThreadPool* pool);
/// Every live node ranked against a query map that owns no row.
[[nodiscard]] std::vector<RankedNode> top_k(Tables tables,
                                            const core::RowView& query,
                                            std::size_t k, SimTime now,
                                            ThreadPool* pool);
/// `closest` for every client, fresh clients only (others get {}).
[[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
    Tables tables, std::span<const std::string> clients,
    Candidates candidates, std::size_t k, SimTime now, ThreadPool* pool);
/// Live nodes, in lexicographic order.
[[nodiscard]] std::vector<std::string> live_nodes(Tables tables,
                                                  SimTime now);

// --- cluster queries over one shard's attached clustering; they answer
// --- empty without one and filter liveness at answer time ---

[[nodiscard]] std::vector<std::string> same_cluster(const TableView& t,
                                                    const std::string& id,
                                                    SimTime now);
[[nodiscard]] std::unordered_map<std::string, std::size_t>
cluster_assignment(const TableView& t, SimTime now);
[[nodiscard]] std::vector<std::string> diverse_set(const TableView& t,
                                                   std::size_t n,
                                                   SimTime now,
                                                   std::uint64_t seed);

/// Throws std::logic_error, prefixed with `owner`, naming the first
/// broken invariant of the node table that find() and the zero-score
/// padding rely on: `by_id` strictly increasing by id; every slot it
/// lists has an id, and every occupied slot is listed exactly once; the
/// id and stamp tables as long as the engine; an id exactly where the
/// engine row is alive.
void check_tables(const TableView& t, const std::string& owner);

}  // namespace serving_detail
}  // namespace crp::service
