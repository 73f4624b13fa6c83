// Caching recursive resolver.
//
// Each DNS-server host in the experiment runs one of these. It follows
// CNAME chains across zones, caches by (name, type) honouring TTLs against
// the simulated clock, and accounts the latency of every upstream
// round-trip via the latency oracle — so a King measurement through the
// resolver sees realistic turnaround times, and a CRP probe sees the CDN's
// 20-second TTLs expire between probes. Lookups read cached answers in
// place, an expired answer is refreshed in its own entry, and `resolve`
// copies each record once, into its result.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "dns/record.hpp"
#include "dns/zone.hpp"
#include "netsim/latency_model.hpp"
#include "sim/fault_plan.hpp"

namespace crp::dns {

/// Outcome of a recursive resolution.
struct ResolveResult {
  Rcode rcode = Rcode::kServFail;
  /// Final A-record addresses (empty on failure).
  std::vector<Ipv4> addresses;
  /// Every record learned along the CNAME chain, in resolution order.
  std::vector<ResourceRecord> chain;
  /// Simulated time spent: sum of RTTs to every authoritative queried,
  /// plus timeout/backoff charges for attempts that were lost.
  Duration elapsed;
  /// Authoritative round-trips attempted (0 = fully answered from
  /// cache); lost attempts count — they are load the resolver created.
  int upstream_queries = 0;
  /// True when the failure was fault-induced (every upstream attempt
  /// lost, or the resolver host itself was down) rather than a DNS-level
  /// answer. Always false with no fault plan armed.
  bool timed_out = false;

  [[nodiscard]] bool ok() const {
    return rcode == Rcode::kNoError && !addresses.empty();
  }
};

struct ResolverConfig {
  /// Upper bound on cached (name, type) entries; 0 disables caching.
  std::size_t max_cache_entries = 10'000;
  /// Maximum CNAME chain length before giving up (loop protection).
  int max_chain = 8;
  /// Fixed per-upstream-query processing overhead.
  Duration processing_overhead = Micros(200);

  // --- fault handling (exercised only when a sim::FaultPlan is armed;
  // without one, attempt 0 always succeeds and none of this runs) ---
  /// Upstream attempts beyond the first before a lookup gives up and
  /// answers SERVFAIL.
  int max_retries = 2;
  /// Simulated time charged for an attempt whose answer never arrived.
  Duration query_timeout = Millis(400);
  /// Backoff before retry k (1-based) is retry_backoff * 2^(k-1). A
  /// retry whose backoff or charge would leave the int64 range is not
  /// attempted: the lookup fails as if every attempt were lost.
  Duration retry_backoff = Millis(200);
};

/// Caching recursive resolver bound to one host.
class RecursiveResolver {
 public:
  /// `registry` and `oracle` must outlive the resolver. `oracle` may be
  /// null in unit tests (upstream RTTs then count as zero).
  RecursiveResolver(HostId host, const ZoneRegistry& registry,
                    const netsim::LatencyOracle* oracle,
                    ResolverConfig config = {});

  /// Resolves `name` to A records at sim time `now`.
  ResolveResult resolve(const Name& name, SimTime now);

  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] Ipv4 address() const;

  // --- fault injection (DESIGN.md §7) ---
  /// Arms deterministic faults: upstream-host outages and per-attempt
  /// query timeouts come from `plan`; link outages and packet loss come
  /// from the oracle's armed plan (if any). `plan` must outlive the
  /// resolver; nullptr disarms. Fault-induced SERVFAILs are never
  /// negative-cached — the outage must clear the instant the plan says
  /// so, not a TTL later.
  void set_fault_plan(const sim::FaultPlan* plan) { faults_ = plan; }
  [[nodiscard]] const sim::FaultPlan* fault_plan() const { return faults_; }

  // --- cache statistics / management ---
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t cache_misses() const { return cache_misses_; }
  [[nodiscard]] std::size_t queries_sent() const { return queries_sent_; }
  /// Upstream attempts re-sent after a lost one (fault path only).
  [[nodiscard]] std::size_t retries() const { return retries_; }
  /// Lookups abandoned with SERVFAIL after every attempt was lost.
  [[nodiscard]] std::size_t timeouts() const { return timeouts_; }
  /// Resolutions refused because the resolver host itself was down.
  [[nodiscard]] std::size_t outage_refusals() const {
    return outage_refusals_;
  }
  void flush_cache() { cache_.clear(); }

 private:
  struct CacheKey {
    Name name;
    RecordType type;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return k.name.hash() ^
             (static_cast<std::size_t>(k.type) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct CacheKeyEq {
    bool operator()(const CacheKey& a, const CacheKey& b) const noexcept {
      return a.type == b.type && a.name == b.name;
    }
  };
  struct CacheEntry {
    std::vector<ResourceRecord> records;
    Rcode rcode = Rcode::kNoError;
    SimTime expires;
  };

  using Cache =
      std::unordered_map<CacheKey, CacheEntry, CacheKeyHash, CacheKeyEq>;

  /// Looks up (name, type), from cache or upstream. Appends the RTT cost
  /// of any upstream query to `result.elapsed`. Returns the answer's
  /// records, or nullptr on failure (with `result.rcode` set). The
  /// records are borrowed, not copied: they live in the cache entry (or,
  /// with caching off, in `uncached_`), so read them before the next
  /// lookup, `cache_store` or `flush_cache`, any of which may free them.
  const std::vector<ResourceRecord>* lookup(const Name& name, RecordType type,
                                            SimTime now,
                                            ResolveResult& result);

  /// Stores an answer and returns the stored records; same lifetime as
  /// `lookup`'s. `expired` is the key's expired entry, refreshed in place
  /// (its key and node are kept, and the cache does not grow), or
  /// `cache_.end()` for a new key, which is inserted after the eviction
  /// valve has made room.
  const std::vector<ResourceRecord>& cache_store(
      Cache::iterator expired, const Name& name, RecordType type,
      std::vector<ResourceRecord> records, Rcode rcode, SimTime now);

  /// Was upstream attempt `attempt` at `now` lost? Pure function of the
  /// armed plans — bit-identical for any replay order or thread count.
  [[nodiscard]] bool attempt_lost(HostId upstream, SimTime now,
                                  int attempt) const;

  HostId host_;
  const ZoneRegistry* registry_;
  const netsim::LatencyOracle* oracle_;
  const sim::FaultPlan* faults_ = nullptr;
  ResolverConfig config_;
  Cache cache_;
  /// The last answer when caching is off (`max_cache_entries == 0`).
  std::vector<ResourceRecord> uncached_;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t queries_sent_ = 0;
  std::size_t retries_ = 0;
  std::size_t timeouts_ = 0;
  std::size_t outage_refusals_ = 0;
};

}  // namespace crp::dns
