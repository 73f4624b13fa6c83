#include "dns/resolver.hpp"

#include <algorithm>
#include <optional>

namespace crp::dns {

namespace {

// Adds `us` to `elapsed`; false, leaving `elapsed` as it was, when the
// sum would leave the int64 range.
bool charge(Duration& elapsed, std::int64_t us) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(elapsed.micros(), us, &sum)) return false;
  elapsed = Duration{sum};
  return true;
}

}  // namespace

RecursiveResolver::RecursiveResolver(HostId host, const ZoneRegistry& registry,
                                     const netsim::LatencyOracle* oracle,
                                     ResolverConfig config)
    : host_(host), registry_(&registry), oracle_(oracle), config_(config) {}

Ipv4 RecursiveResolver::address() const {
  if (oracle_ != nullptr) return oracle_->topology().host(host_).address();
  // Without a topology, synthesize the same 10/8 mapping hosts use.
  return Ipv4{(std::uint32_t{10} << 24) | (host_.value() & 0x00ffffffu)};
}

const std::vector<ResourceRecord>& RecursiveResolver::cache_store(
    Cache::iterator expired, const Name& name, RecordType type,
    std::vector<ResourceRecord> records, Rcode rcode, SimTime now) {
  if (config_.max_cache_entries == 0) {
    uncached_ = std::move(records);
    return uncached_;
  }
  Duration min_ttl = Hours(24);
  for (const ResourceRecord& rr : records) min_ttl = std::min(min_ttl, rr.ttl);
  if (records.empty()) min_ttl = Seconds(30);  // negative-cache TTL
  CacheEntry entry{std::move(records), rcode, now + min_ttl};
  if (expired != cache_.end()) {
    expired->second = std::move(entry);
    return expired->second.records;
  }
  if (cache_.size() >= config_.max_cache_entries) {
    // Pressure valve: drop everything expired; if still full, evict the
    // soonest-to-expire quarter (they carry the least future value) so
    // hot long-TTL records survive instead of losing the whole cache.
    std::erase_if(cache_,
                  [now](const auto& kv) { return kv.second.expires <= now; });
    if (cache_.size() >= config_.max_cache_entries) {
      const std::size_t keep =
          config_.max_cache_entries - 1 -
          std::min(config_.max_cache_entries - 1,
                   config_.max_cache_entries / 4);
      const std::size_t evict = cache_.size() - keep;
      std::vector<std::pair<SimTime, const CacheKey*>> by_expiry;
      by_expiry.reserve(cache_.size());
      for (const auto& [key, cached] : cache_) {
        by_expiry.emplace_back(cached.expires, &key);
      }
      std::nth_element(by_expiry.begin(),
                       by_expiry.begin() + static_cast<long>(evict) - 1,
                       by_expiry.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::vector<CacheKey> victims;
      victims.reserve(evict);
      for (std::size_t i = 0; i < evict; ++i) {
        victims.push_back(*by_expiry[i].second);
      }
      for (const CacheKey& victim : victims) cache_.erase(victim);
    }
  }
  // Insert only after the valve: it must never evict what it returns.
  return cache_.emplace(CacheKey{name, type}, std::move(entry))
      .first->second.records;
}

const std::vector<ResourceRecord>* RecursiveResolver::lookup(
    const Name& name, RecordType type, SimTime now, ResolveResult& result) {
  // After the hit test: the key's expired entry, or end().
  Cache::iterator expired = cache_.find(CacheKey{name, type});
  if (expired != cache_.end() && expired->second.expires > now) {
    ++cache_hits_;
    if (expired->second.rcode != Rcode::kNoError) {
      result.rcode = expired->second.rcode;
      return nullptr;
    }
    return &expired->second.records;
  }
  ++cache_misses_;

  AuthoritativeServer* const server = registry_->find(name);
  if (server == nullptr) {
    result.rcode = Rcode::kServFail;
    cache_store(expired, name, type, {}, Rcode::kServFail, now);
    return nullptr;
  }

  const HostId upstream = server->host();
  const int retries = std::max(0, config_.max_retries);
  // Exponential backoff: wait retry_backoff * 2^(k-1) before retry k. A
  // retry whose backoff or charge would leave the int64 range is not
  // attempted, and the lookup fails as if that retry were lost too.
  std::int64_t backoff = config_.retry_backoff.micros();
  bool backoff_fits = true;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      if (!backoff_fits || !charge(result.elapsed, backoff)) break;
      ++retries_;
      backoff_fits = !__builtin_mul_overflow(backoff, 2, &backoff);
    }
    ++queries_sent_;
    ++result.upstream_queries;
    if (attempt_lost(upstream, now, attempt)) {
      // The query (or its answer) never arrived: charge the timeout and
      // maybe retry. Fault losses are never negative-cached — the
      // outage must clear the instant the plan says so, not a TTL
      // later — and the lost attempt never reached the server, so it
      // adds resolver-side load but no authoritative-side load.
      if (!charge(result.elapsed, config_.query_timeout.micros()) ||
          attempt == retries) {
        break;
      }
      continue;
    }
    if (oracle_ != nullptr && upstream.valid()) {
      result.elapsed += oracle_->rtt(host_, upstream, now);
    }
    result.elapsed += config_.processing_overhead;

    Message reply = server->resolve(Question{name, type}, address(), now);
    if (reply.rcode != Rcode::kNoError) {
      result.rcode = reply.rcode;
      cache_store(expired, name, type, {}, reply.rcode, now);
      return nullptr;
    }
    return &cache_store(expired, name, type, std::move(reply.answers),
                        Rcode::kNoError, now);
  }
  // Every attempt lost (or out of range, above): give up with SERVFAIL,
  // uncached (see above), and drop the expired answer, so a fault loss
  // leaves no entry.
  if (expired != cache_.end()) cache_.erase(expired);
  ++timeouts_;
  result.rcode = Rcode::kServFail;
  result.timed_out = true;
  return nullptr;
}

bool RecursiveResolver::attempt_lost(HostId upstream, SimTime now,
                                     int attempt) const {
  const auto a = static_cast<std::uint64_t>(attempt);
  if (faults_ != nullptr) {
    if (faults_->resolver_down(upstream, now)) return true;
    if (faults_->query_timed_out(host_, upstream, now, a)) return true;
  }
  if (oracle_ != nullptr && upstream.valid()) {
    if (oracle_->link_out(host_, upstream, now)) return true;
    if (oracle_->send_lost(host_, upstream, now, a)) return true;
  }
  return false;
}

ResolveResult RecursiveResolver::resolve(const Name& name, SimTime now) {
  ResolveResult result;
  result.rcode = Rcode::kNoError;

  // Resolver-host outage: the resolver itself is down, so the client's
  // query times out before any upstream work happens.
  if (faults_ != nullptr && faults_->resolver_down(host_, now)) {
    ++outage_refusals_;
    result.rcode = Rcode::kServFail;
    result.timed_out = true;
    result.elapsed += config_.query_timeout;
    return result;
  }

  // The name being resolved: `name`, then the target of the last CNAME.
  Name current = name;
  for (int depth = 0; depth <= config_.max_chain; ++depth) {
    const std::vector<ResourceRecord>* records =
        lookup(current, RecordType::kA, now, result);
    if (records == nullptr) {
      // rcode already set by lookup
      if (result.rcode == Rcode::kNoError) result.rcode = Rcode::kServFail;
      return result;
    }

    // Collect A answers; follow at most one CNAME per step. Addresses
    // are collected in the last step only.
    result.chain.reserve(result.chain.size() + records->size());
    result.addresses.reserve(static_cast<std::size_t>(
        std::ranges::count(*records, RecordType::kA, &ResourceRecord::type)));
    std::optional<Name> cname;
    for (const ResourceRecord& rr : *records) {
      if (rr.type == RecordType::kA) {
        result.addresses.push_back(rr.address);
        result.chain.push_back(rr);
      } else if (rr.type == RecordType::kCname && !cname.has_value()) {
        cname = rr.target;
        result.chain.push_back(rr);
      }
    }
    if (!result.addresses.empty()) {
      return result;
    }
    if (!cname.has_value()) {
      result.rcode = Rcode::kNxDomain;
      return result;
    }
    current = *cname;
  }
  result.rcode = Rcode::kServFail;  // CNAME chain too long / loop
  return result;
}

}  // namespace crp::dns
