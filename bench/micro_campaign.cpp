// Probing-campaign throughput: sequential event-scheduler replay vs the
// sharded parallel campaign, at three corpus sizes, with the latency
// oracle's pair cache on and off.
//
// For each configuration the bench reports probes/sec, the CDN latency
// estimates computed per probe, the oracle pair-cache hit rate, and —
// because speed means nothing if the answers drift — cross-checks that
// every variant produces a ratio-map digest identical to the sequential
// baseline (DESIGN.md §6). Estimates per probe are a deterministic work
// count, the same for any thread count: a probe's customers share one
// estimate per nearby candidate, so it never exceeds the policy's
// candidate pool, and a select skips the candidates whose estimate floor
// shows they cannot reach its rotation pool (13.2-14.6 per probe on the
// tiny corpora, where estimating every served candidate costs 45-47).
// Target: the parallel path ≥4x sequential on 8 worker threads (on
// multi-core hosts). tools/check_counters.py gates the tiny run's digests
// and estimates per probe.
//
// Each variant also prints the heap allocations its campaign made per
// probe, counted by this binary's own `operator new` (every thread's).
// The count depends on the standard library, so it is printed for
// comparison only and no gate reads it.
//
// The pair-cache toggle does not reach redirection: candidate lists carry
// each candidate's base RTT, so `select` never reads the cache. On a
// campaign it covers the candidate-list prewarm (one base RTT per
// resolver and edge replica, nearly all first-time pairs) and the
// resolvers' upstream RTTs, so the on/off rows differ by little.
//
// CRP_BENCH_SCALE=tiny|small shrinks the corpus sweep for CI smoke runs.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/world.hpp"

namespace {

using namespace crp;

/// Every `operator new` this process has made (counted by the
/// replacement below): read before and after a campaign.
std::atomic<std::uint64_t> g_allocations{0};

struct Corpus {
  std::size_t candidates;
  std::size_t dns_servers;
  std::size_t replicas;
};

std::vector<Corpus> corpus_sweep() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  const std::string scale = env == nullptr ? "" : env;
  if (scale == "tiny") return {{10, 20, 80}, {15, 30, 100}, {20, 40, 120}};
  if (scale == "small") return {{30, 60, 120}, {45, 100, 160}, {60, 150, 200}};
  return {{60, 250, 200}, {120, 500, 300}, {240, 1000, 400}};
}

eval::WorldConfig make_config(const Corpus& corpus, bool pair_cache) {
  eval::WorldConfig config;
  config.seed = 42;
  config.num_candidates = corpus.candidates;
  config.num_dns_servers = corpus.dns_servers;
  config.cdn.target_replicas = corpus.replicas;
  config.latency.pair_cache = pair_cache;
  return config;
}

/// Order-sensitive digest over every participant's ratio map; any
/// divergence between campaign variants changes it.
std::uint64_t ratio_digest(eval::World& world) {
  std::uint64_t digest = stable_hash("campaign-digest");
  for (HostId h : world.participants()) {
    // ratio_map() returns by value; keep it alive while we iterate.
    const core::RatioMap map = world.crp_node(h).ratio_map();
    for (const auto& [replica, ratio] : map.entries()) {
      std::uint64_t ratio_bits = 0;
      static_assert(sizeof(ratio_bits) == sizeof(ratio));
      std::memcpy(&ratio_bits, &ratio, sizeof(ratio_bits));
      digest = hash_combine({digest, h.value(), replica.value(), ratio_bits});
    }
  }
  return digest;
}

struct RunResult {
  eval::CampaignStats stats;
  std::uint64_t digest = 0;
  std::uint64_t allocations = 0;  // during the campaign
};

enum class Mode { kSequential, kParallel };

RunResult run(const Corpus& corpus, Mode mode, bool pair_cache,
              ThreadPool* pool) {
  eval::World world{make_config(corpus, pair_cache)};
  const SimTime start = SimTime::epoch();
  const SimTime end = start + Hours(6);
  const Duration interval = Minutes(15);
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  if (mode == Mode::kSequential) {
    (void)world.run_probing_sequential(start, end, interval);
  } else {
    (void)world.run_probing_parallel(start, end, interval, pool);
  }
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  return RunResult{world.campaign_stats(), ratio_digest(world), allocations};
}

void report(const char* label, const Corpus& corpus, const RunResult& r,
            double baseline_wall) {
  const auto per_probe = [&](double n) {
    return r.stats.probes_issued == 0
               ? 0.0
               : n / static_cast<double>(r.stats.probes_issued);
  };
  std::printf(
      "  %-26s %8zu probes  %9.0f probes/s  wall %7.3f s  "
      "speedup %5.2fx  %5.1f estimates/probe  pair-cache hit %5.1f%%  "
      "heap allocs %6.2f/probe\n",
      label, r.stats.probes_issued, r.stats.probes_per_second(),
      r.stats.wall_seconds,
      r.stats.wall_seconds > 0.0 ? baseline_wall / r.stats.wall_seconds : 0.0,
      per_probe(static_cast<double>(r.stats.cdn_estimates)),
      100.0 * r.stats.oracle_pair_hit_rate(),
      per_probe(static_cast<double>(r.allocations)));
  (void)corpus;
}

}  // namespace

// This binary's allocation counter: the replaceable global `operator new`
// and its `operator delete` pair (array and nothrow forms call these).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

int main() {
  const std::vector<Corpus> sweep = corpus_sweep();
  const std::size_t hw = std::thread::hardware_concurrency();
  std::printf("micro_campaign: hardware threads %zu\n", hw);

  bool digests_ok = true;
  for (const Corpus& corpus : sweep) {
    std::printf("corpus: %zu candidates, %zu dns servers, %zu replicas\n",
                corpus.candidates, corpus.dns_servers, corpus.replicas);

    const RunResult seq_nocache =
        run(corpus, Mode::kSequential, /*pair_cache=*/false, nullptr);
    report("sequential (no pair cache)", corpus, seq_nocache,
           seq_nocache.stats.wall_seconds);

    const RunResult seq =
        run(corpus, Mode::kSequential, /*pair_cache=*/true, nullptr);
    report("sequential", corpus, seq, seq_nocache.stats.wall_seconds);

    ThreadPool inline_pool{0};
    const RunResult par0 =
        run(corpus, Mode::kParallel, /*pair_cache=*/true, &inline_pool);
    report("parallel (0 threads)", corpus, par0,
           seq_nocache.stats.wall_seconds);

    const std::size_t threads = hw >= 8 ? 8 : (hw > 1 ? hw : 1);
    ThreadPool pool{threads};
    const RunResult par =
        run(corpus, Mode::kParallel, /*pair_cache=*/true, &pool);
    const std::string label =
        "parallel (" + std::to_string(threads) + " threads)";
    report(label.c_str(), corpus, par, seq_nocache.stats.wall_seconds);

    // Equivalence: every variant, cached or not, threaded or not, must
    // leave the same ratio maps behind.
    bool corpus_ok = true;
    for (const RunResult* r : {&seq, &par0, &par}) {
      if (r->digest != seq_nocache.digest) corpus_ok = false;
    }
    if (corpus_ok) {
      std::printf("  digest: identical across variants (0x%016llx)\n",
                  static_cast<unsigned long long>(seq_nocache.digest));
    } else {
      digests_ok = false;
      std::printf(
          "  digest MISMATCH: seq-nocache 0x%016llx seq 0x%016llx "
          "par0 0x%016llx par 0x%016llx\n",
          static_cast<unsigned long long>(seq_nocache.digest),
          static_cast<unsigned long long>(seq.digest),
          static_cast<unsigned long long>(par0.digest),
          static_cast<unsigned long long>(par.digest));
    }
  }

  if (!digests_ok) {
    std::fprintf(stderr,
                 "micro_campaign: FAIL — campaign variants disagree\n");
    return 1;
  }
  return 0;
}
