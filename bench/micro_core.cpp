// Microbenchmarks (google-benchmark) for the hot operations of the CRP
// stack: ratio-map construction, cosine similarity, candidate ranking,
// SMF clustering, the latency oracle and Meridian queries.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/hybrid.hpp"
#include "core/clustering.hpp"
#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "core/similarity_engine.hpp"
#include "meridian/overlay.hpp"
#include "netsim/latency_model.hpp"
#include "netsim/topology_builder.hpp"
#include "service/wire.hpp"

namespace {

using namespace crp;

core::RatioMap random_map(Rng& rng, int entries, std::uint32_t id_space) {
  std::vector<core::RatioMap::Entry> e;
  e.reserve(static_cast<std::size_t>(entries));
  for (int i = 0; i < entries; ++i) {
    e.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                       rng.uniform_int(0, id_space - 1))},
                   rng.uniform(0.01, 1.0));
  }
  return core::RatioMap::from_ratios(e);
}

void BM_RatioMapFromCounts(benchmark::State& state) {
  Rng rng{1};
  std::vector<std::pair<ReplicaId, std::uint64_t>> counts;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    counts.emplace_back(
        ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 499))},
        static_cast<std::uint64_t>(rng.uniform_int(1, 100)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RatioMap::from_counts(counts));
  }
}
BENCHMARK(BM_RatioMapFromCounts)->Arg(8)->Arg(32)->Arg(128);

void BM_CosineSimilarity(benchmark::State& state) {
  Rng rng{2};
  const auto a = random_map(rng, static_cast<int>(state.range(0)), 500);
  const auto b = random_map(rng, static_cast<int>(state.range(0)), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cosine_similarity(a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(8)->Arg(32)->Arg(128);

void BM_RankCandidates(benchmark::State& state) {
  Rng rng{3};
  const auto client = random_map(rng, 16, 500);
  std::vector<core::RatioMap> candidates;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    candidates.push_back(random_map(rng, 16, 500));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rank_candidates(client, candidates));
  }
}
BENCHMARK(BM_RankCandidates)->Arg(240)->Arg(1000);

void BM_SmfClustering(benchmark::State& state) {
  Rng rng{4};
  std::vector<core::RatioMap> maps;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    maps.push_back(random_map(rng, 12, 120));
  }
  core::SmfConfig config;
  config.threshold = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::smf_cluster(maps, config));
  }
}
BENCHMARK(BM_SmfClustering)->Arg(177)->Arg(500);

struct OracleFixture {
  OracleFixture() {
    netsim::TopologyConfig config;
    config.seed = 5;
    topo = netsim::build_topology(config);
    Rng rng{6};
    hosts = netsim::place_hosts(topo, netsim::HostKind::kClient, 500, rng);
    netsim::LatencyConfig lat;
    lat.seed = 7;
    oracle = std::make_unique<netsim::LatencyOracle>(topo, lat);
  }
  netsim::Topology topo;
  std::vector<HostId> hosts;
  std::unique_ptr<netsim::LatencyOracle> oracle;
};

void BM_LatencyOracleRtt(benchmark::State& state) {
  static OracleFixture fixture;
  Rng rng{8};
  std::size_t i = 0;
  for (auto _ : state) {
    const HostId a = fixture.hosts[i % fixture.hosts.size()];
    const HostId b = fixture.hosts[(i * 7 + 13) % fixture.hosts.size()];
    benchmark::DoNotOptimize(
        fixture.oracle->rtt_ms(a, b, SimTime{static_cast<int64_t>(i)}));
    ++i;
  }
}
BENCHMARK(BM_LatencyOracleRtt);

void BM_MeridianQuery(benchmark::State& state) {
  static OracleFixture fixture;
  static meridian::MeridianOverlay* overlay = [] {
    meridian::MeridianConfig config;
    config.seed = 9;
    auto* o = new meridian::MeridianOverlay{
        *fixture.oracle,
        std::vector<HostId>{fixture.hosts.begin(), fixture.hosts.begin() + 100},
        config};
    o->bootstrap(SimTime::epoch());
    return o;
  }();
  Rng rng{10};
  std::size_t i = 0;
  for (auto _ : state) {
    const HostId target = fixture.hosts[200 + (i % 300)];
    benchmark::DoNotOptimize(
        overlay->closest_node(overlay->random_entry(rng), target,
                              SimTime::epoch() + Minutes(static_cast<int64_t>(i))));
    ++i;
  }
}
BENCHMARK(BM_MeridianQuery);

void BM_WireEncode(benchmark::State& state) {
  Rng rng{11};
  service::PositionReport report;
  report.node_id = "dns-123.as45.eu-west";
  report.when = SimTime{123456789};
  report.map = random_map(rng, static_cast<int>(state.range(0)), 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::encode(report));
  }
}
BENCHMARK(BM_WireEncode)->Arg(8)->Arg(32);

void BM_WireDecode(benchmark::State& state) {
  Rng rng{12};
  service::PositionReport report;
  report.node_id = "dns-123.as45.eu-west";
  report.when = SimTime{123456789};
  report.map = random_map(rng, static_cast<int>(state.range(0)), 500);
  const std::string bytes = *service::encode(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::decode(bytes));
  }
}
BENCHMARK(BM_WireDecode)->Arg(8)->Arg(32);

void BM_HybridRank(benchmark::State& state) {
  Rng rng{13};
  const auto client = random_map(rng, 16, 500);
  std::vector<core::RatioMap> candidates;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    candidates.push_back(random_map(rng, 16, 500));
  }
  std::vector<double> estimates;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    estimates.push_back(rng.uniform(1.0, 300.0));
  }
  const auto estimate = [&estimates](std::size_t i) {
    return estimates[i];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::hybrid_rank(client, candidates, estimate));
  }
}
BENCHMARK(BM_HybridRank)->Arg(240);

// --- similarity engine vs naive per-pair selection ---
//
// Corpus shape matches a large CRP deployment: 16-entry maps over a
// ~2000-replica fleet, so most pairs share no replica and the engine's
// inverted index skips them. The naive loop pays a full scan per query
// regardless. Args are {corpus size, threads}; the naive baseline is
// single-threaded by construction (that is the thing being replaced).
constexpr std::uint32_t kEngineIdSpace = 2000;
constexpr int kEngineEntries = 16;
constexpr std::size_t kEngineTopK = 8;

std::vector<core::RatioMap> engine_corpus(std::size_t n) {
  Rng rng{14};
  std::vector<core::RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    maps.push_back(random_map(rng, kEngineEntries, kEngineIdSpace));
  }
  return maps;
}

void BM_NaiveTopKLoop(benchmark::State& state) {
  const auto maps = engine_corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const core::RatioMap& query : maps) {
      benchmark::DoNotOptimize(
          core::select_top_k(query, maps, kEngineTopK));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(maps.size()));
}
BENCHMARK(BM_NaiveTopKLoop)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_EngineTopK(benchmark::State& state) {
  const auto maps = engine_corpus(static_cast<std::size_t>(state.range(0)));
  const core::SimilarityEngine engine{maps};
  ThreadPool pool{static_cast<std::size_t>(state.range(1))};
  std::vector<std::vector<core::RankedCandidate>> top(engine.size());
  for (auto _ : state) {
    pool.parallel_for(0, engine.size(), [&](std::size_t i) {
      top[i] = engine.top_k(engine.row_view(i), kEngineTopK);
    });
    benchmark::DoNotOptimize(top.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(maps.size()));
}
BENCHMARK(BM_EngineTopK)
    ->Args({256, 1})->Args({256, 4})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 4})->Args({1024, 8})
    ->Args({4096, 1})->Args({4096, 4})->Args({4096, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
