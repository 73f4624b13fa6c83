// The three workloads. Each runs set-up several times (median = setup_s),
// a deterministic counting pass over the quiescent corpus, then its
// measured phases, and ends with the oracle check on the final state.
//
//   campaign_refresh  paper-scale world; hourly probe cycles delivered
//                     into a 4-shard frontend, Fig. 4 batch per cycle
//   serve_read        20,000-node synthetic corpus, read load
//   serve_churn       5,000-node synthetic corpus, open-loop writer
//                     beside open-loop readers
//
// Every workload measures reads and a write path, so each reports every
// end-to-end metric: campaign_refresh adds read slices on its
// campaign-built corpus; the serving workloads add refresh rounds that
// re-deliver a paper-world-sized slice (1,240 maps) of their corpus.
//
// The measured time is cut into rounds and every phase runs a slice of
// each round, so a slow spell on a shared host touches every phase a
// little instead of one phase a lot; metrics are medians over slices or
// over all samples. Read phases run for a share of the round; write
// phases (refresh cycles and rounds, the churn schedule) run a fixed
// count, so the state every read sees depends on the seed alone. Tiny
// runs replace every deadline by a fixed count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "corpus.hpp"
#include "eval/world.hpp"
#include "service/wire.hpp"
#include "trace.hpp"

namespace crp::perfbench {

namespace {

constexpr std::size_t kShards = 4;
/// Maps re-delivered per refresh round of the serving workloads: the
/// paper world's 240 + 1,000 participants.
constexpr std::size_t kRefreshSlice = 1240;
/// Refresh rounds per round of measured time in the serving workloads
/// (about 0.15 s of a 1 s round). A fixed count, not a deadline: each
/// refresh leaves dead postings that every read scans until the engine
/// compacts, so the corpus under the next read slice must depend on the
/// seed alone, not on how fast the writes ran.
constexpr std::size_t kRefreshRounds = 10;
constexpr std::size_t kBatchClients = 256;
constexpr std::size_t kChurnBatch = 64;

// Open-loop rates: fixed and absolute, so a faster program sees the same
// load. Each keeps its readers about a quarter busy on a quiet 4-CPU
// host: the shared host has slow spells that halve throughput, and a
// loop at half capacity then collapses into queueing (serve_read's p90
// went 0.34 -> 2-6 ms at 6,000/s).
constexpr double kCampaignReadRate = 10000.0;
constexpr double kServeReadRate = 3000.0;
constexpr double kChurnReadRate = 3000.0;
/// One 64-report churn batch every 20 ms (about a third of the writer's
/// capacity beside the readers).
constexpr double kChurnWritePeriodS = 0.020;

/// Campaigns, refreshes and batches run on the caller plus one worker and
/// closed-loop reads on two client threads: half of a 4-CPU host. A
/// fork-join call waits for its slowest thread, and a shared host that
/// takes CPUs away stalls a wide pool. In two interleaved A/B sets of
/// campaign_refresh on a shared 4-CPU VM (six and four runs a side), two
/// threads instead of three cut the spread of refresh_s from 0.13-0.15 to
/// 0.03-0.04, of batch_clients_per_s from 0.20-0.29 to 0.05-0.10 and of
/// publish_p50_ms from 0.22-0.24 to 0.06-0.08, for 7-11% fewer batch
/// clients per second and 50% longer refreshes.
constexpr std::size_t kPoolWorkers = 1;
constexpr std::size_t kClosedLoopClients = 2;

struct Rounds {
  std::size_t count;
  double seconds;

  [[nodiscard]] double slice(double share) const {
    return seconds * share / static_cast<double>(count);
  }
};

/// One round per second of measured time.
Rounds rounds_of(const Options& opt) {
  const auto count = static_cast<std::size_t>(std::max(1.0, std::round(opt.seconds)));
  return {opt.tiny ? 2 : count, opt.seconds};
}

/// Resident memory one set-up adds to the process: RSS after the first
/// set-up minus RSS before it. The benchmark's own inputs (frames, request
/// streams) exist before and its oracle is built after, so the figure
/// covers only what the program holds: the world and the frontend.
/// Later set-ups reuse the memory freed by earlier ones, so only the
/// first is measured.
struct SetupMemory {
  double before = resident_mb();

  void record(Report& report) const {
    report.set("peak_rss_mb", resident_mb() - before);
  }
};

std::vector<std::string> names_of(std::span<const std::size_t> nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const std::size_t n : nodes) out.push_back(CorpusGenerator::id(n));
  return out;
}

/// `count` seeded picks from `pool`, for request streams.
std::vector<std::string> request_stream(const std::vector<std::string>& pool,
                                        std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.pick(pool));
  return out;
}

/// Fixed oracle sample drawn from `pool`.
std::vector<std::string> oracle_sample(const std::vector<std::string>& pool,
                                       std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::string> out;
  for (const std::size_t i :
       rng.sample_indices(pool.size(), std::min(count, pool.size()))) {
    out.push_back(pool[i]);
  }
  return out;
}

std::size_t oracle_sample_size(const Options& opt) { return opt.tiny ? 16 : 48; }

struct Delivery {
  std::vector<std::string> wire;
  std::size_t accepted = 0;
  std::uint64_t wire_bytes = 0;
  double publish_s = 0.0;
};

/// The delivery half of the serving path: encode -> publish_batch ->
/// publish_snapshots, each call in its own span.
Delivery deliver(service::ShardedFrontend& frontend,
                 const std::vector<service::PositionReport>& reports,
                 SimTime when, ThreadPool& pool) {
  Delivery d;
  d.wire.resize(reports.size());
  {
    trace::Span span("service.encode");
    pool.parallel_for(0, reports.size(), [&](std::size_t i) {
      if (auto bytes = service::encode(reports[i])) d.wire[i] = std::move(*bytes);
    });
  }
  const Clock::time_point begin = Clock::now();
  {
    trace::Span span("service.publish_batch");
    d.accepted = frontend.publish_batch(d.wire, when, &pool);
  }
  d.publish_s = seconds_between(begin, Clock::now());
  {
    trace::Span span("service.publish_snapshots");
    frontend.publish_snapshots(when);
  }
  for (const std::string& bytes : d.wire) d.wire_bytes += bytes.size();
  return d;
}

double mean_entries(const std::vector<service::PositionReport>& reports) {
  std::size_t entries = 0;
  std::size_t maps = 0;
  for (const auto& r : reports) {
    if (r.map.empty()) continue;
    entries += r.map.size();
    ++maps;
  }
  return maps == 0 ? 0.0
                   : static_cast<double>(entries) / static_cast<double>(maps);
}

void print_traffic(const char* workload, const Report& report) {
  std::printf("# traffic %s: core.map_entries_mean %.2f, "
              "service.maps_per_query %.2f\n",
              workload, report.values.at("core.map_entries_mean"),
              report.values.at("service.maps_per_query"));
}

void final_check(const service::ShardedFrontend& frontend,
                 const Oracle& oracle, const std::vector<std::string>& sample,
                 const std::vector<std::string>& candidates, SimTime now,
                 ThreadPool& pool, const Options& opt, Report& report) {
  std::uint64_t digest = 1469598103934665603ull;
  const std::size_t mismatches = oracle.check(
      frontend, sample, candidates, now, pool, opt.corrupt_oracle, digest);
  report.attempted += (candidates.empty() ? 2 : 3) * sample.size();
  report.fail(mismatches);
  if (opt.tiny) report.counter("oracle.final_digest", digest);
  std::printf("# oracle: final state, %zu clients, %zu mismatches\n",
              sample.size(), mismatches);
}

/// Open-loop slice of one round; `first` continues the request stream.
void open_loop_slice(const service::ShardedFrontend& frontend,
                     const std::vector<std::string>& stream,
                     std::size_t readers, double rate, SimTime now,
                     double seconds, const Options& opt, std::size_t& first,
                     ReadStats& reads, Report& report) {
  OpenLoopReads load;
  load.readers = std::min(readers, host_cpus());
  load.rate_per_s = rate;
  load.now = now;
  load.clients = &stream;
  load.seconds = seconds;
  load.requests = opt.tiny ? 200 : 0;
  load.first = first;
  const ReadSamples samples = run_open_loop_reads(frontend, load);
  first += samples.attempted;
  reads.add_open_loop(samples, report);
}

void closed_loop_slice(const service::ShardedFrontend& frontend,
                       const std::vector<std::string>& stream, SimTime now,
                       double seconds, const Options& opt, ReadStats& reads,
                       Report& report) {
  const ClosedLoopCount count =
      run_closed_loop_reads(frontend, stream, kClosedLoopClients, now, seconds,
                            opt.tiny ? 200 : 0, report);
  reads.closed.queries += count.queries;
  reads.closed.seconds += count.seconds;
}

// --- synthetic corpora (serve_read, serve_churn) ---

struct SyntheticState {
  std::unique_ptr<service::ShardedFrontend> frontend;
  Oracle oracle;
};

/// Loads the pre-encoded corpus into a fresh frontend `reps` times; keeps
/// the last one. Sets setup_s (median load time) and peak_rss_mb (first
/// load).
void load_corpus(SyntheticState& st, const std::vector<std::string>& frames,
                 SimTime t0, std::size_t reps, ThreadPool& pool,
                 Report& report) {
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    st.frontend.reset();
    const SetupMemory memory;
    const Clock::time_point begin = Clock::now();
    auto frontend = std::make_unique<service::ShardedFrontend>(
        service::ShardedFrontendConfig{kShards, {}, {}});
    (void)frontend->publish_batch(frames, t0, &pool);
    frontend->publish_snapshots(t0);
    times.push_back(seconds_between(begin, Clock::now()));
    if (r == 0) memory.record(report);
    st.frontend = std::move(frontend);
  }
  report.set("setup_s", median(times));
  st.oracle.deliver(frames);
}

/// Builds the initial corpus of nodes [0, n) at `t0` (input generation,
/// untimed), loads it, and runs the counting pass on `sample`.
void synthetic_setup(SyntheticState& st, const CorpusGenerator& gen,
                     std::size_t n, SimTime t0,
                     const std::vector<std::string>& sample, ThreadPool& pool,
                     const Options& opt, Report& report) {
  std::vector<service::PositionReport> initial(n);
  std::vector<std::string> frames(n);
  pool.parallel_for(0, n, [&](std::size_t i) {
    initial[i] = service::PositionReport{CorpusGenerator::id(i), t0, gen.map(i, 0)};
    frames[i] = service::encode(initial[i]).value_or(std::string{});
  });
  load_corpus(st, frames, t0, opt.tiny ? 2 : 11, pool, report);
  report.attempted += n;
  report.fail(n - st.frontend->size());
  report.set("core.map_entries_mean", mean_entries(initial));
  counting_pass(*st.frontend, st.oracle, sample, {}, t0, pool, opt, report);
}

struct RefreshSamples {
  /// Off in serve_churn, so its service.* spans describe the writer.
  bool traced = true;
  std::size_t maps_per_round = 0;
  std::vector<double> refresh_s;
  RoundPercentiles publish_ms;
  std::uint64_t wire_bytes = 0;
  /// Rounds run so far; round r refreshes the r-th slice of the nodes.
  std::size_t rounds = 0;
};

/// `count` refresh rounds: each re-delivers drifted maps for the next
/// kRefreshSlice of `nodes` (wrapping), stamped `clock` + 1 µs per round.
/// Map generation is input preparation and stays outside the timing.
void refresh_rounds(SyntheticState& st, const CorpusGenerator& gen,
                    const std::vector<std::size_t>& nodes, SimTime& clock,
                    std::size_t count, ThreadPool& pool, RefreshSamples& out,
                    Report& report) {
  const std::size_t slice = std::min(kRefreshSlice, nodes.size());
  out.maps_per_round = slice;
  std::vector<double> publish_ms;
  for (std::size_t n = 0; n < count; ++n) {
    const std::size_t r = out.rounds++;
    clock = clock + Micros(1);
    const SimTime when = clock;
    std::vector<service::PositionReport> reports(slice);
    pool.parallel_for(0, slice, [&](std::size_t i) {
      const std::size_t node = nodes[(r * slice + i) % nodes.size()];
      reports[i] = service::PositionReport{CorpusGenerator::id(node), when,
                                           gen.map(node, 1'000'000 + r)};
    });
    trace::Operation op(r, out.traced && r % 2 == 0);
    const Clock::time_point begin = Clock::now();
    Delivery d;
    {
      trace::Span span("refresh.round");
      d = deliver(*st.frontend, reports, when, pool);
    }
    out.refresh_s.push_back(seconds_between(begin, Clock::now()));
    publish_ms.push_back(d.publish_s * 1e3);
    out.wire_bytes += d.wire_bytes;
    report.attempted += slice;
    report.fail(slice - d.accepted);
    st.oracle.deliver(d.wire);
  }
  out.publish_ms.add(publish_ms);
}

void report_refresh(const RefreshSamples& s, bool publish_metrics,
                    Report& report) {
  report.set("refresh_s", median(s.refresh_s));
  report.set("service.wire_bytes",
             s.rounds == 0 ? 0.0
                           : static_cast<double>(s.wire_bytes) /
                                 static_cast<double>(s.rounds));
  if (publish_metrics) {
    s.publish_ms.report("publish_p50_ms", nullptr, "publish.p99_ms", report);
  }
  std::printf("# refresh rounds: %zu x %zu maps\n", s.rounds,
              s.maps_per_round);
}

// --- campaign world ---

struct CampaignScale {
  std::size_t candidates = 240;
  std::size_t dns_servers = 1000;
  std::size_t replicas = 400;
  Duration warmup = Hours(24);
};

constexpr Duration kProbeInterval = Minutes(10);
constexpr Duration kCycle = Hours(1);
/// Refresh cycles per round of measured time (about 0.85 s of a 1 s
/// round). A fixed count, like kRefreshRounds, so the world and corpus
/// under each read slice depend on the seed alone.
constexpr std::size_t kCyclesPerRound = 4;

struct CampaignState {
  std::unique_ptr<eval::World> world;
  std::unique_ptr<service::ShardedFrontend> frontend;
  std::vector<core::CrpNode*> nodes;
  std::vector<std::string> names;
  std::vector<std::string> candidate_names;
  std::vector<std::string> dns_names;
  Oracle oracle;
  /// End of the last probe window (the next cycle starts here).
  SimTime clock;
};

struct CycleResult {
  double refresh_s = 0.0;
  double publish_s = 0.0;
  std::size_t expected = 0;
  std::size_t accepted = 0;
  std::uint64_t wire_bytes = 0;
  double entries_mean = 0.0;
  eval::CampaignStats campaign;
  /// The delivered frames, for the oracle.
  std::vector<std::string> wire;
};

/// One refresh: probe window [clock, clock + window) -> every
/// participant's ratio map -> delivery, stamped at the window's end.
CycleResult refresh_cycle(CampaignState& st, Duration window,
                          ThreadPool& pool) {
  CycleResult out;
  const SimTime start = st.clock;
  const SimTime end = start + window;
  const Clock::time_point begin = Clock::now();
  {
    trace::Span span("eval.campaign");
    (void)st.world->run_probing_parallel(start, end - Micros(1),
                                         kProbeInterval, &pool);
  }
  std::vector<service::PositionReport> reports(st.nodes.size());
  {
    trace::Span span("core.ratio_map");
    pool.parallel_for(0, st.nodes.size(), [&](std::size_t i) {
      reports[i] = service::PositionReport{st.names[i], end,
                                           st.nodes[i]->ratio_map()};
    });
  }
  Delivery d = deliver(*st.frontend, reports, end, pool);
  out.refresh_s = seconds_between(begin, Clock::now());
  out.publish_s = d.publish_s;
  out.accepted = d.accepted;
  out.wire_bytes = d.wire_bytes;
  out.entries_mean = mean_entries(reports);
  for (const auto& r : reports) out.expected += r.map.empty() ? 0 : 1;
  out.campaign = st.world->campaign_stats();
  out.wire = std::move(d.wire);
  st.clock = end;
  return out;
}

eval::WorldConfig world_config(std::uint64_t seed, const CampaignScale& scale) {
  eval::WorldConfig config;
  config.seed = seed;
  config.num_candidates = scale.candidates;
  config.num_dns_servers = scale.dns_servers;
  config.cdn.target_replicas = scale.replicas;
  // The maps cover a sliding window as long as the warm-up, so every
  // refresh costs the same however long the run is.
  config.crp.max_history =
      static_cast<std::size_t>(scale.warmup / kProbeInterval);
  return config;
}

/// World build + warm-up campaign + first delivery.
CampaignState campaign_setup(std::uint64_t seed, const CampaignScale& scale,
                             ThreadPool& pool, Report& report) {
  const SetupMemory memory;
  CampaignState st;
  st.world = std::make_unique<eval::World>(world_config(seed, scale));
  st.frontend = std::make_unique<service::ShardedFrontend>(
      service::ShardedFrontendConfig{kShards, {}, {}});
  const auto name_of = [&](HostId h) { return st.world->topology().host(h).name; };
  for (const HostId h : st.world->participants()) {
    st.nodes.push_back(&st.world->crp_node(h));
    st.names.push_back(name_of(h));
  }
  for (const HostId h : st.world->candidates()) st.candidate_names.push_back(name_of(h));
  for (const HostId h : st.world->dns_servers()) st.dns_names.push_back(name_of(h));
  st.clock = SimTime::epoch();
  const CycleResult first = refresh_cycle(st, scale.warmup, pool);
  memory.record(report);
  st.oracle.deliver(first.wire);
  report.set("core.map_entries_mean", first.entries_mean);
  report.counter("eval.warmup_probes", first.campaign.probes_issued);
  report.counter("service.warmup_accepted", first.accepted);
  if (first.accepted != first.expected) report.fail();
  report.attempted += first.expected;
  return st;
}

/// Sums of the campaign counters over the measured cycles.
struct CampaignTotals {
  std::uint64_t probes = 0, upstream = 0, failed_probes = 0, cdn = 0;
  std::uint64_t hits = 0, misses = 0, pair_hits = 0, pair_misses = 0;
  std::uint64_t wire_bytes = 0;

  void add(const CycleResult& c) {
    probes += c.campaign.probes_issued;
    upstream += c.campaign.upstream_dns_queries;
    failed_probes += c.campaign.failed_probes;
    cdn += c.campaign.cdn_queries;
    hits += c.campaign.resolver_cache_hits;
    misses += c.campaign.resolver_cache_misses;
    pair_hits += c.campaign.oracle_pair_hits;
    pair_misses += c.campaign.oracle_pair_misses;
    wire_bytes += c.wire_bytes;
  }

  void report(std::size_t cycles, Report& out) const {
    const auto per_cycle = [cycles](std::uint64_t v) {
      return cycles == 0 ? 0.0
                         : static_cast<double>(v) / static_cast<double>(cycles);
    };
    const auto rate = [](std::uint64_t a, std::uint64_t b) {
      return a + b == 0 ? 0.0
                        : static_cast<double>(a) / static_cast<double>(a + b);
    };
    out.set("eval.probes", per_cycle(probes));
    out.set("dns.upstream_queries", per_cycle(upstream));
    out.set("dns.failed_probes", per_cycle(failed_probes));
    out.set("dns.resolver_hit_rate", rate(hits, misses));
    out.set("cdn.queries", per_cycle(cdn));
    out.set("netsim.pair_cache_hit_rate", rate(pair_hits, pair_misses));
    out.set("service.wire_bytes", per_cycle(wire_bytes));
  }
};

}  // namespace

void run_campaign_refresh(const Options& opt, Report& report) {
  const CampaignScale scale =
      opt.tiny ? CampaignScale{20, 40, 120, Hours(4)} : CampaignScale{};
  ThreadPool pool{kPoolWorkers};

  CampaignState st;
  std::vector<double> setup_times;
  double setup_rss_mb = 0.0;
  const std::size_t setup_reps = opt.tiny ? 2 : 3;
  for (std::size_t r = 0; r < setup_reps; ++r) {
    st = CampaignState{};  // frees the previous world before the next
    Report setup_report;
    trace::Operation untraced(0, false);  // set-up is not a layer sample
    const Clock::time_point begin = Clock::now();
    st = campaign_setup(opt.seed, scale, pool, setup_report);
    setup_times.push_back(seconds_between(begin, Clock::now()));
    if (r == 0) setup_rss_mb = setup_report.values.at("peak_rss_mb");
    if (r + 1 == setup_reps) {
      report.values = setup_report.values;
      report.counters = setup_report.counters;
      report.attempted += setup_report.attempted;
      report.fail(setup_report.failed);
    }
  }
  report.set("setup_s", median(setup_times));
  report.set("peak_rss_mb", setup_rss_mb);
  std::printf("# world: %zu candidates, %zu dns servers, %zu replicas, "
              "%zu maps accepted\n",
              scale.candidates, scale.dns_servers, scale.replicas,
              st.frontend->size());

  std::vector<std::string> accepted_dns;
  std::vector<std::string> known;
  for (const std::string& n : st.dns_names) {
    if (st.frontend->map_of(n).has_value()) accepted_dns.push_back(n);
  }
  for (const std::string& n : st.names) {
    if (st.frontend->map_of(n).has_value()) known.push_back(n);
  }
  const std::vector<std::string> sample = oracle_sample(
      accepted_dns, oracle_sample_size(opt), hash_combine({opt.seed, 17}));
  counting_pass(*st.frontend, st.oracle, sample, st.candidate_names, st.clock,
                pool, opt, report);
  if (opt.counters_only) {
    print_traffic("campaign_refresh", report);
    return;
  }
  const std::vector<std::string> stream =
      request_stream(known, 1 << 16, hash_combine({opt.seed, 23}));

  const service::ServiceStats stats_before = st.frontend->stats();
  const double cpu_before = cpu_seconds();
  const Rounds rounds = rounds_of(opt);
  std::vector<double> refresh_s, traced, untraced, entries;
  RoundPercentiles publish_ms;
  CampaignTotals totals;
  ReadStats reads;
  std::size_t next_request = 0;
  std::size_t cycle_index = 0;
  for (std::size_t round = 0; round < rounds.count; ++round) {
    // Refresh cycles, each closed by the paper's Fig. 4 query.
    std::vector<double> round_publish_ms;
    for (std::size_t n = 0; n < (opt.tiny ? 1 : kCyclesPerRound); ++n) {
      const std::size_t c = cycle_index++;
      trace::Operation op(c, c % 2 == 0);
      CycleResult cycle;
      {
        trace::Span span("refresh.cycle");
        cycle = refresh_cycle(st, kCycle, pool);
      }
      (op.traced() ? traced : untraced).push_back(cycle.refresh_s);
      refresh_s.push_back(cycle.refresh_s);
      round_publish_ms.push_back(cycle.publish_s * 1e3);
      entries.push_back(cycle.entries_mean);
      totals.add(cycle);
      st.oracle.deliver(cycle.wire);
      report.attempted += cycle.expected;
      if (cycle.accepted != cycle.expected) report.fail();

      const Clock::time_point begin = Clock::now();
      std::vector<std::vector<service::RankedNode>> rows;
      {
        trace::Span span("service.closest_batch");
        const service::ShardedFrontend::View view = [&] {
          trace::Span view_span("service.view");
          return st.frontend->view();
        }();
        rows = view.closest_batch(st.dns_names, st.candidate_names, kTopK,
                                  st.clock, &pool);
      }
      reads.batch_rates.push_back(static_cast<double>(st.dns_names.size()) /
                                  seconds_between(begin, Clock::now()));
      report.attempted += rows.size();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const bool known_client =
            st.frontend->map_of(st.dns_names[i]).has_value();
        if (rows[i].size() != (known_client ? kTopK : 0)) report.fail();
      }
    }
    publish_ms.add(round_publish_ms);
    // Read slices on the campaign-built corpus.
    open_loop_slice(*st.frontend, stream, 3, kCampaignReadRate, st.clock,
                    rounds.slice(0.15), opt, next_request, reads, report);
    closed_loop_slice(*st.frontend, stream, st.clock, rounds.slice(0.15), opt,
                      reads, report);
  }
  std::printf("# refresh cycles: %zu\n", refresh_s.size());
  report.set("refresh_s", median(refresh_s));
  publish_ms.report("publish_p50_ms", nullptr, "publish.p99_ms", report);
  reads.finish(report);
  report.set("trace.overhead_pct", overhead_pct(traced, untraced));
  report.set("proc.cpu_s", cpu_seconds() - cpu_before);
  report.set("core.map_entries_mean", median(entries));
  totals.report(refresh_s.size(), report);
  report_service_layers(*st.frontend, stats_before, report);
  print_traffic("campaign_refresh", report);
  final_check(*st.frontend, st.oracle, sample, st.candidate_names, st.clock,
              pool, opt, report);
}

void run_serve_read(const Options& opt, Report& report) {
  const std::size_t n = opt.tiny ? 400 : 20000;
  const CorpusGenerator gen{hash_combine({opt.seed, stable_hash("serve_read")})};
  ThreadPool pool{kPoolWorkers};
  const SimTime t0 = SimTime::epoch() + Hours(1);

  std::vector<std::size_t> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = i;
  const std::vector<std::string> ids = names_of(nodes);
  const std::vector<std::string> stream =
      request_stream(ids, 1 << 16, hash_combine({opt.seed, 23}));
  const std::vector<std::string> sample =
      oracle_sample(ids, oracle_sample_size(opt), hash_combine({opt.seed, 17}));

  SyntheticState st;
  synthetic_setup(st, gen, n, t0, sample, pool, opt, report);
  print_traffic("serve_read", report);
  if (opt.counters_only) return;

  const service::ServiceStats stats_before = st.frontend->stats();
  const double cpu_before = cpu_seconds();
  const Rounds rounds = rounds_of(opt);
  ReadStats reads;
  RefreshSamples refresh;
  SimTime clock = t0;
  std::size_t next_request = 0;
  for (std::size_t round = 0; round < rounds.count; ++round) {
    // Reads answer at the write clock; refresh rounds advance it by 1 µs.
    open_loop_slice(*st.frontend, stream, 3, kServeReadRate, clock,
                    rounds.slice(0.4), opt, next_request, reads, report);
    closed_loop_slice(*st.frontend, stream, clock, rounds.slice(0.2), opt,
                      reads, report);
    run_closed_loop_batches(*st.frontend, stream, kBatchClients, clock, pool,
                            rounds.slice(0.25), opt.tiny ? 2 : 0,
                            reads.batch_rates, report);
    refresh_rounds(st, gen, nodes, clock, opt.tiny ? 2 : kRefreshRounds, pool,
                   refresh, report);
  }
  reads.finish(report);
  report.set("trace.overhead_pct",
             overhead_pct(reads.traced_us, reads.untraced_us));
  report.set("proc.cpu_s", cpu_seconds() - cpu_before);
  report_refresh(refresh, /*publish_metrics=*/true, report);
  report_service_layers(*st.frontend, stats_before, report);
  final_check(*st.frontend, st.oracle, sample, {}, clock, pool, opt, report);
}

namespace {

/// One write of the churn schedule: removals, then a 64-report batch.
struct WriteOp {
  SimTime when;
  std::vector<std::string> removes;
  std::vector<std::string> frames;
};

/// The writer's schedule (input generation, untimed): op i carries 64
/// pre-encoded reports stamped t0 + (i + 1) s. Every fourth op also
/// removes 4 churning nodes and adds 16 absent ones; the rest of its
/// reports update distinct present nodes with drifted maps. Nodes below
/// `stable` are never removed.
std::vector<WriteOp> churn_schedule(const CorpusGenerator& gen,
                                    std::size_t stable, std::size_t present0,
                                    std::size_t total, std::size_t ops,
                                    SimTime t0, std::uint64_t seed,
                                    ThreadPool& pool) {
  std::vector<WriteOp> schedule(ops);
  Rng rng{hash_combine({seed, stable_hash("churn-schedule")})};
  std::vector<std::size_t> churning;  // present nodes >= stable
  std::vector<std::size_t> absent;
  for (std::size_t i = stable; i < present0; ++i) churning.push_back(i);
  for (std::size_t i = present0; i < total; ++i) absent.push_back(i);
  const auto take = [&rng](std::vector<std::size_t>& from) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1));
    const std::size_t node = from[at];
    from[at] = from.back();
    from.pop_back();
    return node;
  };
  std::vector<std::pair<std::size_t, std::size_t>> work;  // (op, node)
  for (std::size_t i = 0; i < ops; ++i) {
    WriteOp& op = schedule[i];
    op.when = t0 + Seconds(static_cast<std::int64_t>(i + 1));
    std::vector<std::size_t> publish;
    if (i % 4 == 3) {
      std::vector<std::size_t> left;
      for (int r = 0; r < 4 && !churning.empty(); ++r) {
        left.push_back(take(churning));
        op.removes.push_back(CorpusGenerator::id(left.back()));
      }
      for (int a = 0; a < 16 && !absent.empty(); ++a) {
        publish.push_back(take(absent));
        churning.push_back(publish.back());
      }
      absent.insert(absent.end(), left.begin(), left.end());
    }
    const std::size_t present = stable + churning.size();
    while (publish.size() < kChurnBatch) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(present) - 1));
      const std::size_t node = k < stable ? k : churning[k - stable];
      if (std::find(publish.begin(), publish.end(), node) == publish.end()) {
        publish.push_back(node);
      }
    }
    for (const std::size_t node : publish) work.emplace_back(i, node);
  }
  std::vector<std::string> encoded(work.size());
  pool.parallel_for(0, work.size(), [&](std::size_t w) {
    const auto [i, node] = work[w];
    encoded[w] = service::encode(service::PositionReport{
                                     CorpusGenerator::id(node),
                                     schedule[i].when, gen.map(node, i + 1)})
                     .value_or(std::string{});
  });
  for (std::size_t w = 0; w < work.size(); ++w) {
    schedule[work[w].first].frames.push_back(std::move(encoded[w]));
  }
  return schedule;
}

}  // namespace

void run_serve_churn(const Options& opt, Report& report) {
  // Nodes [0, stable) never leave; [stable, total) join and leave, half
  // of them present at the start. Readers ask only for stable nodes, so
  // no query is legitimately refused.
  const std::size_t stable = opt.tiny ? 300 : 4000;
  const std::size_t total = opt.tiny ? 500 : 6000;
  const std::size_t present0 = stable + (total - stable) / 2;
  const CorpusGenerator gen{hash_combine({opt.seed, stable_hash("serve_churn")})};
  ThreadPool pool{kPoolWorkers};
  const SimTime t0 = SimTime::epoch() + Hours(1);
  const Rounds rounds = rounds_of(opt);

  std::vector<std::size_t> stable_nodes(stable);
  for (std::size_t i = 0; i < stable; ++i) stable_nodes[i] = i;
  const std::vector<std::string> stable_ids = names_of(stable_nodes);
  const std::vector<std::string> stream =
      request_stream(stable_ids, 1 << 16, hash_combine({opt.seed, 23}));
  const std::vector<std::string> sample = oracle_sample(
      stable_ids, oracle_sample_size(opt), hash_combine({opt.seed, 17}));
  const std::size_t ops_per_round =
      opt.tiny ? 12
               : static_cast<std::size_t>(rounds.slice(0.6) / kChurnWritePeriodS);
  const std::vector<WriteOp> schedule =
      opt.counters_only
          ? std::vector<WriteOp>{}
          : churn_schedule(gen, stable, present0, total,
                           ops_per_round * rounds.count, t0, opt.seed, pool);

  SyntheticState st;
  synthetic_setup(st, gen, present0, t0, sample, pool, opt, report);
  print_traffic("serve_churn", report);
  if (opt.counters_only) return;

  const service::ServiceStats stats_before = st.frontend->stats();
  const double cpu_before = cpu_seconds();
  // Readers answer after the last write of the schedule.
  const SimTime read_now =
      t0 + Seconds(static_cast<std::int64_t>(schedule.size() + 1));
  SimTime clock = t0;
  // One reader beside the writer and its pool (the batch pool, idle
  // while the writer runs) leaves a CPU free.
  const std::size_t readers = 1;
  ReadStats reads;
  RefreshSamples refresh;
  refresh.traced = false;
  RoundPercentiles publish_ms;
  std::vector<double> busy_ms;
  std::uint64_t write_attempted = 0, write_failed = 0;
  std::size_t next_request = 0;
  for (std::size_t round = 0; round < rounds.count; ++round) {
    // One open-loop writer beside open-loop readers: op i of this round
    // is due at start + i * period; its latency runs to publish_batch's
    // return, when the batch is visible to a new View (lag 1).
    std::vector<double> round_publish_ms;
    std::thread writer([&, round] {
      const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
      for (std::size_t i = 0; i < ops_per_round; ++i) {
        const std::size_t index = round * ops_per_round + i;
        const WriteOp& op = schedule[index];
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(i) * kChurnWritePeriodS * 1e9));
        std::this_thread::sleep_until(due);
        const Clock::time_point begin = Clock::now();
        trace::Operation traced(index, index % 2 == 0);
        std::size_t removed = 0;
        std::size_t accepted = 0;
        {
          trace::Span span("write.batch");
          for (const std::string& id : op.removes) {
            trace::Span remove_span("service.remove");
            removed += st.frontend->remove(id) ? 1 : 0;
          }
          trace::Span publish_span("service.publish_batch");
          accepted = st.frontend->publish_batch(op.frames, op.when, &pool);
        }
        const Clock::time_point end = Clock::now();
        round_publish_ms.push_back(seconds_between(due, end) * 1e3);
        busy_ms.push_back(seconds_between(begin, end) * 1e3);
        write_attempted += op.removes.size() + op.frames.size();
        write_failed += (op.removes.size() - removed) +
                        (op.frames.size() - accepted);
        for (const std::string& id : op.removes) st.oracle.remove(id);
        st.oracle.deliver(op.frames);
      }
    });
    open_loop_slice(*st.frontend, stream, readers, kChurnReadRate, read_now,
                    rounds.slice(0.6), opt, next_request, reads, report);
    writer.join();
    publish_ms.add(round_publish_ms);

    closed_loop_slice(*st.frontend, stream, read_now, rounds.slice(0.15), opt,
                      reads, report);
    run_closed_loop_batches(*st.frontend, stream, kBatchClients, read_now,
                            pool, rounds.slice(0.1), opt.tiny ? 2 : 0,
                            reads.batch_rates, report);
    // Refresh rounds stamp between this round's writes and the next's.
    clock = std::max(clock, t0 + Seconds(static_cast<std::int64_t>(
                                     (round + 1) * ops_per_round)));
    refresh_rounds(st, gen, stable_nodes, clock,
                   opt.tiny ? 2 : kRefreshRounds, pool, refresh, report);
  }
  reads.finish(report);
  report.set("trace.overhead_pct",
             overhead_pct(reads.traced_us, reads.untraced_us));
  publish_ms.report("publish_p50_ms", nullptr, "publish.p99_ms", report);
  report.attempted += write_attempted;
  report.fail(write_failed);
  std::printf("# writer: %zu batches of %zu reports, busy p50 %.3f ms, "
              "p99 %.3f ms\n",
              schedule.size(), kChurnBatch, percentile(busy_ms, 0.5),
              percentile(busy_ms, 0.99));
  report.set("proc.cpu_s", cpu_seconds() - cpu_before);
  report_refresh(refresh, /*publish_metrics=*/false, report);
  report_service_layers(*st.frontend, stats_before, report);
  final_check(*st.frontend, st.oracle, sample, {}, clock, pool, opt, report);
}

bool same_path_check(std::uint64_t seed) {
  // Two identical tiny worlds and campaigns: one delivers through the
  // benchmark's split calls, the other through World::report_positions.
  const CampaignScale scale{20, 40, 120, Hours(4)};
  ThreadPool pool{kPoolWorkers};
  Report setup_report;
  CampaignState split = campaign_setup(seed, scale, pool, setup_report);

  eval::World world{world_config(seed, scale)};
  (void)world.run_probing_parallel(SimTime::epoch(),
                                   SimTime::epoch() + scale.warmup - Micros(1),
                                   kProbeInterval, &pool);
  service::ShardedFrontend reference{service::ShardedFrontendConfig{kShards, {}, {}}};
  const eval::World::ReportDelivery delivery =
      world.report_positions(reference, split.clock, &pool);

  bool equal = split.frontend->size() == reference.size() &&
               split.frontend->write_epochs() == reference.write_epochs() &&
               split.frontend->stats().reports_accepted == delivery.accepted;
  for (const std::string& name : split.names) {
    if (split.frontend->report_of(name) != reference.report_of(name)) {
      equal = false;
    }
  }
  const SimTime now = split.clock;
  const auto a = split.frontend->view().closest_batch(split.names, kTopK, now, &pool);
  const auto b = reference.view().closest_batch(split.names, kTopK, now, &pool);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      equal = false;
      continue;
    }
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].node_id != b[i][j].node_id ||
          a[i][j].similarity != b[i][j].similarity) {
        equal = false;
      }
    }
  }
  std::printf("# same-path: %zu nodes, %zu accepted, frontends %s\n",
              split.names.size(), delivery.accepted,
              equal ? "digest-equal" : "DIFFER");
  return equal;
}

}  // namespace crp::perfbench
