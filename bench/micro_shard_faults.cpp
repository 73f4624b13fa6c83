// Shard-fault tolerance: availability and determinism under
// stall/crash chaos on the sharded serving tier.
//
// One probing campaign builds the corpus; then for each shard-chaos
// rate a fresh 4-shard ShardedFrontend is armed with
// `sim::FaultPlan::shard_chaos` and fed the campaign's reports over
// several delivery rounds. The bench reports what the faults cost
// (writes shed/failed, breaker opens, crashes) and what the serving
// tier still delivers (answered fraction, degraded/partial/refused
// gathered answers), then replays crashed shards from a never-faulted
// reference and reports the recovery volume (DESIGN.md §7/§9).
//
// Two oracles gate the exit code:
//   - inertness: rate 0 (an empty plan, armed) must answer
//     bit-identically to a frontend that never heard of faults;
//   - determinism: every rate's answer digest must be bit-identical
//     across thread pools {0, 1, 4} — fault draws are pure hashes.
//
// CRP_BENCH_SCALE=tiny|small shrinks the world for CI smoke runs.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "eval/world.hpp"
#include "service/sharded_frontend.hpp"
#include "service/wire.hpp"
#include "sim/fault_plan.hpp"

namespace {

using namespace crp;

struct Corpus {
  std::size_t candidates;
  std::size_t dns_servers;
  std::size_t replicas;
  Duration campaign;
  Duration interval;
};

Corpus corpus_from_env() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  const std::string scale = env == nullptr ? "" : env;
  if (scale == "tiny") return {8, 14, 80, Hours(3), Minutes(30)};
  if (scale == "small") return {20, 40, 150, Hours(6), Minutes(20)};
  return {40, 120, 250, Hours(12), Minutes(15)};
}

constexpr std::uint64_t kSeed = 6161;
constexpr std::size_t kShards = 4;
constexpr int kDeliveries = 6;

struct FaultedRun {
  service::FrontendHealthStats health;
  std::size_t accepted = 0;
  std::uint64_t digest = 0;
  std::size_t clients = 0;
  std::size_t fresh = 0;
  std::size_t degraded = 0;  // answered from a stale fallback
  std::size_t partial = 0;   // a shard's fallback aged out entirely
  std::size_t refused = 0;
  std::size_t shards_down = 0;  // awaiting recovery after the last round
  std::size_t replayed = 0;     // reports re-ingested by recovery
};

/// Feeds `world`'s campaign reports into a fresh frontend armed with
/// `plan` (nullptr = never armed), queries every live client through
/// the gathered path, and (when `reference` is set) replays crashed
/// shards from it.
FaultedRun run_faulted(eval::World& world, const sim::FaultPlan* plan,
                       const Corpus& corpus, ThreadPool* pool,
                       service::ShardedFrontend* reference) {
  service::ShardedFrontendConfig fc;
  fc.shards = kShards;
  service::ShardedFrontend fe{fc};
  if (plan != nullptr) fe.set_fault_plan(plan);

  FaultedRun run;
  SimTime t = SimTime::epoch() + corpus.campaign;
  for (int round = 0; round < kDeliveries; ++round) {
    const auto delivery = world.report_positions(fe, t, pool);
    run.accepted += delivery.accepted;
    t = t + corpus.interval;
  }

  // Availability sweep: one gathered query per live client. Crashed
  // shards' members are served from fallbacks, so they stay queryable.
  std::vector<std::vector<service::RankedNode>> answers;
  for (const std::string& id : fe.view().live_nodes(t)) {
    const auto gathered = fe.view().closest_any_gathered(id, 8, t, pool);
    ++run.clients;
    switch (gathered.tiered.tier) {
      case service::AnswerTier::kFresh:
        ++run.fresh;
        break;
      case service::AnswerTier::kStale:
        ++run.degraded;
        break;
      case service::AnswerTier::kRefused:
        ++run.refused;
        break;
    }
    if (!gathered.completeness.complete()) ++run.partial;
    answers.push_back(gathered.tiered.ranked);
  }
  run.digest = bench::ranked_digest(answers);
  run.shards_down = fe.shards_needing_recovery().size();

  // Crash recovery: replay every report the reference (never-faulted)
  // frontend holds for the crashed shards, then re-count.
  if (reference != nullptr && run.shards_down > 0) {
    std::vector<std::string> frames;
    for (const std::string& id : reference->view().live_nodes(t)) {
      const auto report = reference->report_of(id);
      if (!report.has_value()) continue;
      if (auto bytes = service::encode(*report)) {
        frames.push_back(std::move(*bytes));
      }
    }
    for (const std::size_t s : fe.shards_needing_recovery()) {
      run.replayed += fe.recover_shard(s, frames, t);
    }
  }
  run.health = fe.health_stats();
  return run;
}

}  // namespace

int main() {
  const Corpus corpus = corpus_from_env();
  std::printf(
      "micro_shard_faults: %zu candidates, %zu dns servers, %zu replicas, "
      "%.0f h campaign, %zu shards, %d deliveries\n",
      corpus.candidates, corpus.dns_servers, corpus.replicas,
      corpus.campaign.seconds() / 3600.0, kShards, kDeliveries);

  // One faultless campaign feeds every rate: shard faults only bite at
  // the serving tier, so the probing phase is shared.
  eval::WorldConfig config;
  config.seed = kSeed;
  config.num_candidates = corpus.candidates;
  config.num_dns_servers = corpus.dns_servers;
  config.cdn.target_replicas = corpus.replicas;
  eval::World world{config};
  (void)world.run_probing(SimTime::epoch(),
                          SimTime::epoch() + corpus.campaign,
                          corpus.interval);
  bench::print_campaign_stats(world.campaign_stats());

  const SimTime chaos_from = SimTime::epoch() + corpus.campaign;
  const SimTime chaos_to =
      chaos_from + Duration{corpus.interval.micros() * (kDeliveries + 1)};

  // Reference: never armed; also the replay source for crash recovery.
  service::ShardedFrontendConfig ref_config;
  ref_config.shards = kShards;
  service::ShardedFrontend reference{ref_config};
  {
    SimTime t = chaos_from;
    for (int round = 0; round < kDeliveries; ++round) {
      (void)world.report_positions(reference, t, nullptr);
      t = t + corpus.interval;
    }
  }

  bool ok = true;
  const std::vector<double> rates = {0.0, 0.1, 0.3, 0.5};
  std::printf("  %-5s %8s %6s %6s %7s %6s %7s %8s %7s %8s\n", "rate",
              "accepted", "shed", "failed", "crashes", "opens", "fresh",
              "degraded", "partial", "replayed");
  for (const double rate : rates) {
    const sim::FaultPlan plan =
        sim::FaultPlan::shard_chaos(kSeed + 7, rate, chaos_from, chaos_to);
    const FaultedRun seq =
        run_faulted(world, &plan, corpus, nullptr, &reference);
    std::printf(
        "  %5.2f %8zu %6llu %6llu %7llu %6llu %7zu %8zu %7zu %8zu\n", rate,
        seq.accepted,
        static_cast<unsigned long long>(seq.health.writes_shed),
        static_cast<unsigned long long>(seq.health.writes_failed),
        static_cast<unsigned long long>(seq.health.shard_crashes),
        static_cast<unsigned long long>(seq.health.breaker_opens),
        seq.fresh, seq.degraded, seq.partial, seq.replayed);
    bench::print_health_stats(seq.health);
    if (seq.refused + seq.fresh + seq.degraded != seq.clients) {
      std::printf("  BUG: tier counts don't add up at rate %.2f\n", rate);
      ok = false;
    }

    // Determinism: the whole faulted serving run must be bit-identical
    // for any pool size — the draws are pure hashes of (shard, epoch,
    // attempt), never of scheduling.
    for (const std::size_t threads : {0u, 1u, 4u}) {
      ThreadPool pool{threads};
      const FaultedRun par =
          run_faulted(world, &plan, corpus, &pool, &reference);
      if (par.digest != seq.digest) {
        ok = false;
        std::printf(
            "  digest MISMATCH at rate %.2f, pool %zu: "
            "seq 0x%016llx par 0x%016llx\n",
            rate, threads, static_cast<unsigned long long>(seq.digest),
            static_cast<unsigned long long>(par.digest));
      }
    }

    // Inertness: rate 0 is an empty plan — armed or not, the answers
    // (and every fault counter) must match a fault-blind frontend.
    if (rate == 0.0) {
      const FaultedRun blind =
          run_faulted(world, nullptr, corpus, nullptr, nullptr);
      if (blind.digest != seq.digest || seq.health.writes_shed != 0 ||
          seq.health.shard_crashes != 0 || seq.degraded != 0 ||
          seq.partial != 0) {
        ok = false;
        std::printf(
            "  inertness MISMATCH: blind 0x%016llx vs armed-empty "
            "0x%016llx\n",
            static_cast<unsigned long long>(blind.digest),
            static_cast<unsigned long long>(seq.digest));
      } else {
        std::printf(
            "  inertness: armed empty plan matches fault-blind frontend "
            "(0x%016llx)\n",
            static_cast<unsigned long long>(seq.digest));
      }
    }
  }

  if (!ok) {
    std::fprintf(stderr,
                 "micro_shard_faults: FAIL — faulted serving diverges\n");
    return 1;
  }
  std::printf(
      "  digests: identical across sequential and pools {0, 1, 4}\n");
  return 0;
}
