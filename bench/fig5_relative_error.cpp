// Figure 5: relative error — RTT(selected) - RTT(optimal) per client,
// for Meridian, CRP Top-1 and CRP Top-5 (for Top-5 the paper subtracts
// the optimum from the *average* RTT of the five recommendations).
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "eval/series.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

int main(int argc, char** argv) {
  using namespace crp;
  constexpr std::uint64_t kSeed = 2008;  // same run as Figure 4
  const std::size_t shards = bench::parse_shards(argc, argv);

  eval::print_banner(std::cout,
                     "Relative selection errors: CRP vs Meridian",
                     "Figure 5 (ICDCS 2008)", kSeed);

  bench::SelectionExperiment exp{kSeed, bench::Scale::from_env()};
  const auto meridian_choice = exp.run_meridian();

  const auto meridian =
      eval::evaluate_fixed_selection(*exp.gt, meridian_choice);
  // CRP selection runs through the engine's batched top-k kernel (all
  // clients tiled over one pass per posting list; see metrics.cpp) —
  // rankings are bit-identical to the per-client path.
  const auto crp_top1 = eval::evaluate_crp_selection(
      *exp.gt, exp.client_maps, exp.candidate_maps, 1);
  const auto crp_top5 = eval::evaluate_crp_selection(
      *exp.gt, exp.client_maps, exp.candidate_maps, 5);

  const auto meridian_err = eval::relative_errors_of(meridian);
  const auto top1_err = eval::relative_errors_of(crp_top1);
  const auto top5_err = eval::relative_errors_of(crp_top5);

  std::cout << "\nRelative error vs optimal selection (ms), each curve "
               "sorted per approach:\n\n";
  eval::print_sorted_curves(std::cout, "client-pct",
                            {{"meridian", meridian_err},
                             {"crp-top1", top1_err},
                             {"crp-top5", top5_err}});

  TextTable stats;
  stats.header({"metric", "meridian", "crp-top1", "crp-top5"});
  const auto add_stat = [&](const char* label, auto getter) {
    stats.row({label, fmt(getter(summarize(meridian_err))),
               fmt(getter(summarize(top1_err))),
               fmt(getter(summarize(top5_err)))});
  };
  add_stat("median error (ms)", [](const Summary& s) { return s.median; });
  add_stat("mean error (ms)", [](const Summary& s) { return s.mean; });
  add_stat("p90 error (ms)", [](const Summary& s) { return s.p90; });
  add_stat("max error (ms)", [](const Summary& s) { return s.max; });
  std::cout << "\n" << stats.render();

  // The paper notes most errors are small; quantify "small".
  TextTable fractions;
  fractions.header({"fraction of clients with error <", "meridian",
                    "crp-top1", "crp-top5"});
  for (double bound : {5.0, 10.0, 25.0, 50.0}) {
    const auto frac = [bound](const std::vector<double>& errors) {
      std::size_t n = 0;
      for (double e : errors) {
        if (e < bound) ++n;
      }
      return static_cast<double>(n) / static_cast<double>(errors.size());
    };
    fractions.row({fmt(bound, 0) + " ms", fmt_pct(frac(meridian_err)),
                   fmt_pct(frac(top1_err)), fmt_pct(frac(top5_err))});
  }
  std::cout << "\n" << fractions.render();

  // --shards=N: run this figure's selection traffic through the serving
  // layer once unsharded and once through a sharded front-end, and
  // digest-check that the scatter/gather merge is bit-identical.
  if (shards > 0) {
    service::PositionService svc;
    service::ShardedFrontendConfig fc;
    fc.shards = shards;
    service::ShardedFrontend frontend{fc};
    const SimTime now = exp.world->campaign_end();
    (void)exp.world->report_positions(svc, now);
    (void)exp.world->report_positions(frontend, now);
    std::vector<std::string> clients;
    std::vector<std::string> candidates;
    for (HostId h : exp.world->dns_servers()) {
      clients.push_back(exp.world->topology().host(h).name);
    }
    for (HostId h : exp.world->candidates()) {
      candidates.push_back(exp.world->topology().host(h).name);
    }
    const auto baseline = svc.closest_batch(clients, candidates, 5, now);
    const auto sharded =
        frontend.view().closest_batch(clients, candidates, 5, now);
    const bool match =
        bench::ranked_digest(sharded) == bench::ranked_digest(baseline);
    std::cout << "\nsharded serving (" << frontend.shard_count()
              << " shards): batched closest(top-5) digest "
              << (match ? "matches" : "MISMATCHES")
              << " the unsharded path\n";
    bench::print_service_stats(frontend.shard_stats());
    if (!match) return 1;
  }
  return 0;
}
