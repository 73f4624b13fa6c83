// Figure 4: closest-node selection — average latency to the selected
// server, per client, for Meridian vs CRP Top-1 vs CRP Top-5.
//
// Also prints the §V.A headline comparisons: the fraction of clients for
// which CRP Top-5 is within 7 ms of Meridian, the fraction where CRP
// improves on Meridian, and the fraction where Meridian's pick is more
// than twice CRP Top-5's RTT.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "eval/series.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

int main(int argc, char** argv) {
  using namespace crp;
  constexpr std::uint64_t kSeed = 2008;
  const std::size_t shards = bench::parse_shards(argc, argv);

  eval::print_banner(std::cout, "CRP closest-node selection vs Meridian",
                     "Figure 4 (ICDCS 2008)", kSeed);

  bench::SelectionExperiment exp{kSeed, bench::Scale::from_env()};
  const auto meridian_choice = exp.run_meridian();

  const auto meridian =
      eval::evaluate_fixed_selection(*exp.gt, meridian_choice);
  const auto crp_top1 = eval::evaluate_crp_selection(
      *exp.gt, exp.client_maps, exp.candidate_maps, 1);
  const auto crp_top5 = eval::evaluate_crp_selection(
      *exp.gt, exp.client_maps, exp.candidate_maps, 5);

  const auto meridian_rtts = eval::rtts_of(meridian);
  const auto top1_rtts = eval::rtts_of(crp_top1);
  const auto top5_rtts = eval::rtts_of(crp_top5);

  std::cout << "\nAverage latency to selected server (ms), each curve "
               "sorted per approach\n(x = client percentile, as in the "
               "paper's per-DNS-server curves):\n\n";
  eval::print_sorted_curves(std::cout, "client-pct",
                            {{"meridian", meridian_rtts},
                             {"crp-top1", top1_rtts},
                             {"crp-top5", top5_rtts}});

  // Headline stats quoted in §V.A.
  TextTable stats;
  stats.header({"comparison (paper: expectation)", "measured"});
  stats.row({"CRP Top5 within 7 ms of Meridian (paper: ~65%)",
             fmt_pct(eval::fraction_within(top5_rtts, meridian_rtts, 7.0))});
  stats.row({"CRP Top5 improves on Meridian (paper: >25%)",
             fmt_pct(eval::fraction_better(top5_rtts, meridian_rtts))});
  stats.row({"Meridian > 2x CRP Top5 (paper: ~10%)",
             fmt_pct(eval::fraction_ratio_above(meridian_rtts, top5_rtts,
                                                2.0))});
  const auto m = summarize(meridian_rtts);
  const auto t1 = summarize(top1_rtts);
  const auto t5 = summarize(top5_rtts);
  stats.rule();
  stats.row({"mean RTT meridian / crp-top1 / crp-top5 (ms)",
             fmt(m.mean) + " / " + fmt(t1.mean) + " / " + fmt(t5.mean)});
  stats.row({"median RTT meridian / crp-top1 / crp-top5 (ms)",
             fmt(m.median) + " / " + fmt(t1.median) + " / " +
                 fmt(t5.median)});
  std::cout << "\n" << stats.render();

  // Tail diagnosis (§V.A): the paper removed clients with relative RTT
  // above 80 ms for each approach and found under 20% overlap — i.e. the
  // two systems fail on mostly *different* clients (Meridian on overlay
  // faults, CRP on poor CDN coverage). Our simulated RTT scale is
  // compressed relative to the 2006 Internet, so the threshold is the
  // per-approach p95 relative error instead of a fixed 80 ms.
  {
    const auto meridian_err = eval::relative_errors_of(meridian);
    const auto crp_err = eval::relative_errors_of(crp_top5);
    const double m_threshold = percentile(meridian_err, 0.95);
    const double c_threshold = percentile(crp_err, 0.95);
    std::size_t m_count = 0;
    std::size_t c_count = 0;
    std::size_t both = 0;
    for (std::size_t i = 0; i < meridian.size(); ++i) {
      const bool m_bad = meridian_err[i] > m_threshold;
      const bool c_bad = crp_err[i] > c_threshold;
      if (m_bad) ++m_count;
      if (c_bad) ++c_count;
      if (m_bad && c_bad) ++both;
    }
    const std::size_t either = m_count + c_count - both;
    std::cout << "\ntail diagnosis (worst 5% per approach; thresholds "
              << fmt(m_threshold, 1) << " / " << fmt(c_threshold, 1)
              << " ms): meridian " << m_count << " clients, crp-top5 "
              << c_count << ", overlap " << both;
    if (either > 0) {
      std::cout << " (" << fmt_pct(static_cast<double>(both) /
                                   static_cast<double>(either))
                << " of the union; paper: < 20%)";
    }
    std::cout << "\n";
  }

  // Overheads: the asymmetry the paper emphasizes.
  std::cout << "\nmeasurement cost: meridian issued "
            << exp.overlay->total_probes()
            << " direct probes; CRP issued 0 (it reused "
            << exp.world->cdn_queries_served()
            << " ordinary DNS lookups for " << exp.rounds
            << " rounds x " << exp.world->participants().size()
            << " nodes)\n";

  // Serving path (§III.B): deliver every participant's report to the
  // stand-alone positioning service over the wire format, then answer
  // all clients' closest-candidate queries through the batched path —
  // the deployment shape this figure's selection numbers imply.
  {
    service::PositionService svc;
    const SimTime now = exp.world->campaign_end();
    const auto delivery = exp.world->report_positions(svc, now);
    std::vector<std::string> clients;
    std::vector<std::string> candidates;
    for (HostId h : exp.world->dns_servers()) {
      clients.push_back(exp.world->topology().host(h).name);
    }
    for (HostId h : exp.world->candidates()) {
      candidates.push_back(exp.world->topology().host(h).name);
    }
    const auto answers = svc.closest_batch(clients, candidates, 5, now);
    std::size_t answered = 0;
    for (const auto& ranked : answers) {
      if (!ranked.empty()) ++answered;
    }
    std::cout << "serving path: published " << delivery.accepted
              << " position reports (" << delivery.wire_bytes / 1024
              << " KiB wire, " << delivery.rejected
              << " rejected); batched closest(top-5) answered " << answered
              << "/" << clients.size() << " clients in one pass\n";

    // --shards=N: replay the same serving traffic through a sharded
    // front-end and digest-check the answers against the unsharded path
    // (the scatter/gather merge must be bit-identical, DESIGN.md §9).
    if (shards > 0) {
      service::ShardedFrontendConfig fc;
      fc.shards = shards;
      service::ShardedFrontend frontend{fc};
      const auto sharded_delivery = exp.world->report_positions(frontend, now);
      const auto sharded_answers =
          frontend.view().closest_batch(clients, candidates, 5, now);
      const bool match =
          bench::ranked_digest(sharded_answers) == bench::ranked_digest(answers);
      std::cout << "sharded serving (" << frontend.shard_count()
                << " shards): published " << sharded_delivery.accepted
                << " reports across shards; batched closest(top-5) digest "
                << (match ? "matches" : "MISMATCHES")
                << " the unsharded path\n";
      bench::print_service_stats(frontend.shard_stats());
      if (!match) return 1;
    }
  }
  return 0;
}
