// crp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--tiny] [--counters-only] [--corrupt-oracle]
//               [--trace-out PATH]
// crp_perfbench --same-path-check --seed N
//
// Prints human-readable "# ..." lines, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (measured with span recording on). Exit code 1 on any failed operation
// or oracle mismatch, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using namespace crp::perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"refresh_s", "s"},
    {"batch_clients_per_s", "clients/s"},
    {"read_p50_us", "us"},
    {"read_qps", "queries/s"},
    {"publish_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"eval.campaign_s", "s"},
    {"eval.probes", "count"},
    {"dns.resolver_hit_rate", "ratio"},
    {"dns.upstream_queries", "count"},
    {"dns.failed_probes", "count"},
    {"cdn.queries", "count"},
    {"netsim.pair_cache_hit_rate", "ratio"},
    {"core.ratio_map_s", "s"},
    {"core.map_entries_mean", "count"},
    {"service.encode_s", "s"},
    {"service.wire_bytes", "bytes"},
    {"service.publish_batch_s", "s"},
    {"service.publish_snapshots_s", "s"},
    {"service.compactions", "count"},
    {"service.postings_tombstoned", "count"},
    {"service.epoch_lag_max", "count"},
    {"service.view_us", "us"},
    {"service.gathered_us", "us"},
    {"service.closest_batch_s", "s"},
    {"service.maps_per_query", "count"},
    {"service.similarity_queries", "count"},
    {"service.refused_queries", "count"},
    {"service.reports_accepted", "count"},
    {"service.reports_rejected", "count"},
    {"service.routing_rejected", "count"},
    {"read.p90_us", "us"},
    {"read.p99_us", "us"},
    {"publish.p99_ms", "ms"},
    {"proc.cpu_s", "s"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Per-layer timings read off the traced run's spans (median per call).
struct SpanMetric {
  const char* span;
  const char* metric;
  double scale;
};

constexpr SpanMetric kSpanMetrics[] = {
    {"eval.campaign", "eval.campaign_s", 1.0},
    {"core.ratio_map", "core.ratio_map_s", 1.0},
    {"service.encode", "service.encode_s", 1.0},
    {"service.publish_batch", "service.publish_batch_s", 1.0},
    {"service.publish_snapshots", "service.publish_snapshots_s", 1.0},
    {"service.view", "service.view_us", 1e6},
    {"service.gathered", "service.gathered_us", 1e6},
    {"service.closest_batch", "service.closest_batch_s", 1.0},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "crp_perfbench: %s\n"
               "usage: crp_perfbench --workload campaign_refresh|serve_read|"
               "serve_churn --seed N --seconds S --trace 0|1 [--tiny] "
               "[--counters-only] [--corrupt-oracle] [--trace-out PATH]\n"
               "       crp_perfbench --same-path-check --seed N\n",
               msg);
  return 2;
}

void print_metrics(const char* kind, const Report& report,
                   const MetricSpec* specs, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = report.values.find(specs[i].name);
    const double v = it == report.values.end() ? 0.0 : it->second;
    std::printf("# %s %-30s %16.6f %s\n", kind, specs[i].name, v,
                specs[i].unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool same_path = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return usage("--workload needs a value");
      opt.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage("--seed needs a value");
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return usage("--seconds needs a value");
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return usage("--trace needs 0 or 1");
      opt.trace = std::string{v} == "1";
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage("--trace-out needs a path");
      opt.trace_out = v;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--counters-only") {
      opt.counters_only = true;
    } else if (arg == "--corrupt-oracle") {
      opt.corrupt_oracle = true;
    } else if (arg == "--same-path-check") {
      same_path = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (same_path) return same_path_check(opt.seed) ? 0 : 1;
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  trace::enable(opt.trace);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? 1 : 0);
  std::printf("# host_cpus=%zu build_type=%s shards=4\n", host_cpus(),
              CRP_PERFBENCH_BUILD_TYPE);

  Report report;
  if (opt.workload == "campaign_refresh") {
    run_campaign_refresh(opt, report);
  } else if (opt.workload == "serve_read") {
    run_serve_read(opt, report);
  } else if (opt.workload == "serve_churn") {
    run_serve_churn(opt, report);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  if (opt.trace) {
    const std::vector<trace::Record> spans = trace::collect();
    for (const SpanMetric& m : kSpanMetrics) {
      report.set(m.metric,
                 crp::median(trace::durations(spans, m.span)) * m.scale);
    }
    report.set("trace.spans", static_cast<double>(spans.size()));
    if (!opt.trace_out.empty() && !trace::write_jsonl(spans, opt.trace_out)) {
      std::fprintf(stderr, "crp_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      report.fail();
    }
    std::printf("# spans: %zu recorded, %llu dropped%s%s\n", spans.size(),
                static_cast<unsigned long long>(trace::dropped()),
                opt.trace_out.empty() ? "" : ", written to ",
                opt.trace_out.c_str());
  }

  std::printf("# counters {");
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ",
                report.counters[i].first.c_str(),
                static_cast<unsigned long long>(report.counters[i].second));
  }
  std::printf("}\n");
  print_metrics("end_to_end", report, kEndToEnd, std::size(kEndToEnd));
  print_metrics("per_layer", report, kPerLayer, std::size(kPerLayer));
  std::printf("# failed_share %.6f (%llu failed / %llu attempted)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  if (opt.counters_only) return report.failed == 0 ? 0 : 1;

  const MetricSpec* specs = opt.trace ? kPerLayer : kEndToEnd;
  const std::size_t count =
      opt.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics;
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = report.values.find(specs[i].name);
    double v = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      v = 0.0;
      report.fail();
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  report.attempted, 1)),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.failed == 0 ? 0 : 1;
}
