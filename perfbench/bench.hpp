// End-to-end benchmark of the CRP serving path:
//
//   World::run_probing_parallel -> CrpNode::ratio_map -> service::encode
//   -> ShardedFrontend::publish_batch -> publish_snapshots
//   -> View::closest_any_gathered / View::closest_batch
//
// Every layer is measured from outside: the benchmark times its own calls
// into each module's public functions and reads the public stats
// structs. Nothing under src/ knows it is being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::perfbench {

using Clock = std::chrono::steady_clock;

/// Every query asks for the 5 closest nodes (the paper's Fig. 4 setting).
inline constexpr std::size_t kTopK = 5;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall-clock length of the measured phases.
  double seconds = 10.0;
  /// Records spans and reports the per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Self-test size: small inputs and fixed operation counts instead of
  /// deadlines, so every counter is a pure function of the seed.
  bool tiny = false;
  /// Stops after set-up and the deterministic counting pass.
  bool counters_only = false;
  /// Perturbs one expected oracle answer; the run must then fail.
  bool corrupt_oracle = false;
  /// Where a traced run writes its spans (JSON lines).
  std::string trace_out;
};

/// Current resident set of this process, in MiB.
[[nodiscard]] double resident_mb();
/// User + system CPU time of this process so far, in seconds.
[[nodiscard]] double cpu_seconds();

/// Logical CPUs the benchmark budgets its threads against.
[[nodiscard]] std::size_t host_cpus();

/// Everything one run reports. Metrics not measured by a workload stay
/// at 0 (per-layer only; every workload measures every end-to-end one).
struct Report {
  std::unordered_map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Deterministic counters compared by the self-test.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  void set(const std::string& name, double value) { values[name] = value; }
  void fail(std::uint64_t n = 1) { failed += n; }
  void counter(const std::string& name, std::uint64_t value) {
    counters.emplace_back(name, value);
  }
};

/// Naive reference for the serving answers: decodes every delivered wire
/// frame and recomputes top-k by per-pair `core::similarity()` over the
/// decoded maps — decode renormalizes, so the reference must see exactly
/// what the service saw. Frames the service must refuse (undecodable or
/// an empty map) are skipped; the workloads never send stale or
/// out-of-order reports.
class Oracle {
 public:
  void deliver(const std::vector<std::string>& frames);
  void remove(const std::string& node_id);

  /// Checks closest_any_gathered and closest_batch (every node, and
  /// `candidates` when non-empty) for each of `clients` against the
  /// naive top-kTopK at `now`. Returns the number of mismatching answers
  /// and folds every expected answer into `digest`.
  std::size_t check(const service::ShardedFrontend& frontend,
                    const std::vector<std::string>& clients,
                    const std::vector<std::string>& candidates, SimTime now,
                    ThreadPool& pool, bool corrupt,
                    std::uint64_t& digest) const;

 private:
  std::unordered_map<std::string, core::RatioMap> maps_;
};

/// Deterministic pass over a quiescent frontend: runs the oracle check on
/// `clients` and records the similarity work it caused
/// (service.maps_per_query) plus the digest as self-test counters.
void counting_pass(const service::ShardedFrontend& frontend,
                   const Oracle& oracle,
                   const std::vector<std::string>& clients,
                   const std::vector<std::string>& candidates, SimTime now,
                   ThreadPool& pool, const Options& opt, Report& report);

/// Open-loop gathered reads: request i is due at start + i/rate and is
/// taken by the first free reader; its latency runs from the due time.
struct OpenLoopReads {
  std::size_t readers = 3;
  double rate_per_s = 1000.0;
  SimTime now;
  /// Clients in request order (cycled).
  const std::vector<std::string>* clients = nullptr;
  /// Wall-clock length; tiny runs use `requests` instead.
  double seconds = 1.0;
  std::size_t requests = 0;
  /// Index of the first request, so successive slices continue the
  /// client stream and request ids.
  std::size_t first = 0;
};

struct ReadSamples {
  std::vector<double> latency_us;
  /// Wake-up lateness of readers that slept until a due time.
  std::vector<double> late_us;
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

ReadSamples run_open_loop_reads(const service::ShardedFrontend& frontend,
                                const OpenLoopReads& load);

/// Queries a closed loop completed and the wall time it took.
struct ClosedLoopCount {
  std::uint64_t queries = 0;
  double seconds = 0.0;
};

/// Closed-loop gathered reads from `client_threads` client threads, each
/// with its own inline pool.
ClosedLoopCount run_closed_loop_reads(const service::ShardedFrontend& frontend,
                                      const std::vector<std::string>& clients,
                                      std::size_t client_threads, SimTime now,
                                      double seconds, std::size_t requests,
                                      Report& report);

/// Closed-loop closest_batch of `batch` clients on `pool`, appending the
/// clients answered per second of every batch to `rates`.
void run_closed_loop_batches(const service::ShardedFrontend& frontend,
                             const std::vector<std::string>& clients,
                             std::size_t batch, SimTime now, ThreadPool& pool,
                             double seconds, std::size_t batches,
                             std::vector<double>& rates, Report& report);

/// Fills the service.* per-layer metrics from the frontend's public
/// stats (deltas since `before`).
void report_service_layers(const service::ShardedFrontend& frontend,
                           const service::ServiceStats& before,
                           Report& report);

/// Percentiles taken per round of a run; the run reports their medians,
/// so a slow spell on a shared host moves one round, not the run.
struct RoundPercentiles {
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;

  void add(const std::vector<double>& samples);
  /// Sets the median of each percentile under its name (nullptr skips).
  void report(const char* p50_name, const char* p90_name,
              const char* p99_name, Report& report) const;
};

/// Read-side samples gathered slice by slice over a run.
struct ReadStats {
  RoundPercentiles latency_us;
  std::vector<double> late_p99_us;
  /// Closed-loop gathered queries and time, summed over slices
  /// (read_qps is their ratio).
  ClosedLoopCount closed;
  /// Clients answered per second, one per batch.
  std::vector<double> batch_rates;
  /// Service times of traced and untraced open-loop requests.
  std::vector<double> traced_us;
  std::vector<double> untraced_us;

  void add_open_loop(const ReadSamples& samples, Report& report);
  /// read_p50_us, read.p90_us, read.p99_us, read_qps,
  /// batch_clients_per_s and gen.late_p99_us.
  void finish(Report& report) const;
};

/// Relative cost of tracing: median traced over median untraced, in %.
[[nodiscard]] double overhead_pct(const std::vector<double>& traced,
                                  const std::vector<double>& untraced);

// --- workloads (workloads.cpp) ---
void run_campaign_refresh(const Options& opt, Report& report);
void run_serve_read(const Options& opt, Report& report);
void run_serve_churn(const Options& opt, Report& report);
/// Proves the benchmark's split delivery path leaves a frontend
/// digest-equal to World::report_positions. Returns true on equality.
bool same_path_check(std::uint64_t seed);

}  // namespace crp::perfbench
