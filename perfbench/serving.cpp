// Serving-side machinery shared by the workloads: the naive oracle, the
// open- and closed-loop read generators, and the stats/metric helpers.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench.hpp"
#include "core/similarity.hpp"
#include "service/wire.hpp"
#include "trace.hpp"

namespace crp::perfbench {

using service::RankedNode;

double resident_mb() {
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::size_t host_cpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// FNV-1a over the bytes that define an answer: ids and similarity bits.
void fold(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

void fold_answer(std::uint64_t& h, const std::vector<RankedNode>& ranked) {
  const std::uint64_t n = ranked.size();
  fold(h, &n, sizeof n);
  for (const RankedNode& r : ranked) {
    fold(h, r.node_id.data(), r.node_id.size());
    fold(h, &r.similarity, sizeof r.similarity);
  }
}

bool same_answer(const std::vector<RankedNode>& a,
                 const std::vector<RankedNode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_id != b[i].node_id ||
        std::bit_cast<std::uint64_t>(a[i].similarity) !=
            std::bit_cast<std::uint64_t>(b[i].similarity)) {
      return false;
    }
  }
  return true;
}

/// A gathered answer is good when it is fresh, complete and full.
bool good_gathered(const service::GatheredAnswer& a) {
  return a.tiered.tier == service::AnswerTier::kFresh &&
         a.completeness.complete() && !a.completeness.any_stale() &&
         a.tiered.ranked.size() == kTopK;
}

/// Sleeps with 1 µs timer slack (the default 50 µs would dominate the
/// lateness of a sub-millisecond open loop).
void tighten_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

/// Waits until `due`: sleeps until shortly before it, then spins, because
/// a plain sleep wakes 15-60 µs late and that would count as latency.
/// (Spinning through the whole idle time keeps cores warmer but steals
/// CPU from serve_churn's writer and widened the tails there.) Returns
/// true when the caller was early and had to wait.
bool wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(80);
  if (Clock::now() >= due) return false;
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
  return true;
}

}  // namespace

// --- oracle ---

void Oracle::deliver(const std::vector<std::string>& frames) {
  for (const std::string& bytes : frames) {
    auto report = service::decode(bytes);
    if (!report.has_value() || report->map.empty()) continue;
    maps_[report->node_id] = std::move(report->map);
  }
}

void Oracle::remove(const std::string& node_id) { maps_.erase(node_id); }

std::size_t Oracle::check(const service::ShardedFrontend& frontend,
                          const std::vector<std::string>& clients,
                          const std::vector<std::string>& candidates,
                          SimTime now, ThreadPool& pool, bool corrupt,
                          std::uint64_t& digest) const {
  struct Node {
    const std::string* id;
    const core::RatioMap* map;
  };
  std::vector<Node> nodes;
  nodes.reserve(maps_.size());
  for (const auto& [id, map] : maps_) nodes.push_back(Node{&id, &map});
  std::sort(nodes.begin(), nodes.end(),
            [](const Node& a, const Node& b) { return *a.id < *b.id; });
  const auto find = [&nodes](const std::string& id) -> const Node* {
    const auto it = std::lower_bound(
        nodes.begin(), nodes.end(), id,
        [](const Node& n, const std::string& key) { return *n.id < key; });
    return it != nodes.end() && *it->id == id ? &*it : nullptr;
  };
  std::vector<const Node*> candidate_nodes;
  for (const std::string& c : candidates) {
    if (const Node* n = find(c)) candidate_nodes.push_back(n);
  }

  // Naive top-k: every pair scored by core::similarity(), ranked by the
  // serving order (similarity desc, id asc).
  const auto naive = [&](const std::string& client,
                         const std::vector<const Node*>* subset) {
    std::vector<RankedNode> ranked;
    const Node* self = find(client);
    if (self == nullptr) return ranked;
    std::vector<std::pair<double, const Node*>> scored;
    const auto offer = [&](const Node& n) {
      if (&n == self) return;
      scored.emplace_back(core::similarity(core::SimilarityKind::kCosine,
                                           *self->map, *n.map),
                          &n);
    };
    if (subset != nullptr) {
      for (const Node* n : *subset) offer(*n);
    } else {
      for (const Node& n : nodes) offer(n);
    }
    const std::size_t keep = std::min(kTopK, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(keep),
                      scored.end(), [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return *a.second->id < *b.second->id;
                      });
    for (std::size_t i = 0; i < keep; ++i) {
      ranked.push_back(RankedNode{*scored[i].second->id, scored[i].first});
    }
    return ranked;
  };

  std::vector<std::vector<RankedNode>> expected(clients.size());
  pool.parallel_for(0, clients.size(), [&](std::size_t i) {
    expected[i] = naive(clients[i], nullptr);
  });
  if (corrupt && !expected.empty() && !expected[0].empty()) {
    expected[0][0].similarity = std::nextafter(expected[0][0].similarity, 2.0);
  }
  for (const auto& e : expected) fold_answer(digest, e);

  std::size_t mismatches = 0;
  const service::ShardedFrontend::View view = frontend.view();
  ThreadPool inline_pool{0};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const service::GatheredAnswer got =
        view.closest_any_gathered(clients[i], kTopK, now, &inline_pool);
    if (!same_answer(got.tiered.ranked, expected[i])) ++mismatches;
  }
  const auto batch = view.closest_batch(clients, kTopK, now, &pool);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (!same_answer(batch[i], expected[i])) ++mismatches;
  }
  if (!candidates.empty()) {
    std::vector<std::vector<RankedNode>> expected_c(clients.size());
    pool.parallel_for(0, clients.size(), [&](std::size_t i) {
      expected_c[i] = naive(clients[i], &candidate_nodes);
    });
    for (const auto& e : expected_c) fold_answer(digest, e);
    const auto got = view.closest_batch(clients, candidates, kTopK, now, &pool);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (!same_answer(got[i], expected_c[i])) ++mismatches;
    }
  }
  return mismatches;
}

void counting_pass(const service::ShardedFrontend& frontend,
                   const Oracle& oracle,
                   const std::vector<std::string>& clients,
                   const std::vector<std::string>& candidates, SimTime now,
                   ThreadPool& pool, const Options& opt, Report& report) {
  const service::ServiceStats before = frontend.stats();
  std::uint64_t digest = 1469598103934665603ull;
  const std::size_t mismatches = oracle.check(
      frontend, clients, candidates, now, pool, opt.corrupt_oracle, digest);
  const service::ServiceStats after = frontend.stats();
  const std::uint64_t queries =
      after.similarity_queries - before.similarity_queries;
  const std::uint64_t touched = after.maps_touched - before.maps_touched;
  report.set("service.maps_per_query",
             queries == 0 ? 0.0
                          : static_cast<double>(touched) /
                                static_cast<double>(queries));
  report.counter("oracle.mismatches", mismatches);
  report.counter("oracle.digest", digest);
  report.counter("service.maps_touched", touched);
  report.counter("service.similarity_queries", queries);
  report.counter("service.reports_accepted", after.reports_accepted);
  report.attempted += clients.size() * (candidates.empty() ? 2 : 3);
  report.fail(mismatches);
}

// --- load generators ---

ReadSamples run_open_loop_reads(const service::ShardedFrontend& frontend,
                                const OpenLoopReads& load) {
  const std::vector<std::string>& clients = *load.clients;
  const std::size_t total =
      load.requests != 0
          ? load.requests
          : static_cast<std::size_t>(load.seconds * load.rate_per_s);
  const double period_ns = 1e9 / load.rate_per_s;
  std::atomic<std::size_t> next{0};
  std::vector<ReadSamples> per_reader(load.readers);
  // A short lead lets every reader start before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::vector<std::thread> readers;
  readers.reserve(load.readers);
  for (std::size_t r = 0; r < load.readers; ++r) {
    readers.emplace_back([&, r] {
      tighten_timer_slack();
      ThreadPool inline_pool{0};
      ReadSamples& out = per_reader[r];
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        const Clock::time_point due =
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(i) * period_ns));
        if (wait_until(due)) {
          out.late_us.push_back(seconds_between(due, Clock::now()) * 1e6);
        }
        const std::size_t request = load.first + i;
        const std::string& client = clients[request % clients.size()];
        const Clock::time_point begin = Clock::now();
        service::GatheredAnswer answer;
        bool traced = false;
        {
          trace::Operation op(request, request % 2 == 0);
          traced = op.traced();
          trace::Span root("read.request");
          const service::ShardedFrontend::View view = [&] {
            trace::Span span("service.view");
            return frontend.view();
          }();
          trace::Span span("service.gathered");
          answer = view.closest_any_gathered(client, kTopK, load.now,
                                             &inline_pool);
        }
        const Clock::time_point end = Clock::now();
        ++out.attempted;
        if (!good_gathered(answer)) ++out.failed;
        out.latency_us.push_back(seconds_between(due, end) * 1e6);
        (traced ? out.traced_us : out.untraced_us)
            .push_back(seconds_between(begin, end) * 1e6);
      }
    });
  }
  for (std::thread& t : readers) t.join();

  ReadSamples all;
  for (ReadSamples& s : per_reader) {
    all.latency_us.insert(all.latency_us.end(), s.latency_us.begin(),
                          s.latency_us.end());
    all.late_us.insert(all.late_us.end(), s.late_us.begin(), s.late_us.end());
    all.traced_us.insert(all.traced_us.end(), s.traced_us.begin(),
                         s.traced_us.end());
    all.untraced_us.insert(all.untraced_us.end(), s.untraced_us.begin(),
                           s.untraced_us.end());
    all.attempted += s.attempted;
    all.failed += s.failed;
  }
  return all;
}

ClosedLoopCount run_closed_loop_reads(const service::ShardedFrontend& frontend,
                                      const std::vector<std::string>& clients,
                                      std::size_t client_threads, SimTime now,
                                      double seconds, std::size_t requests,
                                      Report& report) {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failed{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::vector<std::thread> threads;
  threads.reserve(client_threads);
  for (std::size_t t = 0; t < client_threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadPool inline_pool{0};
      std::size_t i = t * clients.size() / client_threads;
      for (std::size_t n = 0;; ++n, ++i) {
        if (requests != 0 ? n >= requests / client_threads
                          : Clock::now() >= deadline) {
          break;
        }
        trace::Operation op((t << 32) | n, false);
        const service::GatheredAnswer answer =
            frontend.view().closest_any_gathered(clients[i % clients.size()],
                                                 kTopK, now, &inline_pool);
        done.fetch_add(1, std::memory_order_relaxed);
        if (!good_gathered(answer)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_between(start, Clock::now());
  report.attempted += done.load();
  report.fail(failed.load());
  return {done.load(), elapsed};
}

void run_closed_loop_batches(const service::ShardedFrontend& frontend,
                             const std::vector<std::string>& clients,
                             std::size_t batch, SimTime now, ThreadPool& pool,
                             double seconds, std::size_t batches,
                             std::vector<double>& rates, Report& report) {
  batch = std::min(batch, clients.size());
  const std::size_t slices = clients.size() / batch;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  for (std::size_t j = 0;; ++j) {
    if (batches != 0 ? j >= batches : Clock::now() >= deadline) break;
    // Successive calls continue the rotation through the client stream.
    const std::size_t n = rates.size();
    const std::span<const std::string> slice{
        clients.data() + (n % slices) * batch, batch};
    trace::Operation op(n, n % 2 == 0);
    const Clock::time_point begin = Clock::now();
    std::vector<std::vector<RankedNode>> rows;
    {
      trace::Span span("service.closest_batch");
      rows = frontend.view().closest_batch(slice, kTopK, now, &pool);
    }
    rates.push_back(static_cast<double>(batch) /
                    seconds_between(begin, Clock::now()));
    report.attempted += rows.size();
    for (const auto& row : rows) {
      if (row.size() != kTopK) report.fail();
    }
  }
}

// --- reporting ---

void report_service_layers(const service::ShardedFrontend& frontend,
                           const service::ServiceStats& before,
                           Report& report) {
  const service::ServiceStats after = frontend.stats();
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  report.set("service.compactions", delta(after.compactions, before.compactions));
  report.set("service.postings_tombstoned",
             delta(after.postings_tombstoned, before.postings_tombstoned));
  report.set("service.epoch_lag_max", static_cast<double>(after.epoch_lag_max));
  report.set("service.similarity_queries",
             delta(after.similarity_queries, before.similarity_queries));
  report.set("service.refused_queries",
             delta(after.refused_queries, before.refused_queries));
  report.set("service.reports_accepted",
             delta(after.reports_accepted, before.reports_accepted));
  report.set("service.reports_rejected",
             delta(after.reports_rejected, before.reports_rejected));
  report.set("service.routing_rejected",
             delta(after.routing_rejected, before.routing_rejected));
}

void RoundPercentiles::add(const std::vector<double>& samples) {
  if (samples.empty()) return;
  p50.push_back(percentile(samples, 0.50));
  p90.push_back(percentile(samples, 0.90));
  p99.push_back(percentile(samples, 0.99));
}

void RoundPercentiles::report(const char* p50_name, const char* p90_name,
                              const char* p99_name, Report& report) const {
  if (p50_name != nullptr) report.set(p50_name, median(p50));
  if (p90_name != nullptr) report.set(p90_name, median(p90));
  if (p99_name != nullptr) report.set(p99_name, median(p99));
}

void ReadStats::add_open_loop(const ReadSamples& s, Report& report) {
  latency_us.add(s.latency_us);
  late_p99_us.push_back(percentile(s.late_us, 0.99));
  traced_us.insert(traced_us.end(), s.traced_us.begin(), s.traced_us.end());
  untraced_us.insert(untraced_us.end(), s.untraced_us.begin(),
                     s.untraced_us.end());
  report.attempted += s.attempted;
  report.fail(s.failed);
}

void ReadStats::finish(Report& report) const {
  // The read tails swing by 25% and more with the shared host's load, too
  // much to gate on, so only the median is end-to-end.
  latency_us.report("read_p50_us", "read.p90_us", "read.p99_us", report);
  report.set("gen.late_p99_us", median(late_p99_us));
  report.set("read_qps", closed.seconds > 0.0
                             ? static_cast<double>(closed.queries) / closed.seconds
                             : 0.0);
  report.set("batch_clients_per_s", median(batch_rates));
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base <= 0.0 || traced.empty() ? 0.0
                                       : (median(traced) / base - 1.0) * 100.0;
}

}  // namespace crp::perfbench
