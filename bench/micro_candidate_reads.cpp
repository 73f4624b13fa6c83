// Candidate-list read cost by list size: `closest_batch` batches of 256
// and of 2 clients and single `closest` reads, each at 16, 240, 2,000 and
// 20,000 candidates, over serve_read's corpus (20,000 region-structured
// maps from perfbench/corpus.hpp, seed 1) in a 4-shard front-end. The
// candidate lists and the clients are drawn at random, with duplicates.
// A batch runs on the caller plus one pool worker; a single read ranks
// inline. Each row prints the p50 wall time of a batch or a read, and
// the last line a digest of every answer, so two builds can be compared
// run against run: equal digests mean equal answers, bit for bit.
//
// Usage: micro_candidate_reads [seed]. CRP_BENCH_SCALE=tiny shrinks the
// corpus to 2,000 nodes and the repetitions.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "perfbench/corpus.hpp"
#include "service/sharded_frontend.hpp"

namespace {

using namespace crp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 4;
constexpr std::size_t kTopK = 5;

double micros_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// `count` node ids drawn uniformly from [0, nodes), with duplicates.
std::vector<std::string> draw(Rng& rng, std::size_t count, std::size_t nodes) {
  std::vector<std::string> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(perfbench::CorpusGenerator::id(
        static_cast<std::size_t>(rng.uniform_int(0, nodes - 1))));
  }
  return ids;
}

void fold(std::uint64_t& digest,
          const std::vector<service::RankedNode>& answer) {
  digest = hash_combine({digest, answer.size()});
  for (const service::RankedNode& r : answer) {
    digest = hash_combine({digest, stable_hash(r.node_id),
                           std::bit_cast<std::uint64_t>(r.similarity)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const char* scale = std::getenv("CRP_BENCH_SCALE");
  const bool tiny = scale != nullptr && std::strcmp(scale, "tiny") == 0;
  const std::size_t nodes = tiny ? 2000 : 20000;
  const std::size_t reps = tiny ? 3 : 1;  // divides every repetition count

  const perfbench::CorpusGenerator gen{
      hash_combine({seed, stable_hash("serve_read")})};
  const SimTime t0 = SimTime::epoch() + Hours(1);
  service::ShardedFrontend frontend{
      service::ShardedFrontendConfig{kShards, {}, {}}};
  ThreadPool pool{1};
  {
    std::vector<std::string> frames(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      frames[i] = service::encode(service::PositionReport{
                                      perfbench::CorpusGenerator::id(i), t0,
                                      gen.map(i, 0)})
                      .value_or(std::string{});
    }
    (void)frontend.publish_batch(frames, t0, &pool);
    frontend.publish_snapshots(t0);
  }
  const service::ShardedFrontend::View view = frontend.view();
  std::printf("# micro_candidate_reads: %zu nodes, %zu shards, seed %llu, "
              "caller + %zu worker, k=%zu\n",
              view.size(), kShards, static_cast<unsigned long long>(seed),
              pool.size(), kTopK);
  std::printf("%-11s %-16s %12s\n", "candidates", "read", "p50_us");

  Rng rng{hash_combine({seed, stable_hash("micro_candidate_reads")})};
  std::uint64_t digest = 1469598103934665603ull;
  for (const std::size_t count : {std::size_t{16}, std::size_t{240},
                                  std::size_t{2000}, std::size_t{20000}}) {
    const std::vector<std::string> candidates = draw(rng, count, nodes);
    struct Shape {
      const char* name;
      std::size_t clients;
      std::size_t runs;
    };
    for (const Shape shape : {Shape{"batch_256", 256, 21 / reps},
                              Shape{"batch_2", 2, 61 / reps}}) {
      const std::vector<std::string> clients =
          draw(rng, shape.clients, nodes);
      std::vector<double> us;
      for (std::size_t r = 0; r < shape.runs; ++r) {
        const Clock::time_point begin = Clock::now();
        const auto answers =
            view.closest_batch(clients, candidates, kTopK, t0, &pool);
        us.push_back(micros_since(begin));
        if (r == 0) {
          for (const auto& a : answers) fold(digest, a);
        }
      }
      std::printf("%-11zu %-16s %12.1f\n", count, shape.name, median(us));
    }
    const std::vector<std::string> clients = draw(rng, 200 / reps, nodes);
    std::vector<double> us;
    for (const std::string& client : clients) {
      const Clock::time_point begin = Clock::now();
      const auto answer = view.closest(client, candidates, kTopK, t0);
      us.push_back(micros_since(begin));
      fold(digest, answer);
    }
    std::printf("%-11zu %-16s %12.1f\n", count, "single_closest",
                median(us));
  }
  std::printf("answers digest 0x%016llx\n",
              static_cast<unsigned long long>(digest));
  return 0;
}
