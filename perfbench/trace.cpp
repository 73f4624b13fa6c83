#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace crp::perfbench::trace {

namespace {

/// Per-thread cap; a traced 60 s run stays far below it.
constexpr std::size_t kMaxSpansPerThread = 1u << 20;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_dropped{0};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Record>>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::int64_t now_ns() {
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - anchor)
      .count();
}

struct ThreadState {
  std::vector<Record>* buffer = nullptr;
  std::uint32_t thread = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  bool active = true;

  std::vector<Record>& buf() {
    if (buffer == nullptr) {
      Registry& r = registry();
      std::lock_guard lock{r.mu};
      r.buffers.push_back(std::make_unique<std::vector<Record>>());
      buffer = r.buffers.back().get();
      thread = static_cast<std::uint32_t>(r.buffers.size());
    }
    return *buffer;
  }
};

thread_local ThreadState t_state;

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Operation::Operation(std::uint64_t request, bool traced)
    : active_(traced && enabled()),
      saved_active_(t_state.active),
      saved_request_(t_state.request),
      saved_parent_(t_state.parent) {
  t_state.active = active_;
  t_state.request = request;
  t_state.parent = 0;
}

Operation::~Operation() {
  t_state.active = saved_active_;
  t_state.request = saved_request_;
  t_state.parent = saved_parent_;
}

Span::Span(const char* name) : name_(name) {
  if (!enabled() || !t_state.active) return;
  active_ = true;
  t_state.buf();  // registers the thread, which assigns its id
  id_ = (static_cast<std::uint64_t>(t_state.thread) << 40) | ++t_state.next_seq;
  parent_ = t_state.parent;
  t_state.parent = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  t_state.parent = parent_;
  std::vector<Record>& buf = t_state.buf();
  if (buf.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.push_back(Record{name_, start_ns_, end, id_, parent_, t_state.request,
                       t_state.thread});
}

std::vector<Record> collect() {
  Registry& r = registry();
  std::lock_guard lock{r.mu};
  std::vector<Record> all;
  for (const auto& buf : r.buffers) all.insert(all.end(), buf->begin(), buf->end());
  return all;
}

std::uint64_t dropped() { return g_dropped.load(std::memory_order_relaxed); }

std::vector<double> durations(const std::vector<Record>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Record& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool write_jsonl(const std::vector<Record>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"thread\":%u}\n",
                 s.name, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace crp::perfbench::trace
