// In-memory span recorder for the benchmark's own calls into each layer.
//
// A span has a name, start, end, parent span and request id. Each thread
// appends to its own buffer (no locking on the hot path); buffers are
// collected and written out as JSON lines when the run ends. Recording
// is off unless the run is traced, and a traced run marks every other
// operation untraced so the difference between the two halves measures
// the recorder's own overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace crp::perfbench::trace {

struct Record {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Turns recording on or off for the whole process.
void enable(bool on);
[[nodiscard]] bool enabled();

/// Scopes one request on the calling thread: spans opened inside it carry
/// `request` and are recorded only if tracing is enabled and `traced`.
class Operation {
 public:
  Operation(std::uint64_t request, bool traced);
  ~Operation();
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  [[nodiscard]] bool traced() const { return active_; }

 private:
  bool active_ = false;
  bool saved_active_ = false;
  std::uint64_t saved_request_ = 0;
  std::uint64_t saved_parent_ = 0;
};

/// RAII span: its parent is the innermost open span on this thread.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far. Call only while no thread is recording.
[[nodiscard]] std::vector<Record> collect();
/// Spans dropped because a thread's buffer was full.
[[nodiscard]] std::uint64_t dropped();

/// Durations (seconds) of the spans named `name`.
[[nodiscard]] std::vector<double> durations(const std::vector<Record>& spans,
                                            const char* name);

/// Writes one JSON object per span. Returns false on I/O failure.
bool write_jsonl(const std::vector<Record>& spans, const std::string& path);

}  // namespace crp::perfbench::trace
