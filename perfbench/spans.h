// In-memory span log for the traced pass.
//
// The benchmark records one span around each call it makes into a layer
// (name "<layer>.<what>", start, end, parent span, operation id, thread),
// keeps them in memory, and writes them out once at the end as Chrome
// trace-event JSON. A layer's self time is its spans' durations minus the
// part of each interval that child spans cover (overlapping children are
// counted once).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;   // "<layer>.<what>"
  double start = 0;   // seconds since the log's origin
  double end = 0;
  int parent = -1;    // index into the log, -1 for a root
  uint64_t id = 0;    // scenario / request / pass id the span belongs to
  uint32_t tid = 0;   // recording thread (0 = main)
};

/// Thread-safe append-only span log. Indices returned by add() stay valid
/// for the log's lifetime and name parents of later spans.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Seconds since the log was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  /// Record a finished span; returns its index.
  int add(std::string name, double start, double end, int parent,
          uint64_t id, uint32_t tid = 0);
  /// Set the end of span `index` (for a span opened before its children).
  void finish(int index, double end);
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own. Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self time per layer (the span-name prefix before the first '.').
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events in microseconds, one
/// thread-name record per recording thread). Each event's args carry the
/// span's id, parent index and self time.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& workload, uint64_t seed);

}  // namespace perfbench
