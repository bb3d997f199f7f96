#pragma once

// In-memory span recorder for the benchmark's traced run.
//
// Every call the benchmark makes into a library layer can be wrapped in a
// span: name, layer, start, end, parent span and iteration id. Spans stay in
// memory (one mutex-guarded vector; recording happens after the timed
// interval closes, so the lock is never inside a measurement) and are written
// out once at the end as Chrome trace-event JSON, together with a per-name
// self-time rollup. A disabled Tracer records nothing and costs one branch.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Span {
  std::string name;   ///< e.g. "runtime.train_iteration/vocab-1f1b-alg2"
  std::string layer;  ///< module the call enters: runtime, core, comm, ...
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t iter = -1;   ///< training step the span belongs to, -1 = none
  int tid = 0;              ///< logical thread (device rank, 0 = caller)
};

/// Per-name totals: call count, inclusive time, and self time (inclusive
/// minus the union of the intervals its child spans cover).
struct RollupRow {
  std::string name;
  std::string layer;
  std::int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// A fresh span id (0 when disabled, so callers can pass it as a parent).
  std::int64_t next_id();

  /// Record a finished span; no-op when disabled.
  void record(Span span);

  /// Convenience: record a span with a fresh id and return that id.
  std::int64_t record(std::string name, std::string layer, Clock::time_point start,
                      Clock::time_point end, std::int64_t parent, std::int64_t iter = -1,
                      int tid = 0);

  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON ("X" events, microsecond timestamps).
  [[nodiscard]] std::string chrome_json() const;

  /// Self-time rollup by span name, largest self time first.
  [[nodiscard]] std::vector<RollupRow> rollup() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::int64_t next_id_ = 1;  // guarded by mutex_
};

/// RAII span over one scope: records [construction, destruction) as a child
/// of `parent`. Inert when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer, std::int64_t parent,
             std::int64_t iter = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, for children recorded inside the scope.
  [[nodiscard]] std::int64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

}  // namespace vpbench
