//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the benchmark's traced run. Spans wrap the
/// benchmark's calls into each layer's public functions (the program
/// itself is not instrumented). A span has a name, start, end, parent span
/// and, for service requests, a request id. Nesting is tracked per thread.
/// When tracing is off a Span costs one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef SNBENCH_TRACE_H
#define SNBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snbench {

uint64_t nowNanos();

struct SpanRecord {
  uint32_t Name = 0;
  int64_t Parent = -1; ///< Index into the span list; -1 for a root.
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Request = 0; ///< Service request id (0: none).
};

/// Per-name totals over a span list.
struct SpanTotals {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
};

class Tracer {
public:
  static Tracer &get();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Stable id for \p Name.
  uint32_t intern(const std::string &Name);
  const std::string &name(uint32_t Id) const { return Names[Id]; }

  /// Opens a span as a child of this thread's innermost open span.
  size_t begin(uint32_t Name, uint64_t Request = 0);
  void end(size_t Idx);
  /// Records an already finished root span (client-side request spans,
  /// whose start is the schedule's intended send time).
  void record(uint32_t Name, uint64_t Start, uint64_t End, uint64_t Request);

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, SpanTotals> totals() const;
  /// Sum of root-span durations: the traced wall time the spans cover.
  uint64_t rootNanos() const;
  size_t size() const;

  /// Writes one tab-separated line per span (name, start, end, parent,
  /// request). Returns false when the file cannot be written.
  bool write(const std::string &Path) const;

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu; ///< Guards Names and Spans.
  std::vector<std::string> Names;
  std::map<std::string, uint32_t> Ids;
  std::vector<SpanRecord> Spans;
};

/// RAII span; a no-op when tracing is off.
class Span {
public:
  explicit Span(uint32_t Name, uint64_t Request = 0) {
    if (Tracer::get().enabled())
      Idx = static_cast<int64_t>(Tracer::get().begin(Name, Request));
  }
  ~Span() {
    if (Idx >= 0)
      Tracer::get().end(static_cast<size_t>(Idx));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Idx = -1;
};

} // namespace snbench

#endif // SNBENCH_TRACE_H
