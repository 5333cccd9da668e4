//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own arithmetic: percentile selection, geometric means,
/// span self time and open-loop latency accounting. Pure functions, kept
/// in one header so tests/StatsTest.cpp can pin every rule.
///
//===----------------------------------------------------------------------===//

#ifndef SNBENCH_STATS_H
#define SNBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace snbench {

/// A sample that never completed (shed, dropped): it misses every latency
/// limit, so it sorts above every real latency.
constexpr double kMissing = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile: the smallest sample such that at least \p P
/// percent of the samples are at or below it. \p P is in (0, 100]. Returns
/// NaN for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  if (Idx >= V.size())
    Idx = V.size() - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(Idx),
                   V.end());
  return V[Idx];
}

inline double median(const std::vector<double> &V) {
  return percentile(V, 50.0);
}

/// True when \p N samples leave at least ten samples above percentile
/// \p P, the rule for reporting a tail percentile at all.
inline bool percentileSupported(size_t N, double P) {
  return static_cast<double>(N) * (1.0 - P / 100.0) >= 10.0;
}

/// Geometric mean of strictly positive values; NaN when empty or when any
/// value is not positive (a ratio of a zero time is a bug, not a datum).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// A closed time interval in nanoseconds.
struct Interval {
  uint64_t Start = 0;
  uint64_t End = 0;
};

/// Self time of a span: its duration minus the part of it that the union
/// of its children's intervals covers. Children are clipped to the parent
/// and may overlap each other (spans of other threads).
inline uint64_t selfNanos(Interval Parent, std::vector<Interval> Children) {
  if (Parent.End <= Parent.Start)
    return 0;
  std::sort(Children.begin(), Children.end(),
            [](const Interval &A, const Interval &B) {
              return A.Start < B.Start;
            });
  uint64_t Covered = 0;
  uint64_t Cursor = Parent.Start; // Everything before Cursor is counted.
  for (const Interval &C : Children) {
    uint64_t S = std::max(C.Start, Cursor);
    uint64_t E = std::min(C.End, Parent.End);
    if (E > S) {
      Covered += E - S;
      Cursor = E;
    }
  }
  return (Parent.End - Parent.Start) - Covered;
}

/// One request of an open-loop schedule. Times are absolute nanoseconds.
struct OpenLoopSample {
  uint64_t Intended = 0; ///< When the schedule said to send it.
  uint64_t Sent = 0;     ///< When the generator actually sent it.
  uint64_t Done = 0;     ///< When its answer arrived (0: never).
};

/// Latency as the user sees it: from the intended send time, so a stall
/// in the generator or the server charges every request queued behind
/// it. Unanswered requests are kMissing.
inline double openLoopLatencyNanos(const OpenLoopSample &S) {
  if (S.Done == 0)
    return kMissing;
  return S.Done > S.Intended ? static_cast<double>(S.Done - S.Intended) : 0.0;
}

/// How late the generator itself ran for one request (never negative: a
/// request sent early is on time).
inline double generatorLagNanos(const OpenLoopSample &S) {
  return S.Sent > S.Intended ? static_cast<double>(S.Sent - S.Intended) : 0.0;
}

} // namespace snbench

#endif // SNBENCH_STATS_H
