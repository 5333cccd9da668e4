//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-test of the benchmark's own arithmetic: percentile selection with
/// its sample count, geometric means, span self time (offline and through
/// the Tracer), and open-loop lateness accounting. run.py runs it after
/// every build; `ctest` in the build directory runs it too.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>

using namespace snbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "snbench_selftest: FAILED: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * (1 + std::fabs(B));
}

void testPercentile() {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I); // 1..100, unsorted.
  expect(percentile(V, 50) == 50, "p50 of 1..100 is the 50th sample");
  expect(percentile(V, 99) == 99, "p99 of 1..100 is the 99th sample");
  expect(percentile(V, 100) == 100, "p100 is the maximum");
  expect(percentile(V, 0.5) == 1, "a tiny percentile is the minimum");
  expect(median({7}) == 7, "median of one sample");
  expect(median({1, 2}) == 1, "nearest-rank median of two is the lower");
  expect(median({3, 1, 2}) == 2, "median of three");
  expect(std::isnan(median({})), "median of nothing is NaN");
  // Missing samples sort last: with 3 of 4 missing, p50 is missing.
  expect(percentile({1, kMissing, kMissing, kMissing}, 50) == kMissing,
         "refused requests count against the percentile");
  expect(percentile({1, 2, 3, kMissing}, 50) == 2,
         "one refused request shifts p50 up by rank only");
  // Ten samples must lie above a reported tail percentile.
  expect(!percentileSupported(999, 99), "p99 needs 1000 samples");
  expect(percentileSupported(1000, 99), "p99 with 1000 samples");
  expect(percentileSupported(20, 50), "p50 with 20 samples");
  expect(!percentileSupported(19, 50), "p50 with 19 samples");
}

void testGeomean() {
  expect(near(geomean({2, 8}), 4), "geomean of 2 and 8");
  expect(near(geomean({5}), 5), "geomean of one value");
  expect(near(geomean({1, 10, 100}), 10), "geomean of a decade");
  expect(std::isnan(geomean({})), "geomean of nothing is NaN");
  expect(std::isnan(geomean({1, 0})), "geomean with a zero is NaN");
}

void testSelfTime() {
  expect(selfNanos({0, 100}, {}) == 100, "no children: all self");
  expect(selfNanos({0, 100}, {{10, 20}, {30, 50}}) == 70,
         "disjoint children are subtracted");
  expect(selfNanos({0, 100}, {{10, 40}, {30, 50}}) == 60,
         "overlapping children are counted once");
  expect(selfNanos({0, 100}, {{30, 50}, {10, 40}}) == 60,
         "children in any order");
  expect(selfNanos({10, 100}, {{0, 20}, {90, 120}}) == 70,
         "children are clipped to the parent");
  expect(selfNanos({0, 100}, {{0, 100}}) == 0, "a child covering all");
  expect(selfNanos({0, 100}, {{20, 30}, {22, 28}, {25, 60}}) == 60,
         "nested overlaps");
}

void testTracer() {
  Tracer &T = Tracer::get();
  const uint32_t Outer = T.intern("outer"), Inner = T.intern("inner");
  expect(T.intern("outer") == Outer, "interning is stable");
  T.setEnabled(true);
  {
    Span A(Outer);
    for (int I = 0; I < 3; ++I) {
      Span B(Inner);
      volatile int Spin = 0;
      for (int K = 0; K < 100000; ++K)
        Spin = Spin + K;
    }
  }
  T.setEnabled(false);
  { Span Off(Outer); } // Not recorded.
  auto Totals = T.totals();
  expect(Totals["outer"].Count == 1 && Totals["inner"].Count == 3,
         "span counts");
  expect(Totals["inner"].SelfNanos == Totals["inner"].TotalNanos,
         "leaf self time is its total");
  expect(Totals["outer"].SelfNanos ==
             Totals["outer"].TotalNanos - Totals["inner"].TotalNanos,
         "parent self time excludes its children");
  expect(T.rootNanos() == Totals["outer"].TotalNanos,
         "only root spans count toward coverage");
  T.record(T.intern("request"), 1000, 1500, 7);
  expect(T.totals()["request"].SelfNanos == 500, "recorded span");
}

void testOpenLoop() {
  OpenLoopSample OnTime{1000, 1000, 1300};
  expect(openLoopLatencyNanos(OnTime) == 300, "on-time latency");
  expect(generatorLagNanos(OnTime) == 0, "on time: no lag");
  // The generator stalled 200 ns: the request still waited from its
  // intended time.
  OpenLoopSample Late{1000, 1200, 1300};
  expect(openLoopLatencyNanos(Late) == 300, "latency counts the stall");
  expect(generatorLagNanos(Late) == 200, "lag is send minus intended");
  OpenLoopSample Never{1000, 1000, 0};
  expect(openLoopLatencyNanos(Never) == kMissing, "unanswered is missing");
  OpenLoopSample Early{1000, 900, 1300};
  expect(generatorLagNanos(Early) == 0, "an early send has no lag");
}

} // namespace

int main() {
  testPercentile();
  testGeomean();
  testSelfTime();
  testTracer();
  testOpenLoop();
  if (Failures == 0)
    std::printf("snbench_selftest: all checks passed\n");
  return Failures == 0 ? 0 : 1;
}
