//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Stats.h"

#include <chrono>
#include <cstdio>

using namespace snbench;

namespace {
/// Indices of this thread's open spans, innermost last.
thread_local std::vector<size_t> OpenSpans;
} // namespace

uint64_t snbench::nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint32_t Tracer::intern(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto [It, New] = Ids.emplace(Name, static_cast<uint32_t>(Names.size()));
  if (New)
    Names.push_back(Name);
  return It->second;
}

size_t Tracer::begin(uint32_t Name, uint64_t Request) {
  SpanRecord R;
  R.Name = Name;
  R.Request = Request;
  R.Parent = OpenSpans.empty() ? -1 : static_cast<int64_t>(OpenSpans.back());
  size_t Idx;
  {
    std::lock_guard<std::mutex> L(Mu);
    Idx = Spans.size();
    Spans.push_back(R);
  }
  OpenSpans.push_back(Idx);
  // Stamped last so the bookkeeping above is not charged to the span.
  uint64_t Start = nowNanos();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Idx].Start = Start;
  return Idx;
}

void Tracer::end(size_t Idx) {
  uint64_t End = nowNanos();
  if (!OpenSpans.empty() && OpenSpans.back() == Idx)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Idx].End = End;
}

void Tracer::record(uint32_t Name, uint64_t Start, uint64_t End,
                    uint64_t Request) {
  SpanRecord R;
  R.Name = Name;
  R.Start = Start;
  R.End = End;
  R.Request = Request;
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back(R);
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::vector<Interval>> Children(Spans.size());
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.Start, S.End});
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    SpanTotals &T = Out[Names[S.Name]];
    ++T.Count;
    T.TotalNanos += S.End - S.Start;
    T.SelfNanos += selfNanos({S.Start, S.End}, Children[I]);
  }
  return Out;
}

uint64_t Tracer::rootNanos() const {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t Sum = 0;
  for (const SpanRecord &S : Spans)
    if (S.Parent < 0)
      Sum += S.End - S.Start;
  return Sum;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans.size();
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  std::fprintf(F, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const SpanRecord &S : Spans)
    std::fprintf(F, "%s\t%llu\t%llu\t%lld\t%llu\n", Names[S.Name].c_str(),
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
  return std::fclose(F) == 0;
}
