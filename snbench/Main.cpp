//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// snbench: runs one benchmark workload and prints every metric by name
/// with its unit, the last line being one JSON object. Normally started
/// through run.py, which builds this binary and the daemon first.
///
/// Usage:
///   snbench --workload=execute|service_overload
///           --seed=N --seconds=S --trace=0|1 --daemon=PATH --out-dir=DIR
///           [--build-id=ID]
///   snbench --list-metrics
///
/// Exit code: 0 when every output was correct, 1 on a wrong output or a
/// determinism mismatch, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "support/CommandLine.h"

#include <cmath>
#include <cstdio>
#include <sys/stat.h>

using namespace snbench;

namespace {

void listMetrics() {
  auto Print = [](const char *Title, const auto &List) {
    std::printf("%s\n", Title);
    for (const auto &[Name, Unit] : List)
      std::printf("  %s %s\n", Name.c_str(), Unit.c_str());
  };
  Print("end_to_end", endToEndMetrics());
  Print("per_layer", perLayerMetrics());
}

} // namespace

int main(int Argc, char **Argv) {
  snslp::CommandLine CL(Argc, Argv);
  if (CL.has("list-metrics")) {
    listMetrics();
    return 0;
  }
  RunOptions Opts;
  Opts.Workload = CL.getString("workload");
  Opts.Seed = static_cast<uint64_t>(CL.getInt("seed", 1));
  Opts.Seconds = static_cast<double>(CL.getInt("seconds", 10));
  Opts.Trace = CL.getInt("trace", 0) != 0;
  Opts.DaemonPath = CL.getString("daemon");
  Opts.OutDir = CL.getString("out-dir", ".");
  Opts.BuildId = CL.getString("build-id", "unknown");
  if (Opts.Seconds < 1) {
    std::fprintf(stderr, "snbench: --seconds must be at least 1\n");
    return 2;
  }
  ::mkdir(Opts.OutDir.c_str(), 0755);

  Report R;
  recordHost(R);
  const double ProbeBefore = hostProbeMicros();
  const HostTicks TicksBefore = hostTicks();
  if (Opts.Workload == "execute") {
    runExecute(Opts, R);
  } else if (Opts.Workload == "service_overload") {
    if (Opts.DaemonPath.empty()) {
      std::fprintf(stderr, "snbench: service workloads need --daemon\n");
      return 2;
    }
    runService(Opts, R);
  } else {
    std::fprintf(stderr, "snbench: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0)
    R.fail("no operation was attempted");
  const HostTicks TicksAfter = hostTicks();
  const double StealPct =
      TicksAfter.Total > TicksBefore.Total
          ? 100 * (TicksAfter.Steal - TicksBefore.Steal) /
                (TicksAfter.Total - TicksBefore.Total)
          : 0;
  R.note("steal_pct", std::to_string(StealPct));
  R.set("host.steal_pct", StealPct);
  const double ProbeAfter = hostProbeMicros();
  R.note("probe_us", std::to_string(ProbeBefore) + " before, " +
                         std::to_string(ProbeAfter) + " after the run");
  R.set("host.probe_us", (ProbeBefore + ProbeAfter) / 2);
  for (const auto &[Name, Unit] :
       Opts.Trace ? perLayerMetrics() : endToEndMetrics())
    if (!std::isfinite(R.get(Name)))
      R.fail("metric " + Name + " is not a finite number");

  const std::string Stem = Opts.OutDir + "/" + Opts.Workload + "-seed" +
                           std::to_string(Opts.Seed) + "-trace" +
                           (Opts.Trace ? "1" : "0");
  R.writeJson(Stem + ".json", Opts.Trace);
  if (Opts.Trace && !Tracer::get().write(Stem + ".spans.tsv"))
    R.fail("cannot write " + Stem + ".spans.tsv");
  R.print(Opts.Trace);
  return R.correct() ? 0 : 1;
}
