//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark: run options, the metric report, host
/// and process probes, and the instrumented compile pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SNBENCH_BENCH_H
#define SNBENCH_BENCH_H

#include "interp/ExecutionEngine.h"
#include "ir/Context.h"
#include "ir/Module.h"
#include "slp/SLPVectorizer.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace snbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string DaemonPath; ///< snslpd binary (service workloads).
  std::string OutDir;     ///< Where traces and count files are written.
  /// Names the build of the measured program; count files are kept per
  /// build, so a rebuilt program is never held to another build's counts.
  std::string BuildId = "unknown";
};

/// Every metric the benchmark can print, in print order, with its unit.
/// Each workload reports every name; a layer the workload does not load
/// reads 0 there.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

class Report {
public:
  Report();
  void set(const std::string &Name, double Value);
  double get(const std::string &Name) const;
  /// Marks the run incorrect; the benchmark exits non-zero.
  void fail(const std::string &Why);
  bool correct() const { return Problems.empty(); }
  void note(const std::string &Key, const std::string &Value) {
    Notes.emplace_back(Key, Value);
  }

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  /// Prints the host, every end-to-end metric, then (traced run) every
  /// per-layer metric, and last the one-line JSON result.
  void print(bool Trace) const;
  /// Writes the same result with host notes as JSON to \p Path.
  void writeJson(const std::string &Path, bool Trace) const;

private:
  std::string jsonLine(bool Trace) const;
  std::map<std::string, double> Values;
  std::vector<std::string> Problems;
  std::vector<std::pair<std::string, std::string>> Notes;
};

/// \name Host and process probes.
/// @{
void recordHost(Report &R);
/// Peak resident set (VmHWM) of \p Pid (0: this process), in MB.
double peakRssMB(int Pid = 0);
/// utime+stime of \p Pid (0: this process) in microseconds.
double cpuMicros(int Pid = 0);
/// Time of a fixed memory-latency-bound loop of the benchmark's own: how
/// fast the host runs right now, whatever the program does.
double hostProbeMicros();
/// Clock ticks of all CPUs since boot (/proc/stat): the total, and those
/// the hypervisor gave to other guests while this one wanted to run.
struct HostTicks {
  double Total = 0;
  double Steal = 0;
};
HostTicks hostTicks();
/// @}

/// One module compiled through the whole pipeline the way the service
/// compiles it: parse, verify, early cleanup, vectorize, late cleanup,
/// print, bytecode build, native JIT.
struct CompiledModule {
  std::unique_ptr<snslp::Context> Ctx;
  std::unique_ptr<snslp::Module> M;
  snslp::Function *F = nullptr;
  std::unique_ptr<snslp::ExecutionEngine> Engine;
  std::string Printed;
  std::string Error; ///< Non-empty when a stage failed.
  /// \name Tallies that must repeat exactly for one input.
  /// @{
  uint64_t InstsIn = 0;
  uint64_t EarlyRemoved = 0;
  uint64_t LateRemoved = 0;
  snslp::VectorizeStats Vec;
  uint64_t CodeBytes = 0;
  uint64_t Spills = 0;
  bool Native = false;
  /// @}
};

/// Span names of one vectorizer mode's pipeline stages.
struct PipelineSpans {
  uint32_t Module, Parse, Verify, Early, Slp, Late, Print, Bytecode, Jit;
  static PipelineSpans forMode(snslp::VectorizerMode Mode);
};

/// Compiles \p Text (whose entry function is \p Entry) under \p Mode.
/// Never aborts: a failed stage fills Error.
CompiledModule compileModule(const std::string &Text, const std::string &Entry,
                             snslp::VectorizerMode Mode,
                             const PipelineSpans &Spans);

/// Short lower-case mode tag used in metric names ("snslp", "goslp",
/// "o3").
const char *modeTag(snslp::VectorizerMode Mode);

/// Compares a run's deterministic counts with the file a previous run of
/// the same workload, seed and build left in \p OutDir (creating it when
/// absent).
void checkCountsAcrossRuns(const RunOptions &Opts, const std::string &Counts,
                           Report &R);

void runExecute(const RunOptions &Opts, Report &R);
void runService(const RunOptions &Opts, Report &R);

} // namespace snbench

#endif // SNBENCH_BENCH_H
