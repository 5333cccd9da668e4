//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Trace.h"

#include "ir/DCE.h"
#include "ir/IRPrinter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "jit/CPUFeatures.h"
#include "kernels/Kernel.h"
#include "passes/CSE.h"
#include "passes/ConstantFolding.h"
#include "support/RNG.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace snbench;
using namespace snslp;

//===----------------------------------------------------------------------===//
// Metric catalogue
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &
snbench::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"p50_ms", "ms"},
      {"ops_per_s", "1/s"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &
snbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = [] {
    std::vector<std::pair<std::string, std::string>> V = {
        // Every workload: CPU time of the process doing the work (the bench
        // process in-process, the daemon for the service) per op counted
        // in ops_per_s. Too host-dependent to bound end to end.
        {"bench.cpu_us_per_op", "us"},
        // execute, traced set-up: compiler layers per set-up (the 16
        // registry kernels under each mode).
        {"bench.compile_snslp_ms", "ms"},
        {"bench.compile_goslp_ms", "ms"},
        {"ir.parse_us", "us"},
        {"ir.verify_us", "us"},
        {"ir.print_us", "us"},
        {"ir.insts_in", "count"},
        {"passes.early_snslp_us", "us"},
        {"passes.early_goslp_us", "us"},
        {"passes.late_snslp_us", "us"},
        {"passes.late_goslp_us", "us"},
        {"passes.removed_snslp", "count"},
        {"passes.removed_goslp", "count"},
        {"slp.snslp_us", "us"},
        {"slp.goslp_us", "us"},
        {"slp.graphs_built", "count"},
        {"slp.graphs_vectorized", "count"},
        {"slp.vectorized_ratio", "ratio"},
        {"slp.supernodes", "count"},
        {"slp.bailouts", "count"},
        {"slp.packs_enumerated", "count"},
        {"slp.packs_selected", "count"},
        {"slp.solver_nodes", "count"},
        {"slp.insts_removed", "count"},
        {"interp.bytecode_build_snslp_us", "us"},
        {"interp.bytecode_build_goslp_us", "us"},
        {"jit.compile_snslp_us", "us"},
        {"jit.compile_goslp_us", "us"},
        {"jit.code_bytes_snslp", "bytes"},
        {"jit.code_bytes_goslp", "bytes"},
        {"jit.spills_snslp", "count"},
        {"jit.spills_goslp", "count"},
        // execute, timed rounds: native time per call, per kernel and
        // summarized.
        {"bench.run_snslp_us", "us"},
        {"bench.run_o3_us", "us"},
        {"bench.native_speedup", "x"},
        {"bench.sim_speedup", "x"},
        {"jit.run.goslp_us", "us"},
        {"jit.fallback_runs", "count"},
        {"interp.bytecode_snslp_us", "us"},
        {"interp.bytecode_o3_us", "us"},
        {"interp.vector_coverage", "ratio"},
        {"costmodel.cycles_snslp", "cycles"},
        {"costmodel.cycles_o3", "cycles"},
    };
    for (const Kernel &K : kernelRegistry()) {
      V.push_back({"jit.run." + K.Name + ".snslp_us", "us"});
      V.push_back({"jit.run." + K.Name + ".o3_us", "us"});
    }
    std::vector<std::pair<std::string, std::string>> Service = {
        // service_*: client view, daemon counters, in-process probes.
        {"client.p99_ms", "ms"},
        {"client.hit_p50_ms", "ms"},
        {"client.hit_p99_ms", "ms"},
        {"client.miss_p50_ms", "ms"},
        {"client.miss_p99_ms", "ms"},
        {"client.lag_p99_ms", "ms"},
        {"client.onesegment_hit_p50_ms", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.coalesced", "count"},
        {"service.queue_rejected", "count"},
        {"service.compile_ms_per_miss", "ms"},
        {"service.shed_ratio", "ratio"},
        {"service.shard_imbalance", "ratio"},
        {"service.decode_us", "us"},
        {"service.key_us", "us"},
        {"service.warm_hit_us", "us"},
        {"service.encode_us", "us"},
        {"service.unaccounted_hit_ms", "ms"},
        // Every workload: how much of the traced wall the spans cover, and
        // what tracing cost.
        {"trace.coverage", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
        // The benchmark's own fixed loop, timed before and after the run:
        // how fast this host ran, independent of the program; and the
        // share of the host's CPU time the hypervisor gave to other guests
        // during the run.
        {"host.probe_us", "us"},
        {"host.steal_pct", "%"},
    };
    V.insert(V.end(), Service.begin(), Service.end());
    return V;
  }();
  return M;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

Report::Report() {
  for (const auto &[Name, Unit] : endToEndMetrics())
    Values[Name] = 0;
  for (const auto &[Name, Unit] : perLayerMetrics())
    Values[Name] = 0;
}

void Report::set(const std::string &Name, double Value) {
  if (!Values.count(Name)) {
    fail("internal: unknown metric '" + Name + "'");
    return;
  }
  Values[Name] = Value;
}

double Report::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0 : It->second;
}

void Report::fail(const std::string &Why) {
  Problems.push_back(Why);
  std::fprintf(stderr, "snbench: FAIL: %s\n", Why.c_str());
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

} // namespace

std::string Report::jsonLine(bool Trace) const {
  const auto &List = Trace ? perLayerMetrics() : endToEndMetrics();
  std::ostringstream OS;
  OS << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : List) {
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
       << number(get(Name)) << ", \"unit\": \"" << Unit << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

void Report::print(bool Trace) const {
  for (const auto &[Key, Value] : Notes)
    std::printf("host %-22s %s\n", Key.c_str(), Value.c_str());
  std::printf("-- end-to-end%s\n",
              Trace ? " (untraced part of this run)" : "");
  for (const auto &[Name, Unit] : endToEndMetrics())
    std::printf("%-40s %16.6f %s\n", Name.c_str(), get(Name), Unit.c_str());
  if (Trace) {
    std::printf("-- per-layer (traced part of this run)\n");
    for (const auto &[Name, Unit] : perLayerMetrics())
      std::printf("%-40s %16.6f %s\n", Name.c_str(), get(Name),
                  Unit.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              correct() ? "yes" : "NO");
  for (const std::string &P : Problems)
    std::printf("problem: %s\n", P.c_str());
  std::printf("%s\n", jsonLine(Trace).c_str());
  std::fflush(stdout);
}

void Report::writeJson(const std::string &Path, bool Trace) const {
  std::ofstream OS(Path);
  OS << "{\"host\": {";
  for (size_t I = 0; I < Notes.size(); ++I)
    OS << (I ? ", " : "") << "\"" << jsonEscape(Notes[I].first) << "\": \""
       << jsonEscape(Notes[I].second) << "\"";
  OS << "}, \"problems\": [";
  for (size_t I = 0; I < Problems.size(); ++I)
    OS << (I ? ", " : "") << "\"" << jsonEscape(Problems[I]) << "\"";
  OS << "], \"end_to_end\": " << jsonLine(false);
  if (Trace)
    OS << ", \"per_layer\": " << jsonLine(true);
  OS << "}\n";
}

//===----------------------------------------------------------------------===//
// Host and process probes
//===----------------------------------------------------------------------===//

void snbench::recordHost(Report &R) {
  R.note("host_cpus",
         std::to_string(std::thread::hardware_concurrency()));
  R.note("isa", hostCPUFeatures().isaString());
  std::ifstream CpuInfo("/proc/cpuinfo");
  std::string Line, Model = "unknown";
  while (std::getline(CpuInfo, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Model = Line.substr(Colon + 2);
      break;
    }
  R.note("cpu_model", Model);
#if defined(__clang__)
  R.note("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  R.note("compiler", "gcc " __VERSION__);
#endif
}

namespace {
std::string procPath(int Pid, const char *Leaf) {
  return Pid ? "/proc/" + std::to_string(Pid) + "/" + Leaf
             : std::string("/proc/self/") + Leaf;
}
} // namespace

double snbench::peakRssMB(int Pid) {
  std::ifstream IS(procPath(Pid, "status"));
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double snbench::cpuMicros(int Pid) {
  std::ifstream IS(procPath(Pid, "stat"));
  std::string Stat;
  std::getline(IS, Stat);
  // The command name may hold spaces; fields resume after its ')'.
  size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream Fields(Stat.substr(Close + 2));
  std::string Tok;
  double UTime = 0, STime = 0;
  for (int Field = 3; Fields >> Tok; ++Field) {
    if (Field == 14)
      UTime = std::strtod(Tok.c_str(), nullptr);
    if (Field == 15) {
      STime = std::strtod(Tok.c_str(), nullptr);
      break;
    }
  }
  return (UTime + STime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {
double pointerChaseMicros() {
  // A pointer chase over a 4 MiB random cycle: the memory-latency-bound
  // kind of work the compiler does, in code that never changes.
  constexpr size_t N = (4u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> Order(N), Next(N);
  for (uint32_t I = 0; I < N; ++I)
    Order[I] = I;
  RNG R(42);
  for (size_t I = N - 1; I > 0; --I)
    std::swap(Order[I], Order[R.nextBelow(I + 1)]);
  for (size_t I = 0; I < N; ++I)
    Next[Order[I]] = Order[(I + 1) % N];
  const uint64_t T0 = nowNanos();
  uint32_t P = 0;
  for (int I = 0; I < 1000000; ++I)
    P = Next[P];
  const uint64_t T1 = nowNanos();
  asm volatile("" : : "r"(P));
  return static_cast<double>(T1 - T0) * 1e-3;
}
} // namespace

HostTicks snbench::hostTicks() {
  std::ifstream IS("/proc/stat");
  std::string Cpu;
  HostTicks T;
  IS >> Cpu; // "cpu": user nice system idle iowait irq softirq steal ...
  for (int Field = 0; Field < 8; ++Field) {
    double V = 0;
    IS >> V;
    T.Total += V;
    if (Field == 7)
      T.Steal = V;
  }
  return T;
}

double snbench::hostProbeMicros() {
  // In a child process, so that the probe's buffers never count toward the
  // peak RSS of the process this benchmark measures.
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return 0;
  const pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Pipe[0]);
    const double Us = pointerChaseMicros();
    ssize_t Ignored = ::write(Pipe[1], &Us, sizeof(Us));
    (void)Ignored;
    ::_exit(0);
  }
  ::close(Pipe[1]);
  double Us = 0;
  if (Pid > 0) {
    if (::read(Pipe[0], &Us, sizeof(Us)) != static_cast<ssize_t>(sizeof(Us)))
      Us = 0;
    ::waitpid(Pid, nullptr, 0);
  }
  ::close(Pipe[0]);
  return Us;
}

//===----------------------------------------------------------------------===//
// The instrumented compile pipeline
//===----------------------------------------------------------------------===//

const char *snbench::modeTag(VectorizerMode Mode) {
  switch (Mode) {
  case VectorizerMode::SNSLP:
    return "snslp";
  case VectorizerMode::GoSLP:
    return "goslp";
  case VectorizerMode::O3:
    return "o3";
  default:
    return "other";
  }
}

PipelineSpans PipelineSpans::forMode(VectorizerMode Mode) {
  Tracer &T = Tracer::get();
  const std::string Tag = modeTag(Mode);
  PipelineSpans S;
  S.Module = T.intern("compile.module." + Tag);
  S.Parse = T.intern("ir.parse");
  S.Verify = T.intern("ir.verify");
  S.Early = T.intern("passes.early." + Tag);
  S.Slp = T.intern("slp." + Tag);
  S.Late = T.intern("passes.late." + Tag);
  S.Print = T.intern("ir.print");
  S.Bytecode = T.intern("interp.bytecode_build." + Tag);
  S.Jit = T.intern("jit.compile." + Tag);
  return S;
}

namespace {
size_t runCleanup(Function &F) {
  return runConstantFolding(F) + runLocalCSE(F) + runDeadCodeElimination(F);
}
} // namespace

CompiledModule snbench::compileModule(const std::string &Text,
                                      const std::string &Entry,
                                      VectorizerMode Mode,
                                      const PipelineSpans &S) {
  Span Top(S.Module);
  CompiledModule C;
  C.Ctx = std::make_unique<Context>();
  C.M = std::make_unique<Module>(*C.Ctx, "snbench");
  {
    Span Sp(S.Parse);
    std::string Err;
    if (!parseIR(Text, *C.M, &Err)) {
      C.Error = "parse: " + Err;
      return C;
    }
  }
  C.F = C.M->getFunction(Entry);
  if (!C.F) {
    C.Error = "no function @" + Entry;
    return C;
  }
  C.InstsIn = C.F->instructionCount();
  std::vector<std::string> Errors;
  {
    Span Sp(S.Verify);
    if (!verifyModule(*C.M, &Errors)) {
      C.Error = "verify (input): " + Errors.front();
      return C;
    }
  }
  {
    Span Sp(S.Early);
    C.EarlyRemoved = runCleanup(*C.F);
  }
  {
    Span Sp(S.Slp);
    VectorizerConfig Cfg;
    Cfg.Mode = Mode;
    C.Vec = runSLPVectorizer(*C.F, Cfg);
  }
  {
    Span Sp(S.Late);
    C.LateRemoved = runCleanup(*C.F);
  }
  {
    Span Sp(S.Verify);
    if (!verifyModule(*C.M, &Errors)) {
      C.Error = "verify (output): " + Errors.front();
      return C;
    }
  }
  {
    Span Sp(S.Print);
    C.Printed = toString(*C.M);
  }
  {
    Span Sp(S.Bytecode);
    C.Engine = std::make_unique<ExecutionEngine>(*C.F);
  }
  {
    Span Sp(S.Jit);
    C.Native = C.Engine->isNativeAvailable();
  }
  C.CodeBytes = C.Engine->nativeCodeSize();
  C.Spills = C.Engine->nativeRegAllocSpills();
  return C;
}

//===----------------------------------------------------------------------===//
// Cross-run determinism
//===----------------------------------------------------------------------===//

void snbench::checkCountsAcrossRuns(const RunOptions &Opts,
                                    const std::string &Counts, Report &R) {
  // Keyed by the build as well: another build of the program may emit other
  // code, and only the same program must repeat the same counts.
  const std::string Path = Opts.OutDir + "/counts-" + Opts.Workload +
                           "-seed" + std::to_string(Opts.Seed) + "-" +
                           Opts.BuildId + ".txt";
  std::ifstream In(Path);
  if (In) {
    std::stringstream SS;
    SS << In.rdbuf();
    if (SS.str() != Counts)
      R.fail("determinism: counts differ from an earlier run of seed " +
             std::to_string(Opts.Seed) + " (" + Path + ")\n  earlier: " +
             SS.str() + "\n  now:     " + Counts);
    return;
  }
  std::ofstream Out(Path);
  Out << Counts;
}
