//===----------------------------------------------------------------------===//
//
// Part of the SN-SLP reproduction project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `execute` workload: single-threaded and in-process. Set-up compiles
/// every registry kernel under O3, SN-SLP and GoSLP through the whole
/// pipeline and warms it up; the timed phase runs each kernel on the
/// native engine in batches of calls, so no sample is a single sub-10 us
/// reading. It loads JIT code quality and the interpreter; no compiler
/// layer runs after set-up. A traced run also traces the set-ups, which
/// gives the compiler layers' self times on the registry kernels.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"
#include "Trace.h"

#include "costmodel/TargetCostModel.h"
#include "kernels/Kernel.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace snbench;
using namespace snslp;

namespace {

/// Calls per timed sample.
constexpr unsigned kBatch = 64;
/// Set-ups before the timed rounds (the traced ones in a traced run), then
/// one more every kSetUpEveryNanos between rounds.
constexpr unsigned kSetupRepeats = 5;
constexpr uint64_t kSetUpEveryNanos = 1000000000;

const VectorizerMode kModes[] = {VectorizerMode::O3, VectorizerMode::SNSLP,
                                 VectorizerMode::GoSLP};

/// One registry kernel compiled under one mode, with its buffers.
struct Case {
  const Kernel *K = nullptr;
  VectorizerMode Mode = VectorizerMode::O3;
  CompiledModule C;
  KernelData Data{{}, 0, 0};
  KernelData Pristine{{}, 0, 0};
  std::vector<RTValue> Args;
  uint32_t RunSpan = 0;
  double Cycles = 0;  ///< Simulated cycles of one call.
  double Coverage = 0; ///< Vector share of executed instructions.
  std::vector<double> Samples[2]; ///< Per-call ns: untraced, traced.

  /// Restores the inputs the batch starts from.
  void reset() {
    for (size_t I = 0; I < Data.getNumBuffers(); ++I)
      std::memcpy(Data.getPointer(I), Pristine.getPointer(I),
                  Data.getByteSize(I));
  }
  /// Runs \p Calls native calls; false when any run failed or fell back.
  bool batch(unsigned Calls, uint64_t &Fallbacks) {
    bool Ok = true;
    for (unsigned I = 0; I < Calls; ++I) {
      ExecutionResult Res = C.Engine->run(EngineKind::Native, Args);
      Ok &= Res.Ok;
      Fallbacks += Res.EngineUsed != EngineKind::Native;
    }
    return Ok;
  }
};

std::vector<Case> setUp(uint64_t Seed, const TargetCostModel &TCM,
                        Report &R) {
  std::vector<Case> Cases;
  Cases.reserve(kernelRegistry().size() * 3);
  for (const Kernel &K : kernelRegistry())
    for (VectorizerMode Mode : kModes) {
      Cases.emplace_back();
      Case &C = Cases.back();
      C.K = &K;
      C.Mode = Mode;
      C.C = compileModule(K.IRText, K.Name, Mode,
                          PipelineSpans::forMode(Mode));
      const std::string Label = K.Name + " (" + modeTag(Mode) + ")";
      if (!C.C.Error.empty() || !C.C.Native) {
        R.fail("execute: " + Label + ": " +
               (C.C.Error.empty() ? "native engine unavailable (" +
                                        C.C.Engine->nativeDisabledReason() +
                                        ")"
                                  : C.C.Error));
        Cases.pop_back();
        continue;
      }
      C.RunSpan = Tracer::get().intern("jit.run." + K.Name + "." +
                                       modeTag(Mode));
      C.Data = KernelData(K.Buffers, K.N, Seed);
      C.Pristine = C.Data;
      for (size_t I = 0; I < C.Data.getNumBuffers(); ++I)
        C.Args.push_back(argPointer(C.Data.getPointer(I)));
      C.Args.push_back(argInt64(static_cast<int64_t>(C.Data.getN())));

      // One checked call against the C++ reference, then warm-up.
      KernelData Expected(K.Buffers, K.N, Seed);
      K.Reference(Expected);
      uint64_t Fallbacks = 0;
      std::string Detail;
      if (!C.batch(1, Fallbacks) || Fallbacks ||
          !KernelData::outputsMatch(Expected, C.Data, K.RelTol, &Detail))
        R.fail("execute: " + Label + ": wrong output: " + Detail);
      for (int Warm = 0; Warm < 2; ++Warm) {
        C.reset();
        C.batch(kBatch, Fallbacks);
      }

      // Simulated cycles on the bytecode engine with the cost model.
      ExecutionEngine Sim(*C.C.F, [&TCM](const Instruction &I) {
        return TCM.executionCycles(I);
      });
      C.reset();
      ExecutionResult SimRes = Sim.run(EngineKind::Bytecode, C.Args);
      if (!SimRes.Ok)
        R.fail("execute: " + Label + ": bytecode run failed: " +
               SimRes.Error);
      C.Cycles = SimRes.Cycles;
      C.Coverage = SimRes.vectorCoverage();
    }
  return Cases;
}

std::string countsOf(const std::vector<Case> &Cases) {
  std::ostringstream OS;
  OS.precision(17);
  for (const Case &C : Cases)
    OS << C.K->Name << "." << modeTag(C.Mode)
       << " code_bytes=" << C.C.CodeBytes << " spills=" << C.C.Spills
       << " cycles=" << C.Cycles << " coverage=" << C.Coverage << "\n";
  return OS.str();
}

/// Compiler-layer metrics of the traced set-ups: self time per set-up
/// (16 kernels under each mode) and the vectorizer's and JIT's tallies.
void reportCompileLayers(const std::vector<Case> &Cases, Report &R) {
  auto Totals = Tracer::get().totals();
  auto PerSetup = [&](const std::string &Name, bool Self) {
    const SpanTotals &T = Totals[Name];
    return static_cast<double>(Self ? T.SelfNanos : T.TotalNanos) * 1e-3 /
           kSetupRepeats;
  };
  R.set("ir.parse_us", PerSetup("ir.parse", true));
  R.set("ir.verify_us", PerSetup("ir.verify", true));
  R.set("ir.print_us", PerSetup("ir.print", true));
  double Built = 0, Vectorized = 0, SuperNodes = 0, Bailouts = 0,
         InstsRemoved = 0;
  for (VectorizerMode M : {VectorizerMode::SNSLP, VectorizerMode::GoSLP}) {
    const std::string T = modeTag(M);
    R.set("bench.compile_" + T + "_ms",
          PerSetup("compile.module." + T, false) * 1e-3);
    R.set("passes.early_" + T + "_us", PerSetup("passes.early." + T, true));
    R.set("passes.late_" + T + "_us", PerSetup("passes.late." + T, true));
    R.set("slp." + T + "_us", PerSetup("slp." + T, true));
    R.set("interp.bytecode_build_" + T + "_us",
          PerSetup("interp.bytecode_build." + T, true));
    R.set("jit.compile_" + T + "_us", PerSetup("jit.compile." + T, true));
    double InstsIn = 0, Removed = 0, CodeBytes = 0, Spills = 0;
    for (const Case &C : Cases) {
      if (C.Mode != M)
        continue;
      const VectorizeStats &V = C.C.Vec;
      InstsIn += static_cast<double>(C.C.InstsIn);
      Removed += static_cast<double>(C.C.EarlyRemoved + C.C.LateRemoved);
      CodeBytes += static_cast<double>(C.C.CodeBytes);
      Spills += static_cast<double>(C.C.Spills);
      Built += V.GraphsBuilt;
      Vectorized += V.GraphsVectorized;
      SuperNodes += V.superNodesCommitted();
      Bailouts += V.totalBailouts();
      InstsRemoved += static_cast<double>(V.InstructionsRemoved);
      if (M == VectorizerMode::GoSLP) {
        R.set("slp.packs_enumerated",
              R.get("slp.packs_enumerated") + V.PacksEnumerated);
        R.set("slp.packs_selected",
              R.get("slp.packs_selected") + V.PacksSelected);
        R.set("slp.solver_nodes",
              R.get("slp.solver_nodes") +
                  static_cast<double>(V.SolverNodesExplored));
      }
    }
    if (M == VectorizerMode::SNSLP)
      R.set("ir.insts_in", InstsIn);
    R.set("passes.removed_" + T, Removed);
    R.set("jit.code_bytes_" + T, CodeBytes);
    R.set("jit.spills_" + T, Spills);
  }
  R.set("slp.graphs_built", Built);
  R.set("slp.graphs_vectorized", Vectorized);
  R.set("slp.vectorized_ratio", Built > 0 ? Vectorized / Built : 0);
  R.set("slp.supernodes", SuperNodes);
  R.set("slp.bailouts", Bailouts);
  R.set("slp.insts_removed", InstsRemoved);
}

const Case *find(const std::vector<Case> &Cases, const Kernel &K,
                 VectorizerMode Mode) {
  for (const Case &C : Cases)
    if (C.K == &K && C.Mode == Mode)
      return &C;
  return nullptr;
}

} // namespace

void snbench::runExecute(const RunOptions &Opts, Report &R) {
  TargetCostModel TCM;
  const uint32_t RestoreSpan = Tracer::get().intern("bench.restore_and_warm");

  // Every set-up is timed, and its counts must equal the first one's.
  std::vector<double> SetupSeconds;
  std::string Counts;
  auto SetUpOnce = [&](std::vector<Case> &Into) {
    const uint64_t T0 = nowNanos();
    Into = setUp(Opts.Seed, TCM, R);
    SetupSeconds.push_back(static_cast<double>(nowNanos() - T0) * 1e-9);
    const std::string Now = countsOf(Into);
    if (Counts.empty())
      Counts = Now;
    else if (Now != Counts)
      R.fail("determinism: code size or simulated cycles differ between "
             "set-ups");
  };
  std::vector<Case> Cases;
  Tracer::get().setEnabled(Opts.Trace);
  for (unsigned Rep = 0; Rep < kSetupRepeats; ++Rep) {
    Cases.clear();
    SetUpOnce(Cases);
  }
  Tracer::get().setEnabled(false);
  if (!R.correct()) {
    R.set("setup_s", median(SetupSeconds));
    return;
  }
  if (Opts.Trace)
    reportCompileLayers(Cases, R);
  const uint64_t SetupRootNanos = Tracer::get().rootNanos();

  // Timed rounds over every case. A traced run alternates untraced rounds
  // (end-to-end) with traced ones (per layer), so both see the same host
  // conditions.
  uint64_t Fallbacks = 0;
  struct Phase {
    std::vector<double> CallNanos;
    uint64_t WallNanos = 0;
    double CpuMicros = 0;
  };
  Phase Slot[2];
  const uint64_t Until =
      nowNanos() + static_cast<uint64_t>(Opts.Seconds * 1e9);
  uint64_t NextSetUp = nowNanos() + kSetUpEveryNanos;
  for (unsigned Round = 0; Round == 0 || nowNanos() < Until; ++Round) {
    if (nowNanos() >= NextSetUp) {
      // One more untraced set-up between rounds, outside their timing:
      // the host's speed drifts over seconds, and set-ups spread over the
      // whole run sample it the way the rounds do. Its cases are only
      // checked, then dropped.
      std::vector<Case> Extra;
      SetUpOnce(Extra);
      NextSetUp = nowNanos() + kSetUpEveryNanos;
    }
    const unsigned S = Opts.Trace ? Round % 2 : 0;
    Phase &Ph = Slot[S];
    Tracer::get().setEnabled(S == 1);
    const double Cpu0 = cpuMicros();
    const uint64_t T0 = nowNanos();
    for (Case &C : Cases) {
      // Restore the inputs, then one untimed call brings code and data
      // back into cache: the other cases evicted them, and the sample is
      // meant to time the generated code, not refills from memory.
      {
        Span Restore(RestoreSpan);
        C.reset();
        C.batch(1, Fallbacks);
      }
      const uint64_t B0 = nowNanos();
      bool Ok;
      {
        Span Run(C.RunSpan);
        Ok = C.batch(kBatch, Fallbacks);
      }
      const double PerCall = static_cast<double>(nowNanos() - B0) / kBatch;
      if (!Ok) {
        R.fail("execute: " + C.K->Name + " failed during the timed run");
        R.Failed += kBatch;
      }
      C.Samples[S].push_back(PerCall);
      Ph.CallNanos.push_back(PerCall);
    }
    Ph.WallNanos += nowNanos() - T0;
    Ph.CpuMicros += cpuMicros() - Cpu0;
    Tracer::get().setEnabled(false);
    R.Attempted += Cases.size() * kBatch;
  }
  std::printf("execute: %zu set-ups, s:", SetupSeconds.size());
  for (double S : SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n");
  R.set("setup_s", median(SetupSeconds));
  const Phase &E2E = Slot[0];
  const double Calls = static_cast<double>(E2E.CallNanos.size() * kBatch);
  R.set("p50_ms", median(E2E.CallNanos) * 1e-6);
  R.set("ops_per_s", Calls / (static_cast<double>(E2E.WallNanos) * 1e-9));
  R.set("bench.cpu_us_per_op", E2E.CpuMicros / Calls);

  // Per-kernel medians of one phase; geomeans over the 16 kernels.
  auto Summarize = [&](unsigned Slot, bool PerKernelRows) {
    std::vector<double> SN, O3, Go, Speedup, Sim;
    for (const Kernel &K : kernelRegistry()) {
      const Case *S = find(Cases, K, VectorizerMode::SNSLP);
      const Case *O = find(Cases, K, VectorizerMode::O3);
      const Case *G = find(Cases, K, VectorizerMode::GoSLP);
      if (!S || !O || !G)
        continue;
      const double SNus = median(S->Samples[Slot]) * 1e-3;
      const double O3us = median(O->Samples[Slot]) * 1e-3;
      SN.push_back(SNus);
      O3.push_back(O3us);
      Go.push_back(median(G->Samples[Slot]) * 1e-3);
      Speedup.push_back(O3us / SNus);
      Sim.push_back(O->Cycles / S->Cycles);
      if (PerKernelRows) {
        R.set("jit.run." + K.Name + ".snslp_us", SNus);
        R.set("jit.run." + K.Name + ".o3_us", O3us);
      }
      if (Slot == 0)
        std::printf("execute: %-16s native/call  O3 %9.3f us  SN-SLP "
                    "%9.3f us  GoSLP %9.3f us  O3/SN-SLP %.3fx\n",
                    K.Name.c_str(), O3us, SNus, Go.back(), O3us / SNus);
    }
    if (Slot == 0) {
      R.set("bench.run_snslp_us", geomean(SN));
      R.set("bench.run_o3_us", geomean(O3));
      R.set("bench.native_speedup", geomean(Speedup));
      R.set("bench.sim_speedup", geomean(Sim));
    } else {
      R.set("jit.run.goslp_us", geomean(Go));
    }
  };
  Summarize(0, false);

  if (Opts.Trace) {
    const Phase &Traced = Slot[1];
    Summarize(1, true);
    R.set("trace.coverage",
          static_cast<double>(Tracer::get().rootNanos() - SetupRootNanos) /
              static_cast<double>(Traced.WallNanos));
    R.set("trace.overhead_pct",
          (median(Traced.CallNanos) / median(E2E.CallNanos) - 1) * 100);
    R.set("trace.spans", static_cast<double>(Tracer::get().size()));

    // The bytecode engine on the same kernels, outside the timed phases.
    for (VectorizerMode Mode : {VectorizerMode::SNSLP, VectorizerMode::O3}) {
      std::vector<double> PerCall, Coverage;
      for (Case &C : Cases) {
        if (C.Mode != Mode)
          continue;
        std::vector<double> Reps;
        for (int Rep = 0; Rep < 5; ++Rep) {
          C.reset();
          uint64_t B0 = nowNanos();
          for (int I = 0; I < 8; ++I)
            C.C.Engine->run(EngineKind::Bytecode, C.Args);
          Reps.push_back(static_cast<double>(nowNanos() - B0) / 8 * 1e-3);
        }
        PerCall.push_back(median(Reps));
        Coverage.push_back(C.Coverage);
      }
      R.set(std::string("interp.bytecode_") + modeTag(Mode) + "_us",
            geomean(PerCall));
      if (Mode == VectorizerMode::SNSLP) {
        double Sum = 0;
        for (double V : Coverage)
          Sum += V;
        R.set("interp.vector_coverage",
              Coverage.empty()
                  ? 0
                  : Sum / static_cast<double>(Coverage.size()));
      }
    }
  }

  // The timed runs must leave the engines as they were: same outputs
  // against the reference, same simulated cycles.
  double CyclesSN = 0, CyclesO3 = 0;
  for (Case &C : Cases) {
    KernelData Expected(C.K->Buffers, C.K->N, Opts.Seed);
    C.K->Reference(Expected);
    C.reset();
    uint64_t Ignored = 0;
    std::string Detail;
    if (!C.batch(1, Ignored) ||
        !KernelData::outputsMatch(Expected, C.Data, C.K->RelTol, &Detail)) {
      R.fail("execute: " + C.K->Name + " (" + modeTag(C.Mode) +
             "): wrong output after the timed run: " + Detail);
      ++R.Failed;
    }
    if (C.Mode == VectorizerMode::SNSLP)
      CyclesSN += C.Cycles;
    if (C.Mode == VectorizerMode::O3)
      CyclesO3 += C.Cycles;
  }
  if (Fallbacks)
    R.fail("execute: " + std::to_string(Fallbacks) +
           " native calls fell back to bytecode");
  R.set("jit.fallback_runs", static_cast<double>(Fallbacks));
  R.set("costmodel.cycles_snslp", CyclesSN);
  R.set("costmodel.cycles_o3", CyclesO3);
  checkCountsAcrossRuns(Opts, Counts, R);
  R.set("peak_rss_mb", peakRssMB());
}
