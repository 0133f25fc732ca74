//===- bench/bench_engine_scaling.cpp - Batch engine thread scaling -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Measures the batch engine's throughput as worker count grows: the whole
// compilable corpus is analyzed at --jobs 1, 2, 4, ... up to (at least) 8
// and the hardware concurrency, reporting wall time, speedup, and
// parallel efficiency. Every configuration's report is checked to be
// byte-identical to the single-worker report, so the table doubles as a
// determinism audit.
//
// The run also probes the allocation-free shadow hot path: a steady-state
// single-benchmark analysis is timed against the uninstrumented
// interpreter (the Table 1 "Herbgrind overhead" shape) while the
// per-thread limb allocator's counters verify that shadowed operations
// perform zero heap allocations.
//
// Everything is recorded to a machine-readable JSON file (default
// BENCH_engine.json, or --json-out FILE) so the perf trajectory is
// tracked commit over commit. Each sweep-shaped section additionally
// appends a run-ledger entry (default BENCH_ledger/, or
// --ledger-dir DIR) so `herbgrind_batch ledger compare` can judge the
// trajectory without re-parsing bench JSON.
//
// With a cache directory argument, a cold/warm pair of runs at the top
// jobs count additionally measures the result cache: the warm sweep must
// analyze zero shards and emit the same bytes.
//
// Usage: bench_engine_scaling [--json-out FILE] [--ledger-dir DIR]
//                             [samples-per-benchmark] [shard-size]
//                             [cache-dir]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/OpProfile.h"
#include "engine/Engine.h"
#include "engine/RunLedger.h"
#include "improve/BatchImprove.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "support/Format.h"
#include "support/LimbAlloc.h"
#include "support/Metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace herbgrind;
using namespace herbgrind::bench;
using namespace herbgrind::engine;

namespace {

/// Steady-state shadow hot path probe: analyze one transcendental-free
/// corpus benchmark repeatedly with one reused Herbgrind instance, and
/// count limb-cache heap allocations once the caches are warm.
struct HotPathProbe {
  double NativeSeconds = 0.0;
  double HerbgrindSeconds = 0.0;
  uint64_t ShadowOps = 0;
  uint64_t SteadyHeapAllocs = 0;
  uint64_t SteadyCacheHits = 0;
  bool Ok = false;
};

HotPathProbe runHotPathProbe() {
  HotPathProbe Probe;
  const int Samples = 64;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!isStraightLine(*C.Body) || !fpcore::isCompilable(C))
      continue;
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, Samples);

    // Warm the native baseline the same way the instrumented run is
    // warmed below, so the recorded overhead factor compares steady
    // state to steady state.
    for (const auto &In : Inputs)
      interpret(P, In);
    Probe.NativeSeconds += timeIt([&] {
      for (const auto &In : Inputs)
        interpret(P, In);
    });

    Herbgrind HG(P);
    // Warm-up pass: populates the limb cache, pool slabs, and constant
    // caches; its allocations are one-time setup, not per-op cost.
    for (const auto &In : Inputs)
      HG.runOnInput(In);
    uint64_t Ops0 = HG.stats().ShadowOpsExecuted;
    limballoc::resetCounters();
    Probe.HerbgrindSeconds += timeIt([&] {
      for (const auto &In : Inputs)
        HG.runOnInput(In);
    });
    Probe.SteadyHeapAllocs += limballoc::heapAllocs();
    Probe.SteadyCacheHits += limballoc::cacheHits();
    Probe.ShadowOps += HG.stats().ShadowOpsExecuted - Ops0;
  }
  Probe.Ok = Probe.ShadowOps > 0;
  return Probe;
}

/// Native-frontend overhead probe: the same quadratic-root kernel run
/// four ways -- raw doubles, native::Real under a Context, the
/// uninstrumented interpreter, and the instrumented interpreter -- so the
/// per-op cost of the operator-overloading frontend is tracked against
/// both the hardware floor and the IR path it bypasses.
struct NativeProbe {
  double RawSeconds = 0.0;
  double NativeSeconds = 0.0;
  double InterpSeconds = 0.0;
  double HerbgrindSeconds = 0.0;
  uint64_t ShadowOps = 0;
};

NativeProbe runNativeProbe() {
  using herbgrind::native::Real;
  const int Samples = 512;
  const int Reps = 4;

  // One input set for all four implementations.
  Rng R(0x5eed);
  std::vector<std::array<double, 3>> Inputs;
  Inputs.reserve(Samples);
  for (int I = 0; I < Samples; ++I)
    Inputs.push_back({R.betweenOrdinals(1.0, 10.0),
                      R.betweenOrdinals(100.0, 1e6),
                      R.betweenOrdinals(1.0, 10.0)});

  NativeProbe Probe;

  // Raw doubles: the hardware floor. The accumulated sink keeps the
  // optimizer honest.
  volatile double Sink = 0.0;
  for (const auto &In : Inputs) // warm
    Sink += (-In[1] + std::sqrt(In[1] * In[1] - 4.0 * In[0] * In[2])) /
            (2.0 * In[0]);
  Probe.RawSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : Inputs)
        Sink += (-In[1] + std::sqrt(In[1] * In[1] - 4.0 * In[0] * In[2])) /
                (2.0 * In[0]);
  });

  // native::Real under a steady-state context, running the *registered*
  // quadratic kernel so the bench times exactly the code the engine
  // sweeps (one definition, no drift).
  const herbgrind::native::Kernel *QK = nullptr;
  for (const herbgrind::native::Kernel &K : herbgrind::native::demoKernels())
    if (K.Name == "native quadratic root")
      QK = &K;
  if (!QK) {
    std::fprintf(stderr, "native probe: quadratic demo kernel missing\n");
    return Probe;
  }
  herbgrind::native::Context Ctx;
  auto NativeOnce = [&](const std::array<double, 3> &In) {
    Ctx.run(*QK, In.data(), In.size());
  };
  for (const auto &In : Inputs) // warm-up: pools, caches, site table
    NativeOnce(In);
  uint64_t Ops0 = Ctx.stats().ShadowOpsExecuted;
  Probe.NativeSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : Inputs)
        NativeOnce(In);
  });
  Probe.ShadowOps = Ctx.stats().ShadowOpsExecuted - Ops0;

  // The same math as hand-built IR, uninstrumented and instrumented.
  ProgramBuilder PB;
  auto A = PB.input(0);
  auto B = PB.input(1);
  auto Cc = PB.input(2);
  auto Disc = PB.op(Opcode::SubF64, PB.op(Opcode::MulF64, B, B),
                    PB.op(Opcode::MulF64,
                          PB.op(Opcode::MulF64, PB.constF64(4.0), A), Cc));
  auto Root = PB.op(
      Opcode::DivF64,
      PB.op(Opcode::AddF64, PB.op(Opcode::NegF64, B),
            PB.op(Opcode::SqrtF64, Disc)),
      PB.op(Opcode::MulF64, PB.constF64(2.0), A));
  PB.out(Root);
  PB.halt();
  Program P = PB.finish();

  std::vector<std::vector<double>> InputVecs;
  InputVecs.reserve(Inputs.size());
  for (const auto &In : Inputs)
    InputVecs.push_back({In[0], In[1], In[2]});

  for (const auto &In : InputVecs)
    interpret(P, In);
  Probe.InterpSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : InputVecs)
        interpret(P, In);
  });

  Herbgrind HG(P);
  for (const auto &In : InputVecs)
    HG.runOnInput(In);
  Probe.HerbgrindSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : InputVecs)
        HG.runOnInput(In);
  });
  return Probe;
}

} // namespace

int main(int Argc, char **Argv) {
  EngineConfig Cfg;
  std::string JsonOut = "BENCH_engine.json";
  std::string LedgerDir = "BENCH_ledger";
  std::vector<const char *> Positional;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json-out") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --json-out needs a file path\n");
        return 2;
      }
      JsonOut = Argv[++I];
    } else if (std::strcmp(Argv[I], "--ledger-dir") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --ledger-dir needs a directory\n");
        return 2;
      }
      LedgerDir = Argv[++I];
    } else {
      Positional.push_back(Argv[I]);
    }
  }
  // One ledger entry per sweep-shaped section, so the perf trajectory is
  // queryable by the same `ledger compare` machinery the engine uses.
  auto AppendLedger = [&LedgerDir](const EngineConfig &SecCfg,
                                   const EngineStats &Stats,
                                   const char *Label) {
    LedgerEntry E = makeLedgerEntry(SecCfg, Stats, Label);
    std::string Path, Err;
    if (!ledgerAppend(LedgerDir, E, WireEncoding::Json, Path, Err)) {
      std::fprintf(stderr, "FAIL: ledger append (%s): %s\n", Label,
                   Err.c_str());
      return false;
    }
    return true;
  };
  Cfg.SamplesPerBenchmark =
      Positional.size() > 0 ? std::atoi(Positional[0]) : 32;
  Cfg.ShardSize = Positional.size() > 1 ? std::atoi(Positional[1]) : 4;

  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  std::vector<unsigned> JobCounts;
  for (unsigned J = 1; J <= std::max(8u, HW); J *= 2)
    JobCounts.push_back(J);
  if (JobCounts.back() != HW && HW > 1)
    JobCounts.push_back(HW);
  std::sort(JobCounts.begin(), JobCounts.end());
  JobCounts.erase(std::unique(JobCounts.begin(), JobCounts.end()),
                  JobCounts.end());

  std::printf("batch engine scaling: corpus sweep, %d samples/benchmark, "
              "shard size %d, %u hardware threads\n\n",
              Cfg.SamplesPerBenchmark, Cfg.ShardSize, HW);
  std::printf("%6s %10s %10s %9s %11s  %s\n", "jobs", "wall(s)", "runs/s",
              "speedup", "efficiency", "deterministic");

  std::string JobsJson;
  std::string Reference;
  double BaseSeconds = 0.0;
  BatchResult LastResult; // top-jobs sweep, reused by the improver probe
  for (unsigned J : JobCounts) {
    Cfg.Jobs = J;
    Engine Eng(Cfg); // fresh engine: cache warmup is part of every run
    BatchResult R = Eng.runCorpus();
    std::string Rendered = R.renderJson();
    if (Reference.empty()) {
      Reference = Rendered;
      BaseSeconds = R.Stats.WallSeconds;
    }
    bool Identical = Rendered == Reference;
    double Speedup = R.Stats.WallSeconds > 0.0
                         ? BaseSeconds / R.Stats.WallSeconds
                         : 0.0;
    // The gate on this loop is byte-identity alone. Speedup is recorded
    // but only *expected* while the added workers map onto real hardware
    // threads; oversubscribed rows (J > HW -- the whole table on a
    // single-core container) are annotated so downstream consumers never
    // read flat scaling there as a regression.
    std::printf("%6u %10.3f %10.0f %8.2fx %10.1f%%  %s%s\n", J,
                R.Stats.WallSeconds,
                R.Stats.Runs / std::max(R.Stats.WallSeconds, 1e-9),
                Speedup, 100.0 * Speedup / J,
                Identical ? "yes" : "NO -- BUG",
                J > HW ? "  (oversubscribed; no speedup expected)" : "");
    if (!Identical)
      return 1;
    if (!JobsJson.empty())
      JobsJson += ",";
    JobsJson += format(
        "{\"jobs\":%u,\"wall_s\":%s,\"runs\":%llu,\"runs_per_s\":%s,"
        "\"speedup\":%s,\"speedup_expected\":%s,\"deterministic\":true}",
        J, formatDoubleShortest(R.Stats.WallSeconds).c_str(),
        static_cast<unsigned long long>(R.Stats.Runs),
        formatDoubleShortest(R.Stats.Runs /
                             std::max(R.Stats.WallSeconds, 1e-9))
            .c_str(),
        formatDoubleShortest(Speedup).c_str(), J <= HW ? "true" : "false");
    LastResult = std::move(R);
  }
  // The corpus sweep's accumulated metrics: the realistic telemetry
  // document the merge-overhead probe folds below.
  metrics::Snapshot SweepSnap = metrics::snapshot();
  if (!AppendLedger(Cfg, LastResult.Stats, "scaling"))
    return 1;

  // Batch-improver throughput: run the corpus-wide repair pass over the
  // top-jobs sweep's merged root causes, so improver speed is tracked
  // commit over commit like shadow-op throughput.
  improve::BatchImproveConfig BCfg;
  BCfg.Jobs = JobCounts.back();
  improve::BatchImproveStats IStats = improve::batchImprove(LastResult, BCfg);
  double RecordsPerS =
      IStats.WallSeconds > 0.0 ? IStats.Candidates / IStats.WallSeconds : 0.0;
  std::printf("\nbatch improver (jobs %u): %llu root causes (%llu "
              "significant, %llu improved) in %.3fs (%.0f records/s)\n",
              BCfg.Jobs,
              static_cast<unsigned long long>(IStats.Candidates),
              static_cast<unsigned long long>(IStats.Significant),
              static_cast<unsigned long long>(IStats.Improved),
              IStats.WallSeconds, RecordsPerS);

  // The allocation-free hot path probe (bench_table1_overhead's Herbgrind
  // row, instrumented): zero steady-state heap allocations is the
  // structural claim; the overhead factor is the perf trajectory number.
  HotPathProbe Probe = runHotPathProbe();
  double Overhead = Probe.NativeSeconds > 0.0
                        ? Probe.HerbgrindSeconds / Probe.NativeSeconds
                        : 0.0;
  double AllocsPerOp =
      Probe.ShadowOps
          ? static_cast<double>(Probe.SteadyHeapAllocs) / Probe.ShadowOps
          : 0.0;
  std::printf("\nshadow hot path (steady state, straight-line corpus):\n"
              "  native %.3fs, herbgrind %.3fs (%.1fx overhead); "
              "%llu shadow ops, %llu heap allocs (%.6f/op), "
              "%llu limb-cache hits\n",
              Probe.NativeSeconds, Probe.HerbgrindSeconds, Overhead,
              static_cast<unsigned long long>(Probe.ShadowOps),
              static_cast<unsigned long long>(Probe.SteadyHeapAllocs),
              AllocsPerOp,
              static_cast<unsigned long long>(Probe.SteadyCacheHits));

  // Native-frontend overhead: the operator-overloading path against the
  // hardware floor and against the interpreter it bypasses.
  NativeProbe NP = runNativeProbe();
  auto Over = [](double S, double Base) { return Base > 0.0 ? S / Base : 0.0; };
  std::printf("\nnative frontend (quadratic kernel, steady state):\n"
              "  raw double %.3fs, native::Real %.3fs (%.1fx), "
              "interpreter %.3fs (%.1fx), instrumented interpreter %.3fs "
              "(%.1fx); %llu shadow ops (%.0f ns/op native)\n",
              NP.RawSeconds, NP.NativeSeconds,
              Over(NP.NativeSeconds, NP.RawSeconds), NP.InterpSeconds,
              Over(NP.InterpSeconds, NP.RawSeconds), NP.HerbgrindSeconds,
              Over(NP.HerbgrindSeconds, NP.RawSeconds),
              static_cast<unsigned long long>(NP.ShadowOps),
              NP.ShadowOps ? 1e9 * NP.NativeSeconds / NP.ShadowOps : 0.0);

  // Op-profiler probe: sweep the bundled quadratic native kernel with
  // sampling at period 1 and rank where the shadow time goes. At period 1
  // the ranked rows account for every measured nanosecond, so coverage
  // below 0.9 means attribution itself broke (the acceptance gate).
  metrics::resetAll();
  opprof::enable(1);
  EngineConfig PCfg;
  PCfg.Jobs = JobCounts.back();
  PCfg.SamplesPerBenchmark = Cfg.SamplesPerBenchmark;
  PCfg.ShardSize = Cfg.ShardSize;
  std::vector<herbgrind::native::Kernel> QuadOnly;
  for (const herbgrind::native::Kernel &K : herbgrind::native::demoKernels())
    if (K.Name == "native quadratic root")
      QuadOnly.push_back(K);
  BatchResult ProfResult = Engine(PCfg).run(QuadOnly);
  opprof::disable();
  std::vector<opprof::OpProfileRow> ProfRows;
  for (const BenchmarkResult &BR : ProfResult.Benchmarks)
    opprof::accumulateOpProfile(BR.Records.Ops, ProfRows);
  opprof::finalizeOpProfile(ProfRows);
  uint64_t ProfTotalNs =
      metrics::snapshot().counterValue("profile.shadow_ns");
  uint64_t ProfRowNs = 0;
  for (const opprof::OpProfileRow &R : ProfRows)
    ProfRowNs += R.Nanos;
  double ProfCoverage =
      ProfTotalNs ? static_cast<double>(ProfRowNs) / ProfTotalNs : 0.0;
  std::printf("\nop profiler (quadratic kernel sweep, jobs %u, sample "
              "period 1):\n%s",
              PCfg.Jobs,
              opprof::renderOpProfileTable(ProfRows, 10, ProfTotalNs)
                  .c_str());
  std::string ProfRowsJson;
  size_t ProfTop = std::min<size_t>(ProfRows.size(), 10);
  for (size_t I = 0; I < ProfTop; ++I) {
    const opprof::OpProfileRow &R = ProfRows[I];
    if (!ProfRowsJson.empty())
      ProfRowsJson += ",";
    ProfRowsJson += format(
        "{\"op\":\"%s\",\"loc\":\"%s\",\"executions\":%llu,"
        "\"samples\":%llu,\"ns\":%llu,\"est_ns\":%s,"
        "\"limb_allocs\":%llu,\"limb_hits\":%llu}",
        opInfo(R.Op).Name, jsonEscape(R.Loc.str()).c_str(),
        static_cast<unsigned long long>(R.Executions),
        static_cast<unsigned long long>(R.Samples),
        static_cast<unsigned long long>(R.Nanos),
        formatDoubleShortest(R.estNanos()).c_str(),
        static_cast<unsigned long long>(R.LimbAllocs),
        static_cast<unsigned long long>(R.LimbHits));
  }
  std::string ProfileJson = format(
      "{\"total_ns\":%llu,\"coverage\":%s,\"rows\":[%s]}",
      static_cast<unsigned long long>(ProfTotalNs),
      formatDoubleShortest(ProfCoverage).c_str(), ProfRowsJson.c_str());
  if (!AppendLedger(PCfg, ProfResult.Stats, "profile"))
    return 1;

  // Telemetry-merge overhead: fold a JSON and an HGB rendering of the
  // corpus sweep's telemetry document (metrics snapshot plus the ranked
  // profile rows) the way `telemetry-merge` does for distributed slices.
  // The claim is only that merging is cheap next to the sweep it
  // describes, so the gate is generous.
  TelemetryDoc MergeDoc;
  MergeDoc.Metrics = SweepSnap;
  MergeDoc.Profile = ProfRows;
  MergeDoc.ProfileTotalNanos = ProfTotalNs;
  const std::string MergeJson = renderTelemetryJson(MergeDoc);
  const std::string MergeBin = renderTelemetryBinary(MergeDoc);
  const int MergeReps = 50;
  bool MergeOk = true;
  double MergeS = timeIt([&] {
    for (int I = 0; I < MergeReps; ++I) {
      TelemetryDoc Merged;
      std::string E;
      if (!mergeTelemetry({MergeJson, MergeBin}, Merged, E) ||
          Merged.Metrics.counterValue("engine.runs") !=
              2 * SweepSnap.counterValue("engine.runs"))
        MergeOk = false;
    }
  });
  double MergePerS = MergeS / MergeReps;
  std::printf("\ntelemetry merge (corpus sweep doc, json + hgb): %zu + %zu "
              "bytes, %.3f ms/merge, correct: %s\n",
              MergeJson.size(), MergeBin.size(), 1e3 * MergePerS,
              MergeOk ? "yes" : "NO -- BUG");
  std::string TelemetryMergeJson = format(
      "{\"docs\":2,\"json_bytes\":%llu,\"hgb_bytes\":%llu,\"merge_s\":%s,"
      "\"merges_per_s\":%s,\"correct\":%s}",
      static_cast<unsigned long long>(MergeJson.size()),
      static_cast<unsigned long long>(MergeBin.size()),
      formatDoubleShortest(MergePerS).c_str(),
      formatDoubleShortest(MergePerS > 0.0 ? 1.0 / MergePerS : 0.0).c_str(),
      MergeOk ? "true" : "false");

  std::string CacheJson = "null";
  if (Positional.size() > 2) {
    // Result-cache section: a cold sweep populates the cache, the warm
    // sweep must satisfy every shard from it and reproduce the bytes.
    Cfg.Jobs = JobCounts.back();
    Cfg.CacheDir = Positional[2];
    std::printf("\nresult cache (%s), jobs %u:\n", Positional[2], Cfg.Jobs);
    Engine Eng(Cfg);
    BatchResult Cold = Eng.runCorpus();
    BatchResult Warm = Eng.runCorpus();
    bool Identical = Warm.renderJson() == Reference &&
                     Cold.renderJson() == Reference;
    double Speedup = Warm.Stats.WallSeconds > 0.0
                         ? Cold.Stats.WallSeconds / Warm.Stats.WallSeconds
                         : 0.0;
    std::printf("  cold %.3fs (%llu analyzed), warm %.3fs (%llu analyzed, "
                "%llu cached, %.1fx), deterministic: %s\n",
                Cold.Stats.WallSeconds,
                static_cast<unsigned long long>(Cold.Stats.AnalyzedShards),
                Warm.Stats.WallSeconds,
                static_cast<unsigned long long>(Warm.Stats.AnalyzedShards),
                static_cast<unsigned long long>(Warm.Stats.CachedShards),
                Speedup, Identical ? "yes" : "NO -- BUG");
    if (!Identical || Warm.Stats.AnalyzedShards != 0)
      return 1;
    if (!AppendLedger(Cfg, Cold.Stats, "cache-cold") ||
        !AppendLedger(Cfg, Warm.Stats, "cache-warm"))
      return 1;
    CacheJson = format(
        "{\"cold_s\":%s,\"warm_s\":%s,\"warm_cached_shards\":%llu,"
        "\"warm_speedup\":%s}",
        formatDoubleShortest(Cold.Stats.WallSeconds).c_str(),
        formatDoubleShortest(Warm.Stats.WallSeconds).c_str(),
        static_cast<unsigned long long>(Warm.Stats.CachedShards),
        formatDoubleShortest(Speedup).c_str());
  }

  // Tiered shadowing: the same mixed workload (corpus cores plus the
  // native demo kernels, quadratic included) under all three tiers. The
  // perf claim is wall-clock: confirm skips the full shadow for every
  // benchmark tier 0 clears, fast skips it for every run, and both only
  // pay off while the escalation fraction stays below 1.0 -- which is
  // the acceptance gate, alongside confirm's byte-identity.
  std::vector<fpcore::Core> TierCores = fpcore::compilableCorpus();
  std::vector<herbgrind::native::Kernel> TierKernels =
      herbgrind::native::demoKernels();
  EngineConfig TCfg;
  TCfg.Jobs = JobCounts.back();
  TCfg.SamplesPerBenchmark = Cfg.SamplesPerBenchmark;
  TCfg.ShardSize = Cfg.ShardSize;
  auto RunTier = [&](TierMode Tier) {
    TCfg.Tier = Tier;
    return Engine(TCfg).run(TierCores, TierKernels);
  };
  BatchResult TFull = RunTier(TierMode::Full);
  BatchResult TConfirm = RunTier(TierMode::Confirm);
  BatchResult TFast = RunTier(TierMode::Fast);
  bool TierIdentical = TConfirm.renderJson() == TFull.renderJson();
  double ConfirmFraction =
      TFull.Stats.Benchmarks
          ? static_cast<double>(TConfirm.Stats.ConfirmedBenchmarks) /
                TFull.Stats.Benchmarks
          : 1.0;
  double FastFraction =
      TFast.Stats.Runs ? static_cast<double>(TFast.Stats.EscalatedRuns) /
                             TFast.Stats.Runs
                       : 1.0;
  std::printf("\ntiered shadowing (mixed workload, jobs %u):\n"
              "  full %.3fs; confirm %.3fs (%llu/%llu benchmarks "
              "escalated, %.0f%%), identical: %s; fast %.3fs (%llu/%llu "
              "runs escalated, %.0f%%)\n",
              TCfg.Jobs, TFull.Stats.WallSeconds,
              TConfirm.Stats.WallSeconds,
              static_cast<unsigned long long>(
                  TConfirm.Stats.ConfirmedBenchmarks),
              static_cast<unsigned long long>(TFull.Stats.Benchmarks),
              100.0 * ConfirmFraction, TierIdentical ? "yes" : "NO -- BUG",
              TFast.Stats.WallSeconds,
              static_cast<unsigned long long>(TFast.Stats.EscalatedRuns),
              static_cast<unsigned long long>(TFast.Stats.Runs),
              100.0 * FastFraction);
  TCfg.Tier = TierMode::Full;
  if (!AppendLedger(TCfg, TFull.Stats, "tier-full"))
    return 1;
  TCfg.Tier = TierMode::Confirm;
  if (!AppendLedger(TCfg, TConfirm.Stats, "tier-confirm"))
    return 1;
  TCfg.Tier = TierMode::Fast;
  if (!AppendLedger(TCfg, TFast.Stats, "tier-fast"))
    return 1;
  std::string TieredJson = format(
      "{\"full_s\":%s,\"confirm_s\":%s,\"fast_s\":%s,\"benchmarks\":%llu,"
      "\"confirmed_benchmarks\":%llu,\"confirm_escalation_fraction\":%s,"
      "\"fast_runs\":%llu,\"fast_escalated_runs\":%llu,"
      "\"fast_escalation_fraction\":%s,\"confirm_identical\":%s}",
      formatDoubleShortest(TFull.Stats.WallSeconds).c_str(),
      formatDoubleShortest(TConfirm.Stats.WallSeconds).c_str(),
      formatDoubleShortest(TFast.Stats.WallSeconds).c_str(),
      static_cast<unsigned long long>(TFull.Stats.Benchmarks),
      static_cast<unsigned long long>(TConfirm.Stats.ConfirmedBenchmarks),
      formatDoubleShortest(ConfirmFraction).c_str(),
      static_cast<unsigned long long>(TFast.Stats.Runs),
      static_cast<unsigned long long>(TFast.Stats.EscalatedRuns),
      formatDoubleShortest(FastFraction).c_str(),
      TierIdentical ? "true" : "false");

  // Wire-format probe: both encodings of the corpus batch report
  // document (the top-jobs sweep), sized and timed. The claims: HGB is
  // at least 4x smaller than the JSON bytes on this document, and the
  // binary round trip re-renders both formats to the exact same bytes.
  const std::string WireJson = LastResult.renderWire(WireEncoding::Json);
  const std::string WireBin = LastResult.renderWire(WireEncoding::Binary);
  double SizeRatio = WireBin.empty()
                         ? 0.0
                         : static_cast<double>(WireJson.size()) /
                               static_cast<double>(WireBin.size());
  const int WireReps = 20;
  double EncJsonS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      std::string S = LastResult.renderWire(WireEncoding::Json);
      if (S.size() != WireJson.size())
        std::abort();
    }
  });
  double EncBinS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      std::string S = LastResult.renderWire(WireEncoding::Binary);
      if (S.size() != WireBin.size())
        std::abort();
    }
  });
  BatchReportDoc WireDoc;
  std::string WireErr;
  bool WireRoundTrip = parseBatchReport(WireBin, WireDoc, WireErr) &&
                       renderBatchReportJson(WireDoc) == WireJson &&
                       renderBatchReportBinary(WireDoc) == WireBin;
  double DecJsonS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      BatchReportDoc D;
      std::string E;
      if (!parseBatchReport(WireJson, D, E))
        std::abort();
    }
  });
  double DecBinS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      BatchReportDoc D;
      std::string E;
      if (!parseBatchReport(WireBin, D, E))
        std::abort();
    }
  });
  auto MBPerS = [&](size_t Bytes, double Seconds) {
    return Seconds > 0.0
               ? static_cast<double>(Bytes) * WireReps / Seconds / 1e6
               : 0.0;
  };
  std::printf("\nwire formats (corpus batch report document):\n"
              "  json %zu bytes, hgb %zu bytes (%.2fx smaller); encode "
              "json %.0f MB/s, hgb %.0f MB/s; decode json %.0f MB/s, hgb "
              "%.0f MB/s; round trip identical: %s\n",
              WireJson.size(), WireBin.size(), SizeRatio,
              MBPerS(WireJson.size(), EncJsonS),
              MBPerS(WireBin.size(), EncBinS),
              MBPerS(WireJson.size(), DecJsonS),
              MBPerS(WireBin.size(), DecBinS),
              WireRoundTrip ? "yes" : "NO -- BUG");
  std::string WireSectionJson = format(
      "{\"json_bytes\":%llu,\"hgb_bytes\":%llu,\"size_ratio\":%s,"
      "\"encode_json_mb_s\":%s,\"encode_hgb_mb_s\":%s,"
      "\"decode_json_mb_s\":%s,\"decode_hgb_mb_s\":%s,"
      "\"roundtrip_identical\":%s}",
      static_cast<unsigned long long>(WireJson.size()),
      static_cast<unsigned long long>(WireBin.size()),
      formatDoubleShortest(SizeRatio).c_str(),
      formatDoubleShortest(MBPerS(WireJson.size(), EncJsonS)).c_str(),
      formatDoubleShortest(MBPerS(WireBin.size(), EncBinS)).c_str(),
      formatDoubleShortest(MBPerS(WireJson.size(), DecJsonS)).c_str(),
      formatDoubleShortest(MBPerS(WireBin.size(), DecBinS)).c_str(),
      WireRoundTrip ? "true" : "false");

  std::string Json = format(
      "{\"schema\":\"herbgrind-bench-engine-v1\","
      "\"samples_per_benchmark\":%d,\"shard_size\":%d,"
      "\"hardware_threads\":%u,\"jobs\":[%s],"
      "\"hot_path\":{\"native_s\":%s,\"herbgrind_s\":%s,"
      "\"overhead_factor\":%s,\"shadow_ops\":%llu,"
      "\"steady_heap_allocs\":%llu,\"allocs_per_op\":%s,"
      "\"limb_cache_hits\":%llu},"
      "\"improve\":{\"jobs\":%u,\"wall_s\":%s,\"candidates\":%llu,"
      "\"significant\":%llu,\"improved\":%llu,\"records_per_s\":%s},"
      "\"native\":{\"raw_s\":%s,\"native_s\":%s,\"interp_s\":%s,"
      "\"herbgrind_s\":%s,\"shadow_ops\":%llu,\"native_overhead\":%s,"
      "\"interp_overhead\":%s,\"herbgrind_overhead\":%s},"
      "\"profile\":%s,"
      "\"telemetry_merge\":%s,"
      "\"tiered\":%s,"
      "\"wire\":%s,"
      "\"cache\":%s}\n",
      Cfg.SamplesPerBenchmark, Cfg.ShardSize, HW, JobsJson.c_str(),
      formatDoubleShortest(Probe.NativeSeconds).c_str(),
      formatDoubleShortest(Probe.HerbgrindSeconds).c_str(),
      formatDoubleShortest(Overhead).c_str(),
      static_cast<unsigned long long>(Probe.ShadowOps),
      static_cast<unsigned long long>(Probe.SteadyHeapAllocs),
      formatDoubleShortest(AllocsPerOp).c_str(),
      static_cast<unsigned long long>(Probe.SteadyCacheHits),
      BCfg.Jobs, formatDoubleShortest(IStats.WallSeconds).c_str(),
      static_cast<unsigned long long>(IStats.Candidates),
      static_cast<unsigned long long>(IStats.Significant),
      static_cast<unsigned long long>(IStats.Improved),
      formatDoubleShortest(RecordsPerS).c_str(),
      formatDoubleShortest(NP.RawSeconds).c_str(),
      formatDoubleShortest(NP.NativeSeconds).c_str(),
      formatDoubleShortest(NP.InterpSeconds).c_str(),
      formatDoubleShortest(NP.HerbgrindSeconds).c_str(),
      static_cast<unsigned long long>(NP.ShadowOps),
      formatDoubleShortest(Over(NP.NativeSeconds, NP.RawSeconds)).c_str(),
      formatDoubleShortest(Over(NP.InterpSeconds, NP.RawSeconds)).c_str(),
      formatDoubleShortest(Over(NP.HerbgrindSeconds, NP.RawSeconds)).c_str(),
      ProfileJson.c_str(), TelemetryMergeJson.c_str(), TieredJson.c_str(),
      WireSectionJson.c_str(), CacheJson.c_str());
  std::ofstream Out(JsonOut, std::ios::binary | std::ios::trunc);
  if (Out) {
    Out << Json;
    std::printf("\nrecorded %s\n", JsonOut.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", JsonOut.c_str());
  }

  // The zero-allocation acceptance gate: a steady-state shadowed op must
  // not reach the heap at the default 256-bit precision. A probe that
  // measured nothing is itself a failure -- otherwise a corpus change
  // could silently turn the gate vacuous.
  if (!Probe.Ok) {
    std::fprintf(stderr, "FAIL: hot-path probe matched no straight-line "
                         "benchmarks; the zero-allocation gate measured "
                         "nothing\n");
    return 1;
  }
  if (Probe.SteadyHeapAllocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations in steady-state shadow "
                 "execution (expected 0)\n",
                 static_cast<unsigned long long>(Probe.SteadyHeapAllocs));
    return 1;
  }
  // The profiler acceptance gate: the ranked rows must account for at
  // least 90% of the measured shadow time (100% at sample period 1
  // unless attribution lost samples somewhere).
  if (ProfRows.empty() || ProfCoverage < 0.9) {
    std::fprintf(stderr,
                 "FAIL: op profiler covered %.1f%% of %llu ns measured "
                 "shadow time (expected >= 90%%)\n",
                 100.0 * ProfCoverage,
                 static_cast<unsigned long long>(ProfTotalNs));
    return 1;
  }
  // The telemetry-merge acceptance gate: folding two corpus-sweep docs
  // must be correct and cheap -- 100ms per merge is orders of magnitude
  // above the expected cost, so only a pathological regression trips it.
  if (!MergeOk || MergePerS > 0.1) {
    std::fprintf(stderr,
                 "FAIL: telemetry merge %s (%.1f ms/merge, limit 100 ms)\n",
                 MergeOk ? "too slow" : "produced wrong totals",
                 1e3 * MergePerS);
    return 1;
  }
  // The tiering acceptance gates: confirm must reproduce full's bytes,
  // and tier 0 must actually clear something on the mixed workload -- an
  // escalation fraction of 1.0 means the cheap tier buys nothing.
  if (!TierIdentical) {
    std::fprintf(stderr,
                 "FAIL: confirm-tier report differs from full tier\n");
    return 1;
  }
  if (ConfirmFraction >= 1.0 || FastFraction >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: tier-0 escalated everything (confirm %.2f, fast "
                 "%.2f); the predicate tier is vacuous\n",
                 ConfirmFraction, FastFraction);
    return 1;
  }
  // The wire-format acceptance gates: the binary round trip must be
  // lossless to the byte in both directions, and HGB must earn its
  // existence -- at least 4x smaller than the JSON bytes on the corpus
  // batch document (interning plus the LZSS body codec).
  if (!WireRoundTrip) {
    std::fprintf(stderr, "FAIL: HGB batch document round trip is not "
                         "byte-identical (%s)\n",
                 WireErr.empty() ? "re-render mismatch" : WireErr.c_str());
    return 1;
  }
  if (SizeRatio < 4.0) {
    std::fprintf(stderr,
                 "FAIL: HGB batch document only %.2fx smaller than JSON "
                 "(%zu vs %zu bytes; expected >= 4x)\n",
                 SizeRatio, WireBin.size(), WireJson.size());
    return 1;
  }
  return 0;
}
