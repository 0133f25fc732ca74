//===- perfbench/src/Main.cpp - Benchmark driver ---------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// perfbench_driver --workload expr|loops|native --seed N --seconds S
//                  --trace 0|1 --out-dir DIR [--tiny] [--inject-mismatch]
//
// One process runs one workload. Closed loop: sweeps are issued back to
// back, each waiting for its report; the only concurrency is the engine's
// worker pool (1 thread, or 4 for the parallel sweep, which is checked and
// traced but not timed end to end; README.md says why).
//
// --trace 0 measures the end-to-end metrics: rounds of set-up and of the
// timed sweep modes run until the time budget is spent, and each metric
// reports its median over the rounds.
// --trace 1 measures the per-layer metrics: spans are recorded, the serial
// sweep is replayed as direct calls into each module, and the spans are
// written as a Chrome trace. Both print, as their last line, one JSON
// object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  bool Tiny = false;
  bool InjectMismatch = false;
  std::string OutDir = ".";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--inject-mismatch") {
      O.InjectMismatch = true;
    } else if (A == "--workload" && (V = Next())) {
      O.Workload = V;
    } else if (A == "--seed" && (V = Next())) {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Next())) {
      O.Seconds = std::atof(V);
    } else if (A == "--trace" && (V = Next())) {
      O.Trace = std::string(V) == "1";
    } else if (A == "--out-dir" && (V = Next())) {
      O.OutDir = V;
    } else {
      std::fprintf(stderr, "perfbench_driver: bad argument '%s'\n", A.c_str());
      return false;
    }
  }
  return !O.Workload.empty();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Peak resident set of this process so far. VmHWM belongs to this
/// process's own address space; getrusage's ru_maxrss would also carry
/// the parent's peak across fork and exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

std::vector<std::string> reportsOf(const engine::BatchResult &R) {
  std::vector<std::string> Out;
  for (const engine::BenchmarkResult &BR : R.Benchmarks)
    Out.push_back(BR.Rep.renderJson());
  return Out;
}

uint64_t fnv1a(const std::vector<std::string> &Parts) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const std::string &P : Parts)
    for (unsigned char C : P) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  return H;
}

/// The measurement state of one run.
struct Run {
  Options Opt;
  Workload W;
  Checks Check;
  Tracer T;
  std::vector<std::string> Ref; ///< Serial full-tier report per benchmark.
  bool InjectPending = false;
  engine::BatchResult First; ///< The first serial sweep.
  int WarmReps = 1;
  int SetupReps = 1;
  int ColdSweeps = 0;
  std::string CachedDir; ///< The directory W.Cached writes to.
  size_t TotalShards = 0;

  /// Every benchmark's report must equal the serial full-tier report.
  void checkReports(const engine::BatchResult &R, const char *Mode) {
    Check.expect(R.Benchmarks.size() == Ref.size(),
                 std::string(Mode) + ": benchmark count");
    for (size_t B = 0; B < R.Benchmarks.size() && B < Ref.size(); ++B) {
      std::string Got = R.Benchmarks[B].Rep.renderJson();
      if (InjectPending && std::strcmp(Mode, "parallel") == 0) {
        Got[0] ^= 1;
        InjectPending = false;
      }
      Check.expect(Got == Ref[B], std::string(Mode) + " report differs: " +
                                      R.Benchmarks[B].Name);
    }
  }

  double timedSweep(engine::Engine &E, engine::BatchResult &Out) {
    double T0 = nowSeconds();
    Out = W.sweep(E);
    return nowSeconds() - T0;
  }

  /// Sweeps into a fresh result-cache directory, through a new engine that
  /// the warm sweep then reuses; every shard is analyzed and stored. (A
  /// directory emptied just before would bill the file system's deferred
  /// deletion work to the sweep.)
  double coldSweep() {
    CachedDir = format("%s/r%d", W.CacheDir.c_str(), ColdSweeps++);
    W.Cached = makeEngine(W, 1, engine::TierMode::Full, 1, CachedDir);
    engine::BatchResult R;
    double S = timedSweep(*W.Cached, R);
    checkReports(R, "cold");
    Check.expect(R.Stats.AnalyzedShards == TotalShards &&
                     R.Stats.ResultCacheStoreFailures == 0,
                 "cold sweep analyzes and stores every shard");
    return S;
  }

  /// Re-sweeps the filled cache WarmReps times; seconds per sweep.
  double warmSweep() {
    engine::BatchResult R;
    double T0 = nowSeconds();
    for (int I = 0; I < WarmReps; ++I)
      R = W.sweep(*W.Cached);
    double S = (nowSeconds() - T0) / WarmReps;
    checkReports(R, "warm");
    Check.expect(R.Stats.AnalyzedShards == 0 &&
                     R.Stats.CachedShards == TotalShards &&
                     R.Stats.ResultCacheStoreFailures == 0,
                 "warm sweep analyzes no shard");
    // Deleted seconds after it was written, the cache never reaches the
    // disk, so no run bills write-back of an earlier one to its sweeps.
    std::error_code Ec;
    std::filesystem::remove_all(CachedDir, Ec);
    return S;
  }
};

volatile double Sink;

/// Seconds taken by the benchmark's own fixed CPU-bound task: fill 64 Ki
/// doubles from xorshift, sort them, fold them through sqrt; four times.
/// It shares no code with the program, so a change to the program cannot
/// move it; only the host's speed can.
double referenceTask() {
  static std::vector<double> Buf(1 << 16);
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  const double T0 = nowSeconds();
  for (int Rep = 0; Rep < 4; ++Rep) {
    for (double &D : Buf) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      D = static_cast<double>(X >> 11) * 0x1p-53;
    }
    std::sort(Buf.begin(), Buf.end());
    double S = 0;
    for (double D : Buf)
      S = S * 0.5 + std::sqrt(D);
    Sink = S;
  }
  return nowSeconds() - T0;
}

/// What referenceTask takes on the host the bounds were set on. Every time
/// metric is reported at that speed: scaled by this over the run's median
/// reference time (README.md, "Host speed").
constexpr double NominalReferenceSeconds = 0.03;

int repsFor(double Single, double MinRegion) {
  if (Single <= 0)
    return 1000;
  return static_cast<int>(
      std::clamp(std::ceil(MinRegion / Single), 1.0, 100000.0));
}

/// Shortest timed set-up and warm-sweep regions: one set-up takes about a
/// millisecond and a loops warm sweep a few, too short to time alone.
constexpr double MinSetupRegion = 0.1;
constexpr double MinWarmRegion = 0.5;

/// Seconds per set-up (parse, compile, construct engines, open the cache)
/// over \p Reps set-ups in a row; \p Compile gets the parse + compile share.
double timedSetup(Workload &W, int Reps, double &Compile) {
  Compile = 0;
  double T0 = nowSeconds();
  for (int I = 0; I < Reps; ++I) {
    setUp(W);
    Compile += W.CompileSeconds;
  }
  Compile /= Reps;
  return (nowSeconds() - T0) / Reps;
}

/// The end-to-end metric names, in print order.
const char *const EndToEnd[] = {
    "setup_s",         "serial_sweep_s", "confirm_sweep_s", "batched_sweep_s",
    "cold_sweep_s",    "warm_sweep_s",   "peak_rss_mb"};

/// Per-layer metrics with their units and the end-to-end metrics each
/// should move (printed next to them by the traced run).
struct LayerMetric {
  std::string Name;
  const char *Unit;
  const char *Moves;
};

std::vector<LayerMetric> layerMetrics() {
  std::vector<LayerMetric> M = {
      {"fpcore.compile_ms", "ms", "setup_s"},
      {"fpcore.eval_real_us", "us", "improve.batch_s"},
      {"ir.run_ns", "ns", "analysis.overhead_x (denominator)"},
      {"analysis.ops", "count", "every sweep metric (work, not speed)"},
      {"analysis.op_ns", "ns", "serial_sweep_s, cold_sweep_s"},
      {"analysis.overhead_x", "x", "serial_sweep_s"},
      {"analysis.batch_op_ns", "ns", "batched_sweep_s"},
      {"analysis.shard_us", "us", "serial_sweep_s"},
      {"analysis.merge_us", "us", "serial_sweep_s, warm_sweep_s"},
      {"analysis.report_us", "us", "serial_sweep_s, warm_sweep_s"},
      {"tier0.op_ns", "ns", "confirm_sweep_s"},
      {"tier0.suspect_frac", "ratio", "confirm_sweep_s"},
      {"trace.share", "ratio", "serial_sweep_s"},
      {"trace.nodes", "count", "peak_rss_mb"},
      {"shadow.values", "count", "peak_rss_mb, analysis.op_ns"},
      {"shadow.influence_sets", "count", "peak_rss_mb, analysis.op_ns"},
  };
  for (Opcode Op : probedOpcodes())
    M.push_back({"real." + probeName(Op) + "_ns", "ns", "real.share"});
  std::vector<LayerMetric> Rest = {
      {"real.share", "ratio", "serial_sweep_s"},
      {"engine.analyze_s", "s", "serial_sweep_s"},
      {"engine.reduce_s", "s", "serial_sweep_s"},
      {"engine.probe_s", "s", "warm_sweep_s"},
      {"engine.other_s", "s", "serial_sweep_s"},
      {"engine.parallel_s", "s", "(none: parallel_sweep_s is not kept)"},
      {"engine.max_shard_ms", "ms", "engine.parallel_s"},
      {"engine.busy_frac", "ratio", "engine.parallel_s"},
      {"engine.steals", "count", "engine.parallel_s"},
      {"engine.limb_heap_allocs", "count", "serial_sweep_s"},
      {"rcache.store_us", "us", "cold_sweep_s"},
      {"rcache.lookup_us", "us", "warm_sweep_s"},
      {"rcache.hit_frac", "ratio", "warm_sweep_s"},
      {"wire.json_render_us", "us", "cold_sweep_s"},
      {"wire.json_parse_us", "us", "warm_sweep_s"},
      {"wire.hgb_render_us", "us", "cold_sweep_s (HGB caches)"},
      {"wire.hgb_parse_us", "us", "warm_sweep_s (HGB caches)"},
      {"wire.json_bytes", "bytes", "cold_sweep_s, warm_sweep_s"},
      {"wire.hgb_bytes", "bytes", "cold_sweep_s, warm_sweep_s (HGB)"},
      {"improve.batch_s", "s", "(none: improve_s is not kept, README.md)"},
      {"improve.candidates", "count", "improve.batch_s"},
      {"improve.improved", "count", "improve.batch_s"},
      {"improve.ms_per_candidate", "ms", "improve.batch_s"},
      {"bench.attributed_frac", "ratio", "(share of the replay in named spans)"},
      {"bench.trace_overhead", "ratio", "(traced / untraced serial_sweep_s - 1)"},
  };
  M.insert(M.end(), Rest.begin(), Rest.end());
  return M;
}

const char *unitOf(const std::string &Name) {
  if (Name == "peak_rss_mb")
    return "MB";
  return "s";
}

std::string jsonNumber(double V) {
  return std::isfinite(V) ? formatDoubleShortest(V) : "0";
}

//===----------------------------------------------------------------------===//
// --trace 0: end-to-end metrics
//===----------------------------------------------------------------------===//

/// Pins the calling thread, and the threads it starts, to one CPU per
/// round, taking the CPUs the process may use in turn so that any
/// difference between them spreads evenly over every run.
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof All, &All) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All))
        Cpus.push_back(C);
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves the calling thread, and the threads it starts, to round
  /// \p Round's CPU.
  void pin(int Round) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[static_cast<size_t>(Round) % Cpus.size()], &One);
    sched_setaffinity(0, sizeof One, &One);
  }

  /// Gives the calling thread every CPU back.
  void release() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof All, &All);
  }

private:
  cpu_set_t All{};
  std::vector<int> Cpus;
};

void measureEndToEnd(Run &R, double Deadline, std::map<std::string, double> &Out) {
  std::map<std::string, std::vector<double>> Times;
  engine::BatchResult Res;
  CpuRotation Cpus;
  int Rounds = 0;
  double Longest = 0;
  // At least three rounds so every metric is a median; more while the
  // budget lasts.
  while (Rounds < 3 || (nowSeconds() + Longest < Deadline && Rounds < 200)) {
    double Start = nowSeconds();
    // Set-up is sampled three times a round, between the sweeps: its
    // samples are short, and the median of many spread out is steadier.
    auto SetUp = [&] {
      double Compile = 0;
      Times["setup_s"].push_back(timedSetup(R.W, R.SetupReps, Compile));
    };
    Times["reference_s"].push_back(referenceTask());
    SetUp();
    Times["serial_sweep_s"].push_back(R.timedSweep(*R.W.Serial, Res));
    R.checkReports(Res, "serial");
    Times["confirm_sweep_s"].push_back(R.timedSweep(*R.W.Confirm, Res));
    R.checkReports(Res, "confirm");
    Times["batched_sweep_s"].push_back(R.timedSweep(*R.W.Batched, Res));
    R.checkReports(Res, "batched");
    SetUp();
    Times["cold_sweep_s"].push_back(R.coldSweep());
    // Each sweep starts a worker thread. Where the scheduler picked its
    // CPU, a 2 ms loops warm sweep took twice as long in some processes as
    // in others; on the waiting thread's CPU it repeats. The other sweeps
    // are long enough not to notice, and the cold sweep's file writes were
    // less steady pinned.
    Cpus.pin(Rounds);
    Times["warm_sweep_s"].push_back(R.warmSweep());
    Cpus.release();
    SetUp();
    Times["reference_s"].push_back(referenceTask());
    ++Rounds;
    Longest = std::max(Longest, nowSeconds() - Start);
  }
  std::printf("rounds: %d; each metric is the median of its samples (raw "
              "seconds)\n",
              Rounds);
  for (const auto &[Name, V] : Times) {
    Out[Name] = median(V);
    std::printf("  %-18s median %.6f s, min %.6f, max %.6f, n %zu\n",
                Name.c_str(), Out[Name], *std::min_element(V.begin(), V.end()),
                *std::max_element(V.begin(), V.end()), V.size());
  }
}

//===----------------------------------------------------------------------===//
// --trace 1: per-layer metrics
//===----------------------------------------------------------------------===//

double timerSeconds(const metrics::Snapshot &S, const char *Name) {
  const metrics::TimerSample *T = S.findTimer(Name);
  return T ? static_cast<double>(T->SumNanos) * 1e-9 : 0.0;
}

void measureLayers(Run &R, double UntracedSerial, LayerValues &L) {
  Workload &W = R.W;
  Tracer &T = R.T;
  engine::BatchResult Res;
  const int Sweeps = 3;

  // Serial sweeps with tracing on: the overhead against the untraced
  // median, and the engine's own phase timers.
  std::vector<double> Traced, Analyze, Reduce;
  for (int I = 0; I < Sweeps; ++I) {
    metrics::resetAll();
    double S;
    {
      Span Sp(T, "engine.run_serial");
      S = R.timedSweep(*W.Serial, Res);
    }
    metrics::Snapshot M = metrics::snapshot();
    Traced.push_back(S);
    Analyze.push_back(timerSeconds(M, "engine.shard_analyze_ns"));
    Reduce.push_back(timerSeconds(M, "engine.shard_reduce_ns"));
    R.checkReports(Res, "serial");
  }
  const double TracedSerial = median(Traced);
  L["bench.trace_overhead"] = TracedSerial / UntracedSerial - 1.0;
  L["engine.analyze_s"] = median(Analyze);
  L["engine.reduce_s"] = median(Reduce);
  L["engine.other_s"] = TracedSerial - median(Analyze) - median(Reduce);
  L["engine.limb_heap_allocs"] = static_cast<double>(Res.Stats.LimbHeapAllocs);

  metrics::resetAll();
  double Wall;
  {
    Span Sp(T, "engine.run_parallel");
    Wall = R.timedSweep(*W.Parallel, Res);
  }
  {
    metrics::Snapshot M = metrics::snapshot();
    const metrics::TimerSample *A = M.findTimer("engine.shard_analyze_ns");
    L["engine.max_shard_ms"] =
        A ? static_cast<double>(A->MaxNanos) * 1e-6 : 0.0;
    double Busy = timerSeconds(M, "engine.shard_analyze_ns") +
                  timerSeconds(M, "engine.shard_reduce_ns");
    L["engine.busy_frac"] = Busy / (ParallelJobs * Wall);
    L["engine.steals"] = static_cast<double>(Res.Stats.PoolSteals);
    L["engine.parallel_s"] = Wall;
    R.checkReports(Res, "parallel");
  }
  {
    Span Sp(T, "engine.run_confirm");
    Res = W.sweep(*W.Confirm);
  }
  L["tier0.suspect_frac"] = static_cast<double>(Res.Stats.ConfirmedBenchmarks) /
                            static_cast<double>(Res.Stats.Benchmarks);
  R.checkReports(Res, "confirm");
  {
    Span Sp(T, "engine.run_batched");
    Res = W.sweep(*W.Batched);
  }
  R.checkReports(Res, "batched");
  {
    Span Sp(T, "engine.run_cold");
    R.coldSweep();
  }
  metrics::resetAll();
  {
    Span Sp(T, "engine.run_warm");
    R.WarmReps = 1;
    R.warmSweep();
  }
  {
    metrics::Snapshot M = metrics::snapshot();
    L["engine.probe_s"] = timerSeconds(M, "engine.shard_cache_probe_ns");
    double Hits = static_cast<double>(M.counterValue("rcache.hits"));
    double Misses = static_cast<double>(M.counterValue("rcache.misses"));
    L["rcache.hit_frac"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  }
  // The improver over the first serial sweep's root causes, at jobs 1.
  improve::BatchImproveConfig ICfg;
  ICfg.Jobs = 1;
  ICfg.Improve.SampleCount = 32;
  ICfg.Improve.Seed = R.Opt.Seed;
  improve::BatchImproveStats IS;
  double ImproveS = nowSeconds();
  {
    Span Sp(T, "improve.batchImprove");
    IS = improve::batchImprove(R.First, ICfg);
  }
  ImproveS = nowSeconds() - ImproveS;
  L["improve.batch_s"] = ImproveS;
  L["improve.candidates"] = static_cast<double>(IS.Candidates);
  L["improve.improved"] = static_cast<double>(IS.Improved);
  L["improve.ms_per_candidate"] =
      ImproveS * 1e3 / static_cast<double>(std::max<uint64_t>(1, IS.Candidates));

  // The replay: the serial sweep as direct calls, each in its own span.
  ReplayResult Rep = replaySerial(W, T, &R.Check);
  for (size_t B = 0; B < Rep.Reports.size() && B < R.Ref.size(); ++B)
    R.Check.expect(Rep.Reports[B] == R.Ref[B],
                   "replayed report differs: " + W.benchName(B));
  measureCacheAndWire(W, Rep, T, R.Check, L);
  L["analysis.ops"] = static_cast<double>(Rep.Ops);
  L["analysis.op_ns"] = Rep.AnalysisSeconds * 1e9 / static_cast<double>(Rep.Ops);
  L["analysis.shard_us"] = Rep.ShardSeconds * 1e6 / static_cast<double>(Rep.Shards);
  L["analysis.merge_us"] =
      Rep.MergeSeconds * 1e6 / static_cast<double>(std::max<uint64_t>(1, Rep.Merges));
  L["analysis.report_us"] =
      Rep.ReportSeconds * 1e6 / static_cast<double>(W.numBenchmarks());
  L["trace.nodes"] = static_cast<double>(Rep.TraceNodes);
  L["shadow.values"] = static_cast<double>(Rep.ShadowValues);
  L["shadow.influence_sets"] = static_cast<double>(Rep.InfluenceSets);

  measureAnalysisVariants(W, T, L);
  L["analysis.overhead_x"] = Rep.AnalysisSeconds / static_cast<double>(Rep.Runs) /
                             (L["ir.run_ns"] * 1e-9);
  {
    Tracer Off;
    Span Sp(T, "analysis.replay_depth1");
    ReplayResult Shallow = replaySerial(W, Off, nullptr, 1);
    L["trace.share"] = 1.0 - Shallow.AnalysisSeconds / Rep.AnalysisSeconds;
  }
  probeRealOps(W, R.Opt.Seed, T, R.Check, /*Timed=*/true, L);
  double RealSeconds = 0;
  for (Opcode Op : probedOpcodes()) {
    auto It = Rep.Executions.find(Op);
    if (It != Rep.Executions.end())
      RealSeconds += static_cast<double>(It->second) *
                     L["real." + probeName(Op) + "_ns"] * 1e-9;
  }
  L["real.share"] = RealSeconds / Rep.AnalysisSeconds;
  measureEvalReal(W, R.First, R.Opt.Seed, T, L);

  // Attribution over the replay roots: the share of their wall time that
  // falls in named module spans (each span's self time).
  std::vector<uint64_t> Self = T.selfTimes();
  std::vector<int> Root(T.Spans.size(), -1);
  double RootNs = 0, RootSelfNs = 0;
  std::map<std::string, double> ByLayer;
  for (size_t I = 0; I < T.Spans.size(); ++I) {
    const Tracer::Record &S = T.Spans[I];
    if (S.Parent < 0) {
      if (S.Name.rfind("bench.replay", 0) == 0) {
        Root[I] = static_cast<int>(I);
        RootNs += static_cast<double>(S.End - S.Start);
        RootSelfNs += static_cast<double>(Self[I]);
      }
      continue;
    }
    Root[I] = Root[static_cast<size_t>(S.Parent)];
    if (Root[I] >= 0)
      ByLayer[S.Name.substr(0, S.Name.find('.'))] += static_cast<double>(Self[I]);
  }
  L["bench.attributed_frac"] = RootNs > 0 ? 1.0 - RootSelfNs / RootNs : 0.0;
  std::printf("replay self time by layer (%.3f s of replays):\n", RootNs * 1e-9);
  for (const auto &[Layer, Ns] : ByLayer)
    std::printf("  %-10s %9.3f ms  %5.1f%%\n", Layer.c_str(), Ns * 1e-6,
                100.0 * Ns / RootNs);
  std::printf("  %-10s %9.3f ms  %5.1f%%  (unattributed)\n", "-",
              RootSelfNs * 1e-6, 100.0 * RootSelfNs / RootNs);
  std::printf("tracing overhead: traced serial_sweep_s %.4f s vs untraced "
              "%.4f s (%+.1f%%)\n",
              TracedSerial, UntracedSerial, 100.0 * L["bench.trace_overhead"]);
}

} // namespace

int main(int Argc, char **Argv) {
  const double Start = nowSeconds();
  Run R;
  if (!parseArgs(Argc, Argv, R.Opt) ||
      !sizeWorkload(R.W, R.Opt.Workload, R.Opt.Tiny)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload expr|loops|native "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR [--tiny] "
                 "[--inject-mismatch]\n");
    return 2;
  }
  const Options &O = R.Opt;
  Workload &W = R.W;
  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  W.CacheDir = format("%s/cache-%s-%d", O.OutDir.c_str(), O.Workload.c_str(),
                      static_cast<int>(getpid()));
  std::filesystem::remove_all(W.CacheDir, Ec);
  R.InjectPending = O.InjectMismatch;

  // The engine seed depends on the seed and the programs' input ranges
  // alone, so set up once to read the ranges, and again with the seed.
  setUp(W);
  W.EngineSeed = chooseEngineSeed(W, O.Seed);
  setUp(W);
  double CompileSeconds = 0;
  R.SetupReps = repsFor(timedSetup(W, 1, CompileSeconds), MinSetupRegion);
  for (size_t B = 0; B < W.numBenchmarks(); ++B)
    R.TotalShards += W.shards().size();

  // First sweep: the reference report, the improver's input, and the peak
  // resident set of a jobs-1 full sweep.
  R.First = W.sweep(*W.Serial);
  const double RssMb = peakRssMb();
  R.Ref = reportsOf(R.First);
  // Warm-up of the cache, which also sizes the warm sweep's repetitions.
  R.coldSweep();
  R.WarmReps = repsFor(R.warmSweep(), MinWarmRegion);

  std::printf("workload %s: seed %llu, engine seed %llu; a timed set-up "
              "sample is %d set-ups, a warm sample %d sweeps\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(W.EngineSeed), R.SetupReps,
              R.WarmReps);
  std::printf("input: %zu benchmarks x %d samples = %zu runs, %zu shards\n",
              W.numBenchmarks(), W.Samples,
              W.numBenchmarks() * static_cast<size_t>(W.Samples),
              R.TotalShards);
  std::printf("report digest (information only): %016llx\n",
              static_cast<unsigned long long>(fnv1a(R.Ref)));

  std::map<std::string, double> Metrics;
  LayerValues Layers;
  if (!O.Trace) {
    Tracer Off;
    double CheckReserve = 2.0;
    measureEndToEnd(R, Start + O.Seconds - CheckReserve, Metrics);
    const double Scale = NominalReferenceSeconds / Metrics["reference_s"];
    std::printf("host speed: reference task median %.6f s; times below are "
                "scaled by %.6f / %.6f = %.4f\n",
                Metrics["reference_s"], NominalReferenceSeconds,
                Metrics["reference_s"], Scale);
    for (const char *Name : EndToEnd)
      Metrics[Name] *= Scale;
    Metrics["peak_rss_mb"] = RssMb;
    // Outputs against independent evaluations, and the real-arithmetic
    // probes' results against IEEE and libm.
    engine::BatchResult Res = W.sweep(*W.Parallel);
    R.checkReports(Res, "parallel");
    Res = W.sweep(*W.Confirm);
    std::printf("tier 0 cleared %llu of %zu benchmarks\n",
                static_cast<unsigned long long>(Res.Stats.Benchmarks -
                                                Res.Stats.ConfirmedBenchmarks),
                W.numBenchmarks());
    ReplayResult Rep = replaySerial(W, Off, &R.Check);
    for (size_t B = 0; B < Rep.Reports.size(); ++B)
      R.Check.expect(Rep.Reports[B] == R.Ref[B],
                     "replayed report differs: " + W.benchName(B));
    probeRealOps(W, O.Seed, Off, R.Check, /*Timed=*/false, Layers);
    std::printf("analysis.ops: %llu shadow ops per serial sweep\n",
                static_cast<unsigned long long>(Rep.Ops));
    for (const char *Name : EndToEnd)
      std::printf("  %-18s %12.6f %s\n", Name, Metrics[Name], unitOf(Name));
  } else {
    R.T.On = true;
    R.T.RunId = format("%s-%llu-%d", O.Workload.c_str(),
                       static_cast<unsigned long long>(O.Seed),
                       static_cast<int>(getpid()));
    std::vector<double> Untraced;
    engine::BatchResult Res;
    for (int I = 0; I < 3; ++I)
      Untraced.push_back(R.timedSweep(*W.Serial, Res));
    std::vector<double> Compile;
    for (int I = 0; I < 5; ++I) {
      timedSetup(W, R.SetupReps, CompileSeconds);
      Compile.push_back(CompileSeconds);
    }
    trace::start();
    Layers["fpcore.compile_ms"] = median(Compile) * 1e3;
    measureLayers(R, median(Untraced), Layers);
    trace::stop();
    std::string TracePath = format("%s/trace-%s-%llu.json", O.OutDir.c_str(),
                                   O.Workload.c_str(),
                                   static_cast<unsigned long long>(O.Seed));
    std::ofstream(TracePath) << trace::renderChromeTrace();
    trace::clear();
    std::printf("spans: %zu benchmark spans, Chrome trace written to %s\n",
                R.T.Spans.size(), TracePath.c_str());
    std::printf("per-layer metrics (-> end-to-end metric each should move):\n");
    for (const LayerMetric &M : layerMetrics())
      std::printf("  %-26s %14.6g %-6s -> %s\n", M.Name.c_str(),
                  Layers[M.Name], M.Unit, M.Moves);
  }
  std::filesystem::remove_all(W.CacheDir, Ec);

  const double FailedFrac =
      static_cast<double>(R.Check.Failed) /
      static_cast<double>(std::max<uint64_t>(1, R.Check.Attempted));
  std::printf("checks: %llu attempted, %llu failed, failed_frac %.6f\n",
              static_cast<unsigned long long>(R.Check.Attempted),
              static_cast<unsigned long long>(R.Check.Failed), FailedFrac);
  for (const std::string &F : R.Check.FirstFailures)
    std::printf("  FAILED: %s\n", F.c_str());

  std::string Json = format("{\"correct\": %s, \"attempted\": %llu, "
                            "\"failed\": %llu, \"metrics\": {",
                            R.Check.Failed == 0 ? "true" : "false",
                            static_cast<unsigned long long>(R.Check.Attempted),
                            static_cast<unsigned long long>(R.Check.Failed));
  bool FirstMetric = true;
  auto Emit = [&](const std::string &Name, double V, const char *Unit) {
    Json += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   FirstMetric ? "" : ", ", Name.c_str(),
                   jsonNumber(V).c_str(), Unit);
    FirstMetric = false;
  };
  if (!O.Trace) {
    for (const char *Name : EndToEnd)
      Emit(Name, Metrics[Name], unitOf(Name));
  } else {
    for (const LayerMetric &M : layerMetrics())
      Emit(M.Name, Layers[M.Name], M.Unit);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
