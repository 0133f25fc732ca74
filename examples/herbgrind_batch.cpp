//===- examples/herbgrind_batch.cpp - Parallel corpus analysis CLI --------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// The batch engine as a command-line tool: analyze many FPCore benchmarks
// (the bundled corpus by default) sharded across worker threads, and emit
// per-benchmark root-cause reports as text or JSON. Output is byte-
// identical at any --jobs value; timing goes to stderr so it never
// perturbs comparisons.
//
// Persistence and distribution (REPORT_SCHEMA.md documents the formats):
// a result cache reuses shard results across runs, and the segments that
// disjoint --shard-range slices emit merge into the report one full sweep
// would have produced. Subcommands convert wire documents between
// encodings, merge telemetry documents and browse the run ledger.
//
// Every command reads argv with one parse loop (parseArgs) against its
// own table of flags, and usage() prints those same tables, so the usage
// text (`herbgrind_batch --help`) is the flag reference.
//
//===----------------------------------------------------------------------===//

#include "analysis/OpProfile.h"
#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "engine/RunLedger.h"
#include "fpcore/Corpus.h"
#include "improve/BatchImprove.h"
#include "native/Kernel.h"
#include "support/Events.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace herbgrind;
using namespace herbgrind::engine;
using namespace herbgrind::fpcore;

/// The one parser behind every numeric flag. The whole of \p V must be a
/// number in [Lo, Hi]: no sign, no leading space, no trailing text, so
/// "abc", "12abc" and "0x10" are errors instead of 0, 12 and 0. Integers
/// are decimal; \p Base 0 also accepts C-style hex and octal (--seed).
/// On failure it prints an error naming \p Flag and returns false, and
/// the caller exits 2.
template <typename T>
static bool parseNumber(const char *Flag, const char *V, T &Out, T Lo,
                        T Hi = std::numeric_limits<T>::max(), int Base = 10) {
  constexpr bool IsFloat = std::is_floating_point_v<T>;
  char *End = nullptr;
  errno = 0;
  bool Ok = std::isdigit(static_cast<unsigned char>(*V)) ||
            (IsFloat && *V == '.');
  if constexpr (IsFloat) {
    double X = std::strtod(V, &End);
    // Written so that NaN fails the range test.
    Ok = Ok && *End == 0 && errno != ERANGE && X >= Lo && X <= Hi;
    if (Ok)
      Out = X;
  } else {
    unsigned long long X = std::strtoull(V, &End, Base);
    Ok = Ok && *End == 0 && errno != ERANGE &&
         X >= static_cast<unsigned long long>(Lo) &&
         X <= static_cast<unsigned long long>(Hi);
    if (Ok)
      Out = static_cast<T>(X);
  }
  if (!Ok) {
    auto Text = [](T X) {
      if constexpr (IsFloat)
        return format("%g", X);
      else
        return std::to_string(X);
    };
    std::string Range = IsFloat && Hi == std::numeric_limits<T>::max()
                            ? ">= " + Text(Lo)
                            : "in [" + Text(Lo) + ", " + Text(Hi) + "]";
    std::fprintf(stderr, "error: %s wants %s %s; got '%s'\n", Flag,
                 IsFloat ? "a number" : "an integer", Range.c_str(), V);
  }
  return Ok;
}

/// Everything a command line sets. Each command reads the fields its own
/// flag table writes, plus its positionals.
struct Options {
  EngineConfig Cfg;
  improve::BatchImproveConfig BCfg;
  LedgerThresholds Thresholds;
  bool Json = false, SelfTest = false, MergeShards = false, CacheGc = false;
  bool List = false, CacheMaxSet = false, Improve = false, Native = false;
  bool ProfileOps = false, Progress = false;
  double ProgressEvery = 1.0;
  uint32_t ProfilePeriod = 1;
  std::string OutFile, MetricsOut, TraceOut, EventsOut, LedgerDir;
  /// Positional arguments and --name values, in command-line order: the
  /// order of the benchmarks in a report.
  struct Arg {
    std::string Text;
    bool IsName = false; ///< A --name value rather than a path.
  };
  std::vector<Arg> Args;
};

/// Stores a flag's value (null for a switch). On a bad value it prints an
/// error naming \p Flag and returns false, and the command exits 2.
using Setter = std::function<bool(const char *Flag, const char *V)>;

/// One entry of a command's flag table: the parse loop matches Name and
/// calls Set; usage() prints Name, Value and Help.
struct Flag {
  const char *Name;
  const char *Value; ///< Placeholder of the value in usage; null: a switch.
  Setter Set;
  const char *Help; ///< Usage text, wrapped by usage().
};

static Setter on(bool &B) {
  return [&B](const char *, const char *) {
    B = true;
    return true;
  };
}

static Setter text(std::string &S) {
  return [&S](const char *, const char *V) {
    S = V;
    return true;
  };
}

/// A number of at least \p Lo, read by parseNumber.
template <typename T> static Setter number(T &Out, T Lo, int Base = 10) {
  return [&Out, Lo, Base](const char *F, const char *V) {
    return parseNumber(F, V, Out, Lo, std::numeric_limits<T>::max(), Base);
  };
}

/// The sweep's flags, shared by --merge-shards, --selftest, --list and
/// --cache-gc runs.
static std::vector<Flag> sweepFlags(Options &O) {
  return {
      {"--jobs", "N", number(O.Cfg.Jobs, 0u), // 0 = auto
       "worker threads (default: hardware concurrency)"},
      {"--samples", "N", number(O.Cfg.SamplesPerBenchmark, 0),
       "sampled inputs per benchmark (default 64)"},
      {"--shard", "N", number(O.Cfg.ShardSize, 0),
       "inputs per shard (default 16)"},
      {"--seed", "S", number(O.Cfg.Seed, uint64_t(0), /*Base=*/0),
       "base sampling seed (default 0xcafe)"},
      {"--tier", "MODE",
       [&O](const char *F, const char *V) {
         if (parseTierMode(V, O.Cfg.Tier))
           return true;
         std::fprintf(stderr,
                      "error: %s wants full, confirm, or fast; got '%s'\n", F,
                      V);
         return false;
       },
       "shadowing tier: full (default; every run under the 256-bit shadow), "
       "confirm (tier-0 error predicates sweep first, suspect benchmarks "
       "replay in full -- report bytes identical to full), fast (per-run "
       "escalation; root causes a subset of full's, counters differ)"},
      {"--name", "BENCH",
       [&O](const char *, const char *V) {
         O.Args.push_back({V, /*IsName=*/true});
         return true;
       },
       "analyze one corpus benchmark (repeatable)"},
      {"--native", nullptr, on(O.Native),
       "also sweep the bundled native-frontend demo kernels (real C++ code "
       "instrumented through native::Real); alone, sweep only those"},
      {"--cache-dir", "DIR", text(O.Cfg.CacheDir),
       "persistent shard-result cache: repeated sweeps analyze only new or "
       "invalidated shards"},
      {"--cache-max-bytes", "N",
       [&O](const char *F, const char *V) {
         // "1G" must not become a 1-byte cap the GC prunes everything to,
         // "-1" must not wrap to an unbounded one, and "010" means ten.
         if (!parseNumber(F, V, O.Cfg.CacheMaxBytes, uint64_t(0)))
           return false;
         O.CacheMaxSet = true;
         return true;
       },
       "prune the cache to N bytes after the sweep (LRU by mtime; 0 = "
       "unbounded, the default)"},
      {"--cache-gc", nullptr, on(O.CacheGc),
       "GC mode: prune --cache-dir to an explicitly given --cache-max-bytes "
       "and exit (no analysis; an explicit 0 empties the cache)"},
      {"--emit-shard", "DIR", text(O.Cfg.EmitShardDir),
       "also store every shard result in DIR, one segment file per sweep "
       "(for --merge-shards on another machine)"},
      {"--shard-range", "LO:HI",
       [&O](const char *F, const char *V) {
         // Exactly one ':' between two whole numbers, each through the
         // same strict parser as every other numeric flag.
         const char *Colon = std::strchr(V, ':');
         if (!Colon || std::strchr(Colon + 1, ':')) {
           std::fprintf(stderr, "error: %s wants LO:HI; got '%s'\n", F, V);
           return false;
         }
         std::string Lo(V, Colon);
         return parseNumber(F, Lo.c_str(), O.Cfg.ShardBegin, size_t(0)) &&
                parseNumber(F, Colon + 1, O.Cfg.ShardEnd, O.Cfg.ShardBegin);
       },
       "run only per-benchmark shard indices [LO, HI) of the full layout"},
      {"--merge-shards", nullptr, on(O.MergeShards),
       "merge mode: the paths are segment files (*.hgseg) or directories of "
       "them (emit and cache dirs) to fold into a report"},
      {"--improve", nullptr, on(O.Improve),
       "run the batch improver over every merged root cause; outcomes are "
       "appended to the report (and cached in --cache-dir when one is "
       "configured)"},
      {"--improve-samples", "N", number(O.BCfg.Improve.SampleCount, 1),
       "sampled points per improver run (default 256)"},
      {"--json", nullptr, on(O.Json), "emit a JSON report instead of text"},
      {"--out", "FILE", text(O.OutFile),
       "write the report to FILE instead of stdout"},
      {"--metrics-out", "FILE", text(O.MetricsOut),
       "write the sweep's telemetry document (merged metrics + hot-op "
       "profile) as versioned JSON; never affects report bytes "
       "(docs/TELEMETRY.md)"},
      {"--trace-out", "FILE", text(O.TraceOut),
       "write spans as Chrome trace-event JSON (load in Perfetto / "
       "chrome://tracing)"},
      {"--profile-ops", nullptr, on(O.ProfileOps),
       "attribute shadow-op wall time and limb traffic to (site, opcode) "
       "identities; prints a ranked cost table to stderr"},
      {"--profile-period", "N", number(O.ProfilePeriod, uint32_t(1)),
       "measure every Nth shadow op (default 1)"},
      {"--progress", nullptr, on(O.Progress),
       "print a heartbeat line to stderr during sweeps"},
      {"--progress-every", "S",
       [&O](const char *F, const char *V) {
         if (!parseNumber(F, V, O.ProgressEvery, 0.0))
           return false;
         if (O.ProgressEvery == 0.0) {
           std::fprintf(stderr,
                        "error: --progress-every must be > 0 seconds\n");
           return false;
         }
         O.Progress = true;
         return true;
       },
       "heartbeat interval in seconds (implies --progress; fractional values "
       "allowed)"},
      {"--events-out", "FILE", text(O.EventsOut),
       "stream lifecycle events (sweep begin/end, shard queued/cache-hit/"
       "analyzed/escalated/reduced, improve records) as NDJSON; '-' = "
       "stdout, which needs the report in --out unless --selftest"},
      {"--ledger-dir", "DIR", text(O.LedgerDir),
       "append one run-ledger entry (config hash, stats, merged metrics) "
       "after the sweep; browse with the ledger subcommand"},
      {"--list", nullptr, on(O.List), "list corpus benchmark names"},
      {"--selftest", nullptr, on(O.SelfTest),
       "verify --jobs N output matches --jobs 1, then exit"},
  };
}

/// hgb2json, json2hgb and telemetry-merge.
static std::vector<Flag> outFlags(Options &O) {
  return {{"--out", "FILE", text(O.OutFile),
           "write the output to FILE instead of stdout"}};
}

/// `ledger compare`'s regression thresholds; `ledger list` and `ledger
/// show` take no flag.
static std::vector<Flag> compareFlags(Options &O) {
  LedgerThresholds &T = O.Thresholds;
  return {
      {"--wall-frac", "F", number(T.WallFrac, 0.0),
       "wall time may grow by F (default 0.25)"},
      {"--cache-hit-drop", "F", number(T.CacheHitDrop, 0.0),
       "cache hit rate may drop by F (default 0.10)"},
      {"--escalation-rise", "F", number(T.EscalationRise, 0.0),
       "escalated-run fraction may rise by F (default 0.10)"},
      {"--heap-frac", "F", number(T.HeapFrac, 0.0),
       "heap allocations may grow by F (default 0.10) ..."},
      {"--heap-slack", "N", number(T.HeapSlack, uint64_t(0)),
       "... plus N allocations (default 256)"},
  };
}

/// Prints one usage row: \p Label at \p Indent, then \p Help wrapped at
/// word boundaries into lines that start at column 20 (a long label gets
/// a line of its own).
static void printRow(size_t Indent, const std::string &Label,
                     const char *Help) {
  const std::string Margin = "\n" + std::string(20, ' ');
  std::string Row = std::string(Indent, ' ') + Label, Line;
  Row += Row.size() > 22   ? Margin
         : Row.size() < 18 ? std::string(20 - Row.size(), ' ')
                           : std::string(2, ' ');
  std::istringstream Words(Help);
  for (std::string W; Words >> W; Line += W) {
    if (!Line.empty() && Line.size() + W.size() >= 56) {
      Row += Line + Margin;
      Line.clear();
    } else if (!Line.empty()) {
      Line += ' ';
    }
  }
  std::fprintf(stderr, "%s%s\n", Row.c_str(), Line.c_str());
}

static void printFlags(size_t Indent, const std::vector<Flag> &Flags) {
  for (const Flag &F : Flags)
    printRow(Indent, F.Value ? std::string(F.Name) + " " + F.Value : F.Name,
             F.Help);
}

static int usage(const char *Prog) {
  Options Unused; // the tables' setters write here; none is called
  std::fprintf(stderr,
               "usage: %s [options] [--name BENCH]... [file.fpcore]...\n"
               "       %s --merge-shards [options] PATH...\n"
               "       %s hgb2json|json2hgb FILE [--out FILE]\n"
               "       %s telemetry-merge PATH... [--out FILE]\n"
               "       %s ledger list|show|compare DIR [N]... [options]\n"
               "Flags and paths may come in any order.\n"
               "Options:\n",
               Prog, Prog, Prog, Prog, Prog);
  printFlags(2, sweepFlags(Unused));
  std::fputs("Subcommands (first argument):\n", stderr);
  printRow(2, "hgb2json FILE",
           "rewrite an HGB document (any family) as the exact JSON bytes the "
           "JSON backend emits");
  printRow(2, "json2hgb FILE", "rewrite a JSON document as HGB");
  printRow(2, "telemetry-merge PATH...",
           "fold telemetry documents (files, or directories of telemetry-* "
           "sidecars) into one JSON document; counters sum, timers fold, "
           "profiles re-rank");
  printFlags(4, outFlags(Unused));
  printRow(2, "ledger list DIR", "print every ledger entry, oldest first");
  printRow(2, "ledger show DIR N",
           "print entry N (chronological index) as JSON");
  printRow(2, "ledger compare DIR [BASE CUR]",
           "judge entry CUR against BASE (default: latest against previous); "
           "exits 1 when a regression threshold is crossed");
  printFlags(4, compareFlags(Unused));
  std::fputs("With no files and no --name, the whole bundled corpus is "
             "analyzed.\n",
             stderr);
  return 2;
}

/// The one parse loop, shared by every command: reads argv[First..]
/// against \p Flags. An argument not starting with '-' is a positional,
/// appended to O.Args; the caller acts on positionals only after the
/// whole line has parsed. Returns 0, or 2 after printing usage (unknown
/// flag, missing value) or a setter's error (bad value).
static int parseArgs(int Argc, char **Argv, int First,
                     const std::vector<Flag> &Flags, Options &O) {
  for (int I = First; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-') {
      O.Args.push_back({Arg, /*IsName=*/false});
      continue;
    }
    auto F = std::find_if(Flags.begin(), Flags.end(), [&](const Flag &F) {
      return std::strcmp(F.Name, Arg) == 0;
    });
    if (F == Flags.end() || (F->Value && I + 1 >= Argc))
      return usage(Argv[0]);
    if (!F->Set(F->Name, F->Value ? Argv[++I] : nullptr))
      return 2;
  }
  return 0;
}

/// The one writer for every document the CLI outputs: \p Data goes to
/// \p Path, or to stdout when \p Path is empty (through fwrite: HGB
/// documents hold NUL bytes). The stream is flushed and checked, so a
/// document lost to a full disk or a bad path exits 1 instead of 0.
static int writeOutput(const std::string &Path, const std::string &Data) {
  bool Ok;
  if (Path.empty()) {
    Ok = std::fwrite(Data.data(), 1, Data.size(), stdout) == Data.size() &&
         std::fflush(stdout) == 0;
  } else {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
    Out.close();
    Ok = !Out.fail();
  }
  if (!Ok)
    std::fprintf(stderr, "error: cannot write %s\n",
                 Path.empty() ? "to stdout" : Path.c_str());
  return Ok ? 0 : 1;
}

/// The `--progress` heartbeat: a helper thread that samples the metrics
/// registry every interval (default one second, `--progress-every` to
/// change) and prints sweep progress to stderr. The report stream is
/// untouched, so heartbeats never perturb comparisons. Every line is
/// rendered to a buffer and written with ONE stdio call, so a heartbeat
/// racing the main thread's diagnostics never interleaves mid-line; and
/// stop() -- run on every exit path, errors included -- joins the thread
/// first and then prints one final line, so the last thing `--progress`
/// reports is always the completed state.
class ProgressHeartbeat {
public:
  /// Fractional seconds are honored.
  void start(double Seconds) {
    IntervalMs = std::max<int64_t>(1, static_cast<int64_t>(Seconds * 1000.0));
    Started = true;
    T = std::thread([this] {
      std::unique_lock<std::mutex> Lock(M);
      while (!CV.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                          [this] { return Stop; }))
        printLine(/*Final=*/false);
    });
  }

  /// Joins the heartbeat thread and prints the final line. Idempotent;
  /// also run by the destructor so early error returns stay covered.
  void stop() {
    if (T.joinable()) {
      {
        std::lock_guard<std::mutex> Lock(M);
        Stop = true;
      }
      CV.notify_all();
      T.join();
    }
    if (Started) {
      Started = false;
      printLine(/*Final=*/true);
    }
  }

  ~ProgressHeartbeat() { stop(); }

private:
  static void printLine(bool Final) {
    metrics::Snapshot S = metrics::snapshot();
    const metrics::GaugeSample *Total = S.findGauge("engine.shards_total");
    std::string Line = format(
        "progress: %llu/%lld shards (%llu analyzed, %llu cached), "
        "%llu improver records%s\n",
        static_cast<unsigned long long>(S.counterValue("engine.shards_done")),
        static_cast<long long>(Total ? Total->Value : 0),
        static_cast<unsigned long long>(
            S.counterValue("engine.shards_analyzed")),
        static_cast<unsigned long long>(S.counterValue("engine.shards_cached")),
        static_cast<unsigned long long>(
            S.counterValue("improve.records_analyzed") +
            S.counterValue("improve.records_cached")),
        Final ? " -- done" : "");
    std::fwrite(Line.data(), 1, Line.size(), stderr);
  }

  std::thread T;
  std::mutex M;
  std::condition_variable CV;
  bool Stop = false;
  bool Started = false;
  int64_t IntervalMs = 1000;
};

/// Assembles this process's telemetry document: the current metrics
/// snapshot plus the op profile accumulated in \p Result's records (when
/// a sweep result is at hand).
static TelemetryDoc buildTelemetryDoc(const BatchResult *Result) {
  TelemetryDoc Doc;
  Doc.Metrics = metrics::snapshot();
  if (Result)
    for (const BenchmarkResult &BR : Result->Benchmarks)
      opprof::accumulateOpProfile(BR.Records.Ops, Doc.Profile);
  opprof::finalizeOpProfile(Doc.Profile);
  Doc.ProfileTotalNanos = Doc.Metrics.counterValue("profile.shadow_ns");
  return Doc;
}

/// Stamps provenance meta (hostname, wall-clock timestamp) onto a
/// telemetry document this process is about to write. Merge tools
/// deliberately do NOT stamp -- their output stays byte-deterministic --
/// so stamping is the writer's last step.
static void stampTelemetryMeta(TelemetryDoc &Doc) {
  Doc.HasMeta = true;
  Doc.Meta.Host = hostName();
  Doc.Meta.Timestamp = isoTimestampUtc(wallClockNanos() / 1000000000ull);
  if (Doc.Meta.MergedDocs == 0)
    Doc.Meta.MergedDocs = 1;
}

/// Emits the post-run telemetry outputs: stops tracing and writes the
/// Chrome trace (--trace-out), assembles the telemetry document
/// (--metrics-out), and prints the ranked hot-op table (--profile-ops).
/// In merge mode the telemetry sidecars \p SidecarPaths are folded into
/// this process's document first, so the written doc reproduces the
/// emitting sweeps' totals. Returns nonzero if any requested file failed
/// to write or any sidecar failed to parse.
static int emitTelemetry(const Options &O, const BatchResult *Result,
                         const std::vector<std::string> &SidecarPaths = {}) {
  int Rc = 0;
  if (!O.TraceOut.empty()) {
    trace::stop();
    Rc |= writeOutput(O.TraceOut, trace::renderChromeTrace());
  }
  if (O.MetricsOut.empty() && !O.ProfileOps)
    return Rc;
  TelemetryDoc Doc = buildTelemetryDoc(Result);
  for (const std::string &Path : SidecarPaths) {
    std::string Text, Err;
    TelemetryDoc SDoc;
    if (!readFile(Path, Text)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      Rc = 1;
      continue;
    }
    if (!parseTelemetry(Text, SDoc, Err)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      Rc = 1;
      continue;
    }
    Doc.mergeFrom(SDoc);
  }
  stampTelemetryMeta(Doc);
  if (!O.MetricsOut.empty())
    Rc |= writeOutput(O.MetricsOut,
                      renderTelemetry(Doc, WireEncoding::Json) + "\n");
  if (O.ProfileOps)
    std::fputs(
        opprof::renderOpProfileTable(Doc.Profile, 10, Doc.ProfileTotalNanos)
            .c_str(),
        stderr);
  return Rc;
}

/// The per-shard-slice telemetry sidecar: when a sweep emits shard
/// documents for another machine to merge, it also drops its telemetry
/// document next to them (named by the slice so two machines sharing an
/// output directory never collide), and `--merge-shards` /
/// `telemetry-merge` fold the sidecars back into the single-machine
/// totals. Written after the sweep (and improve pass), so the sidecar
/// covers everything this process did.
static int writeTelemetrySidecar(const EngineConfig &Cfg,
                                 const BatchResult &Result) {
  if (Cfg.EmitShardDir.empty())
    return 0;
  TelemetryDoc Doc = buildTelemetryDoc(&Result);
  stampTelemetryMeta(Doc);
  std::string RangeEnd =
      Cfg.ShardEnd == std::numeric_limits<size_t>::max()
          ? std::string("end")
          : format("%zu", Cfg.ShardEnd);
  std::string Path = Cfg.EmitShardDir + format("/telemetry-r%zu-%s.json",
                                               Cfg.ShardBegin,
                                               RangeEnd.c_str());
  if (!writeFileAtomic(Path,
                       renderTelemetry(Doc, WireEncoding::Json) + "\n")) {
    std::fprintf(stderr, "error: cannot write telemetry sidecar %s\n",
                 Path.c_str());
    return 1;
  }
  return 0;
}

/// Runs the batch improver over a sweep's (or merge's) result, attaching
/// outcomes to the per-benchmark reports. Statistics go to stderr so the
/// report stream stays byte-comparable, and so does a warning when some
/// outcome failed to persist in \p Cache. Then re-enforces a configured
/// --cache-max-bytes (\p MaxBytes): the pass stored fresh entries after
/// any engine-side GC ran, and a capped directory never ends an --improve
/// run over its bound. A GC failure is recorded in \p Stats when given
/// (so a sweep warns about the first one only), otherwise it warns.
static void runImprovePass(BatchResult &Result,
                           const improve::BatchImproveConfig &BCfg,
                           ResultCache *Cache, uint64_t MaxBytes = 0,
                           EngineStats *Stats = nullptr) {
  improve::BatchImproveStats S = improve::batchImprove(Result, BCfg, Cache);
  std::fprintf(stderr,
               "improver: %llu root causes across %llu benchmarks "
               "(%llu significant, %llu improved) in %.2fs "
               "(%llu analyzed, %llu cached)\n",
               static_cast<unsigned long long>(S.Candidates),
               static_cast<unsigned long long>(S.Benchmarks),
               static_cast<unsigned long long>(S.Significant),
               static_cast<unsigned long long>(S.Improved), S.WallSeconds,
               static_cast<unsigned long long>(S.AnalyzedRecords),
               static_cast<unsigned long long>(S.CachedRecords));
  if (S.StoreFailures > 0)
    std::fprintf(stderr,
                 "warning: %llu improver outcome(s) failed to persist in %s\n",
                 static_cast<unsigned long long>(S.StoreFailures),
                 Cache->directory().c_str());
  if (!Cache || MaxBytes == 0)
    return;
  CacheGcStats Gc;
  std::string GcErr;
  if (Cache->gc(MaxBytes, Gc, GcErr))
    return;
  if (!Stats)
    std::fprintf(stderr, "warning: cache GC failed (cap not enforced): %s\n",
                 GcErr.c_str());
  else if (Stats->CacheGcError.empty())
    Stats->CacheGcError = std::move(GcErr);
}

/// The report as the sweep and merge modes write it.
static std::string renderReport(const BatchResult &Result, bool Json) {
  if (Json)
    return Result.renderJson() + "\n";
  std::string Rendered;
  for (const BenchmarkResult &BR : Result.Benchmarks) {
    Rendered += "=== " + BR.Name + " ===\n";
    Rendered += BR.Rep.render();
    Rendered += "\n";
  }
  return Rendered;
}

/// Collects segment paths: each argument is a file, or a directory whose
/// *.hgseg segments (sorted, for reproducible error messages) are taken,
/// its telemetry sidecars (writeTelemetrySidecar) routed to \p
/// TelemetryPaths and every other file skipped. Iteration uses the
/// error_code API -- a directory that turns unreadable mid-walk is a
/// diagnostic, not a terminate().
static bool collectShardPaths(const std::vector<std::string> &Args,
                              std::vector<std::string> &Paths,
                              std::vector<std::string> &TelemetryPaths) {
  namespace fs = std::filesystem;
  for (const std::string &Arg : Args) {
    std::error_code Ec;
    if (fs::is_directory(Arg, Ec)) {
      std::vector<std::string> Entries, Sidecars;
      fs::directory_iterator It(Arg, Ec), End;
      for (; !Ec && It != End; It.increment(Ec)) {
        const fs::path &P = It->path();
        if (P.extension() == SegmentExtension)
          Entries.push_back(P.string());
        else if ((P.extension() == ".json" || P.extension() == ".hgb") &&
                 P.filename().string().rfind("telemetry-", 0) == 0)
          Sidecars.push_back(P.string());
      }
      if (Ec) {
        std::fprintf(stderr, "error: cannot read directory %s: %s\n",
                     Arg.c_str(), Ec.message().c_str());
        return false;
      }
      std::sort(Entries.begin(), Entries.end());
      std::sort(Sidecars.begin(), Sidecars.end());
      Paths.insert(Paths.end(), Entries.begin(), Entries.end());
      TelemetryPaths.insert(TelemetryPaths.end(), Sidecars.begin(),
                            Sidecars.end());
    } else {
      Paths.push_back(Arg);
    }
  }
  return true;
}

static int runMergeShards(const std::vector<std::string> &Args,
                          const Options &O,
                          std::vector<std::string> &SidecarPaths) {
  if (Args.empty()) {
    std::fprintf(stderr,
                 "error: --merge-shards needs segment files or directories\n");
    return 2;
  }
  std::vector<std::string> Paths;
  if (!collectShardPaths(Args, Paths, SidecarPaths))
    return 1;

  // A named file that is not a segment fails here.
  std::vector<ShardDoc> Docs;
  std::string Err;
  if (!readSegmentShards(Paths, Docs, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  // The documents carry the producing sweep's config hash; a cache opened
  // with it shares improver entries with that sweep's own --improve runs.
  std::string DocsHash = Docs.empty() ? std::string() : Docs.front().ConfigHash;

  BatchResult Result;
  if (!mergeShards(std::move(Docs), Result, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  if (O.Improve) {
    std::unique_ptr<ResultCache> Cache;
    if (!O.Cfg.CacheDir.empty()) {
      Cache = std::make_unique<ResultCache>(O.Cfg.CacheDir, DocsHash);
      Cache->setTouchOnHit(O.Cfg.CacheMaxBytes > 0);
    }
    runImprovePass(Result, O.BCfg, Cache.get(), O.Cfg.CacheMaxBytes);
  }

  int Rc = writeOutput(O.OutFile, renderReport(Result, O.Json));
  if (Rc == 0)
    std::fprintf(stderr,
                 "merged %llu shards (%llu runs) across %llu benchmarks\n",
                 static_cast<unsigned long long>(Result.Stats.Shards),
                 static_cast<unsigned long long>(Result.Stats.Runs),
                 static_cast<unsigned long long>(Result.Stats.Benchmarks));
  return Rc;
}

/// The `hgb2json` / `json2hgb` subcommands: rewrite one wire document, any
/// family, in the other encoding (convertWireDoc). Conversion is lossless
/// both ways, so hgb2json(json2hgb(doc)) == doc.
static int convertMain(WireEncoding To, int Argc, char **Argv) {
  Options O;
  if (int Rc = parseArgs(Argc, Argv, 2, outFlags(O), O))
    return Rc;
  if (O.Args.empty()) {
    std::fprintf(stderr, "error: %s needs an input file\n", Argv[1]);
    return 2;
  }
  if (O.Args.size() > 1)
    return usage(Argv[0]);
  const std::string &InFile = O.Args[0].Text;
  std::string Text, Out, Err;
  if (!readFile(InFile, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", InFile.c_str());
    return 1;
  }
  if (!convertWireDoc(Text, To, Out, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", InFile.c_str(), Err.c_str());
    return 1;
  }
  return writeOutput(O.OutFile, Out);
}

/// The `telemetry-merge` subcommand: fold telemetry documents -- files in
/// either encoding, or directories scanned for telemetry sidecars -- into
/// one JSON document. The output is byte-deterministic (no host/timestamp
/// stamp; mergeTelemetry clears provenance), so merging the same inputs
/// anywhere, in either encoding, yields identical bytes.
static int telemetryMergeMain(int Argc, char **Argv) {
  Options O;
  if (int Rc = parseArgs(Argc, Argv, 2, outFlags(O), O))
    return Rc;
  if (O.Args.empty()) {
    std::fprintf(stderr,
                 "error: telemetry-merge needs telemetry files or "
                 "directories\n");
    return 2;
  }
  // Expand directories to their telemetry sidecars; explicit file
  // arguments are taken as-is.
  std::vector<std::string> Paths;
  for (const Options::Arg &A : O.Args) {
    std::error_code Ec;
    if (std::filesystem::is_directory(A.Text, Ec)) {
      std::vector<std::string> Ignored, Sidecars;
      if (!collectShardPaths({A.Text}, Ignored, Sidecars))
        return 1;
      if (Sidecars.empty()) {
        std::fprintf(stderr, "error: no telemetry sidecars in %s\n",
                     A.Text.c_str());
        return 1;
      }
      Paths.insert(Paths.end(), Sidecars.begin(), Sidecars.end());
    } else {
      Paths.push_back(A.Text);
    }
  }
  std::vector<std::string> Texts(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I)
    if (!readFile(Paths[I], Texts[I])) {
      std::fprintf(stderr, "error: cannot open %s\n", Paths[I].c_str());
      return 1;
    }
  TelemetryDoc Merged;
  std::string Err;
  if (!mergeTelemetry(Texts, Merged, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  int Rc = writeOutput(O.OutFile,
                       renderTelemetry(Merged, WireEncoding::Json) + "\n");
  if (Rc == 0)
    std::fprintf(stderr, "merged %llu telemetry documents\n",
                 static_cast<unsigned long long>(Merged.Meta.MergedDocs));
  return Rc;
}

/// The `ledger` subcommand: list | show | compare over a --ledger-dir
/// directory. Entries are addressed by their chronological index as
/// printed by `ledger list`. The verb and its arguments are checked before
/// the directory is read.
static int ledgerMain(int Argc, char **Argv) {
  std::string Verb = Argc > 2 ? Argv[2] : "";
  if (Verb.empty())
    return usage(Argv[0]);
  if (Verb != "list" && Verb != "show" && Verb != "compare") {
    std::fprintf(stderr, "error: unknown ledger verb '%s' (want list, show, "
                         "or compare)\n",
                 Verb.c_str());
    return 2;
  }
  Options O;
  if (int Rc = parseArgs(Argc, Argv, 3,
                         Verb == "compare" ? compareFlags(O)
                                           : std::vector<Flag>(),
                         O))
    return Rc;
  if (O.Args.empty())
    return usage(Argv[0]);
  const std::string &Dir = O.Args[0].Text;
  std::vector<size_t> Indices(O.Args.size() - 1);
  for (size_t I = 0; I < Indices.size(); ++I)
    if (!parseNumber("ledger index", O.Args[I + 1].Text.c_str(), Indices[I],
                     size_t(0)))
      return 2;
  const char *Wants = Verb == "list"   ? "no index"
                      : Verb == "show" ? "exactly one index"
                                       : "two indices (or a ledger with at "
                                         "least two entries)";
  size_t N = Indices.size();
  if (Verb == "list" ? N != 0 : Verb == "show" ? N != 1 : N != 0 && N != 2) {
    std::fprintf(stderr, "error: ledger %s wants %s\n", Verb.c_str(), Wants);
    return 2;
  }

  std::vector<LedgerEntry> Entries;
  std::vector<std::string> EntryPaths;
  std::string Err;
  if (!ledgerList(Dir, Entries, EntryPaths, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  if (Verb == "list") {
    for (size_t I = 0; I < Entries.size(); ++I) {
      const LedgerEntry &E = Entries[I];
      std::printf("%3zu  %s  %-12s  %-8s  %4s/%-7s  %6llu shards  %8llu runs  "
                  "%8.2fs  %.12s\n",
                  I, E.Timestamp.c_str(), E.Host.c_str(), E.Label.c_str(),
                  E.WireFormat.c_str(), E.Tier.c_str(),
                  static_cast<unsigned long long>(E.Shards),
                  static_cast<unsigned long long>(E.Runs), E.WallSeconds,
                  E.ConfigHash.c_str());
    }
    std::fprintf(stderr, "%zu ledger entries in %s\n", Entries.size(),
                 Dir.c_str());
    return 0;
  }
  auto CheckIndex = [&](size_t Idx) {
    if (Idx < Entries.size())
      return true;
    std::fprintf(stderr, "error: ledger index %zu out of range (%zu entries)\n",
                 Idx, Entries.size());
    return false;
  };
  if (Verb == "show") {
    if (!CheckIndex(Indices[0]))
      return 1;
    return writeOutput(
        "", renderLedgerEntry(Entries[Indices[0]], WireEncoding::Json) + "\n");
  }
  // compare. Default: the latest entry against its predecessor.
  if (Indices.empty()) {
    if (Entries.size() < 2) {
      std::fprintf(stderr, "error: ledger compare wants %s\n", Wants);
      return 2;
    }
    Indices = {Entries.size() - 2, Entries.size() - 1};
  }
  if (!CheckIndex(Indices[0]) || !CheckIndex(Indices[1]))
    return 1;
  const LedgerEntry &Base = Entries[Indices[0]];
  const LedgerEntry &Cur = Entries[Indices[1]];
  if (Base.ConfigHash != Cur.ConfigHash)
    std::fprintf(stderr,
                 "warning: comparing different configurations "
                 "(%.12s vs %.12s)\n",
                 Base.ConfigHash.c_str(), Cur.ConfigHash.c_str());
  std::vector<LedgerRegression> Regressions =
      ledgerCompare(Base, Cur, O.Thresholds);
  std::fprintf(stderr,
               "compare: baseline #%zu (%s, %.2fs) vs current #%zu "
               "(%s, %.2fs)\n",
               Indices[0], Base.Timestamp.c_str(), Base.WallSeconds,
               Indices[1], Cur.Timestamp.c_str(), Cur.WallSeconds);
  for (const LedgerRegression &R : Regressions)
    std::fprintf(stderr,
                 "REGRESSION: %s: baseline %.6g -> current %.6g "
                 "(limit %.6g)\n",
                 R.Metric.c_str(), R.Baseline, R.Current, R.Limit);
  if (Regressions.empty()) {
    std::fprintf(stderr, "no regressions\n");
    return 0;
  }
  return 1;
}

/// `--cache-gc`: a standalone LRU pruning pass over a cache directory.
/// The cap must be explicit: in sweep mode an absent --cache-max-bytes
/// means "unbounded", and silently turning that default into "delete
/// everything" here would be a trap.
static int runCacheGc(const Options &O) {
  const std::string &CacheDir = O.Cfg.CacheDir;
  const uint64_t MaxBytes = O.Cfg.CacheMaxBytes;
  if (CacheDir.empty()) {
    std::fprintf(stderr, "error: --cache-gc needs --cache-dir\n");
    return 2;
  }
  if (!O.CacheMaxSet) {
    std::fprintf(stderr,
                 "error: --cache-gc needs an explicit --cache-max-bytes "
                 "(0 empties the cache)\n");
    return 2;
  }
  CacheGcStats Stats;
  std::string Err;
  if (!gcCacheDir(CacheDir, MaxBytes, Stats, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "cache %s: %llu entries (%llu bytes); pruned %llu entries "
               "(%llu bytes) to fit %llu bytes\n",
               CacheDir.c_str(),
               static_cast<unsigned long long>(Stats.Entries),
               static_cast<unsigned long long>(Stats.Bytes),
               static_cast<unsigned long long>(Stats.PrunedEntries),
               static_cast<unsigned long long>(Stats.PrunedBytes),
               static_cast<unsigned long long>(MaxBytes));
  return 0;
}

static int runSweep(const Options &O, std::vector<Core> &Cores,
                    const std::vector<std::string> &MergeArgs);

/// A sweep, or one of the modes that share its flags: --list, --cache-gc,
/// --merge-shards and --selftest.
static int sweepMain(int Argc, char **Argv) {
  Options O;
  if (int Rc = parseArgs(Argc, Argv, 1, sweepFlags(O), O))
    return Rc;
  if (O.List) {
    for (const Core &C : corpus())
      std::printf("%s\n", C.Name.c_str());
    return 0;
  }
  if (O.CacheGc)
    return runCacheGc(O);
  // NDJSON lines on stdout would land before and inside the report, which
  // every mode but --selftest (merge mode wins over it) writes there.
  if (O.EventsOut == "-" && O.OutFile.empty() &&
      (O.MergeShards || !O.SelfTest)) {
    std::fprintf(stderr, "error: --events-out - shares stdout with the "
                         "report; give the report --out FILE\n");
    return 2;
  }
  O.BCfg.Jobs = O.Cfg.Jobs;

  std::vector<Core> Cores;
  std::vector<std::string> MergeArgs;
  for (const Options::Arg &A : O.Args) {
    if (A.IsName) {
      size_t Before = Cores.size();
      for (const Core &C : corpus())
        if (C.Name == A.Text)
          Cores.push_back(C.clone());
      if (Cores.size() == Before) {
        std::fprintf(stderr, "error: no corpus benchmark named '%s' "
                             "(try --list)\n",
                     A.Text.c_str());
        return 1;
      }
    } else if (O.MergeShards) {
      MergeArgs.push_back(A.Text);
    } else {
      std::string Text, WhyNot;
      if (!readFile(A.Text, Text)) {
        std::fprintf(stderr, "error: cannot open %s\n", A.Text.c_str());
        return 1;
      }
      ParseResult R = parse(Text);
      if (!R.Ok) {
        std::fprintf(stderr, "error: %s: parse failed: %s\n", A.Text.c_str(),
                     R.Error.c_str());
        return 1;
      }
      if (!isCompilable(R.Value, &WhyNot)) {
        std::fprintf(stderr, "error: %s: %s\n", A.Text.c_str(),
                     WhyNot.c_str());
        return 1;
      }
      Cores.push_back(std::move(R.Value));
    }
  }

  // Arm telemetry before any work runs. All of it observes from the side:
  // the report stream is byte-identical with every flag on or off.
  if (!O.TraceOut.empty())
    trace::start();
  if (O.ProfileOps)
    opprof::enable(O.ProfilePeriod);
  if (O.EventsOut.empty())
    return runSweep(O, Cores, MergeArgs);
  std::string Err;
  if (!events::start(O.EventsOut, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  int Rc = runSweep(O, Cores, MergeArgs);
  // Stop the stream on every exit path, so the last line a consumer sees
  // is a complete one, and fail the run if any event was lost.
  if (!events::stop()) {
    std::fprintf(stderr, "error: cannot write events file '%s'\n",
                 O.EventsOut.c_str());
    return Rc != 0 ? Rc : 1;
  }
  return Rc;
}

/// The work of a sweep (or merge, or selftest) once its inputs are read
/// and its telemetry is armed.
static int runSweep(const Options &O, std::vector<Core> &Cores,
                    const std::vector<std::string> &MergeArgs) {
  ProgressHeartbeat Heartbeat;
  if (O.Progress)
    Heartbeat.start(O.ProgressEvery);

  if (O.MergeShards) {
    std::vector<std::string> Sidecars;
    int Rc = runMergeShards(MergeArgs, O, Sidecars);
    // Merged shard documents carry no profiler fields (nothing executed
    // here), so the telemetry covers the merge/improve work itself --
    // plus any telemetry sidecars found next to the shards, folded in so
    // --metrics-out reproduces the emitting sweeps' totals.
    int TRc = emitTelemetry(O, nullptr, Sidecars);
    return Rc != 0 ? Rc : TRc;
  }

  // --native adds the demo kernels; with no other selection it sweeps
  // only those. Otherwise an empty selection means the whole corpus.
  std::vector<herbgrind::native::Kernel> Kernels;
  if (O.Native)
    Kernels = herbgrind::native::demoKernels();
  if (Cores.empty() && !O.Native)
    Cores = compilableCorpus();

  Engine Eng(O.Cfg);

  if (O.SelfTest) {
    // The headline determinism property: a multi-worker run must be
    // byte-identical to a single-worker run of the same configuration
    // (and, when a cache directory is shared, to a warm-cache rerun).
    BatchResult Multi = Eng.run(Cores, Kernels);
    EngineConfig OneCfg = Eng.config();
    OneCfg.Jobs = 1;
    Engine One(OneCfg);
    BatchResult Single = One.run(Cores, Kernels);
    if (O.Improve) {
      // The improver is part of the determinism contract too: its
      // outcomes must not depend on the worker count either. The
      // single-worker leg deliberately bypasses the cache -- otherwise
      // it would read back the entries the multi-worker leg just
      // stored and compare the cache with itself.
      runImprovePass(Multi, O.BCfg, Eng.resultCache(), O.Cfg.CacheMaxBytes);
      improve::BatchImproveConfig OneBCfg = O.BCfg;
      OneBCfg.Jobs = 1;
      runImprovePass(Single, OneBCfg, nullptr);
    }
    if (Multi.renderJson() != Single.renderJson()) {
      std::fprintf(stderr,
                   "FAIL: --jobs %u report differs from --jobs 1 report\n",
                   Eng.config().Jobs);
      return 1;
    }
    std::fprintf(stderr,
                 "OK: %llu benchmarks, %llu shards, %llu runs; --jobs %u "
                 "output identical to --jobs 1 (%llu analyzed, %llu from "
                 "cache)\n",
                 static_cast<unsigned long long>(Multi.Stats.Benchmarks),
                 static_cast<unsigned long long>(Multi.Stats.Shards),
                 static_cast<unsigned long long>(Multi.Stats.Runs),
                 Eng.config().Jobs,
                 static_cast<unsigned long long>(Multi.Stats.AnalyzedShards),
                 static_cast<unsigned long long>(Multi.Stats.CachedShards));
    return emitTelemetry(O, &Multi);
  }

  BatchResult Result = Eng.run(Cores, Kernels);
  if (O.Improve)
    runImprovePass(Result, O.BCfg, Eng.resultCache(), O.Cfg.CacheMaxBytes,
                   &Result.Stats);
  if (!Result.Stats.CacheGcError.empty())
    std::fprintf(stderr, "warning: cache GC failed (cap not enforced): %s\n",
                 Result.Stats.CacheGcError.c_str());
  if (Result.Stats.EmitFailures > 0) {
    std::fprintf(stderr,
                 "error: failed to write %llu shard document(s) to %s; "
                 "the emitted set is incomplete\n",
                 static_cast<unsigned long long>(Result.Stats.EmitFailures),
                 O.Cfg.EmitShardDir.c_str());
    return 1;
  }
  // The work is done: join the heartbeat now so its final line lands
  // before the summary statistics.
  Heartbeat.stop();
  if (writeTelemetrySidecar(O.Cfg, Result) != 0)
    return 1;
  if (!O.LedgerDir.empty()) {
    LedgerEntry Entry = makeLedgerEntry(Eng.config(), Result.Stats, "sweep");
    std::string LedgerPath, LedgerErr;
    if (!ledgerAppend(O.LedgerDir, Entry, LedgerPath, LedgerErr)) {
      std::fprintf(stderr, "error: %s\n", LedgerErr.c_str());
      return 1;
    }
    std::fprintf(stderr, "ledger: appended %s\n", LedgerPath.c_str());
  }

  if (int Rc = writeOutput(O.OutFile, renderReport(Result, O.Json)))
    return Rc;

  std::fprintf(stderr,
               "analyzed %llu benchmarks (%llu shards: %llu analyzed, %llu "
               "cached; %llu runs) with --jobs %u in %.2fs; program cache: "
               "%llu hits, %llu misses\n",
               static_cast<unsigned long long>(Result.Stats.Benchmarks),
               static_cast<unsigned long long>(Result.Stats.Shards),
               static_cast<unsigned long long>(Result.Stats.AnalyzedShards),
               static_cast<unsigned long long>(Result.Stats.CachedShards),
               static_cast<unsigned long long>(Result.Stats.Runs),
               Eng.config().Jobs, Result.Stats.WallSeconds,
               static_cast<unsigned long long>(Result.Stats.CacheHits),
               static_cast<unsigned long long>(Result.Stats.CacheMisses));
  std::fprintf(
      stderr,
      "limb alloc: %llu heap, %llu cached; result cache: %llu hits, %llu "
      "misses, %llu store failures; pool: %llu tasks, %llu steals, max "
      "queue %llu\n",
      static_cast<unsigned long long>(Result.Stats.LimbHeapAllocs),
      static_cast<unsigned long long>(Result.Stats.LimbCacheHits),
      static_cast<unsigned long long>(Result.Stats.ResultCacheHits),
      static_cast<unsigned long long>(Result.Stats.ResultCacheMisses),
      static_cast<unsigned long long>(Result.Stats.ResultCacheStoreFailures),
      static_cast<unsigned long long>(Result.Stats.PoolTasks),
      static_cast<unsigned long long>(Result.Stats.PoolSteals),
      static_cast<unsigned long long>(Result.Stats.PoolMaxQueueDepth));
  if (O.Cfg.Tier != TierMode::Full)
    std::fprintf(
        stderr,
        "tier: %s; %llu tier-0 runs (%llu ops), %llu escalated runs, "
        "%llu/%llu benchmarks confirmed\n",
        tierModeName(O.Cfg.Tier),
        static_cast<unsigned long long>(Result.Stats.Tier0Runs),
        static_cast<unsigned long long>(Result.Stats.Tier0Ops),
        static_cast<unsigned long long>(Result.Stats.EscalatedRuns),
        static_cast<unsigned long long>(Result.Stats.ConfirmedBenchmarks),
        static_cast<unsigned long long>(Result.Stats.Benchmarks));
  return emitTelemetry(O, &Result);
}

int main(int Argc, char **Argv) {
  // Subcommands dispatch on the first argument so their argument tails
  // never collide with sweep options.
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  int Rc = Cmd == "hgb2json" ? convertMain(WireEncoding::Json, Argc, Argv)
           : Cmd == "json2hgb"
               ? convertMain(WireEncoding::Binary, Argc, Argv)
           : Cmd == "telemetry-merge" ? telemetryMergeMain(Argc, Argv)
           : Cmd == "ledger"          ? ledgerMain(Argc, Argv)
                                      : sweepMain(Argc, Argv);
  // What went out through printf (--list, ledger list, an event stream on
  // stdout) is checked here: output that never arrived is a failure.
  if (Rc == 0 && (std::fflush(stdout) != 0 || std::ferror(stdout))) {
    std::fprintf(stderr, "error: cannot write to stdout\n");
    return 1;
  }
  return Rc;
}
