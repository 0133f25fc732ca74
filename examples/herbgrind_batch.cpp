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
//   --cache-dir DIR     reuse shard results across runs; a repeated sweep
//                       analyzes only new or invalidated shards
//   --emit-shard DIR    also write every shard result as an HGB document
//   --shard-range LO:HI run only per-benchmark shard indices [LO, HI)
//   --merge-shards      fold shard documents (files, or directories of
//                       them such as emit and cache directories) into the
//                       report a single full sweep of the same
//                       configuration would have produced
//   --improve           run the batch improver over every merged root
//                       cause (works after a sweep and on merged shard
//                       documents; outcomes land in the report's
//                       "improvements" section and in the result cache)
//
// Usage:
//   herbgrind_batch [--jobs N] [--samples N] [--shard N] [--seed S]
//                   [--cache-dir D] [--emit-shard D] [--shard-range LO:HI]
//                   [--improve] [--improve-samples N]
//                   [--name BENCH]... [file.fpcore]... [--json] [--out F]
//   herbgrind_batch --merge-shards [--improve] [--json] [--out F] PATH...
//   herbgrind_batch hgb2json FILE [--out F]   # HGB document -> exact JSON
//   herbgrind_batch json2hgb FILE [--out F]   # JSON document -> HGB
//   herbgrind_batch --list
//   herbgrind_batch --selftest [engine options]   # jobs-invariance check
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
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "support/WireBinary.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

static int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] [file.fpcore]...\n"
      "  --jobs N          worker threads (default: hardware concurrency)\n"
      "  --samples N       sampled inputs per benchmark (default 64)\n"
      "  --shard N         inputs per shard (default 16)\n"
      "  --seed S          base sampling seed (default 0xcafe)\n"
      "  --tier MODE       shadowing tier: full (default; every run under\n"
      "                    the 256-bit shadow), confirm (tier-0 error\n"
      "                    predicates sweep first, suspect benchmarks\n"
      "                    replay in full -- report bytes identical to\n"
      "                    full), fast (per-run escalation; root causes a\n"
      "                    subset of full's, counters differ)\n"
      "  --name BENCH      analyze one corpus benchmark (repeatable)\n"
      "  --native          also sweep the bundled native-frontend demo\n"
      "                    kernels (real C++ code instrumented through\n"
      "                    native::Real); alone, sweep only those\n"
      "  --cache-dir DIR   persistent shard-result cache: repeated sweeps\n"
      "                    analyze only new or invalidated shards\n"
      "  --cache-max-bytes N  prune the cache to N bytes after the sweep\n"
      "                    (LRU by mtime; 0 = unbounded, the default)\n"
      "  --cache-gc        GC mode: prune --cache-dir to an explicitly\n"
      "                    given --cache-max-bytes and exit (no analysis;\n"
      "                    an explicit 0 empties the cache)\n"
      "  --emit-shard DIR  also write each shard result as an HGB document\n"
      "                    (for --merge-shards on another machine)\n"
      "  --shard-range LO:HI  run only per-benchmark shard indices\n"
      "                    [LO, HI) of the full layout\n"
      "  --merge-shards    merge mode: remaining paths are shard documents\n"
      "                    (or directories of them: emit and cache dirs)\n"
      "                    to fold into a report\n"
      "  --improve         run the batch improver over every merged root\n"
      "                    cause; outcomes are appended to the report (and\n"
      "                    cached in --cache-dir when one is configured)\n"
      "  --improve-samples N  sampled points per improver run (default "
      "256)\n"
      "  --json            emit a JSON report instead of text\n"
      "  --out FILE        write the report to FILE instead of stdout\n"
      "  --report-out FILE same as --out (service-shaped callers)\n"
      "  --metrics-out FILE  write the sweep's telemetry document (merged\n"
      "                    metrics + hot-op profile) as versioned JSON;\n"
      "                    never affects report bytes (docs/TELEMETRY.md)\n"
      "  --trace-out FILE  write spans as Chrome trace-event JSON (load in\n"
      "                    Perfetto / chrome://tracing)\n"
      "  --profile-ops     attribute shadow-op wall time and limb traffic\n"
      "                    to (site, opcode) identities; prints a ranked\n"
      "                    cost table to stderr\n"
      "  --profile-period N  measure every Nth shadow op (default 1)\n"
      "  --progress        print a heartbeat line to stderr during sweeps\n"
      "  --progress-every S  heartbeat interval in seconds (implies\n"
      "                    --progress; fractional values allowed)\n"
      "  --events-out FILE stream lifecycle events (sweep begin/end, shard\n"
      "                    queued/cache-hit/analyzed/escalated/reduced,\n"
      "                    improve records) as NDJSON; '-' = stdout\n"
      "  --ledger-dir DIR  append one run-ledger entry (config hash, stats,\n"
      "                    merged metrics) after the sweep; browse with the\n"
      "                    ledger subcommand\n"
      "  --list            list corpus benchmark names\n"
      "  --selftest        verify --jobs N output matches --jobs 1, then "
      "exit\n"
      "Subcommands (first argument):\n"
      "  hgb2json FILE [--out F]  rewrite an HGB document (any family) as\n"
      "                    the exact JSON bytes the JSON backend emits\n"
      "  json2hgb FILE [--out F]  rewrite a JSON document as HGB\n"
      "  telemetry-merge PATH... [--out F]\n"
      "                    fold telemetry documents (files, or directories\n"
      "                    of telemetry-* sidecars) into one JSON document;\n"
      "                    counters sum, timers fold, profiles re-rank\n"
      "  ledger list DIR   print every ledger entry, oldest first\n"
      "  ledger show DIR N print entry N (chronological index) as JSON\n"
      "  ledger compare DIR [BASE CUR] [--wall-frac F] [--cache-hit-drop F]\n"
      "                    [--escalation-rise F] [--heap-frac F]\n"
      "                    [--heap-slack N]  judge entry CUR against BASE\n"
      "                    (default: latest against previous); exits 1 when\n"
      "                    a regression threshold is crossed\n"
      "With no files and no --name, the whole bundled corpus is analyzed.\n",
      Prog);
  return 2;
}

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

/// Writes the rendered report to --out (or stdout); shared by the run and
/// merge modes.
static int emitRendered(const std::string &Rendered,
                        const std::string &OutFile) {
  if (OutFile.empty()) {
    std::fputs(Rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(OutFile, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }
  Out << Rendered;
  return 0;
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
  /// Must be called before start(). Fractional seconds are honored.
  void setInterval(double Seconds) {
    IntervalMs = std::max<int64_t>(1, static_cast<int64_t>(Seconds * 1000.0));
  }

  void start() {
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

/// Writes \p Text to \p Path; diagnoses (but does not abort on) failure.
static int writeTextFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out << Text;
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 1;
  }
  return 0;
}

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
/// When \p SidecarPaths is given (merge mode), those telemetry sidecars
/// are folded into this process's document first, so the written doc
/// reproduces the emitting sweeps' totals. Returns nonzero if any
/// requested file failed to write or any sidecar failed to parse.
static int emitTelemetry(const std::string &MetricsOut,
                         const std::string &TraceOut, bool ProfileOps,
                         const BatchResult *Result,
                         const std::vector<std::string> *SidecarPaths =
                             nullptr) {
  int Rc = 0;
  if (!TraceOut.empty()) {
    trace::stop();
    Rc |= writeTextFile(TraceOut, trace::renderChromeTrace());
  }
  if (MetricsOut.empty() && !ProfileOps)
    return Rc;
  TelemetryDoc Doc = buildTelemetryDoc(Result);
  if (SidecarPaths)
    for (const std::string &Path : *SidecarPaths) {
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
  if (!MetricsOut.empty())
    Rc |= writeTextFile(MetricsOut, renderTelemetryJson(Doc) + "\n");
  if (ProfileOps)
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
  if (!writeFileAtomic(Path, renderTelemetryJson(Doc) + "\n")) {
    std::fprintf(stderr, "error: cannot write telemetry sidecar %s\n",
                 Path.c_str());
    return 1;
  }
  return 0;
}

/// Re-enforces a configured --cache-max-bytes after an improve pass
/// stored fresh entries (any engine-side GC ran before they existed): a
/// capped directory never ends an --improve run over its bound. Folds GC
/// statistics into \p Stats when given, otherwise warns on failure.
static void enforceCacheCap(ResultCache *Cache, uint64_t MaxBytes,
                            EngineStats *Stats) {
  if (!Cache || MaxBytes == 0)
    return;
  CacheGcStats Gc;
  std::string GcErr;
  if (Cache->gc(MaxBytes, Gc, GcErr)) {
    if (Stats) {
      Stats->CachePrunedEntries += Gc.PrunedEntries;
      Stats->CachePrunedBytes += Gc.PrunedBytes;
    }
  } else if (Stats && Stats->CacheGcError.empty()) {
    Stats->CacheGcError = std::move(GcErr);
  } else if (!Stats) {
    std::fprintf(stderr, "warning: cache GC failed (cap not enforced): %s\n",
                 GcErr.c_str());
  }
}

/// Runs the batch improver over a sweep's (or merge's) result, attaching
/// outcomes to the per-benchmark reports. Statistics go to stderr so the
/// report stream stays byte-comparable.
static void runImprovePass(BatchResult &Result,
                           const improve::BatchImproveConfig &BCfg,
                           ResultCache *Cache) {
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
}

static std::string renderText(const BatchResult &Result) {
  std::string Rendered;
  for (const BenchmarkResult &BR : Result.Benchmarks) {
    Rendered += "=== " + BR.Name + " ===\n";
    Rendered += BR.Rep.render();
    Rendered += "\n";
  }
  return Rendered;
}

/// Whether a path names a telemetry sidecar (by basename convention:
/// writeTelemetrySidecar emits "telemetry-r<lo>-<hi>.<ext>").
static bool isTelemetrySidecarName(const std::string &Path) {
  std::string Name = std::filesystem::path(Path).filename().string();
  return Name.rfind("telemetry", 0) == 0;
}

/// Collects shard-document paths: each argument is a file, or a directory
/// whose *.json / *.hgb entries (sorted, for reproducible error messages)
/// are taken. Telemetry sidecars living next to emitted shards are routed
/// to \p TelemetryPaths (when given; otherwise skipped in directories) so
/// they never reach the shard parser. Improve-cache entries are skipped,
/// so a result-cache directory that an --improve run also used still
/// merges. Iteration uses the error_code API throughout -- a directory
/// that turns unreadable mid-walk is a diagnostic, not a terminate().
static bool collectShardPaths(const std::vector<std::string> &Args,
                              std::vector<std::string> &Paths,
                              std::vector<std::string> *TelemetryPaths =
                                  nullptr) {
  namespace fs = std::filesystem;
  for (const std::string &Arg : Args) {
    std::error_code Ec;
    if (fs::is_directory(Arg, Ec)) {
      std::vector<std::string> Entries, Sidecars;
      fs::directory_iterator It(Arg, Ec), End;
      for (; !Ec && It != End; It.increment(Ec)) {
        const fs::path &P = It->path();
        if ((P.extension() != ".json" && P.extension() != ".hgb") ||
            P.stem().extension() == ".improve")
          continue;
        if (isTelemetrySidecarName(P.string()))
          Sidecars.push_back(P.string());
        else
          Entries.push_back(P.string());
      }
      if (Ec) {
        std::fprintf(stderr, "error: cannot read directory %s: %s\n",
                     Arg.c_str(), Ec.message().c_str());
        return false;
      }
      std::sort(Entries.begin(), Entries.end());
      Paths.insert(Paths.end(), Entries.begin(), Entries.end());
      if (TelemetryPaths) {
        std::sort(Sidecars.begin(), Sidecars.end());
        TelemetryPaths->insert(TelemetryPaths->end(), Sidecars.begin(),
                               Sidecars.end());
      }
    } else {
      Paths.push_back(Arg);
    }
  }
  return true;
}

static int runMergeShards(const std::vector<std::string> &Args, bool Json,
                          const std::string &OutFile, bool Improve,
                          const improve::BatchImproveConfig &BCfg,
                          const std::string &CacheDir, uint64_t CacheMaxBytes,
                          std::vector<std::string> &SidecarPaths) {
  if (Args.empty()) {
    std::fprintf(stderr,
                 "error: --merge-shards needs shard files or directories\n");
    return 2;
  }
  std::vector<std::string> Paths;
  if (!collectShardPaths(Args, Paths, &SidecarPaths))
    return 1;

  std::vector<ShardDoc> Docs;
  for (const std::string &Path : Paths) {
    std::string Text;
    if (!readFile(Path, Text)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return 1;
    }
    ShardDoc Doc;
    std::string Err;
    // parseShard sniffs the encoding, so one merge can fold shards
    // emitted as JSON on one machine and HGB on another.
    if (!parseShard(Text, Doc, Err)) {
      std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }
    Docs.push_back(std::move(Doc));
  }
  // The documents carry the producing sweep's config hash; a cache opened
  // with it shares improver entries with that sweep's own --improve runs.
  std::string DocsHash = Docs.empty() ? std::string() : Docs.front().ConfigHash;

  BatchResult Result;
  std::string Err, Warnings;
  if (!mergeShards(std::move(Docs), Result, Err, &Warnings)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Warnings.empty())
    std::fprintf(stderr, "warning: %s", Warnings.c_str());

  if (Improve) {
    std::unique_ptr<ResultCache> Cache;
    if (!CacheDir.empty()) {
      Cache = std::make_unique<ResultCache>(CacheDir, DocsHash);
      Cache->setTouchOnHit(CacheMaxBytes > 0);
    }
    runImprovePass(Result, BCfg, Cache.get());
    enforceCacheCap(Cache.get(), CacheMaxBytes, nullptr);
  }

  std::string Rendered =
      Json ? Result.renderJson() + "\n" : renderText(Result);
  int Rc = emitRendered(Rendered, OutFile);
  if (Rc == 0)
    std::fprintf(stderr,
                 "merged %llu shards (%llu runs) across %llu benchmarks\n",
                 static_cast<unsigned long long>(Result.Stats.Shards),
                 static_cast<unsigned long long>(Result.Stats.Runs),
                 static_cast<unsigned long long>(Result.Stats.Benchmarks));
  return Rc;
}

/// Writes conversion output; stdout goes through fwrite because HGB
/// documents contain NUL bytes.
static int emitConverted(const std::string &Data, const std::string &OutFile) {
  if (OutFile.empty()) {
    if (std::fwrite(Data.data(), 1, Data.size(), stdout) != Data.size()) {
      std::fprintf(stderr, "error: cannot write to stdout\n");
      return 1;
    }
    return 0;
  }
  return writeTextFile(OutFile, Data);
}

/// The `hgb2json` / `json2hgb` subcommands: rewrite one wire document in
/// the other encoding, any family. Family detection is the same rule the
/// sniffing parsers use -- the HGB header carries a family tag; a JSON
/// document carries its family in the envelope's "format" key (a bare
/// {"spots":...} object is a presentation-level report). Conversion is
/// lossless both ways: hgb2json emits the exact bytes the JSON backend
/// would have, so hgb2json(json2hgb(doc)) == doc.
static int runConvert(bool ToJson, const std::string &InFile,
                      const std::string &OutFile) {
  const char *Cmd = ToJson ? "hgb2json" : "json2hgb";
  std::string Text;
  if (!readFile(InFile, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", InFile.c_str());
    return 1;
  }
  if (wire::isBinary(Text) != ToJson) {
    std::fprintf(stderr, "error: %s: %s expects %s input\n", InFile.c_str(),
                 Cmd, ToJson ? "an HGB" : "a JSON");
    return 1;
  }

  // Determine the family without fully decoding the document.
  wire::Family Fam;
  if (ToJson) {
    int Major, Minor;
    if (!wire::sniffBinary(Text, Fam, Major, Minor)) {
      std::fprintf(stderr, "error: %s: malformed HGB header\n",
                   InFile.c_str());
      return 1;
    }
  } else {
    JsonParseResult R = parseJson(Text);
    if (!R.Ok) {
      std::fprintf(stderr, "error: %s: JSON parse error at offset %zu: %s\n",
                   InFile.c_str(), R.ErrorOffset, R.Error.c_str());
      return 1;
    }
    const JsonValue *Format = R.Value.field("format");
    std::string Tag = Format && Format->isString() ? Format->Str : "";
    if (Tag == "herbgrind-shard")
      Fam = wire::Family::Shard;
    else if (Tag == "herbgrind-improve")
      Fam = wire::Family::Improve;
    else if (Tag == "herbgrind-report")
      Fam = wire::Family::BatchReport;
    else if (Tag == "herbgrind-telemetry")
      Fam = wire::Family::Telemetry;
    else if (Tag == "herbgrind-ledger")
      Fam = wire::Family::Ledger;
    else if (Tag.empty() && R.Value.field("spots"))
      Fam = wire::Family::Report;
    else {
      std::fprintf(stderr,
                   "error: %s: not a herbgrind wire document "
                   "(unrecognized \"format\": \"%s\")\n",
                   InFile.c_str(), Tag.c_str());
      return 1;
    }
  }

  // Decode with the family's sniffing parser, re-render in the target
  // encoding. Trailing newlines mirror what the CLI itself writes: report
  // and telemetry documents end with one, cache/shard documents do not.
  std::string Out, Err;
  switch (Fam) {
  case wire::Family::Shard: {
    ShardDoc Doc;
    if (!parseShard(Text, Doc, Err))
      break;
    Out = renderShard(Doc, ToJson ? WireEncoding::Json : WireEncoding::Binary);
    break;
  }
  case wire::Family::Improve: {
    ImproveDoc Doc;
    if (!parseImproveDoc(Text, Doc, Err))
      break;
    Out = renderImproveDoc(Doc,
                           ToJson ? WireEncoding::Json : WireEncoding::Binary);
    break;
  }
  case wire::Family::Report: {
    Report R;
    if (!parseReportDoc(Text, R, Err))
      break;
    Out = ToJson ? R.renderJson() + "\n" : renderReportBinary(R);
    break;
  }
  case wire::Family::BatchReport: {
    BatchReportDoc Doc;
    if (!parseBatchReport(Text, Doc, Err))
      break;
    Out = ToJson ? renderBatchReportJson(Doc) + "\n"
                 : renderBatchReportBinary(Doc);
    break;
  }
  case wire::Family::Telemetry: {
    TelemetryDoc Doc;
    if (!parseTelemetry(Text, Doc, Err))
      break;
    Out = ToJson ? renderTelemetryJson(Doc) + "\n"
                 : renderTelemetryBinary(Doc);
    break;
  }
  case wire::Family::Ledger: {
    LedgerEntry E;
    if (!parseLedgerEntry(Text, E, Err))
      break;
    Out = ToJson ? renderLedgerEntryJson(E) + "\n" : renderLedgerEntryBinary(E);
    break;
  }
  }
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", InFile.c_str(), Err.c_str());
    return 1;
  }
  return emitConverted(Out, OutFile);
}

/// Parses the argument tail of a conversion subcommand: one input file
/// plus an optional --out.
static int convertMain(bool ToJson, int Argc, char **Argv) {
  std::string InFile, OutFile;
  for (int I = 2; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--out") == 0 && I + 1 < Argc) {
      OutFile = Argv[++I];
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else if (InFile.empty()) {
      InFile = Arg;
    } else {
      return usage(Argv[0]);
    }
  }
  if (InFile.empty()) {
    std::fprintf(stderr, "error: %s needs an input file\n", Argv[1]);
    return 2;
  }
  return runConvert(ToJson, InFile, OutFile);
}

/// The `telemetry-merge` subcommand: fold telemetry documents -- files in
/// either encoding, or directories scanned for telemetry sidecars -- into
/// one JSON document. The output is byte-deterministic (no host/timestamp
/// stamp; mergeTelemetry clears provenance), so merging the same inputs
/// anywhere, in either encoding, yields identical bytes.
static int telemetryMergeMain(int Argc, char **Argv) {
  std::vector<std::string> Args;
  std::string OutFile;
  for (int I = 2; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--out") == 0 && I + 1 < Argc) {
      OutFile = Argv[++I];
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else {
      Args.push_back(Arg);
    }
  }
  if (Args.empty()) {
    std::fprintf(stderr,
                 "error: telemetry-merge needs telemetry files or "
                 "directories\n");
    return 2;
  }
  // Expand directories to their telemetry sidecars; explicit file
  // arguments are taken as-is.
  std::vector<std::string> Paths;
  for (const std::string &Arg : Args) {
    std::error_code Ec;
    if (std::filesystem::is_directory(Arg, Ec)) {
      std::vector<std::string> Ignored, Sidecars;
      if (!collectShardPaths({Arg}, Ignored, &Sidecars))
        return 1;
      if (Sidecars.empty()) {
        std::fprintf(stderr, "error: no telemetry sidecars in %s\n",
                     Arg.c_str());
        return 1;
      }
      Paths.insert(Paths.end(), Sidecars.begin(), Sidecars.end());
    } else {
      Paths.push_back(Arg);
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
  int Rc = emitConverted(renderTelemetryJson(Merged) + "\n", OutFile);
  if (Rc == 0)
    std::fprintf(stderr, "merged %llu telemetry documents\n",
                 static_cast<unsigned long long>(Merged.Meta.MergedDocs));
  return Rc;
}

/// Renders one ledger list row.
static void printLedgerRow(size_t Index, const LedgerEntry &E) {
  std::printf("%3zu  %s  %-12s  %-8s  %4s/%-7s  %6llu shards  %8llu runs  "
              "%8.2fs  %.12s\n",
              Index, E.Timestamp.c_str(), E.Host.c_str(), E.Label.c_str(),
              E.WireFormat.c_str(), E.Tier.c_str(),
              static_cast<unsigned long long>(E.Shards),
              static_cast<unsigned long long>(E.Runs), E.WallSeconds,
              E.ConfigHash.c_str());
}

/// The `ledger` subcommand: list | show | compare over a --ledger-dir
/// directory. Entries are addressed by their chronological index as
/// printed by `ledger list`.
static int ledgerMain(int Argc, char **Argv) {
  if (Argc < 4)
    return usage(Argv[0]);
  std::string Verb = Argv[2];
  std::string Dir = Argv[3];
  LedgerThresholds Thresholds;
  std::vector<size_t> Indices;
  for (int I = 4; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto Next = [&](auto &Out, auto Lo) {
      if (I + 1 >= Argc) {
        usage(Argv[0]);
        return false;
      }
      return parseNumber(Arg, Argv[++I], Out, Lo);
    };
    if (std::strcmp(Arg, "--wall-frac") == 0) {
      if (!Next(Thresholds.WallFrac, 0.0))
        return 2;
    } else if (std::strcmp(Arg, "--cache-hit-drop") == 0) {
      if (!Next(Thresholds.CacheHitDrop, 0.0))
        return 2;
    } else if (std::strcmp(Arg, "--escalation-rise") == 0) {
      if (!Next(Thresholds.EscalationRise, 0.0))
        return 2;
    } else if (std::strcmp(Arg, "--heap-frac") == 0) {
      if (!Next(Thresholds.HeapFrac, 0.0))
        return 2;
    } else if (std::strcmp(Arg, "--heap-slack") == 0) {
      if (!Next(Thresholds.HeapSlack, uint64_t(0)))
        return 2;
    } else if (std::isdigit(static_cast<unsigned char>(Arg[0]))) {
      size_t Index = 0;
      if (!parseNumber("ledger index", Arg, Index, size_t(0)))
        return 2;
      Indices.push_back(Index);
    } else {
      return usage(Argv[0]);
    }
  }

  std::vector<LedgerEntry> Entries;
  std::vector<std::string> EntryPaths;
  std::string Err;
  if (!ledgerList(Dir, Entries, EntryPaths, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  if (Verb == "list") {
    for (size_t I = 0; I < Entries.size(); ++I)
      printLedgerRow(I, Entries[I]);
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
    if (Indices.size() != 1) {
      std::fprintf(stderr, "error: ledger show wants exactly one index\n");
      return 2;
    }
    if (!CheckIndex(Indices[0]))
      return 1;
    std::printf("%s\n", renderLedgerEntryJson(Entries[Indices[0]]).c_str());
    return 0;
  }
  if (Verb == "compare") {
    // Default: the latest entry against its predecessor.
    if (Indices.empty() && Entries.size() >= 2)
      Indices = {Entries.size() - 2, Entries.size() - 1};
    if (Indices.size() != 2) {
      std::fprintf(stderr,
                   "error: ledger compare wants two indices (or a ledger "
                   "with at least two entries)\n");
      return 2;
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
        ledgerCompare(Base, Cur, Thresholds);
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
  std::fprintf(stderr, "error: unknown ledger verb '%s' (want list, show, "
                       "or compare)\n",
               Verb.c_str());
  return 2;
}

/// `--cache-gc`: a standalone LRU pruning pass over a cache directory.
/// The cap must be explicit: in sweep mode an absent --cache-max-bytes
/// means "unbounded", and silently turning that default into "delete
/// everything" here would be a trap.
static int runCacheGc(const std::string &CacheDir, uint64_t MaxBytes,
                      bool MaxBytesSet) {
  if (CacheDir.empty()) {
    std::fprintf(stderr, "error: --cache-gc needs --cache-dir\n");
    return 2;
  }
  if (!MaxBytesSet) {
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

int main(int Argc, char **Argv) {
  // Conversion subcommands dispatch on the first argument so their
  // argument tails never collide with sweep options.
  if (Argc > 1 && std::strcmp(Argv[1], "hgb2json") == 0)
    return convertMain(/*ToJson=*/true, Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "json2hgb") == 0)
    return convertMain(/*ToJson=*/false, Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "telemetry-merge") == 0)
    return telemetryMergeMain(Argc, Argv);
  if (Argc > 1 && std::strcmp(Argv[1], "ledger") == 0)
    return ledgerMain(Argc, Argv);

  EngineConfig Cfg;
  bool Json = false, SelfTest = false, MergeShards = false, CacheGc = false;
  bool CacheMaxSet = false, Improve = false, Native = false;
  bool ProfileOps = false, Progress = false;
  double ProgressEvery = 1.0;
  uint32_t ProfilePeriod = 1;
  improve::BatchImproveConfig BCfg;
  std::string OutFile, MetricsOut, TraceOut, EventsOut, LedgerDir;
  std::vector<Core> Cores;
  std::vector<std::string> MergeArgs;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (std::strcmp(Arg, "--list") == 0) {
      for (const Core &C : corpus())
        std::printf("%s\n", C.Name.c_str());
      return 0;
    } else if (std::strcmp(Arg, "--jobs") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, Cfg.Jobs, 0u)) // 0 = auto
        return 2;
    } else if (std::strcmp(Arg, "--samples") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, Cfg.SamplesPerBenchmark, 0))
        return 2;
    } else if (std::strcmp(Arg, "--shard") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, Cfg.ShardSize, 0))
        return 2;
    } else if (std::strcmp(Arg, "--seed") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, Cfg.Seed, uint64_t(0),
                       std::numeric_limits<uint64_t>::max(), /*Base=*/0))
        return 2;
    } else if (std::strcmp(Arg, "--tier") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseTierMode(V, Cfg.Tier)) {
        std::fprintf(stderr,
                     "error: --tier wants full, confirm, or fast; got '%s'\n",
                     V);
        return 2;
      }
    } else if (std::strcmp(Arg, "--cache-dir") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      Cfg.CacheDir = V;
    } else if (std::strcmp(Arg, "--cache-max-bytes") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      // "1G" must not become a 1-byte cap the GC prunes everything to,
      // "-1" must not wrap to an unbounded one, and "010" means ten.
      if (!parseNumber(Arg, V, Cfg.CacheMaxBytes, uint64_t(0)))
        return 2;
      CacheMaxSet = true;
    } else if (std::strcmp(Arg, "--cache-gc") == 0) {
      CacheGc = true;
    } else if (std::strcmp(Arg, "--emit-shard") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      Cfg.EmitShardDir = V;
    } else if (std::strcmp(Arg, "--shard-range") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      // Exactly one ':' between two whole numbers, each through the same
      // strict parser as every other numeric flag.
      const char *Colon = std::strchr(V, ':');
      if (!Colon || std::strchr(Colon + 1, ':')) {
        std::fprintf(stderr, "error: %s wants LO:HI; got '%s'\n", Arg, V);
        return 2;
      }
      std::string Lo(V, Colon);
      if (!parseNumber(Arg, Lo.c_str(), Cfg.ShardBegin, size_t(0)) ||
          !parseNumber(Arg, Colon + 1, Cfg.ShardEnd, Cfg.ShardBegin))
        return 2;
    } else if (std::strcmp(Arg, "--merge-shards") == 0) {
      MergeShards = true;
    } else if (std::strcmp(Arg, "--improve") == 0) {
      Improve = true;
    } else if (std::strcmp(Arg, "--improve-samples") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, BCfg.Improve.SampleCount, 1))
        return 2;
    } else if (std::strcmp(Arg, "--name") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      bool Found = false;
      for (const Core &C : corpus())
        if (C.Name == V) {
          Cores.push_back(C.clone());
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "error: no corpus benchmark named '%s' "
                             "(try --list)\n",
                     V);
        return 1;
      }
    } else if (std::strcmp(Arg, "--native") == 0) {
      Native = true;
    } else if (std::strcmp(Arg, "--json") == 0) {
      Json = true;
    } else if (std::strcmp(Arg, "--selftest") == 0) {
      SelfTest = true;
    } else if (std::strcmp(Arg, "--out") == 0 ||
               std::strcmp(Arg, "--report-out") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      OutFile = V;
    } else if (std::strcmp(Arg, "--metrics-out") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      MetricsOut = V;
    } else if (std::strcmp(Arg, "--trace-out") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      TraceOut = V;
    } else if (std::strcmp(Arg, "--profile-ops") == 0) {
      ProfileOps = true;
    } else if (std::strcmp(Arg, "--profile-period") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, ProfilePeriod, uint32_t(1)))
        return 2;
    } else if (std::strcmp(Arg, "--progress") == 0) {
      Progress = true;
    } else if (std::strcmp(Arg, "--progress-every") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      if (!parseNumber(Arg, V, ProgressEvery, 0.0))
        return 2;
      if (ProgressEvery == 0.0) {
        std::fprintf(stderr, "error: --progress-every must be > 0 seconds\n");
        return 2;
      }
      Progress = true;
    } else if (std::strcmp(Arg, "--events-out") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      EventsOut = V;
    } else if (std::strcmp(Arg, "--ledger-dir") == 0) {
      const char *V = NextValue();
      if (!V)
        return usage(Argv[0]);
      LedgerDir = V;
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else if (MergeShards) {
      MergeArgs.push_back(Arg);
    } else {
      std::ifstream In(Arg);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Arg);
        return 1;
      }
      std::stringstream Buf;
      Buf << In.rdbuf();
      ParseResult R = parse(Buf.str());
      if (!R.Ok) {
        std::fprintf(stderr, "error: %s: parse failed: %s\n", Arg,
                     R.Error.c_str());
        return 1;
      }
      std::string WhyNot;
      if (!isCompilable(R.Value, &WhyNot)) {
        std::fprintf(stderr, "error: %s: %s\n", Arg, WhyNot.c_str());
        return 1;
      }
      Cores.push_back(std::move(R.Value));
    }
  }

  BCfg.Jobs = Cfg.Jobs;

  if (CacheGc)
    return runCacheGc(Cfg.CacheDir, Cfg.CacheMaxBytes, CacheMaxSet);

  // Arm telemetry before any work runs. All of it observes from the side:
  // the report stream is byte-identical with every flag on or off.
  if (!TraceOut.empty())
    trace::start();
  if (ProfileOps)
    opprof::enable(ProfilePeriod);
  if (!EventsOut.empty()) {
    std::string Err;
    if (!events::start(EventsOut, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  // Close the event stream on every exit path, so the last line a
  // consumer sees is a complete one.
  struct EventsCloser {
    ~EventsCloser() { events::stop(); }
  } CloseEvents;
  ProgressHeartbeat Heartbeat;
  Heartbeat.setInterval(ProgressEvery);
  if (Progress)
    Heartbeat.start();

  if (MergeShards) {
    std::vector<std::string> Sidecars;
    int Rc = runMergeShards(MergeArgs, Json, OutFile, Improve, BCfg,
                            Cfg.CacheDir, Cfg.CacheMaxBytes, Sidecars);
    // Merged shard documents carry no profiler fields (nothing executed
    // here), so the telemetry covers the merge/improve work itself --
    // plus any telemetry sidecars found next to the shards, folded in so
    // --metrics-out reproduces the emitting sweeps' totals.
    int TRc = emitTelemetry(MetricsOut, TraceOut, ProfileOps, nullptr,
                            &Sidecars);
    return Rc != 0 ? Rc : TRc;
  }

  // --native adds the demo kernels; with no other selection it sweeps
  // only those. Otherwise an empty selection means the whole corpus.
  std::vector<herbgrind::native::Kernel> Kernels;
  if (Native)
    Kernels = herbgrind::native::demoKernels();
  if (Cores.empty() && !Native)
    Cores = compilableCorpus();

  Engine Eng(Cfg);

  if (SelfTest) {
    // The headline determinism property: a multi-worker run must be
    // byte-identical to a single-worker run of the same configuration
    // (and, when a cache directory is shared, to a warm-cache rerun).
    BatchResult Multi = Eng.run(Cores, Kernels);
    EngineConfig OneCfg = Eng.config();
    OneCfg.Jobs = 1;
    Engine One(OneCfg);
    BatchResult Single = One.run(Cores, Kernels);
    if (Improve) {
      // The improver is part of the determinism contract too: its
      // outcomes must not depend on the worker count either. The
      // single-worker leg deliberately bypasses the cache -- otherwise
      // it would read back the entries the multi-worker leg just
      // stored and compare the cache with itself.
      runImprovePass(Multi, BCfg, Eng.resultCache());
      enforceCacheCap(Eng.resultCache(), Cfg.CacheMaxBytes, nullptr);
      improve::BatchImproveConfig OneBCfg = BCfg;
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
    return emitTelemetry(MetricsOut, TraceOut, ProfileOps, &Multi);
  }

  BatchResult Result = Eng.run(Cores, Kernels);
  if (Improve) {
    runImprovePass(Result, BCfg, Eng.resultCache());
    enforceCacheCap(Eng.resultCache(), Cfg.CacheMaxBytes, &Result.Stats);
  }
  if (!Result.Stats.CacheGcError.empty())
    std::fprintf(stderr, "warning: cache GC failed (cap not enforced): %s\n",
                 Result.Stats.CacheGcError.c_str());
  if (Result.Stats.EmitFailures > 0) {
    std::fprintf(stderr,
                 "error: failed to write %llu shard document(s) to %s; "
                 "the emitted set is incomplete\n",
                 static_cast<unsigned long long>(Result.Stats.EmitFailures),
                 Cfg.EmitShardDir.c_str());
    return 1;
  }
  // The work is done: join the heartbeat now so its final line lands
  // before the summary statistics.
  Heartbeat.stop();
  if (writeTelemetrySidecar(Cfg, Result) != 0)
    return 1;
  if (!LedgerDir.empty()) {
    LedgerEntry Entry = makeLedgerEntry(Eng.config(), Result.Stats, "sweep");
    std::string LedgerPath, LedgerErr;
    if (!ledgerAppend(LedgerDir, Entry, LedgerPath, LedgerErr)) {
      std::fprintf(stderr, "error: %s\n", LedgerErr.c_str());
      return 1;
    }
    std::fprintf(stderr, "ledger: appended %s\n", LedgerPath.c_str());
  }

  std::string Rendered =
      Json ? Result.renderJson() + "\n" : renderText(Result);
  int Rc = emitRendered(Rendered, OutFile);
  if (Rc != 0)
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
  if (Cfg.Tier != TierMode::Full)
    std::fprintf(
        stderr,
        "tier: %s; %llu tier-0 runs (%llu ops), %llu escalated runs, "
        "%llu/%llu benchmarks confirmed\n",
        tierModeName(Cfg.Tier),
        static_cast<unsigned long long>(Result.Stats.Tier0Runs),
        static_cast<unsigned long long>(Result.Stats.Tier0Ops),
        static_cast<unsigned long long>(Result.Stats.EscalatedRuns),
        static_cast<unsigned long long>(Result.Stats.ConfirmedBenchmarks),
        static_cast<unsigned long long>(Result.Stats.Benchmarks));
  return emitTelemetry(MetricsOut, TraceOut, ProfileOps, &Result);
}
