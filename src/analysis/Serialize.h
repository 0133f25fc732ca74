//===- analysis/Serialize.h - Result wire format ----------------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire formats for analysis results: rendering AND read-back for
/// `AnalysisResult` (with its `OpRecord`/`SpotRecord` maps, symbolic
/// expressions, and input summaries) and for presentation-level `Report`s.
/// This is what makes shard results durable values: the result cache
/// persists them between sweeps, and `--emit-shard`/`--merge-shards` ship
/// them between machines.
///
/// Each schema element is written once, as one traversal that serves
/// both directions: rendering runs it over a `wire::Encoder`, parsing
/// over a `wire::Decoder` (`support/Wire.h`), so the field order written
/// is the field order read. Two backends sit under it: byte-exact JSON
/// and the compact HGB binary envelope (`support/WireBinary.h`). Each
/// family has one `renderX(Doc, WireEncoding)` and one `parseX`.
///
/// The contract is exact round-tripping in either format, and across
/// formats: `parse(render(x))` reconstructs `x` bit-for-bit (JSON doubles
/// are printed with shortest round-trip decimals and reparsed with
/// strtod; HGB stores the raw IEEE-754 bytes), so folding a parsed shard
/// into a sweep produces output byte-identical to folding the in-memory
/// original -- whichever format carried it.
///
/// The formats are versioned (see REPORT_SCHEMA.md). Readers accept any
/// minor version of a known major version and reject everything else --
/// a major bump means fields changed meaning, and a silently misread
/// cache entry would corrupt a merged report. Every `parseX` function
/// sniffs the format from the first byte ('{' = JSON, 0x89 = HGB) and
/// accepts either. One envelope codec in Serialize.cpp writes and checks
/// the JSON {"format","version"} keys and the HGB header for every
/// family.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_SERIALIZE_H
#define HERBGRIND_ANALYSIS_SERIALIZE_H

#include "analysis/Analysis.h"
#include "analysis/OpProfile.h"
#include "analysis/Report.h"
#include "support/Metrics.h"

#include <string>

namespace herbgrind {

/// Wire format version. The major number is embedded in every shard and
/// report document (JSON envelope and HGB header alike) and checked on
/// read-back; it also feeds the engine's config hash, so a version bump
/// invalidates persistent caches.
constexpr int WireFormatMajor = 1;
/// Minor version: additive, backward-compatible changes only.
/// History: 1.1 added the optional report "improvements" section
/// (ImproveRecord) and the "herbgrind-improve" cache document.
constexpr int WireFormatMinor = 1;

/// Which wire backend a render uses. Readers never need to be told --
/// they sniff. Who reads a document decides its encoding: the engine
/// writes per-shard documents (cache entries, emitted shards) as HGB,
/// since only herbgrind reads those back, and per-sweep documents
/// (reports, telemetry, ledger entries) as JSON, for people and scripts.
enum class WireEncoding {
  Json,   ///< Human-readable, byte-stable text.
  Binary, ///< HGB: compact length-prefixed binary (support/WireBinary.h).
};

/// Spot kind name used in wire documents and text reports ("Output",
/// "Compare", "Conversion").
const char *spotKindName(SpotKind K);

/// One shard-result document: an `AnalysisResult` plus the identity
/// needed to place it in a sweep (which benchmark, which slice of the
/// sampled inputs) and the engine config hash that guards merges of
/// incompatible shards.
struct ShardDoc {
  std::string ConfigHash; ///< engine::configHash() of the producing sweep.
  std::string Benchmark;  ///< Benchmark name (presentation only).
  uint64_t BenchIndex = 0; ///< Benchmark position in the sweep's core list.
  uint64_t ShardIndex = 0; ///< Shard number within the benchmark.
  uint64_t RunBegin = 0;   ///< First sampled-input index (inclusive).
  uint64_t RunEnd = 0;     ///< Last sampled-input index (exclusive).
  AnalysisResult Result;
};

/// Renders a complete shard document (versioned envelope + result).
std::string renderShard(const ShardDoc &Doc, WireEncoding Enc);

/// Same, from the envelope fields and a borrowed result (no ShardDoc --
/// and so no deep copy of the records -- required).
std::string renderShard(const std::string &ConfigHash,
                        const std::string &Benchmark, uint64_t BenchIndex,
                        uint64_t ShardIndex, uint64_t RunBegin,
                        uint64_t RunEnd, const AnalysisResult &Result,
                        WireEncoding Enc);

/// Parses a shard document in either format (sniffed from the first
/// byte). Rejects wrong families and unknown major versions; truncated or
/// corrupt input of either kind fails cleanly.
bool parseShard(const std::string &Text, ShardDoc &Out, std::string &Err);

/// One cached batch-improver outcome: the record plus the identities
/// that validate a cache hit (the producing sweep's config hash, the
/// improver-config hash, and the exact expression/sampling-spec text the
/// improver ran on). Stored by engine::ResultCache as `<key>.improve.hgb`.
struct ImproveDoc {
  std::string ConfigHash;   ///< engine::configHash() of the sweep.
  std::string ImproveHash;  ///< improve::improveConfigHash() of the pass.
  std::string ExprIdentity; ///< Printed expression the improver ran on.
  std::string SpecIdentity; ///< Canonical sampling-spec text.
  ImproveRecord Record;     ///< The outcome (PC is not persisted: the
                            ///< same expression can be blamed at many
                            ///< sites; callers re-stamp identity).
};

/// Renders a complete improve-cache document (versioned envelope).
std::string renderImproveDoc(const ImproveDoc &Doc, WireEncoding Enc);

/// Parses an improve-cache document in either format (sniffed).
bool parseImproveDoc(const std::string &Text, ImproveDoc &Out,
                     std::string &Err);

/// Renders a bare presentation-level report (HGB family tag "report").
/// Its JSON form is a {"spots":[...]} object with no envelope, what
/// Report::renderJson() returns.
std::string renderReport(const Report &R, WireEncoding Enc);

/// Parses a bare report in either format (sniffed). Round trip:
/// parseReportDoc(render(r)) re-renders to the same bytes. The
/// "improvements" section is optional (absent in pre-1.1 documents).
bool parseReportDoc(const std::string &Text, Report &Out, std::string &Err);

/// A parsed batch report document (what `herbgrind_batch --json` and
/// `BatchResult::renderJson()` emit).
struct BatchReportDoc {
  struct Entry {
    std::string Name;
    uint64_t Shards = 0;
    uint64_t Runs = 0;
    Report Rep;
  };
  std::vector<Entry> Benchmarks;
};

/// A borrowed view of one batch-report entry: lets `BatchResult` (and
/// anything else that already owns Reports) render the batch document
/// through the shared traversal without deep-copying records. Its fields
/// are spelled like BatchReportDoc::Entry's.
struct BatchReportEntryRef {
  const std::string &Name;
  uint64_t Shards;
  uint64_t Runs;
  const Report &Rep;
};

/// Renders a batch report document from borrowed entries.
std::string renderBatchReport(const std::vector<BatchReportEntryRef> &E,
                              WireEncoding Enc);

/// Renders a parsed batch report document back out.
std::string renderBatchReport(const BatchReportDoc &Doc, WireEncoding Enc);

/// Parses a batch report document in either format (sniffed), checking
/// its versioned envelope (format "herbgrind-report"; unknown majors are
/// rejected).
bool parseBatchReport(const std::string &Text, BatchReportDoc &Out,
                      std::string &Err);

/// Telemetry document version (format "herbgrind-telemetry"). Versioned
/// independently of the report wire format: telemetry is observational,
/// can evolve faster, and must never force a cache-invalidating report
/// major bump. Same discipline otherwise -- readers accept any minor of a
/// known major and reject everything else.
constexpr int TelemetryFormatMajor = 1;
/// History: 1.1 added the optional "meta" provenance block (hostname,
/// ISO-8601 timestamp, merged-doc count). Minor-0 documents parse fine
/// (the block simply reads as absent) and re-render their exact bytes.
constexpr int TelemetryFormatMinor = 1;

/// Provenance for a telemetry document: which machine produced it, when,
/// and -- for merged documents -- how many process-level source docs were
/// folded in. Purely informational; the merge algebra never reads it.
struct TelemetryMeta {
  std::string Host;      ///< Producing hostname (engine::hostName()).
  std::string Timestamp; ///< ISO-8601 UTC wall-clock time of the write.
  uint64_t MergedDocs = 0; ///< Source docs folded in (0 = a live process).
};

/// One sweep's telemetry: the merged metrics snapshot plus (when
/// `--profile-ops` ran) the ranked hot-op cost profile. This is what
/// `herbgrind_batch --metrics-out` writes. Deliberately separate from the
/// report stream: reports stay byte-identical whether or not telemetry
/// was collected.
struct TelemetryDoc {
  bool HasMeta = false; ///< Present since 1.1; false round-trips old docs.
  TelemetryMeta Meta;
  metrics::Snapshot Metrics;
  std::vector<opprof::OpProfileRow> Profile; ///< Ranked (finalized) rows.
  uint64_t ProfileTotalNanos = 0; ///< Measured shadow ns (profile.shadow_ns).

  /// Folds \p Other into this document: metrics by Snapshot::mergeFrom,
  /// profile rows by (Loc, Op) with the ranking re-finalized, total
  /// nanos summed, and MergedDocs accumulated (a doc without meta counts
  /// as one process). Host/Timestamp are left untouched -- deterministic
  /// given the inputs, so cross-format merges compare byte-for-byte;
  /// writers stamp fresh provenance afterwards if they want it.
  void mergeFrom(const TelemetryDoc &Other);
};

/// Renders a complete telemetry document (versioned envelope + metrics +
/// optional profile). Deterministic given a deterministic snapshot: names
/// are sorted, rows keep their ranked order.
std::string renderTelemetry(const TelemetryDoc &Doc, WireEncoding Enc);

/// Parses a telemetry document in either format (sniffed). Rejects wrong
/// families and unknown major versions. Round trip: parse(render(d))
/// re-renders byte-identically.
bool parseTelemetry(const std::string &Text, TelemetryDoc &Out,
                    std::string &Err);

/// Parses every document text (each sniffed independently, so JSON and
/// HGB inputs mix freely) and folds them into \p Out with
/// TelemetryDoc::mergeFrom. Fails on an empty input set or any parse
/// error. The result carries meta with the summed MergedDocs count but
/// empty Host/Timestamp: byte-deterministic given the inputs; callers
/// stamp provenance before writing.
bool mergeTelemetry(const std::vector<std::string> &DocTexts,
                    TelemetryDoc &Out, std::string &Err);

/// Run-ledger document version (format "herbgrind-ledger", HGB family
/// Ledger). Versioned independently: ledger entries persist across many
/// sweeps, and their schema must be able to grow without touching the
/// report or telemetry formats.
constexpr int LedgerFormatMajor = 1;
constexpr int LedgerFormatMinor = 0;

/// One run-ledger envelope: everything needed to recognize a sweep (the
/// config hash and knobs), place it in time (host, timestamp), and judge
/// it against a baseline (stats plus the merged metrics snapshot).
/// engine/RunLedger.h owns the append-only store and the regression
/// comparison; this is just the durable value.
struct LedgerEntry {
  // Provenance.
  std::string Host;        ///< Producing hostname.
  std::string Timestamp;   ///< ISO-8601 UTC wall-clock time.
  uint64_t TimestampNanos = 0; ///< Wall-clock ns since the epoch (the
                               ///< ledger's ordering key).
  std::string Label;       ///< Free-form: "sweep", a bench section, ...
  // Configuration.
  std::string ConfigHash;  ///< engine::configHash() of the sweep.
  std::string WireFormat;  ///< Encoding of the shard documents the sweep
                           ///< wrote: "binary" (entries from before
                           ///< shards were always HGB may say "json").
  std::string Tier;        ///< "full", "confirm", or "fast".
  uint64_t Jobs = 0;
  uint64_t Samples = 0;
  uint64_t ShardSize = 0;
  uint64_t BatchLanes = 1;
  // Sweep statistics (the regression axes and their denominators).
  uint64_t Benchmarks = 0;
  uint64_t Shards = 0;
  uint64_t Runs = 0;
  uint64_t AnalyzedShards = 0;
  uint64_t CachedShards = 0;
  uint64_t ResultCacheHits = 0;
  uint64_t ResultCacheMisses = 0;
  uint64_t LimbHeapAllocs = 0;
  uint64_t LimbCacheHits = 0;
  uint64_t Tier0Runs = 0;
  uint64_t EscalatedRuns = 0;
  uint64_t PoolTasks = 0;
  uint64_t PoolSteals = 0;
  double WallSeconds = 0.0;
  /// The sweep's merged metrics snapshot (same layout as the telemetry
  /// document's counters/gauges/timers sections).
  metrics::Snapshot Metrics;
};

/// Renders a complete ledger entry (versioned envelope). Round trip:
/// parse(render(e)) re-renders byte-identically in either format.
std::string renderLedgerEntry(const LedgerEntry &E, WireEncoding Enc);

/// Parses a ledger entry in either format (sniffed). Rejects wrong
/// format tags and unknown major versions.
bool parseLedgerEntry(const std::string &Text, LedgerEntry &Out,
                      std::string &Err);

/// Rewrites one wire document of any family in encoding \p To (what
/// `herbgrind_batch hgb2json` / `json2hgb` do). The family comes from the
/// HGB header or the JSON "format" tag; a JSON object with no tag and a
/// "spots" field is a bare report. Lossless both ways: JSON output is the
/// JSON backend's exact bytes plus the newline the CLI writes after
/// per-sweep documents (none after shard and improve documents).
bool convertWireDoc(const std::string &Text, WireEncoding To,
                    std::string &Out, std::string &Err);

} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_SERIALIZE_H
