//===- analysis/Report.h - Paper-style root cause reports -------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the analysis results in the paper's output format: one block
/// per erroneous spot, listing the FPCore'd symbolic expressions of the
/// influencing candidate root causes with their input preconditions and an
/// example problematic input (Section 3's sample output).
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_REPORT_H
#define HERBGRIND_ANALYSIS_REPORT_H

#include "analysis/Analysis.h"

#include <string>

namespace herbgrind {

/// One candidate root cause ready for presentation or for feeding to the
/// improvement tool.
struct RootCauseReport {
  uint32_t PC = 0;            ///< The candidate operation's pc.
  SourceLoc Loc;              ///< Where the operation came from.
  std::string FPCore;         ///< Full "(FPCore (vars) :pre ... body)" text.
  std::string Body;           ///< Just the expression body.
  uint32_t NumVars = 0;       ///< Distinct variables in the expression.
  unsigned OpCount = 0;       ///< Operation nodes in the expression.
  uint64_t Flagged = 0;       ///< Rounds with local error above Tl.
  double MaxLocalError = 0.0; ///< Worst local error observed, in bits.
  double AvgLocalError = 0.0; ///< Mean local error across executions.
  std::string ExampleInput;   ///< "(v0, v1, ...)" of a problematic round.
};

/// One batch-improver outcome for a candidate root cause: the Section 8.1
/// judgment ("does Herbie actually fix what Herbgrind blamed?") made
/// corpus-wide. Produced by improve::batchImprove, attached to the report
/// it ran over, and carried through the versioned wire format (the
/// "improvements" section, added in wire format 1.1).
struct ImproveRecord {
  uint32_t PC = 0;          ///< Root-cause operation pc (record identity).
  std::string Original;     ///< Expression body fed to the improver.
  std::string Rewritten;    ///< Most accurate rewrite found ("" when none).
  double ErrorBefore = 0.0; ///< Mean bits of error, original expression.
  double ErrorAfter = 0.0;  ///< Mean bits of error, best version found.
  bool HadSignificantError = false; ///< Above the paper's > 5 bits bar.
  bool Improved = false;    ///< Gain reached the improver's threshold.
};

/// One erroneous spot with its root causes.
struct SpotReport {
  uint32_t PC = 0;                 ///< The spot's pc.
  SpotKind Kind = SpotKind::Output; ///< Output, comparison, or conversion.
  SourceLoc Loc;                   ///< Where the spot came from.
  uint64_t Executions = 0;         ///< Times the spot executed.
  uint64_t Erroneous = 0;          ///< Times it was observably wrong.
  double MaxErrorBits = 0.0;       ///< Worst output error, in bits.
  std::vector<RootCauseReport> RootCauses; ///< Most-flagged first.
};

/// The full report.
struct Report {
  std::vector<SpotReport> Spots;

  /// Batch-improver outcomes for this report's root causes, ascending by
  /// pc. Empty unless improve::batchImprove ran over the report; an empty
  /// vector renders exactly as the pre-1.1 format did, so reports without
  /// an improver pass stay byte-identical to older writers'.
  std::vector<ImproveRecord> Improvements;

  /// Paper-style rendering.
  std::string render() const;

  /// Deterministic JSON rendering (machine-readable batch output; no
  /// timings or other nondeterminism, so equal analyses render to equal
  /// bytes). The format is specified field-by-field in
  /// docs/REPORT_SCHEMA.md and read back by parseReportDoc
  /// (analysis/Serialize.h): parse(renderJson()) re-renders to the same
  /// bytes.
  std::string renderJson() const;

  /// All distinct root causes across spots (deduplicated by pc).
  std::vector<RootCauseReport> allRootCauses() const;

  /// Folds another report in at the presentation level: spots for the same
  /// (pc, location) combine their counters and keep each root cause's
  /// strongest version; other spots append. Improver records append for
  /// (pc, expression) pairs this report has none for -- pc spaces are
  /// per-program, so unrelated expressions sharing a pc both survive --
  /// keep the strongest outcome on a full-key collision, and the merged
  /// list re-sorts by pc. This is the aggregation used
  /// for corpus-wide summaries over per-benchmark reports. For shards of
  /// one program prefer merging `AnalysisResult`s and rebuilding -- that
  /// path anti-unifies the underlying expressions and is exact.
  void mergeFrom(const Report &Other);
};

/// Builds the FPCore text for a single operation record.
std::string fpcoreForRecord(const OpRecord &Rec, RangeMode Ranges);

/// Extracts the report from a finished analysis.
Report buildReport(const Herbgrind &Analysis);

/// Builds the report from a (possibly merged) record snapshot.
Report buildReport(const AnalysisResult &Result);

} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_REPORT_H
