//===- improve/BatchImprove.h - Corpus-wide repair pass ---------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch repair pass: the paper's Section 8.1 loop -- feed every
/// candidate root cause to the improver and judge whether a rewrite
/// actually helps -- run over a whole batch sweep's merged records
/// instead of one expression at a time. It consumes a BatchResult
/// (live from an Engine sweep, or rebuilt offline from emitted shard
/// documents by engine::mergeShards), converts each qualifying
/// root-cause record's symbolic expression to FPCore, runs improveExpr
/// under the record's recorded input characteristics, and attaches the
/// outcomes to each benchmark's report as its `Improvements` section
/// (wire format 1.1).
///
/// Determinism: outcomes are keyed and ordered by record identity
/// (benchmark order, then ascending root-cause pc) and every record's
/// improver run is seeded from the improver config alone, so the output
/// is byte-identical across worker counts and between live-sweep and
/// merged-shard-document inputs of the same configuration.
///
/// Persistence: with an engine::ResultCache, every outcome is stored as
/// an improve document keyed by the expression, its sampling specs, and
/// the improver-config hash (on top of the cache's sweep config hash),
/// so a repeated `--improve` pass re-runs nothing.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_IMPROVE_BATCHIMPROVE_H
#define HERBGRIND_IMPROVE_BATCHIMPROVE_H

#include "engine/Engine.h"
#include "improve/Improve.h"

#include <string>

namespace herbgrind {
namespace engine {
class ResultCache;
}

namespace improve {

/// Batch repair configuration.
struct BatchImproveConfig {
  /// Per-record improver knobs (sample count, precision, seed, rounds).
  ImproveConfig Improve;
  /// Worker threads; 0 means hardware concurrency.
  unsigned Jobs = 0;
};

/// Canonical hash of every improver knob that can change an outcome.
/// Folded into the result-cache entry key (next to the engine config
/// hash), so changed improver settings invalidate cached improve
/// records instead of silently reusing them.
std::string improveConfigHash(const ImproveConfig &Cfg);

/// Canonical one-line rendering of sampling specs; part of the cache
/// entry identity (the same expression blamed under different recorded
/// input regimes must not share an entry).
std::string specIdentity(const std::vector<SampleSpec> &Specs);

/// Aggregate batch-repair statistics (informational; never part of the
/// deterministic report output).
struct BatchImproveStats {
  uint64_t Benchmarks = 0;      ///< Benchmarks with at least one candidate.
  uint64_t Candidates = 0;      ///< Root-cause records improved over.
  uint64_t Significant = 0;     ///< Candidates above the significance bar.
  uint64_t Improved = 0;        ///< Candidates the rewrite database beat.
  uint64_t AnalyzedRecords = 0; ///< Improver runs executed this pass.
  uint64_t CachedRecords = 0;   ///< Outcomes satisfied by the cache.
  uint64_t StoreFailures = 0;   ///< Fresh outcomes the cache failed to
                                ///< persist (the report is intact).
  double WallSeconds = 0.0;
};

/// Runs the improver over every root cause of every benchmark's merged
/// records and attaches the outcomes to the per-benchmark reports
/// (Report::Improvements, ascending by pc). Records qualify when they
/// appear as a root cause of an erroneous spot and carry a symbolic
/// expression -- exactly the records the report presents. \p Cache, when
/// non-null, persists outcomes across passes (see improveConfigHash).
BatchImproveStats batchImprove(engine::BatchResult &Batch,
                               const BatchImproveConfig &Cfg = {},
                               engine::ResultCache *Cache = nullptr);

} // namespace improve
} // namespace herbgrind

#endif // HERBGRIND_IMPROVE_BATCHIMPROVE_H
