//===- engine/Engine.h - Parallel batch analysis ----------------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel batch-analysis engine: shards a corpus sweep (benchmark x
/// sampled-input batches) across a work-stealing pool of worker-local
/// Herbgrind instances and reduces the per-shard records with the
/// AnalysisResult merge machinery. Everything is deterministic by
/// construction -- inputs are sampled up front from per-benchmark seeds,
/// shard boundaries depend only on the configuration, and each benchmark's
/// shards are folded in ascending shard order -- so a run with N workers
/// produces a report byte-identical to a run with one.
///
/// The reduction is *streaming*: a finished shard folds into its
/// benchmark's accumulator as soon as every earlier shard has (out-of-
/// order completions wait in a small pending buffer), so reduce overlaps
/// analyze and peak memory stays proportional to the out-of-order window
/// rather than the total shard count.
///
/// Results are durable values. With a cache directory configured, every
/// shard's records persist as an HGB shard document keyed by FPCore
/// identity + sampling seed + sample range + config hash, and a repeated
/// sweep analyzes only new or invalidated shards (see ResultCache.h).
/// An emit directory is a second, write-only ResultCache: every shard's
/// document lands in the sweep's one segment there, for off-machine
/// merging; `mergeShards` folds them back into a BatchResult
/// byte-identical to a single-machine sweep's.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ENGINE_ENGINE_H
#define HERBGRIND_ENGINE_ENGINE_H

#include "analysis/Analysis.h"
#include "analysis/Report.h"
#include "analysis/Serialize.h"
#include "fpcore/Compile.h"

#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace herbgrind {

namespace native {
struct Kernel;
}

namespace engine {

class ResultCache;

/// How much shadowing a sweep performs (docs/ARCHITECTURE.md, "Tiered
/// shadowing").
enum class TierMode {
  /// Every run carries the full 256-bit shadow. The baseline.
  Full,
  /// Per-run escalation: every sampled input first executes under the
  /// cheap tier-0 error predicates (native doubles, no BigFloat); only
  /// runs whose spot predicates cannot rule out an erroneous observation
  /// re-execute under the full shadow. Reports contain only escalated
  /// runs, so root causes are a subset of Full's (predicate soundness
  /// makes the *erroneous* set complete, but Executions/Flagged counts
  /// differ); cached shards live under a distinct "tier=fast" hash so
  /// they never alias Full entries.
  Fast,
  /// Per-benchmark confirmation (the default tiered mode): a parallel
  /// tier-0 pass sweeps every shard first, then benchmarks with at least
  /// one suspect run re-run under the full shadow. Predicate soundness
  /// (a full-mode erroneous spot implies a tier-0 suspect run) makes the
  /// final report byte-identical to Full's; confirmed shards store
  /// genuine full records, so Confirm shares Full's cache hash and the
  /// two modes warm each other's caches. Clean benchmarks fold empty
  /// records (their Full report is empty too) and are never cached.
  Confirm,
};

/// The spelling of \p T that `--tier`, the run ledger and the event
/// stream share: "full", "fast" or "confirm".
inline const char *tierModeName(TierMode T) {
  return T == TierMode::Full   ? "full"
         : T == TierMode::Fast ? "fast"
                               : "confirm";
}

/// Parses a tierModeName spelling into \p T; false for any other string.
inline bool parseTierMode(const std::string &Name, TierMode &T) {
  for (TierMode M : {TierMode::Full, TierMode::Fast, TierMode::Confirm})
    if (Name == tierModeName(M)) {
      T = M;
      return true;
    }
  return false;
}

/// Batch-run configuration.
struct EngineConfig {
  /// Worker threads; 0 means hardware concurrency.
  unsigned Jobs = 0;
  /// Sampled input tuples per benchmark.
  int SamplesPerBenchmark = 64;
  /// Input tuples per shard (the parallel grain).
  int ShardSize = 16;
  /// Base seed; each benchmark derives an independent stream from it, so
  /// sampling does not depend on sharding or worker count.
  uint64_t Seed = 0xcafe;
  /// Per-shard analysis configuration.
  AnalysisConfig Analysis;
  /// Shadowing tier (see TierMode). Part of the config hash only for
  /// Fast (whose records genuinely differ); Confirm shares Full's hash.
  TierMode Tier = TierMode::Full;
  /// Persistent shard-result cache directory; empty disables caching.
  /// Cached shards skip analysis entirely and fold into the sweep through
  /// the same in-order reduction, byte-identically.
  std::string CacheDir;
  /// Size cap for CacheDir in bytes; when nonzero, the sweep ends with an
  /// LRU-by-mtime garbage collection pass that prunes the directory down
  /// to the cap (see engine::gcCacheDir). 0 leaves the cache unbounded.
  /// Never part of the config hash: pruning changes what is cached, not
  /// what any shard's records contain.
  uint64_t CacheMaxBytes = 0;
  /// When non-empty, every shard's result -- cache hits and the empty
  /// records of confirm-cleared benchmarks included -- is also stored here
  /// through a write-only ResultCache (see ResultCache.h): one segment
  /// per sweep, for readSegmentShards + mergeShards on another machine.
  std::string EmitShardDir;
  /// Half-open per-benchmark shard-index range to execute; the default
  /// covers every shard. Shard boundaries are laid out over the full
  /// sample count regardless, so two machines running disjoint ranges of
  /// the same configuration produce shards that merge into exactly the
  /// full sweep's report.
  size_t ShardBegin = 0;
  size_t ShardEnd = std::numeric_limits<size_t>::max();
  /// Ignored: every sample runs through the scalar shadow path. The field
  /// remains only because the benchmark harness (perfbench/) still sets
  /// it, and run-ledger entries still record it.
  unsigned BatchLanes = 1;
};

/// One benchmark's merged outcome.
struct BenchmarkResult {
  std::string Name;
  AnalysisResult Records; ///< Shard records merged in shard order.
  Report Rep;             ///< Built from the merged records.
  uint64_t Shards = 0;    ///< Shards folded in (executed ones only).
  uint64_t Runs = 0;      ///< Sampled inputs analyzed or loaded from cache.
};

/// Aggregate run statistics (informational; never part of deterministic
/// output).
struct EngineStats {
  uint64_t Benchmarks = 0;
  uint64_t Shards = 0;         ///< Shards folded (analyzed + cached).
  uint64_t Runs = 0;
  uint64_t AnalyzedShards = 0; ///< Shards actually executed this sweep.
  uint64_t CachedShards = 0;   ///< Shards satisfied by the result cache.
  uint64_t EmitFailures = 0;   ///< EmitShardDir documents that failed to
                               ///< persist (callers should treat > 0 as an
                               ///< error: the emitted set is incomplete).
  uint64_t CacheHits = 0;      ///< Compiled-program cache hits.
  uint64_t CacheMisses = 0;    ///< Compiled-program cache misses.
  uint64_t CachePrunedEntries = 0; ///< Result-cache entries GC'd post-run.
  uint64_t CachePrunedBytes = 0;   ///< Bytes the post-run GC reclaimed.
  uint64_t ResultCacheHits = 0;    ///< Shard result-cache lookup hits.
  uint64_t ResultCacheMisses = 0;  ///< Shard result-cache lookup misses.
  uint64_t ResultCacheStoreFailures = 0; ///< Shard documents that failed
                                         ///< to persist (cache only; the
                                         ///< sweep's results are intact).
  uint64_t LimbHeapAllocs = 0; ///< Limb blocks that hit operator new[]
                               ///< during shard analysis (all workers).
  uint64_t LimbCacheHits = 0;  ///< Limb blocks served from thread caches
                               ///< during shard analysis (all workers).
  uint64_t Tier0Runs = 0; ///< Runs executed under tier-0 predicates.
  uint64_t Tier0Ops = 0;  ///< Shadow ops executed at tier 0.
  uint64_t EscalatedRuns = 0; ///< Runs re-executed under the full shadow
                              ///< because of a tier-0 suspect verdict.
  uint64_t ConfirmedBenchmarks = 0; ///< Confirm mode: benchmarks whose
                                    ///< tier-0 verdict forced the full
                                    ///< confirmation pass.
  uint64_t PoolTasks = 0;         ///< Thread-pool tasks executed.
  uint64_t PoolSteals = 0;        ///< Tasks taken from another worker.
  uint64_t PoolMaxQueueDepth = 0; ///< Deepest any worker queue ever got.
  /// Non-empty when a configured post-run cache GC failed: the cap was
  /// NOT enforced this sweep. Callers should surface this to the
  /// operator (the CLI prints it to stderr).
  std::string CacheGcError;
  double WallSeconds = 0.0;
};

/// The full batch outcome.
struct BatchResult {
  std::vector<BenchmarkResult> Benchmarks; ///< In submission order.
  EngineStats Stats;

  /// Deterministic JSON: a versioned envelope (REPORT_SCHEMA.md) around
  /// the per-benchmark reports. Byte-identical across worker counts,
  /// repeated runs, warm/cold caches, and single- vs multi-machine
  /// sweeps of the same configuration.
  std::string renderJson() const;

  /// The same document in the requested encoding (the HGB binary render
  /// carries bit-identical values; hgb2json recovers the exact JSON
  /// bytes).
  std::string renderWire(WireEncoding Enc) const;
};

/// The batch driver. One engine owns a compiled-program cache, so
/// repeated runs (e.g. a jobs sweep in the scaling bench) recompile
/// nothing; with EngineConfig::CacheDir set it also owns a persistent
/// shard-result cache shared across processes and machines.
class Engine {
public:
  explicit Engine(EngineConfig Cfg = {});
  ~Engine();

  /// Analyzes every core, sharded and in parallel.
  BatchResult run(const std::vector<fpcore::Core> &Cores);

  /// Analyzes every registered native kernel: real C++ code instrumented
  /// through native::Real is swept exactly like an FPCore benchmark
  /// (deterministic sharding, byte-identical merging at any worker
  /// count, shard-result caching keyed by Kernel::identity()).
  BatchResult run(const std::vector<native::Kernel> &Kernels);

  /// One combined sweep over FPCore cores followed by native kernels
  /// (benchmark indices cover the concatenation, in that order).
  BatchResult run(const std::vector<fpcore::Core> &Cores,
                  const std::vector<native::Kernel> &Kernels);

  /// Analyzes the whole bundled corpus (skipping any core the compiler
  /// does not support).
  BatchResult runCorpus();

  const EngineConfig &config() const { return Cfg; }

  /// The persistent shard-result cache, or nullptr when CacheDir is
  /// empty. The non-const form exists for follow-on passes (the batch
  /// improver) that store their own entries in the same directory.
  const ResultCache *resultCache() const { return RC.get(); }
  ResultCache *resultCache() { return RC.get(); }

private:
  EngineConfig Cfg;
  fpcore::ProgramCache Cache;
  std::unique_ptr<ResultCache> RC;
  std::unique_ptr<ResultCache> Emit; ///< On EmitShardDir; only stored to.
};

/// Folds shard wire-format documents (from `--emit-shard` runs, possibly
/// on different machines, or straight from a cache directory) back into a
/// BatchResult, in any document order. Each benchmark's documents go
/// through the sweep's own in-order fold, so merging a sweep's complete
/// shard set reproduces that sweep's report byte-identically.
///
/// Every benchmark with a document must be complete: its shards must
/// cover runs 0 up to the document's run total without a gap. Fails
/// (returns false, sets \p Err) on an empty input, mismatched config
/// hashes, a benchmark index that names two benchmarks, a duplicate
/// shard, a missing leading, middle or trailing shard (naming the
/// benchmark and the shard), or a document without a run total (shard
/// format 1.1). A benchmark with no document at all is not seen.
bool mergeShards(std::vector<ShardDoc> Docs, BatchResult &Out,
                 std::string &Err);

/// Appends the shard documents of the segment files \p Paths to \p Docs,
/// for mergeShards. A document repeating an earlier one's key and bytes
/// is taken once; any other repeated key reaches mergeShards, which
/// rejects it (emitted keys name no benchmark: ResultCache.h). Fails,
/// setting \p Err, on a path that is not a readable segment.
bool readSegmentShards(const std::vector<std::string> &Paths,
                       std::vector<ShardDoc> &Docs, std::string &Err);

} // namespace engine
} // namespace herbgrind

#endif // HERBGRIND_ENGINE_ENGINE_H
