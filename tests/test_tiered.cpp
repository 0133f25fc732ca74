//===- tests/test_tiered.cpp - Tiered shadowing differential tests --------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The tiered-shadowing contract, checked differentially against the full
// shadow on seeded random programs (DiffHarness.h) and real benchmarks:
//
//   1. Confirm tier reports are BYTE-identical to full-tier reports --
//      across random FPCore cores, random native kernels, worker counts,
//      cold and warm result caches, and the emit/merge-shards path.
//   2. Fast tier reports are deterministic across worker counts, and
//      their (spot, root cause) pairs are a subset of full's.
//   3. The tier accounting holds: clean benchmarks never touch the full
//      shadow in confirm mode, escalation stays below 100% on mixed
//      workloads, and full mode keeps every tier counter at zero.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"
#include "EmittedSegment.h"

#include "engine/ResultCache.h"
#include "fpcore/Corpus.h"
#include "native/Kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unistd.h>

using namespace herbgrind;
using namespace herbgrind::engine;
using namespace herbgrind::diffharness;

namespace {

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-tiered-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

EngineConfig smallConfig(unsigned Jobs, TierMode Tier) {
  EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 3;
  Cfg.Tier = Tier;
  return Cfg;
}

/// A benchmark whose spots are clean on every input: well-conditioned
/// addition over a tight range. Tier 0 must never escalate it.
fpcore::Core benignCore() {
  fpcore::ParseResult P = fpcore::parse(
      "(FPCore (x) :name \"benign add\" :pre (<= 1 x 2) (+ x 1))");
  EXPECT_TRUE(P.Ok);
  return std::move(P.Value);
}

/// Cancellation that only some inputs hit. At 32 samples as benchmark 0
/// of a sweep, its first two runs are clean and a later one is suspect.
fpcore::Core sparseCancellationCore() {
  fpcore::ParseResult P = fpcore::parse(
      "(FPCore (x) :name \"sparse cancellation\" :pre (<= 0 x 1e5)"
      " (- (sqrt (+ x 1)) (sqrt x)))");
  EXPECT_TRUE(P.Ok);
  return std::move(P.Value);
}

/// The canonical erroneous benchmark (catastrophic cancellation).
fpcore::Core cancellingCore() {
  for (const fpcore::Core &C : fpcore::corpus())
    if (C.Name == "NMSE example 3.1")
      return C.clone();
  ADD_FAILURE() << "corpus benchmark missing";
  return benignCore();
}

} // namespace

//===----------------------------------------------------------------------===//
// Confirm tier: byte identity
//===----------------------------------------------------------------------===//

TEST(TieredDiff, ConfirmMatchesFullOnRandomPrograms) {
  for (uint64_t Seed : {0x7001ULL, 0x7002ULL, 0x7003ULL}) {
    std::vector<fpcore::Core> Cores = randomCores(Seed, 6);
    std::vector<native::Kernel> Kernels = randomKernels(Seed, 3);
    std::string Full =
        sweepJson(Cores, Kernels, smallConfig(2, TierMode::Full));
    std::string Confirm =
        sweepJson(Cores, Kernels, smallConfig(2, TierMode::Confirm));
    EXPECT_EQ(Full, Confirm) << "seed " << Seed;
  }
}

TEST(TieredDiff, ConfirmMatchesFullAcrossWorkerCounts) {
  std::vector<fpcore::Core> Cores = randomCores(0x7010, 5);
  std::vector<native::Kernel> Kernels = randomKernels(0x7010, 2);
  std::string Full = sweepJson(Cores, Kernels, smallConfig(1, TierMode::Full));
  for (unsigned Jobs : {1u, 4u, 7u})
    EXPECT_EQ(Full,
              sweepJson(Cores, Kernels, smallConfig(Jobs, TierMode::Confirm)))
        << "jobs " << Jobs;
}

TEST(TieredDiff, ConfirmMatchesFullOnRealBenchmarks) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(benignCore());
  Cores.push_back(cancellingCore());
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= 10)
      break;
  }
  const std::vector<native::Kernel> &Kernels = native::demoKernels();
  EXPECT_EQ(sweepJson(Cores, Kernels, smallConfig(3, TierMode::Full)),
            sweepJson(Cores, Kernels, smallConfig(3, TierMode::Confirm)));
}

TEST(TieredDiff, ConfirmSharesFullsCacheBothWays) {
  // Confirm and Full share one config hash: a cold Full sweep warms the
  // cache for a Confirm sweep and vice versa, and the reports stay
  // byte-identical in all four legs.
  std::vector<fpcore::Core> Cores = randomCores(0x7020, 4);
  TempDir Cache("sharedcache");

  EngineConfig FullCfg = smallConfig(2, TierMode::Full);
  FullCfg.CacheDir = Cache.Path;
  EngineConfig ConfCfg = smallConfig(2, TierMode::Confirm);
  ConfCfg.CacheDir = Cache.Path;
  ASSERT_EQ(configHash(FullCfg), configHash(ConfCfg));

  BatchResult FullCold = Engine(FullCfg).run(Cores);
  BatchResult ConfWarm = Engine(ConfCfg).run(Cores);
  EXPECT_EQ(FullCold.renderJson(), ConfWarm.renderJson());
  // Every suspect benchmark's shard came from the cache the Full sweep
  // stored; clean benchmarks skip the cache by design.
  EXPECT_EQ(ConfWarm.Stats.AnalyzedShards, 0u);

  TempDir Cache2("sharedcache2");
  ConfCfg.CacheDir = Cache2.Path;
  FullCfg.CacheDir = Cache2.Path;
  BatchResult ConfCold = Engine(ConfCfg).run(Cores);
  BatchResult FullWarm = Engine(FullCfg).run(Cores);
  EXPECT_EQ(ConfCold.renderJson(), FullWarm.renderJson());
  EXPECT_EQ(FullWarm.renderJson(), FullCold.renderJson());
}

TEST(TieredDiff, ConfirmEmittedShardsMergeToFullReport) {
  std::vector<fpcore::Core> Cores = randomCores(0x7030, 4);
  std::vector<native::Kernel> Kernels = randomKernels(0x7030, 2);
  TempDir Emit("emit");

  EngineConfig Cfg = smallConfig(2, TierMode::Confirm);
  Cfg.EmitShardDir = Emit.Path;
  BatchResult Swept = Engine(Cfg).run(Cores, Kernels);
  ASSERT_EQ(Swept.Stats.EmitFailures, 0u);

  std::vector<ShardDoc> Docs;
  ASSERT_TRUE(emitted::readShardsOf(Emit.Path, Docs));
  ASSERT_EQ(Docs.size(), Swept.Stats.Shards);

  BatchResult Merged;
  std::string Err;
  ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
  EXPECT_EQ(Merged.renderJson(), Swept.renderJson());
  EXPECT_EQ(Merged.renderJson(),
            sweepJson(Cores, Kernels, smallConfig(1, TierMode::Full)));
}

TEST(TieredDiff, TwoSliceMergesEqualTheDirectSweep) {
  // Each slice of a sliced sweep decides every tier question on the
  // benchmark's whole layout, so two emitted slices merge to the direct
  // sweep's report. The first shard of sparse cancellation is clean: a
  // confirm slice that judged only its own shards would clear the
  // benchmark there while the other slice confirms it.
  std::vector<fpcore::Core> Cores;
  Cores.push_back(sparseCancellationCore());
  Cores.push_back(benignCore());
  Cores.push_back(cancellingCore());
  std::vector<native::Kernel> Kernels = randomKernels(0x7070, 2);
  for (TierMode Tier : {TierMode::Full, TierMode::Confirm, TierMode::Fast}) {
    for (unsigned Jobs : {1u, 4u}) {
      EngineConfig Cfg = smallConfig(Jobs, Tier);
      Cfg.SamplesPerBenchmark = 32;
      Cfg.ShardSize = 2;
      std::vector<ShardDoc> Docs;
      const size_t Slices[][2] = {{0, 1}, {1, Cfg.ShardEnd}};
      for (const size_t *Range : Slices) {
        TempDir Emit("two-slice-" + std::to_string(Range[0]));
        EngineConfig Slice = Cfg;
        Slice.ShardBegin = Range[0];
        Slice.ShardEnd = Range[1];
        Slice.EmitShardDir = Emit.Path;
        ASSERT_EQ(Engine(Slice).run(Cores, Kernels).Stats.EmitFailures, 0u);
        ASSERT_TRUE(emitted::readShardsOf(Emit.Path, Docs));
      }
      BatchResult Merged;
      std::string Err;
      ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
      EXPECT_EQ(Merged.renderJson(), sweepJson(Cores, Kernels, Cfg))
          << tierModeName(Tier) << ", jobs " << Jobs;
    }
  }
}

TEST(TieredDiff, EmittedSegmentsNeverServeCacheLookups) {
  // A confirm sweep emits the empty records of the benchmarks it clears.
  // Were emitted documents keyed like cache entries, a full sweep whose
  // cache directory is the emit directory would fold those in place of
  // analyzing the cleared benchmarks.
  std::vector<fpcore::Core> Cores = randomCores(0x7030, 4);
  Cores.push_back(benignCore());
  std::vector<native::Kernel> Kernels = randomKernels(0x7030, 2);
  TempDir Emit("emit-nolookup");

  EngineConfig ConfCfg = smallConfig(2, TierMode::Confirm);
  ConfCfg.EmitShardDir = Emit.Path;
  BatchResult Conf = Engine(ConfCfg).run(Cores, Kernels);
  ASSERT_EQ(Conf.Stats.EmitFailures, 0u);
  ASSERT_LT(Conf.Stats.ConfirmedBenchmarks, Conf.Stats.Benchmarks);

  EngineConfig FullCfg = smallConfig(2, TierMode::Full);
  BatchResult Uncached = Engine(FullCfg).run(Cores, Kernels);
  FullCfg.CacheDir = Emit.Path;
  BatchResult OverEmit = Engine(FullCfg).run(Cores, Kernels);
  EXPECT_EQ(OverEmit.Stats.CachedShards, 0u);
  EXPECT_EQ(OverEmit.Stats.AnalyzedShards, OverEmit.Stats.Shards);
  EXPECT_EQ(OverEmit.renderJson(), Uncached.renderJson());
  // A clean benchmark's report is empty either way; its records are not.
  for (size_t B = 0; B < Uncached.Benchmarks.size(); ++B)
    EXPECT_EQ(OverEmit.Benchmarks[B].Records.Ops.size(),
              Uncached.Benchmarks[B].Records.Ops.size())
        << Uncached.Benchmarks[B].Name;
}

//===----------------------------------------------------------------------===//
// Fast tier: determinism and the subset contract
//===----------------------------------------------------------------------===//

TEST(TieredDiff, FastIsDeterministicAcrossWorkerCounts) {
  std::vector<fpcore::Core> Cores = randomCores(0x7040, 6);
  std::vector<native::Kernel> Kernels = randomKernels(0x7040, 3);
  std::string One = sweepJson(Cores, Kernels, smallConfig(1, TierMode::Fast));
  EXPECT_EQ(One, sweepJson(Cores, Kernels, smallConfig(4, TierMode::Fast)));
  EXPECT_EQ(One, sweepJson(Cores, Kernels, smallConfig(7, TierMode::Fast)));
}

TEST(TieredDiff, FastRootCausesAreSubsetOfFull) {
  for (uint64_t Seed : {0x7050ULL, 0x7051ULL}) {
    std::vector<fpcore::Core> Cores = randomCores(Seed, 6);
    std::vector<native::Kernel> Kernels = randomKernels(Seed, 3);
    BatchResult Full =
        Engine(smallConfig(2, TierMode::Full)).run(Cores, Kernels);
    BatchResult Fast =
        Engine(smallConfig(2, TierMode::Fast)).run(Cores, Kernels);
    auto FullSet = rootCauseSet(Full);
    auto FastSet = rootCauseSet(Fast);
    for (const auto &Entry : FastSet)
      EXPECT_TRUE(FullSet.count(Entry))
          << "seed " << Seed << ": fast-tier root cause (benchmark '"
          << Entry.first << "', spot " << Entry.second.first << ", op "
          << Entry.second.second << ") absent from the full sweep";
  }
}

TEST(TieredDiff, FastReportsEveryErroneousSpotFullReports) {
  // Predicate soundness at the report level: every erroneous spot the
  // full shadow finds must survive the fast tier's escalation filter
  // (fast analyzes only suspect runs, but a spot that is erroneous in
  // full mode has at least one suspect run by soundness).
  std::vector<fpcore::Core> Cores;
  Cores.push_back(cancellingCore());
  Cores.push_back(benignCore());
  BatchResult Full = Engine(smallConfig(1, TierMode::Full)).run(Cores);
  BatchResult Fast = Engine(smallConfig(1, TierMode::Fast)).run(Cores);
  ASSERT_EQ(Full.Benchmarks.size(), Fast.Benchmarks.size());
  for (size_t B = 0; B < Full.Benchmarks.size(); ++B) {
    std::set<uint32_t> FastSpots;
    for (const SpotReport &S : Fast.Benchmarks[B].Rep.Spots)
      FastSpots.insert(S.PC);
    for (const SpotReport &S : Full.Benchmarks[B].Rep.Spots)
      EXPECT_TRUE(FastSpots.count(S.PC))
          << Full.Benchmarks[B].Name << " spot " << S.PC;
  }
}

TEST(TieredDiff, FastCacheEntriesNeverAliasFull) {
  EngineConfig FullCfg = smallConfig(1, TierMode::Full);
  EngineConfig FastCfg = smallConfig(1, TierMode::Fast);
  EXPECT_NE(configHash(FullCfg), configHash(FastCfg));

  // A warm fast-tier cache satisfies fast-tier sweeps but never a full
  // sweep of the same configuration.
  std::vector<fpcore::Core> Cores = randomCores(0x7060, 3);
  TempDir Cache("fastcache");
  FastCfg.CacheDir = Cache.Path;
  FullCfg.CacheDir = Cache.Path;
  BatchResult FastCold = Engine(FastCfg).run(Cores);
  EXPECT_GT(FastCold.Stats.AnalyzedShards, 0u);
  BatchResult FastWarm = Engine(FastCfg).run(Cores);
  EXPECT_EQ(FastWarm.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(FastCold.renderJson(), FastWarm.renderJson());
  BatchResult Full = Engine(FullCfg).run(Cores);
  EXPECT_EQ(Full.Stats.ResultCacheHits, 0u);
}

//===----------------------------------------------------------------------===//
// Tier accounting
//===----------------------------------------------------------------------===//

TEST(TieredStats, CleanBenchmarkNeverTouchesTheFullShadow) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(benignCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Confirm)).run(Cores);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 0u);
  EXPECT_EQ(R.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(R.Stats.EscalatedRuns, 0u);
  EXPECT_GT(R.Stats.Tier0Runs, 0u);
  EXPECT_GT(R.Stats.Tier0Ops, 0u);
  // The skipped benchmark still reports its full layout...
  ASSERT_EQ(R.Benchmarks.size(), 1u);
  EXPECT_EQ(R.Benchmarks[0].Runs, 8u);
  EXPECT_EQ(R.Benchmarks[0].Shards, 3u);
  // ...and an empty report, exactly like the full sweep's.
  EXPECT_TRUE(R.Benchmarks[0].Rep.Spots.empty());
  EXPECT_EQ(R.renderJson(),
            Engine(smallConfig(2, TierMode::Full)).run(Cores).renderJson());
}

TEST(TieredStats, ErroneousBenchmarkConfirms) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(cancellingCore());
  Cores.push_back(benignCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Confirm)).run(Cores);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 1u);
  EXPECT_GT(R.Stats.EscalatedRuns, 0u);
  // Escalation stays strictly below the sweep: the benign benchmark's
  // runs never replay.
  EXPECT_LT(R.Stats.EscalatedRuns, R.Stats.Runs);
}

TEST(TieredStats, FullModeKeepsTierCountersAtZero) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(cancellingCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Full)).run(Cores);
  EXPECT_EQ(R.Stats.Tier0Runs, 0u);
  EXPECT_EQ(R.Stats.Tier0Ops, 0u);
  EXPECT_EQ(R.Stats.EscalatedRuns, 0u);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 0u);
}

TEST(TieredStats, FastEscalatesOnlySuspectRuns) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(benignCore());
  BatchResult R = Engine(smallConfig(1, TierMode::Fast)).run(Cores);
  EXPECT_EQ(R.Stats.EscalatedRuns, 0u);
  EXPECT_EQ(R.Stats.Tier0Runs, R.Stats.Runs);
  EXPECT_TRUE(R.Benchmarks[0].Rep.Spots.empty());
}

TEST(TieredStats, Tier0CountsDoNotDependOnScheduling) {
  // Confirm tier walks each benchmark's whole layout in ascending order
  // and stops at the first suspect run, so its tier-0 counts follow from
  // the program set alone. Over this range sparse cancellation mixes
  // clean and suspect shards, where the order shards run in could
  // otherwise change which of them tier 0 visits.
  std::vector<fpcore::Core> Mixed;
  Mixed.push_back(sparseCancellationCore());
  EngineConfig Cfg = smallConfig(1, TierMode::Confirm);
  Cfg.SamplesPerBenchmark = 32;
  Cfg.ShardSize = 2;

  // The oracle, which does not use the verdict walk: a fast-tier one-run
  // slice gives run K's tier-0 ops and escalates run K iff it is suspect.
  // A confirm sweep counts every run up to and including the first
  // suspect one.
  uint64_t WantRuns = 0, WantOps = 0;
  bool SeenSuspect = false;
  std::vector<bool> SuspectShard(16, false);
  for (size_t K = 0; K < 32; ++K) {
    EngineConfig OneRun = Cfg;
    OneRun.Tier = TierMode::Fast;
    OneRun.ShardSize = 1;
    OneRun.ShardBegin = K;
    OneRun.ShardEnd = K + 1;
    BatchResult R = Engine(OneRun).run(Mixed);
    ASSERT_EQ(R.Stats.Tier0Runs, 1u) << "run " << K;
    if (!SeenSuspect) {
      ++WantRuns;
      WantOps += R.Stats.Tier0Ops;
    }
    bool Suspect = R.Stats.EscalatedRuns > 0;
    SeenSuspect |= Suspect;
    if (Suspect)
      SuspectShard[K / 2] = true;
  }
  size_t FirstSuspect = static_cast<size_t>(
      std::find(SuspectShard.begin(), SuspectShard.end(), true) -
      SuspectShard.begin());
  size_t Suspects = static_cast<size_t>(
      std::count(SuspectShard.begin(), SuspectShard.end(), true));
  ASSERT_GT(FirstSuspect, 0u) << "the first shard must be clean";
  ASSERT_LT(FirstSuspect, 16u) << "some shard must be suspect";
  ASSERT_LT(Suspects, 16u - FirstSuspect) << "a later shard must be clean";

  // Every one-shard slice walks the whole layout too, so it counts the
  // same runs and confirms the benchmark.
  for (size_t K = 0; K < 16; ++K) {
    EngineConfig Slice = Cfg;
    Slice.ShardBegin = K;
    Slice.ShardEnd = K + 1;
    BatchResult R = Engine(Slice).run(Mixed);
    EXPECT_EQ(R.Stats.Tier0Runs, WantRuns) << "slice " << K;
    EXPECT_EQ(R.Stats.Tier0Ops, WantOps) << "slice " << K;
    EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 1u) << "slice " << K;
  }

  std::vector<fpcore::Core> Set;
  Set.push_back(Mixed[0].clone());
  Set.push_back(benignCore());
  Set.push_back(cancellingCore());
  Set.push_back(Mixed[0].clone());
  Cfg.Jobs = 1;
  BatchResult SetOne = Engine(Cfg).run(Set);
  for (unsigned Jobs : {1u, 2u, 4u, 4u}) {
    Cfg.Jobs = Jobs;
    BatchResult R = Engine(Cfg).run(Mixed);
    EXPECT_EQ(R.Stats.Tier0Runs, WantRuns) << "jobs " << Jobs;
    EXPECT_EQ(R.Stats.Tier0Ops, WantOps) << "jobs " << Jobs;
    BatchResult S = Engine(Cfg).run(Set);
    EXPECT_EQ(S.Stats.Tier0Runs, SetOne.Stats.Tier0Runs) << "jobs " << Jobs;
    EXPECT_EQ(S.Stats.Tier0Ops, SetOne.Stats.Tier0Ops) << "jobs " << Jobs;
    EXPECT_EQ(S.renderJson(), SetOne.renderJson()) << "jobs " << Jobs;
  }
}
