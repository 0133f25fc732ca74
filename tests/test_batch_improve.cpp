//===- tests/test_batch_improve.cpp - Corpus-wide repair pass tests -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The batch improver's contract: (1) outcomes attach to every reported
// root cause and are byte-identical across worker counts; (2) improving
// a report rebuilt from merged shard documents is byte-identical to
// improving the equivalent live sweep, at --jobs 1 and --jobs 4; (3)
// outcomes persist and reload through engine::ResultCache, with the
// improver config folded into the entry identity so changed settings
// invalidate instead of silently reusing.
//
//===----------------------------------------------------------------------===//

#include "EmittedSegment.h"

#include "engine/ResultCache.h"
#include "fpcore/Corpus.h"
#include "improve/BatchImprove.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

using namespace herbgrind;
using namespace herbgrind::engine;
using namespace herbgrind::improve;

namespace {

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-improve-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

/// Benchmarks with reliably erroneous spots at small sample counts (the
/// paper's NMSE family), so the improver always has candidates.
std::vector<fpcore::Core> erroneousBenchmarks() {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus())
    if (C.Name == "NMSE example 3.1" || C.Name == "NMSE example 3.3" ||
        C.Name == "NMSE problem 3.3.3")
      Cores.push_back(C.clone());
  return Cores;
}

EngineConfig smallConfig(unsigned Jobs) {
  EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 4;
  return Cfg;
}

BatchImproveConfig smallImprove(unsigned Jobs) {
  BatchImproveConfig BCfg;
  BCfg.Jobs = Jobs;
  BCfg.Improve.SampleCount = 48;
  return BCfg;
}

uint64_t totalCandidates(const BatchResult &R) {
  uint64_t N = 0;
  for (const BenchmarkResult &BR : R.Benchmarks)
    N += BR.Rep.Improvements.size();
  return N;
}

} // namespace

TEST(BatchImprove, AttachesOutcomesForEveryRootCauseJobsInvariantly) {
  std::vector<fpcore::Core> Cores = erroneousBenchmarks();
  ASSERT_GE(Cores.size(), 2u);

  BatchResult One = Engine(smallConfig(1)).run(Cores);
  BatchImproveStats S1 = batchImprove(One, smallImprove(1));
  BatchResult Four = Engine(smallConfig(4)).run(Cores);
  BatchImproveStats S4 = batchImprove(Four, smallImprove(4));

  EXPECT_GT(S1.Candidates, 0u);
  EXPECT_GT(S1.Improved, 0u);
  EXPECT_EQ(S1.Candidates, S4.Candidates);
  EXPECT_EQ(S1.Improved, S4.Improved);
  EXPECT_EQ(One.renderJson(), Four.renderJson());

  // Every reported root cause got an outcome, in ascending pc order.
  for (const BenchmarkResult &BR : One.Benchmarks) {
    EXPECT_EQ(BR.Rep.Improvements.size(), BR.Rep.allRootCauses().size())
        << BR.Name;
    for (size_t I = 1; I < BR.Rep.Improvements.size(); ++I)
      EXPECT_LT(BR.Rep.Improvements[I - 1].PC, BR.Rep.Improvements[I].PC);
    for (const ImproveRecord &IR : BR.Rep.Improvements) {
      EXPECT_FALSE(IR.Original.empty()) << BR.Name;
      EXPECT_TRUE(std::isfinite(IR.ErrorBefore)) << BR.Name;
      EXPECT_TRUE(std::isfinite(IR.ErrorAfter)) << BR.Name;
      if (IR.Improved) {
        EXPECT_FALSE(IR.Rewritten.empty()) << BR.Name;
        EXPECT_LT(IR.ErrorAfter, IR.ErrorBefore) << BR.Name;
      }
    }
  }

  // The flagship Section 8.1 case: sqrt(x+1) - sqrt(x) gets rationalized.
  const BenchmarkResult *NMSE31 = nullptr;
  for (const BenchmarkResult &BR : One.Benchmarks)
    if (BR.Name == "NMSE example 3.1")
      NMSE31 = &BR;
  ASSERT_NE(NMSE31, nullptr);
  ASSERT_FALSE(NMSE31->Rep.Improvements.empty());
  EXPECT_TRUE(NMSE31->Rep.Improvements[0].Improved);
  EXPECT_TRUE(NMSE31->Rep.Improvements[0].HadSignificantError);
}

TEST(BatchImprove, MergedShardDocumentsImproveByteIdenticallyToLiveSweep) {
  std::vector<fpcore::Core> Cores = erroneousBenchmarks();
  ASSERT_GE(Cores.size(), 2u);

  // The reference: a live sweep plus the improver pass, at jobs 1.
  BatchResult Direct = Engine(smallConfig(1)).run(Cores);
  batchImprove(Direct, smallImprove(1));
  std::string Reference = Direct.renderJson();

  // Two "machines" emit disjoint shard ranges (two shards/benchmark).
  TempDir DirA("emitA"), DirB("emitB");
  EngineConfig CfgA = smallConfig(2);
  CfgA.ShardBegin = 0;
  CfgA.ShardEnd = 1;
  CfgA.EmitShardDir = DirA.Path;
  Engine(CfgA).run(Cores);
  EngineConfig CfgB = smallConfig(2);
  CfgB.ShardBegin = 1;
  CfgB.EmitShardDir = DirB.Path;
  Engine(CfgB).run(Cores);

  std::vector<ShardDoc> Docs;
  for (const std::string &Dir : {DirA.Path, DirB.Path})
    ASSERT_TRUE(emitted::readShardsOf(Dir, Docs));
  ASSERT_EQ(Docs.size(), Cores.size() * 2);

  // Merged + improved must reproduce the live bytes at any jobs count.
  for (unsigned Jobs : {1u, 4u}) {
    std::vector<ShardDoc> Copy;
    for (const ShardDoc &D : Docs) {
      ShardDoc C;
      C.ConfigHash = D.ConfigHash;
      C.Benchmark = D.Benchmark;
      C.BenchIndex = D.BenchIndex;
      C.ShardIndex = D.ShardIndex;
      C.RunBegin = D.RunBegin;
      C.RunEnd = D.RunEnd;
      C.RunTotal = D.RunTotal;
      C.Result = D.Result.clone();
      Copy.push_back(std::move(C));
    }
    BatchResult Merged;
    std::string Err;
    ASSERT_TRUE(mergeShards(std::move(Copy), Merged, Err)) << Err;
    batchImprove(Merged, smallImprove(Jobs));
    EXPECT_EQ(Merged.renderJson(), Reference) << "jobs " << Jobs;
  }
}

TEST(BatchImprove, OutcomesPersistAndReloadThroughResultCache) {
  std::vector<fpcore::Core> Cores = erroneousBenchmarks();
  TempDir Cache("cache");
  EngineConfig Cfg = smallConfig(2);
  std::string Hash = configHash(Cfg);

  BatchResult Cold = Engine(Cfg).run(Cores);
  ResultCache RC1(Cache.Path, Hash);
  BatchImproveStats SCold = batchImprove(Cold, smallImprove(2), &RC1);
  EXPECT_GT(SCold.AnalyzedRecords, 0u);
  EXPECT_EQ(SCold.CachedRecords, 0u);
  EXPECT_EQ(SCold.AnalyzedRecords, totalCandidates(Cold));

  // A second pass -- fresh engine, fresh cache object, same directory --
  // must satisfy every record from the cache and emit identical bytes.
  BatchResult Warm = Engine(Cfg).run(Cores);
  ResultCache RC2(Cache.Path, Hash);
  BatchImproveStats SWarm = batchImprove(Warm, smallImprove(2), &RC2);
  EXPECT_EQ(SWarm.AnalyzedRecords, 0u);
  EXPECT_EQ(SWarm.CachedRecords, totalCandidates(Warm));
  EXPECT_EQ(Warm.renderJson(), Cold.renderJson());

  // A changed improver configuration must invalidate, never reuse: the
  // improver-config hash is part of every entry's identity.
  BatchResult Changed = Engine(Cfg).run(Cores);
  BatchImproveConfig Other = smallImprove(2);
  Other.Improve.SampleCount = 96;
  ResultCache RC3(Cache.Path, Hash);
  BatchImproveStats SOther = batchImprove(Changed, Other, &RC3);
  EXPECT_EQ(SOther.CachedRecords, 0u);
  EXPECT_EQ(SOther.AnalyzedRecords, totalCandidates(Changed));
}

TEST(BatchImprove, StoreFailuresAreCountedNotSwallowed) {
  std::vector<fpcore::Core> Cores = erroneousBenchmarks();
  EngineConfig Cfg = smallConfig(2);
  BatchResult R = Engine(Cfg).run(Cores);
  // A cache opened on a regular file: no lookup hits, no outcome persists.
  TempDir Dir("store-fail");
  std::string File = Dir.Path + "/not-a-dir";
  std::ofstream(File, std::ios::binary) << "x";
  ResultCache RC(File, configHash(Cfg));
  BatchImproveStats S = batchImprove(R, smallImprove(2), &RC);
  EXPECT_GT(S.AnalyzedRecords, 0u);
  EXPECT_EQ(S.StoreFailures, S.AnalyzedRecords);
  EXPECT_EQ(RC.storeFailures(), S.StoreFailures);
}

TEST(BatchImprove, ImproveConfigHashSeparatesEveryKnob) {
  ImproveConfig Base;
  std::vector<std::string> Hashes;
  Hashes.push_back(improveConfigHash(Base));
  ImproveConfig C = Base;
  C.SampleCount = 128;
  Hashes.push_back(improveConfigHash(C));
  C = Base;
  C.PrecBits = 128;
  Hashes.push_back(improveConfigHash(C));
  C = Base;
  C.Seed = 1;
  Hashes.push_back(improveConfigHash(C));
  C = Base;
  C.MinImprovementBits = 0.5;
  Hashes.push_back(improveConfigHash(C));
  C = Base;
  C.SignificantErrorBits = 10.0;
  Hashes.push_back(improveConfigHash(C));
  C = Base;
  C.MaxRounds = 1;
  Hashes.push_back(improveConfigHash(C));
  for (size_t I = 0; I < Hashes.size(); ++I)
    for (size_t J = I + 1; J < Hashes.size(); ++J)
      EXPECT_NE(Hashes[I], Hashes[J]) << I << " vs " << J;
}

TEST(BatchImprove, CacheEntriesValidateFullIdentity) {
  TempDir Cache("validate");
  ResultCache RC(Cache.Path, "feedbeef00000000");
  ResultCache::ImproveKey Key;
  Key.ExprIdentity = "(- (sqrt (+ x 1)) (sqrt x))";
  Key.SpecIdentity = "[1,1000000000]";
  Key.ImproveHash = improveConfigHash(ImproveConfig{});

  ImproveRecord Rec;
  Rec.Original = Key.ExprIdentity;
  Rec.Rewritten = "(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))";
  Rec.ErrorBefore = 23.5;
  Rec.ErrorAfter = 0.25;
  Rec.HadSignificantError = true;
  Rec.Improved = true;
  RC.storeImprove(Key, Rec);

  ImproveRecord Out;
  ASSERT_TRUE(RC.lookupImprove(Key, Out));
  EXPECT_EQ(Out.Rewritten, Rec.Rewritten);
  EXPECT_EQ(Out.ErrorBefore, Rec.ErrorBefore);
  EXPECT_TRUE(Out.Improved);

  // Any identity component mismatch is a miss, not a wrong answer.
  ResultCache::ImproveKey Wrong = Key;
  Wrong.ImproveHash += "|x";
  EXPECT_FALSE(RC.lookupImprove(Wrong, Out));
  Wrong = Key;
  Wrong.SpecIdentity = "[0,1]";
  EXPECT_FALSE(RC.lookupImprove(Wrong, Out));
  ResultCache Foreign(Cache.Path, "0123456789abcdef");
  EXPECT_FALSE(Foreign.lookupImprove(Key, Out));

  // Corrupt entries read as absent, never as errors.
  {
    std::ofstream Trunc(RC.improveEntryPath(Key),
                        std::ios::binary | std::ios::trunc);
    Trunc << "{\"format\":\"herbgrind-improve\"";
  }
  EXPECT_FALSE(RC.lookupImprove(Key, Out));

  // The GC treats improve entries as cache contents: a zero cap removes
  // them with everything else.
  RC.storeImprove(Key, Rec);
  CacheGcStats Stats;
  std::string Err;
  ASSERT_TRUE(gcCacheDir(Cache.Path, 0, Stats, Err)) << Err;
  EXPECT_GT(Stats.PrunedEntries, 0u);
  EXPECT_FALSE(RC.lookupImprove(Key, Out));
}
