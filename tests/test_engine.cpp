//===- tests/test_engine.cpp - Batch engine & record merging --------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The batch engine's contract: (1) merging per-shard records in shard
// order reproduces what one analysis running every round sequentially
// records -- exactly, for programs whose shards disagree only at trace
// leaves; (2) expression merging is associative, and commutative up to
// variable renaming; (3) empty and single-operation shards merge
// correctly; (4) the engine's output is byte-identical at any worker
// count and shard size.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/ThreadPool.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/FloatBits.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

/// (x + 1) - x: the canonical catastrophic-cancellation kernel.
Program cancellationKernel() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(T);
  B.halt();
  return B.finish();
}

/// (a + 1) - b on two inputs.
Program twoInputKernel() {
  ProgramBuilder B;
  auto A = B.input(0);
  auto C = B.input(1);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, A, B.constF64(1.0)), C);
  B.out(T);
  B.halt();
  return B.finish();
}

AnalysisResult analyzeChunk(const Program &P,
                            const std::vector<std::vector<double>> &Inputs,
                            size_t Begin, size_t End) {
  Herbgrind HG(P);
  for (size_t I = Begin; I < End; ++I)
    HG.runOnInput(Inputs[I]);
  return HG.snapshot();
}

/// Variable-order-independent rendering: variables renamed in DFS
/// first-occurrence order.
std::string canonicalBody(const SymExpr *E,
                          std::map<uint32_t, uint32_t> &Renaming) {
  switch (E->Kind) {
  case SymExpr::SEKind::Var: {
    auto It = Renaming.emplace(E->VarIdx,
                               static_cast<uint32_t>(Renaming.size()));
    return format("v%u", It.first->second);
  }
  case SymExpr::SEKind::Const:
    return formatDoubleShortest(E->ConstVal);
  case SymExpr::SEKind::Op: {
    std::string S = "(" + std::to_string(static_cast<unsigned>(E->Op));
    for (const auto &Kid : E->Kids)
      S += " " + canonicalBody(Kid.get(), Renaming);
    return S + ")";
  }
  }
  return "?";
}

std::string canonicalBody(const SymExpr *E) {
  std::map<uint32_t, uint32_t> Renaming;
  return canonicalBody(E, Renaming);
}

void expectSummariesEqual(const VarSummary &A, const VarSummary &B,
                          const std::string &Ctx) {
  EXPECT_EQ(A.Count, B.Count) << Ctx;
  EXPECT_EQ(A.SawNaN, B.SawNaN) << Ctx;
  EXPECT_EQ(A.SawZero, B.SawZero) << Ctx;
  EXPECT_EQ(A.HasRange, B.HasRange) << Ctx;
  if (A.HasRange && B.HasRange) {
    EXPECT_EQ(bitsOfDouble(A.Lo), bitsOfDouble(B.Lo)) << Ctx;
    EXPECT_EQ(bitsOfDouble(A.Hi), bitsOfDouble(B.Hi)) << Ctx;
    EXPECT_EQ(bitsOfDouble(A.Example), bitsOfDouble(B.Example)) << Ctx;
  }
}

/// Strict equality of a merged result against the sequential reference:
/// identical expressions (including variable numbering), counters, input
/// summaries, and rendered reports. Statistic sums may differ in the last
/// ulp because merging adds per-shard subtotals.
void expectMatchesSequential(const AnalysisResult &Merged,
                             const Herbgrind &Seq, const std::string &Ctx) {
  const auto &SeqOps = Seq.opRecords();
  ASSERT_EQ(Merged.Ops.size(), SeqOps.size()) << Ctx;
  for (const auto &[PC, SeqRec] : SeqOps) {
    ASSERT_TRUE(Merged.Ops.count(PC)) << Ctx << " pc " << PC;
    const OpRecord &M = Merged.Ops.at(PC);
    std::string OpCtx = Ctx + " pc " + std::to_string(PC);
    EXPECT_EQ(M.Executions, SeqRec.Executions) << OpCtx;
    EXPECT_EQ(M.Flagged, SeqRec.Flagged) << OpCtx;
    EXPECT_EQ(M.LocalError.count(), SeqRec.LocalError.count()) << OpCtx;
    EXPECT_EQ(M.LocalError.max(), SeqRec.LocalError.max()) << OpCtx;
    EXPECT_NEAR(M.LocalError.mean(), SeqRec.LocalError.mean(),
                1e-9 * (1.0 + std::fabs(SeqRec.LocalError.mean())))
        << OpCtx;
    ASSERT_TRUE(M.Expr && SeqRec.Expr) << OpCtx;
    EXPECT_EQ(M.Expr->fpcoreBody(), SeqRec.Expr->fpcoreBody()) << OpCtx;
    uint32_t NumVars = SeqRec.Expr->numVars();
    for (uint32_t V = 0; V < NumVars; ++V) {
      expectSummariesEqual(M.TotalInputs.var(V), SeqRec.TotalInputs.var(V),
                           OpCtx + " total v" + std::to_string(V));
      expectSummariesEqual(M.ProblematicInputs.var(V),
                           SeqRec.ProblematicInputs.var(V),
                           OpCtx + " prob v" + std::to_string(V));
    }
  }
  ASSERT_EQ(Merged.Spots.size(), Seq.spotRecords().size()) << Ctx;
  for (const auto &[PC, SeqSpot] : Seq.spotRecords()) {
    ASSERT_TRUE(Merged.Spots.count(PC)) << Ctx;
    const SpotRecord &M = Merged.Spots.at(PC);
    EXPECT_EQ(M.Executions, SeqSpot.Executions) << Ctx;
    EXPECT_EQ(M.Erroneous, SeqSpot.Erroneous) << Ctx;
    EXPECT_EQ(M.InfluencingOps, SeqSpot.InfluencingOps) << Ctx;
  }
  EXPECT_EQ(buildReport(Merged).render(), buildReport(Seq).render()) << Ctx;
}

/// Loop- and branch-free cores have one trace shape per site, which is
/// the regime where shard merging is exactly lossless.
bool isStraightLineCore(const fpcore::Expr &E) {
  if (E.K == fpcore::Expr::Kind::While || E.K == fpcore::Expr::Kind::If)
    return false;
  for (const auto &A : E.Args)
    if (!isStraightLineCore(*A))
      return false;
  for (const auto &A : E.Inits)
    if (!isStraightLineCore(*A))
      return false;
  return true;
}

std::vector<std::vector<double>> sampleFor(const fpcore::Core &C, int Count,
                                           uint64_t Seed) {
  Rng R(Seed);
  std::vector<fpcore::VarRange> Ranges = fpcore::sampleRanges(C);
  std::vector<std::vector<double>> Sets;
  for (int I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const fpcore::VarRange &VR : Ranges)
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

} // namespace

//===----------------------------------------------------------------------===//
// Summaries
//===----------------------------------------------------------------------===//

TEST(VarSummary, AddRepeatedMatchesRepeatedAdd) {
  for (double V : {3.25, -7.5, 0.0, std::nan("")}) {
    VarSummary Bulk, Loop;
    Bulk.add(1.0);
    Loop.add(1.0);
    Bulk.addRepeated(V, 5);
    for (int I = 0; I < 5; ++I)
      Loop.add(V);
    EXPECT_EQ(Bulk.Count, Loop.Count);
    EXPECT_EQ(Bulk.SawNaN, Loop.SawNaN);
    EXPECT_EQ(Bulk.SawZero, Loop.SawZero);
    EXPECT_EQ(Bulk.Lo, Loop.Lo);
    EXPECT_EQ(Bulk.Hi, Loop.Hi);
  }
  VarSummary Empty;
  Empty.addRepeated(2.0, 0);
  EXPECT_EQ(Empty.Count, 0u);
}

//===----------------------------------------------------------------------===//
// Shard merging reproduces sequential analysis
//===----------------------------------------------------------------------===//

TEST(RecordMerge, TwoShardsMatchSequential) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xbeef);
  for (int I = 0; I < 8; ++I)
    Inputs.push_back({R.betweenOrdinals(1.0, 1e16)});

  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 4);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 4, 8));
  expectMatchesSequential(Merged, Seq, "cancellation");
}

TEST(RecordMerge, ConstantPromotionOrderMatchesSequential) {
  // Shard A sees a single round (everything constant). In shard B the
  // second input varies from its first round on, while the first input
  // only varies later. Sequential processing therefore numbers the second
  // input's variable before the first's; the merge must reproduce that
  // from the records alone.
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs = {
      {4.0e15, 7.0}, // shard A
      {4.0e15, 9.0}, // shard B: b varies immediately...
      {4.0e15, 11.0},
      {6.0e15, 13.0}, // ...a only on B's third round
  };
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 4));
  expectMatchesSequential(Merged, Seq, "promotion-order");
}

TEST(RecordMerge, UnevenShardsMatchSequential) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0x5eed);
  for (int I = 0; I < 9; ++I)
    Inputs.push_back({R.betweenOrdinals(1e10, 1e16),
                      R.betweenOrdinals(-100.0, 100.0)});
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  // 1 + 5 + 3 rounds.
  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 6));
  Merged.mergeFrom(analyzeChunk(P, Inputs, 6, 9));
  expectMatchesSequential(Merged, Seq, "uneven");
}

TEST(RecordMerge, StraightLineCorpusShardsMatchSequential) {
  int Tested = 0;
  for (size_t BI = 0; BI < fpcore::corpus().size() && Tested < 12; ++BI) {
    const fpcore::Core &C = fpcore::corpus()[BI];
    if (!fpcore::isCompilable(C) || !isStraightLineCore(*C.Body))
      continue;
    ++Tested;
    Program P = fpcore::compile(C);
    auto Inputs = sampleFor(C, 12, 0x1234 + BI);

    Herbgrind Seq(P);
    for (const auto &In : Inputs)
      Seq.runOnInput(In);

    AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 4);
    Merged.mergeFrom(analyzeChunk(P, Inputs, 4, 8));
    Merged.mergeFrom(analyzeChunk(P, Inputs, 8, 12));
    expectMatchesSequential(Merged, Seq, C.Name);
  }
  EXPECT_GE(Tested, 8);
}

//===----------------------------------------------------------------------===//
// Algebraic properties of the merge
//===----------------------------------------------------------------------===//

TEST(RecordMerge, MergeIsAssociative) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xa550c);
  for (int I = 0; I < 12; ++I)
    Inputs.push_back({R.betweenOrdinals(1e12, 1e16),
                      R.betweenOrdinals(-10.0, 10.0)});

  AnalysisResult S1 = analyzeChunk(P, Inputs, 0, 4);
  AnalysisResult S2 = analyzeChunk(P, Inputs, 4, 8);
  AnalysisResult S3 = analyzeChunk(P, Inputs, 8, 12);

  AnalysisResult Left = S1.clone();
  Left.mergeFrom(S2);
  Left.mergeFrom(S3);

  AnalysisResult RightTail = S2.clone();
  RightTail.mergeFrom(S3);
  AnalysisResult Right = S1.clone();
  Right.mergeFrom(RightTail);

  EXPECT_EQ(buildReport(Left).renderJson(), buildReport(Right).renderJson());
  for (const auto &[PC, Rec] : Left.Ops) {
    ASSERT_TRUE(Right.Ops.count(PC));
    EXPECT_EQ(Rec.Expr->fpcoreBody(), Right.Ops.at(PC).Expr->fpcoreBody());
    EXPECT_EQ(Rec.Executions, Right.Ops.at(PC).Executions);
    EXPECT_EQ(Rec.Flagged, Right.Ops.at(PC).Flagged);
  }
}

TEST(RecordMerge, MergeIsCommutativeUpToRenaming) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xc0ffee);
  for (int I = 0; I < 8; ++I)
    Inputs.push_back({R.betweenOrdinals(1e12, 1e16),
                      R.betweenOrdinals(-10.0, 10.0)});

  AnalysisResult S1 = analyzeChunk(P, Inputs, 0, 4);
  AnalysisResult S2 = analyzeChunk(P, Inputs, 4, 8);

  AnalysisResult AB = S1.clone();
  AB.mergeFrom(S2);
  AnalysisResult BA = S2.clone();
  BA.mergeFrom(S1);

  ASSERT_EQ(AB.Ops.size(), BA.Ops.size());
  for (const auto &[PC, Rec] : AB.Ops) {
    ASSERT_TRUE(BA.Ops.count(PC));
    const OpRecord &Other = BA.Ops.at(PC);
    // Same structure modulo variable names, same aggregates.
    EXPECT_EQ(canonicalBody(Rec.Expr.get()),
              canonicalBody(Other.Expr.get()));
    EXPECT_EQ(Rec.Executions, Other.Executions);
    EXPECT_EQ(Rec.Flagged, Other.Flagged);
    EXPECT_EQ(Rec.LocalError.max(), Other.LocalError.max());
  }
}

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(RecordMerge, EmptyShardIsIdentity) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}};
  AnalysisResult Full = analyzeChunk(P, Inputs, 0, 2);
  std::string Before = buildReport(Full).renderJson();

  Herbgrind Idle(P); // constructed but never run
  AnalysisResult Empty = Idle.snapshot();
  EXPECT_TRUE(Empty.Ops.empty());
  EXPECT_TRUE(Empty.Spots.empty());

  // empty . full == full
  AnalysisResult Left = Empty.clone();
  Left.mergeFrom(Full);
  EXPECT_EQ(buildReport(Left).renderJson(), Before);

  // full . empty == full
  AnalysisResult Right = Full.clone();
  Right.mergeFrom(Empty);
  EXPECT_EQ(buildReport(Right).renderJson(), Before);
}

TEST(RecordMerge, SingleOpSingleRoundShards) {
  // One operation, one round per shard: the smallest nontrivial merge.
  ProgramBuilder B;
  auto X = B.input(0);
  B.out(B.op(Opcode::AddF64, X, B.constF64(1.0)));
  B.halt();
  Program P = B.finish();

  std::vector<std::vector<double>> Inputs = {{2.0}, {3.0}, {5.0}};
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 2));
  Merged.mergeFrom(analyzeChunk(P, Inputs, 2, 3));
  expectMatchesSequential(Merged, Seq, "single-op");

  // The lone add's expression generalized its varying leaf.
  bool SawAdd = false;
  for (const auto &[PC, Rec] : Merged.Ops)
    if (Rec.Op == Opcode::AddF64) {
      SawAdd = true;
      EXPECT_EQ(Rec.Executions, 3u);
      EXPECT_EQ(Rec.Expr->numVars(), 1u);
      EXPECT_EQ(Rec.TotalInputs.var(0).Count, 3u);
    }
  EXPECT_TRUE(SawAdd);
}

//===----------------------------------------------------------------------===//
// The thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskAcrossWorkers) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.workers(), 4u);
    for (int I = 0; I < 200; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.waitAll();
    EXPECT_EQ(Count.load(), 200);
    // Reusable after a drain.
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.waitAll();
  }
  EXPECT_EQ(Count.load(), 210);
}

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

namespace {

/// Replaces every "avgLocalError":<number> with a placeholder (see
/// ShardSizeDoesNotChangeStraightLineReports for why).
std::string stripAverages(const std::string &Json) {
  std::string Out;
  size_t Pos = 0;
  const std::string Key = "\"avgLocalError\":";
  for (;;) {
    size_t Hit = Json.find(Key, Pos);
    if (Hit == std::string::npos) {
      Out += Json.substr(Pos);
      return Out;
    }
    Hit += Key.size();
    Out += Json.substr(Pos, Hit - Pos);
    Out += "<avg>";
    Pos = Json.find_first_of(",}", Hit);
  }
}

std::vector<fpcore::Core> smallCorpusSubset(size_t MaxBenchmarks) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= MaxBenchmarks)
      break;
  }
  return Cores;
}

} // namespace

TEST(Engine, OutputIsIdenticalAtAnyWorkerCount) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(10);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 3;

  Cfg.Jobs = 1;
  std::string One = Engine(Cfg).run(Cores).renderJson();
  Cfg.Jobs = 4;
  std::string Four = Engine(Cfg).run(Cores).renderJson();
  Cfg.Jobs = 7;
  std::string Seven = Engine(Cfg).run(Cores).renderJson();

  EXPECT_EQ(One, Four);
  EXPECT_EQ(One, Seven);

  // And repeated runs are stable.
  Cfg.Jobs = 4;
  EXPECT_EQ(Four, Engine(Cfg).run(Cores).renderJson());
}

TEST(Engine, ShardSizeDoesNotChangeStraightLineReports) {
  // For loop-free benchmarks shard merging is lossless, so the shard
  // granularity must not be observable either: many small shards produce
  // the same report as one big shard per benchmark.
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C) || !isStraightLineCore(*C.Body))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= 8)
      break;
  }
  ASSERT_GE(Cores.size(), 4u);

  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 10;
  Cfg.Jobs = 2;

  Cfg.ShardSize = 2;
  BatchResult Fine = Engine(Cfg).run(Cores);
  Cfg.ShardSize = 10;
  BatchResult Coarse = Engine(Cfg).run(Cores);

  ASSERT_EQ(Fine.Benchmarks.size(), Coarse.Benchmarks.size());
  for (size_t I = 0; I < Fine.Benchmarks.size(); ++I) {
    // Averages are sums of per-round errors; regrouping the rounds may
    // reassociate the addition and move the last ulp, so compare them
    // numerically and everything else byte-for-byte.
    EXPECT_EQ(stripAverages(Fine.Benchmarks[I].Rep.renderJson()),
              stripAverages(Coarse.Benchmarks[I].Rep.renderJson()))
        << Fine.Benchmarks[I].Name;
    const Report &FR = Fine.Benchmarks[I].Rep;
    const Report &CR = Coarse.Benchmarks[I].Rep;
    ASSERT_EQ(FR.Spots.size(), CR.Spots.size());
    for (size_t S = 0; S < FR.Spots.size(); ++S) {
      ASSERT_EQ(FR.Spots[S].RootCauses.size(), CR.Spots[S].RootCauses.size());
      for (size_t C = 0; C < FR.Spots[S].RootCauses.size(); ++C)
        EXPECT_NEAR(FR.Spots[S].RootCauses[C].AvgLocalError,
                    CR.Spots[S].RootCauses[C].AvgLocalError, 1e-9);
    }
    EXPECT_EQ(Fine.Benchmarks[I].Shards, 5u);
    EXPECT_EQ(Coarse.Benchmarks[I].Shards, 1u);
  }
}

TEST(Engine, ProgramCacheCompilesEachBenchmarkOnce) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(6);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 2; // 4 shards per benchmark
  Cfg.Jobs = 3;
  Engine Eng(Cfg);
  BatchResult R = Eng.run(Cores);
  EXPECT_EQ(R.Stats.CacheMisses, Cores.size());
  EXPECT_EQ(R.Stats.CacheHits, R.Stats.Shards - Cores.size());

  // A second run over the same cores hits the cache for every shard.
  BatchResult R2 = Eng.run(Cores);
  EXPECT_EQ(R2.Stats.CacheMisses, 0u);
  EXPECT_EQ(R2.Stats.CacheHits, R2.Stats.Shards);
}

TEST(Engine, StatsAndStructureAreConsistent) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(5);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 7;
  Cfg.ShardSize = 3;
  Cfg.Jobs = 2;
  BatchResult R = Engine(Cfg).run(Cores);

  EXPECT_EQ(R.Stats.Benchmarks, Cores.size());
  EXPECT_EQ(R.Benchmarks.size(), Cores.size());
  for (const BenchmarkResult &BR : R.Benchmarks) {
    EXPECT_EQ(BR.Runs, 7u);
    EXPECT_EQ(BR.Shards, 3u); // 3 + 3 + 1
    EXPECT_FALSE(BR.Rep.render().empty());
  }
  EXPECT_EQ(R.Stats.Runs, 7u * Cores.size());
  EXPECT_FALSE(R.renderJson().empty());
}
