//===- tests/test_batched.cpp - Sample-batched evaluation -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The batched hot path's contract (docs/ARCHITECTURE.md, "Batched
// evaluation"): processing N sample points per analyzer call is purely a
// scheduling change. (1) Herbgrind::runOnBatch leaves records, verdicts,
// and outputs byte-for-byte equal to N sequential runOnInput calls, in
// full and predicate-only mode alike; (2) engine sweeps render identical
// JSON at every --batch value, across jobs counts, tiers, frontends, and
// non-divisor batch/shard remainders; (3) fpcore::evalDoubleBatch is
// bitwise equal to evalDouble, including the If/Let/While scalar
// fallbacks.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"
#include "fpcore/Eval.h"
#include "herbgrind/Herbgrind.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace herbgrind;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Sampled input tuples for a compiled core, matching the engine's
/// deterministic per-benchmark sampling shape (the exact stream does not
/// matter here -- only that batch and scalar legs see the same one).
std::vector<std::vector<double>> sampleInputs(const fpcore::Core &C,
                                              size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Sets;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

/// Renders the analyzer's accumulated records as the comparison string.
std::string reportOf(const Herbgrind &HG) {
  return buildReport(HG.snapshot()).renderJson();
}

//===----------------------------------------------------------------------===//
// runOnBatch vs. sequential runOnInput
//===----------------------------------------------------------------------===//

/// Every corpus benchmark, full shadow: batched records, final verdict,
/// and final outputs must equal the sequential loop's, at lane counts
/// that divide the sample count and ones that do not.
TEST(Batched, FullShadowMatchesScalarOnCorpus) {
  AnalysisConfig Cfg;
  for (const fpcore::Core &C : fpcore::compilableCorpus()) {
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, 10, 0xbadc0de);
    Herbgrind Scalar(P, Cfg);
    for (const std::vector<double> &In : Inputs)
      Scalar.runOnInput(In);
    for (size_t Lanes : {size_t(1), size_t(3), size_t(8), size_t(32)}) {
      Herbgrind Batched(P, Cfg);
      for (size_t I = 0; I < Inputs.size(); I += Lanes)
        Batched.runOnBatch(&Inputs[I],
                           std::min(Lanes, Inputs.size() - I));
      ASSERT_EQ(reportOf(Scalar), reportOf(Batched))
          << C.Name << " lanes=" << Lanes;
      ASSERT_EQ(Scalar.lastRunSuspect(), Batched.lastRunSuspect()) << C.Name;
      ASSERT_EQ(Scalar.lastOutputs().size(), Batched.lastOutputs().size());
      for (size_t I = 0; I < Scalar.lastOutputs().size(); ++I) {
        uint64_t WantBits, GotBits;
        std::memcpy(&WantBits, &Scalar.lastOutputs()[I].F64, sizeof WantBits);
        std::memcpy(&GotBits, &Batched.lastOutputs()[I].F64, sizeof GotBits);
        ASSERT_EQ(WantBits, GotBits) << C.Name;
      }
      // The cost mirror: a batch executes exactly the scalar loop's
      // shadow ops, just grouped (and its step ceiling per lane).
      ASSERT_EQ(Scalar.stats().ShadowOpsExecuted,
                Batched.stats().ShadowOpsExecuted)
          << C.Name << " lanes=" << Lanes;
    }
  }
}

/// Predicate-only mode takes the SoA fast path on straight-line F64
/// programs; per-lane verdicts must equal each input's scalar verdict.
TEST(Batched, PredicateSoAVerdictsMatchScalar) {
  AnalysisConfig Cfg;
  Cfg.PredicateOnly = true;
  size_t SoACovered = 0;
  for (const fpcore::Core &C : fpcore::compilableCorpus()) {
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, 10, 0xfeed);
    Herbgrind Scalar(P, Cfg);
    std::vector<uint8_t> Want;
    for (const std::vector<double> &In : Inputs) {
      Scalar.runOnInput(In);
      Want.push_back(Scalar.lastRunSuspect() ? 1 : 0);
    }
    Herbgrind Batched(P, Cfg);
    // Loop benchmarks are not lockstep-batchable (runOnBatch falls back
    // to the sequential path for them); straight-line F64 ones take the
    // SoA fast path, and both must produce identical verdicts.
    if (Batched.soaBatchable()) {
      EXPECT_TRUE(Batched.lockstepBatchable()) << C.Name;
      ++SoACovered;
    }
    for (size_t I = 0; I < Inputs.size(); I += 3) {
      size_t N = std::min<size_t>(3, Inputs.size() - I);
      Batched.runOnBatch(&Inputs[I], N);
      ASSERT_EQ(Batched.laneSuspects().size(), N) << C.Name;
      for (size_t L = 0; L < N; ++L)
        ASSERT_EQ(Want[I + L] != 0, Batched.laneSuspects()[L] != 0)
            << C.Name << " lane " << L;
    }
    ASSERT_EQ(reportOf(Scalar), reportOf(Batched)) << C.Name;
  }
  // The corpus is straight-line F64 throughout; if nothing took the SoA
  // path this test stopped covering the tentpole.
  EXPECT_GT(SoACovered, 0u);
}

/// Native kernels: Context::runBatch must accumulate the records N
/// run() calls would, with matching per-lane tier-0 verdicts.
TEST(Batched, NativeRunBatchMatchesScalar) {
  for (bool Predicate : {false, true}) {
    AnalysisConfig Cfg;
    Cfg.PredicateOnly = Predicate;
    for (const native::Kernel &K : diffharness::randomKernels(0x5eed, 6)) {
      std::vector<std::vector<double>> Inputs;
      Rng R(0xabc);
      for (size_t I = 0; I < 10; ++I) {
        std::vector<double> In;
        for (const native::Kernel::InputRange &IR : K.Inputs)
          In.push_back(R.betweenOrdinals(IR.Lo, IR.Hi));
        Inputs.push_back(std::move(In));
      }
      native::Context Scalar(Cfg);
      std::vector<uint8_t> Want;
      for (const std::vector<double> &In : Inputs) {
        Scalar.run(K, In);
        Want.push_back(Scalar.lastRunSuspect() ? 1 : 0);
      }
      native::Context Batched(Cfg);
      std::vector<uint8_t> Suspects;
      for (size_t I = 0; I < Inputs.size(); I += 4) {
        size_t N = std::min<size_t>(4, Inputs.size() - I);
        Batched.runBatch(K, &Inputs[I], N, &Suspects);
        ASSERT_EQ(Suspects.size(), N);
        for (size_t L = 0; L < N; ++L)
          ASSERT_EQ(Want[I + L] != 0, Suspects[L] != 0) << K.Name;
      }
      ASSERT_EQ(buildReport(Scalar.snapshot()).renderJson(),
                buildReport(Batched.snapshot()).renderJson())
          << K.Name << (Predicate ? " predicate" : " full");
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine sweeps: --batch is invisible in the report bytes
//===----------------------------------------------------------------------===//

TEST(Batched, EngineSweepByteIdenticalAcrossLanesJobsTiers) {
  std::vector<fpcore::Core> Cores = diffharness::randomCores(0x77, 4);
  std::vector<native::Kernel> Kernels = diffharness::randomKernels(0x77, 2);
  engine::EngineConfig Base;
  Base.SamplesPerBenchmark = 10; // 3 shards of 4,4,2: remainders everywhere
  Base.ShardSize = 4;
  Base.Jobs = 1;
  for (engine::TierMode Tier : {engine::TierMode::Full,
                                engine::TierMode::Confirm,
                                engine::TierMode::Fast}) {
    engine::EngineConfig Cfg = Base;
    Cfg.Tier = Tier;
    engine::BatchResult Want = engine::Engine(Cfg).run(Cores, Kernels);
    std::string WantJson = Want.renderJson();
    for (unsigned Lanes : {1u, 3u, 8u, 32u}) {
      for (unsigned Jobs : {1u, 4u}) {
        Cfg.BatchLanes = Lanes;
        Cfg.Jobs = Jobs;
        engine::BatchResult Got = engine::Engine(Cfg).run(Cores, Kernels);
        std::string Where = format("tier=%s lanes=%u jobs=%u",
                                   engine::tierModeName(Tier), Lanes, Jobs);
        ASSERT_EQ(WantJson, Got.renderJson()) << Where;
        if (Jobs != 1)
          continue;
        // Lanes must not change the tier accounting either. Tier0Ops may:
        // a batch can execute lanes past the first suspect one.
        EXPECT_EQ(Want.Stats.Tier0Runs, Got.Stats.Tier0Runs) << Where;
        EXPECT_EQ(Want.Stats.EscalatedRuns, Got.Stats.EscalatedRuns) << Where;
        EXPECT_EQ(Want.Stats.ConfirmedBenchmarks,
                  Got.Stats.ConfirmedBenchmarks)
            << Where;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// evalDoubleBatch: bitwise equality with evalDouble
//===----------------------------------------------------------------------===//

void checkEvalBatch(const std::string &Text, unsigned NumVars,
                    uint64_t Seed) {
  fpcore::ParseResult P = fpcore::parse(Text);
  ASSERT_TRUE(P.Ok) << P.Error << " in " << Text;
  Rng R(Seed);
  const size_t Lanes = 7;
  std::vector<fpcore::DoubleEnv> Envs(Lanes);
  for (fpcore::DoubleEnv &Env : Envs)
    for (unsigned V = 0; V < NumVars; ++V)
      Env[format("v%u", V)] = R.betweenOrdinals(-100.0, 100.0);
  double Out[Lanes];
  fpcore::evalDoubleBatch(*P.Value.Body, Envs.data(), Lanes, Out);
  for (size_t L = 0; L < Lanes; ++L) {
    double Want = fpcore::evalDouble(*P.Value.Body, Envs[L]);
    // Bitwise comparison: NaNs must match as NaNs, -0.0 as -0.0.
    uint64_t WantBits, GotBits;
    std::memcpy(&WantBits, &Want, sizeof WantBits);
    std::memcpy(&GotBits, &Out[L], sizeof GotBits);
    ASSERT_EQ(WantBits, GotBits) << Text << " lane " << L;
  }
}

TEST(Batched, EvalDoubleBatchBitwiseEqual) {
  // Straight arithmetic (the batched path proper), n-ary folds,
  // constants, and every scalar-fallback node kind.
  checkEvalBatch("(FPCore (v0 v1) (- (+ v0 1) v1))", 2, 1);
  checkEvalBatch("(FPCore (v0 v1 v2) (+ v0 v1 v2 (* v0 v1 v2)))", 3, 2);
  checkEvalBatch("(FPCore (v0) (* (sqrt (fabs v0)) (sin (/ PI v0))))", 1, 3);
  checkEvalBatch("(FPCore (v0) (fma v0 E (log (fabs v0))))", 1, 4);
  checkEvalBatch("(FPCore (v0) (if (< v0 0) (- v0) (sqrt v0)))", 1, 5);
  checkEvalBatch("(FPCore (v0 v1) (let ([s (+ v0 v1)] [d (- v0 v1)]) "
                 "(* s d)))",
                 2, 6);
  checkEvalBatch("(FPCore (v0) (while (< i 3) ([i 0 (+ i 1)] "
                 "[acc v0 (* acc acc)]) acc))",
                 1, 7);
  // Division poles and domain edges: lanes straddling them must not
  // contaminate each other.
  checkEvalBatch("(FPCore (v0) (/ 1 (- v0 v0)))", 1, 8);
  checkEvalBatch("(FPCore (v0) (log v0))", 1, 9);
  // Many lanes with a non-trivial expression, exercising per-node
  // scratch reuse across a deeper tree.
  checkEvalBatch("(FPCore (v0 v1) (hypot (atan2 v0 v1) "
                 "(pow (fabs v0) (copysign 0.5 v1))))",
                 2, 10);
}

} // namespace
