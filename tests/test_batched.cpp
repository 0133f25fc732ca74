//===- tests/test_batched.cpp - The kept batch entry points ---------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Every sample runs through the one scalar shadow path. Two batch-shaped
// names remain for existing callers, and the engine still accepts
// EngineConfig::BatchLanes; this file checks that they promise nothing
// more than the scalar loop. (1) Herbgrind::runOnBatch and
// native::Context::runBatch leave records, verdicts, and outputs equal
// to N sequential runOnInput / run calls; (2) engine sweeps render
// identical JSON, and identical tier accounting, at every BatchLanes
// value across jobs counts, tiers, frontends, and non-divisor
// shard remainders.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"
#include "herbgrind/Herbgrind.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

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
      // shadow ops.
      ASSERT_EQ(Scalar.stats().ShadowOpsExecuted,
                Batched.stats().ShadowOpsExecuted)
          << C.Name << " lanes=" << Lanes;
    }
  }
}

/// Native kernels: Context::runBatch must accumulate the records N
/// run() calls would, and end on the same tier-0 verdict.
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
      for (const std::vector<double> &In : Inputs)
        Scalar.run(K, In);
      native::Context Batched(Cfg);
      for (size_t I = 0; I < Inputs.size(); I += 4)
        Batched.runBatch(K, &Inputs[I],
                         std::min<size_t>(4, Inputs.size() - I));
      ASSERT_EQ(Scalar.lastRunSuspect(), Batched.lastRunSuspect()) << K.Name;
      ASSERT_EQ(buildReport(Scalar.snapshot()).renderJson(),
                buildReport(Batched.snapshot()).renderJson())
          << K.Name << (Predicate ? " predicate" : " full");
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine sweeps: BatchLanes is invisible in the report bytes
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
        // Lanes must not change the tier accounting either, down to the
        // tier-0 op count.
        EXPECT_EQ(Want.Stats.Tier0Runs, Got.Stats.Tier0Runs) << Where;
        EXPECT_EQ(Want.Stats.Tier0Ops, Got.Stats.Tier0Ops) << Where;
        EXPECT_EQ(Want.Stats.EscalatedRuns, Got.Stats.EscalatedRuns) << Where;
        EXPECT_EQ(Want.Stats.ConfirmedBenchmarks,
                  Got.Stats.ConfirmedBenchmarks)
            << Where;
      }
    }
  }
}

} // namespace
