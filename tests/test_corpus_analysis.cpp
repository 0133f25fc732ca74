//===- tests/test_corpus_analysis.cpp - Corpus-wide integration sweep -----===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// One parameterized integration test per corpus benchmark: compile, run
// under full instrumentation on sampled inputs, and check the engine's
// global invariants -- concrete outputs bit-identical to the reference
// interpreter, well-formed records, renderable reports, and consistent
// incremental statistics.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

using namespace herbgrind;
using namespace herbgrind::fpcore;

namespace {

class CorpusAnalysisTest : public ::testing::TestWithParam<size_t> {};

} // namespace

static std::vector<std::vector<double>> sampleInputsFor(const Core &C,
                                                        int Count,
                                                        uint64_t Seed) {
  Rng R(Seed);
  std::vector<VarRange> Ranges = sampleRanges(C);
  std::vector<std::vector<double>> Sets;
  for (int I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const VarRange &VR : Ranges)
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

TEST_P(CorpusAnalysisTest, InstrumentedRunUpholdsInvariants) {
  const Core &C = corpus()[GetParam()];
  Program P = compile(C);
  Herbgrind HG(P);
  auto Inputs = sampleInputsFor(C, 4, 0x900d + GetParam());

  for (const std::vector<double> &In : Inputs) {
    HG.runOnInput(In);
    RunResult Ref = interpret(P, In);
    // Invariant 1: instrumentation is observationally transparent.
    ASSERT_EQ(HG.lastOutputs().size(), Ref.Outputs.size()) << C.Name;
    for (size_t O = 0; O < Ref.Outputs.size(); ++O) {
      double Got = HG.lastOutputs()[O].asF64();
      double Want = Ref.Outputs[O].asF64();
      if (std::isnan(Want))
        EXPECT_TRUE(std::isnan(Got)) << C.Name;
      else
        EXPECT_EQ(bitsOfDouble(Got), bitsOfDouble(Want)) << C.Name;
    }
  }

  // Invariant 2: well-formed op records.
  for (const auto &[PC, Rec] : HG.opRecords()) {
    EXPECT_GT(Rec.Executions, 0u) << C.Name;
    EXPECT_LE(Rec.Flagged, Rec.Executions) << C.Name;
    EXPECT_EQ(Rec.LocalError.count(), Rec.Executions) << C.Name;
    ASSERT_TRUE(Rec.Expr) << C.Name;
    EXPECT_FALSE(Rec.Expr->fpcoreBody().empty()) << C.Name;
    // Input summaries never outnumber the expression's variables.
    EXPECT_LE(Rec.TotalInputs.Vars.size(), Rec.NextVarIdx + 1) << C.Name;
  }

  // Invariant 3: spots never report more errors than executions, and
  // every influencing op has a record.
  for (const auto &[PC, Spot] : HG.spotRecords()) {
    EXPECT_LE(Spot.Erroneous, Spot.Executions) << C.Name;
    for (uint32_t OpPC : Spot.InfluencingOps)
      EXPECT_TRUE(HG.opRecords().count(OpPC)) << C.Name;
  }

  // Invariant 4: the report always renders.
  EXPECT_FALSE(buildReport(HG).render().empty()) << C.Name;

  // Invariant 5: statistics are consistent.
  AnalysisStats St = HG.stats();
  EXPECT_GT(St.InstrumentedSteps, 0u) << C.Name;
  EXPECT_GE(St.ShadowValuesAllocated, HG.opRecords().size()) << C.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CorpusAnalysisTest,
    ::testing::Range<size_t>(0, corpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = corpus()[Info.param].Name;
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

// Trace nodes built per shadow op on the loop corpus: a deterministic
// count of the work the depth bound costs. Copying a loop-carried kid's
// whole window on every op made 22.665 nodes per op over the six loop
// programs and 20.829 on pid, whose update feeds a value forward along
// paths of several lengths (this test's figures for the trimming that
// copied per op; pid's is rounded up below). Compacting once per
// CompactionFactor x MaxDepth levels must at least halve the total without
// raising pid's.
TEST(LoopTraceNodes, CompactionAtLeastHalvesNodesPerShadowOp) {
  const double PerOpCopyAll = 22.665, PerOpCopyPid = 20.83;
  uint64_t Nodes = 0, Ops = 0;
  double Pid = -1;
  int Loops = 0;
  for (const Core &C : corpus()) {
    if (C.Body->K != Expr::Kind::While)
      continue;
    ++Loops;
    Herbgrind HG(compile(C));
    for (const std::vector<double> &In : sampleInputsFor(C, 8, 0x100b))
      HG.runOnInput(In);
    AnalysisStats St = HG.stats();
    ASSERT_GT(St.ShadowOpsExecuted, 0u) << C.Name;
    Nodes += St.TraceNodesAllocated;
    Ops += St.ShadowOpsExecuted;
    double Ratio = double(St.TraceNodesAllocated) / St.ShadowOpsExecuted;
    std::printf("%-20s %8.2f trace nodes per shadow op\n", C.Name.c_str(),
                Ratio);
    if (C.Name == "pid")
      Pid = Ratio;
  }
  ASSERT_EQ(Loops, 6);
  double All = double(Nodes) / Ops;
  std::printf("%-20s %8.2f trace nodes per shadow op\n", "all six", All);
  EXPECT_LE(All, PerOpCopyAll / 2);
  ASSERT_GE(Pid, 0) << "pid is not in the corpus";
  EXPECT_LE(Pid, PerOpCopyPid);
}
