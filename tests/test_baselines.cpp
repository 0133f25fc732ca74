//===- tests/test_baselines.cpp - FpDebug/Verrou/BZ baseline tests --------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"

#include "herbgrind/Herbgrind.h"

#include <gtest/gtest.h>

using namespace herbgrind;

namespace {

Program cancellationKernel() {
  ProgramBuilder B;
  B.setLoc(SourceLoc("cancel.c", 4, "f"));
  auto X = B.input(0);
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  auto Diff = B.op(Opcode::SubF64, Sum, X);
  B.out(Diff);
  B.halt();
  return B.finish();
}

} // namespace

TEST(FpDebug, DetectsErrorAtOpcodeAddress) {
  Program P = cancellationKernel();
  FpDebugResult R = runFpDebug(P, {{1e16}, {2.0}});
  std::vector<uint32_t> Bad = R.erroneousOps(5.0);
  ASSERT_EQ(Bad.size(), 1u);
  EXPECT_EQ(R.Ops.at(Bad[0]).Op, Opcode::SubF64);
  // FpDebug localizes by address only: it has the pc and the raw error
  // statistic, but no expression, no inputs, no output-sensitivity.
  EXPECT_GT(R.Ops.at(Bad[0]).ErrorBits.max(), 40.0);
}

TEST(FpDebug, CleanProgramsStayClean) {
  ProgramBuilder B;
  B.out(B.op(Opcode::MulF64, B.input(0), B.constF64(2.0)));
  B.halt();
  FpDebugResult R = runFpDebug(B.finish(), {{3.0}, {1e300}});
  EXPECT_TRUE(R.erroneousOps(1.0).empty());
}

TEST(FpDebug, ShadowsFlowThroughMemory) {
  ProgramBuilder B;
  auto X = B.input(0);
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  auto Addr = B.constI64(64);
  B.store(Addr, 0, Sum);
  auto Back = B.load(Addr, 0, ValueType::F64);
  auto Diff = B.op(Opcode::SubF64, Back, X);
  B.out(Diff);
  B.halt();
  FpDebugResult R = runFpDebug(B.finish(), {{1e16}});
  EXPECT_FALSE(R.erroneousOps(5.0).empty());
}

TEST(Verrou, StableComputationKeepsBits) {
  ProgramBuilder B;
  B.out(B.op(Opcode::MulF64, B.input(0), B.constF64(2.0)));
  B.halt();
  VerrouResult R = runVerrou(B.finish(), {3.5}, 16);
  ASSERT_EQ(R.Outputs.size(), 1u);
  EXPECT_GT(R.Outputs[0].StableBits, 50.0);
}

TEST(Verrou, CancellationDestabilizesOutputs) {
  // sqrt(x+1)-sqrt(x) at large x: random rounding perturbs the result
  // catastrophically relative to its magnitude.
  ProgramBuilder B;
  auto X = B.input(0);
  auto A = B.op(Opcode::SqrtF64, B.op(Opcode::AddF64, X, B.constF64(1.0)));
  auto C = B.op(Opcode::SqrtF64, X);
  B.out(B.op(Opcode::SubF64, A, C));
  B.halt();
  VerrouResult R = runVerrou(B.finish(), {1e15}, 16);
  ASSERT_EQ(R.Outputs.size(), 1u);
  EXPECT_LT(R.Outputs[0].StableBits, 30.0);
}

TEST(Verrou, ReportsNothingAboutLocations) {
  // Table 1's "Localization: None" row: the Verrou result type carries
  // only per-output stability, never per-op information. Documented here
  // so a future change to that shape shows up as a test edit.
  VerrouResult R;
  EXPECT_TRUE(R.Outputs.empty());
  EXPECT_EQ(sizeof(VerrouResult),
            sizeof(std::vector<VerrouOutputStat>) + sizeof(uint64_t));
}

TEST(BZ, FlagsCancellationSuspects) {
  Program P = cancellationKernel();
  BZResult R = runBZ(P, {{1e16}});
  EXPECT_EQ(R.SuspectOps.size(), 1u);
  EXPECT_GT(R.SuspectEvents, 0u);
}

TEST(BZ, HasFalsePositivesOnCompensatedCode) {
  // Two-sum: the compensating subtraction cancels by design; BZ flags it,
  // Herbgrind (with compensation detection) does not report it.
  ProgramBuilder B;
  auto A = B.input(0);
  auto Bv = B.input(1);
  auto S = B.op(Opcode::AddF64, A, Bv);
  auto BV = B.op(Opcode::SubF64, S, A);
  auto Err = B.op(Opcode::SubF64, Bv, BV);
  auto Fixed = B.op(Opcode::AddF64, S, Err);
  B.out(Fixed);
  B.halt();
  Program P = B.finish();

  BZResult BZ = runBZ(P, {{1.0, 1e-17}});
  EXPECT_FALSE(BZ.SuspectOps.empty()) << "BZ should false-positive here";

  Herbgrind HG(P);
  HG.runOnInput({1.0, 1e-17});
  EXPECT_TRUE(HG.records().reportedRootCauses().empty())
      << "Herbgrind should not report the compensated two-sum";
}

TEST(BZ, CountsDiscreteFactors) {
  // A comparison of nearly-equal values: a discrete factor event.
  ProgramBuilder B;
  auto X = B.input(0);
  auto Y = B.op(Opcode::AddF64, X, B.constF64(1e-13));
  auto C = B.op(Opcode::CmpLTF64, X, Y);
  auto L = B.newLabel();
  B.branchIf(C, L);
  B.bind(L);
  B.out(X);
  B.halt();
  BZResult R = runBZ(B.finish(), {{1.0}});
  EXPECT_GT(R.DiscreteFactorEvents, 0u);
}

TEST(Baselines, OverheadOrderingMatchesTable1) {
  // Instruction-count proxy for Table 1's overhead row: BZ and Verrou stay
  // close to native; FpDebug and Herbgrind pay for shadow reals.
  Program P = cancellationKernel();
  RunResult Native = interpret(P, {1e16});
  BZResult BZ = runBZ(P, {{1e16}});
  EXPECT_EQ(BZ.Steps, Native.Steps);
  // The real comparison is wall-clock, measured by bench_table1_overhead;
  // here we only sanity-check that every mode completes and agrees on the
  // concrete semantics.
  VerrouResult V = runVerrou(P, {1e16}, 4);
  ASSERT_EQ(V.Outputs.size(), 1u);
  FpDebugResult F = runFpDebug(P, {{1e16}});
  EXPECT_EQ(F.Steps, Native.Steps);
}
