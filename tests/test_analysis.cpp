//===- tests/test_analysis.cpp - Herbgrind analysis engine tests ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// End-to-end checks of the paper's core mechanisms on the motivating
// kernels: cancellation root causes, influence flow through memory and
// calls, compensation detection, control divergence, input
// characterization, and the instrumented/uninstrumented differential.
//
//===----------------------------------------------------------------------===//

#include "herbgrind/Herbgrind.h"

#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace herbgrind;

namespace {

/// (x + 1) - x, the canonical cancellation kernel.
Program xPlusOneMinusX() {
  ProgramBuilder B;
  B.setLoc(SourceLoc("cancel.c", 3, "f"));
  auto X = B.input(0);
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  B.setLoc(SourceLoc("cancel.c", 4, "f"));
  auto Diff = B.op(Opcode::SubF64, Sum, X);
  B.out(Diff);
  B.halt();
  return B.finish();
}

/// sqrt(x*x + y*y) - x, the complex-plotter root cause (Section 3).
Program plotterKernel() {
  ProgramBuilder B;
  B.setLoc(SourceLoc("main.cpp", 24, "run(int, int)"));
  auto X = B.input(0);
  auto Y = B.input(1);
  auto XX = B.op(Opcode::MulF64, X, X);
  auto YY = B.op(Opcode::MulF64, Y, Y);
  auto Hyp = B.op(Opcode::SqrtF64, B.op(Opcode::AddF64, XX, YY));
  auto R = B.op(Opcode::SubF64, Hyp, X);
  B.out(R);
  B.halt();
  return B.finish();
}

} // namespace

//===----------------------------------------------------------------------===//
// Basic error detection
//===----------------------------------------------------------------------===//

TEST(Analysis, AccurateProgramReportsNothing) {
  ProgramBuilder B;
  auto X = B.input(0);
  B.out(B.op(Opcode::MulF64, X, B.constF64(2.0)));
  B.halt();
  Herbgrind HG(B.finish());
  for (double V : {1.0, 3.5, -2.25, 1e100})
    HG.runOnInput({V});
  Report R = buildReport(HG);
  EXPECT_TRUE(R.Spots.empty()) << R.render();
  EXPECT_TRUE(HG.records().reportedRootCauses().empty());
}

TEST(Analysis, CatastrophicCancellationIsDetectedAndLocated) {
  Program P = xPlusOneMinusX();
  Herbgrind HG(P);
  HG.runOnInput({1e16});
  ASSERT_EQ(HG.lastOutputs().size(), 1u);
  EXPECT_EQ(HG.lastOutputs()[0].asF64(), 0.0); // the bug is real

  std::vector<uint32_t> Causes = HG.records().reportedRootCauses();
  ASSERT_FALSE(Causes.empty());
  const OpRecord &Rec = HG.opRecords().at(Causes[0]);
  EXPECT_EQ(Rec.Op, Opcode::SubF64);
  EXPECT_EQ(Rec.Loc.Line, 4);
  EXPECT_GT(Rec.MaxFlaggedLocalError, 40.0);
}

TEST(Analysis, NoErrorOnBenignInputs) {
  Program P = xPlusOneMinusX();
  Herbgrind HG(P);
  HG.runOnInput({2.0});
  HG.runOnInput({-0.5});
  EXPECT_TRUE(HG.records().reportedRootCauses().empty());
}

TEST(Analysis, OutputsMatchUninstrumentedInterpreter) {
  // The instrumented executor must be observationally identical.
  Program P = plotterKernel();
  Herbgrind HG(P);
  Rng R(5);
  for (int I = 0; I < 50; ++I) {
    double X = R.betweenOrdinals(1e-12, 0.25);
    double Y = R.betweenOrdinals(-1e-8, 1e-8);
    HG.runOnInput({X, Y});
    RunResult Ref = interpret(P, {X, Y});
    ASSERT_EQ(HG.lastOutputs().size(), Ref.Outputs.size());
    EXPECT_EQ(bitsOfDouble(HG.lastOutputs()[0].asF64()),
              bitsOfDouble(Ref.Outputs[0].asF64()));
  }
}

//===----------------------------------------------------------------------===//
// Symbolic expressions (the plotter root cause, Section 3)
//===----------------------------------------------------------------------===//

TEST(Analysis, PlotterRootCauseExpressionIsRecovered) {
  Program P = plotterKernel();
  Herbgrind HG(P);
  Rng R(9);
  // The paper's region: x in [0, 1/4], y tiny (near the real axis the
  // expression cancels catastrophically).
  for (int I = 0; I < 64; ++I) {
    double X = R.betweenOrdinals(1e-12, 0.25);
    double Y = R.betweenOrdinals(1e-14, 1e-8) * (R.chance(1, 2) ? 1 : -1);
    HG.runOnInput({X, Y});
  }
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.Spots.empty());
  std::vector<RootCauseReport> Causes = Rep.allRootCauses();
  ASSERT_FALSE(Causes.empty());
  // The top root cause is the subtraction, and its symbolic expression is
  // exactly the paper's fragment.
  EXPECT_EQ(Causes[0].Body, "(- (sqrt (+ (* x x) (* y y))) x)")
      << Rep.render();
  EXPECT_EQ(Causes[0].NumVars, 2u);
  EXPECT_FALSE(Causes[0].ExampleInput.empty());
}

TEST(Analysis, InputRangesAreReported) {
  Program P = plotterKernel();
  Herbgrind HG(P);
  Rng R(10);
  for (int I = 0; I < 64; ++I)
    HG.runOnInput({R.uniformReal(0.01, 0.25), R.uniformReal(-1e-9, 1e-9)});
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.allRootCauses().empty());
  std::string FPCore = Rep.allRootCauses()[0].FPCore;
  EXPECT_NE(FPCore.find(":pre"), std::string::npos) << FPCore;
  EXPECT_NE(FPCore.find("(FPCore (x y)"), std::string::npos) << FPCore;
}

TEST(Analysis, DepthOneDisablesSymbolicExpressions) {
  // Fig 5c/d: depth 1 reports only the erroneous op itself.
  Program P = plotterKernel();
  AnalysisConfig Cfg;
  Cfg.MaxExprDepth = 1;
  Herbgrind HG(P, Cfg);
  Rng R(11);
  for (int I = 0; I < 32; ++I)
    HG.runOnInput({R.uniformReal(0.01, 0.25), R.uniformReal(-1e-9, 1e-9)});
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.allRootCauses().empty());
  // Only the subtraction itself, with opaque arguments.
  EXPECT_LE(Rep.allRootCauses()[0].OpCount, 1u);
}

//===----------------------------------------------------------------------===//
// Non-local error: influence through the heap and across calls
//===----------------------------------------------------------------------===//

TEST(Analysis, InfluenceFlowsThroughMemory) {
  // Compute the erroneous value, store it, load it elsewhere, output it.
  ProgramBuilder B;
  auto X = B.input(0);
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  auto Diff = B.op(Opcode::SubF64, Sum, X);
  auto Addr = B.constI64(0x800);
  B.store(Addr, 0, Diff);
  auto Loaded = B.load(Addr, 0, ValueType::F64);
  B.out(Loaded);
  B.halt();
  Herbgrind HG(B.finish());
  HG.runOnInput({1e16});
  std::vector<uint32_t> Causes = HG.records().reportedRootCauses();
  ASSERT_FALSE(Causes.empty());
  EXPECT_EQ(HG.opRecords().at(Causes[0]).Op, Opcode::SubF64);
}

TEST(Analysis, InfluenceFlowsThroughThreadStateAndCalls) {
  // bar(x, y, z) = foo(mkPoint(x,y), mkPoint(x,z)) from Section 2.1,
  // flattened: the erroneous computation crosses a call boundary through
  // thread-state "argument registers".
  ProgramBuilder B;
  auto Foo = B.newLabel();
  auto X = B.input(0);
  auto Y = B.input(1);
  auto Z = B.input(2);
  // Pass a.x+a.y and b.x+b.y through thread state.
  B.put(0, B.op(Opcode::AddF64, X, Y));
  B.put(8, B.op(Opcode::AddF64, X, Z));
  B.put(16, X);
  B.call(Foo);
  B.out(B.get(24, ValueType::F64));
  B.halt();
  B.bind(Foo);
  auto A1 = B.get(0, ValueType::F64);
  auto A2 = B.get(8, ValueType::F64);
  auto AX = B.get(16, ValueType::F64);
  B.put(24, B.op(Opcode::MulF64, B.op(Opcode::SubF64, A1, A2), AX));
  B.ret();
  Herbgrind HG(B.finish());
  // x=1e16, y=1, z=0: correct result 1e16, float result 0. Run on two
  // x values so anti-unification can tell inputs from constants.
  HG.runOnInput({1e16, 1.0, 0.0});
  EXPECT_EQ(HG.lastOutputs()[0].asF64(), 0.0);
  HG.runOnInput({2e16, 1.0, 0.0});
  std::vector<uint32_t> Causes = HG.records().reportedRootCauses();
  ASSERT_FALSE(Causes.empty());
  const OpRecord &Top = HG.opRecords().at(Causes[0]);
  EXPECT_EQ(Top.Op, Opcode::SubF64);
  // The trace sees through the call and the thread-state traffic: the
  // root cause combines the caller's adds with the callee's subtract, and
  // both occurrences of the varying input share one variable.
  EXPECT_EQ(Top.Expr->fpcoreBody(), "(- (+ x 1) (+ x 0))");
}

//===----------------------------------------------------------------------===//
// Spots: control divergence and conversions (Section 4.2)
//===----------------------------------------------------------------------===//

TEST(Analysis, LoopBoundDivergenceIsDetected) {
  // The PID / Patriot bug: t += 0.2 until t < 10 runs 51 times, because
  // the accumulated t sits just below 10 when the real value hits it.
  ProgramBuilder B;
  auto T = B.constF64(0.0);
  auto Count = B.constF64(0.0);
  auto Step = B.constF64(0.2);
  auto One = B.constF64(1.0);
  auto Limit = B.constF64(10.0);
  auto Head = B.newLabel();
  auto Done = B.newLabel();
  B.bind(Head);
  B.setLoc(SourceLoc("pid.c", 17, "main"));
  auto Cond = B.op(Opcode::CmpGEF64, T, Limit);
  B.branchIf(Cond, Done);
  B.copyTo(T, B.op(Opcode::AddF64, T, Step));
  B.copyTo(Count, B.op(Opcode::AddF64, Count, One));
  B.jump(Head);
  B.bind(Done);
  B.out(Count);
  B.halt();

  AnalysisConfig Cfg;
  Cfg.LocalErrorThreshold = 0.01; // critical application: catch tiny error
  Herbgrind HG(B.finish(), Cfg);
  HG.runOnInput({});
  EXPECT_EQ(HG.lastOutputs()[0].asF64(), 51.0); // the bug: 51, not 50

  // The comparison spot diverged, influenced by the increment.
  bool FoundDivergentCompare = false;
  for (const auto &[PC, Spot] : HG.spotRecords()) {
    if (Spot.Kind == SpotKind::Comparison && Spot.Erroneous > 0) {
      FoundDivergentCompare = true;
      EXPECT_EQ(Spot.Loc.Line, 17);
      EXPECT_FALSE(Spot.InfluencingOps.empty());
      bool InfluencedByAdd = false;
      for (uint32_t OpPC : Spot.InfluencingOps)
        if (HG.opRecords().at(OpPC).Op == Opcode::AddF64)
          InfluencedByAdd = true;
      EXPECT_TRUE(InfluencedByAdd);
    }
  }
  EXPECT_TRUE(FoundDivergentCompare);
}

TEST(Analysis, FloatToIntConversionIsASpot) {
  // floor-to-int of an erroneous value crossing an integer boundary.
  ProgramBuilder B;
  auto X = B.input(0);
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  auto Diff = B.op(Opcode::SubF64, Sum, X); // 0.0, should be 1.0
  auto AsInt = B.op(Opcode::F64toI64, Diff);
  B.out(B.op(Opcode::I64toF64, AsInt));
  B.halt();
  Herbgrind HG(B.finish());
  HG.runOnInput({1e16});
  bool FoundConversionSpot = false;
  for (const auto &[PC, Spot] : HG.spotRecords())
    if (Spot.Kind == SpotKind::Conversion && Spot.Erroneous > 0)
      FoundConversionSpot = true;
  EXPECT_TRUE(FoundConversionSpot);
}

TEST(Analysis, AgreeingComparisonsAreNotErrors) {
  ProgramBuilder B;
  auto X = B.input(0);
  auto Cond = B.op(Opcode::CmpLTF64, X, B.constF64(100.0));
  auto Done = B.newLabel();
  B.branchIf(Cond, Done);
  B.bind(Done);
  B.out(X);
  B.halt();
  Herbgrind HG(B.finish());
  HG.runOnInput({1.0});
  for (const auto &[PC, Spot] : HG.spotRecords())
    EXPECT_EQ(Spot.Erroneous, 0u);
}

//===----------------------------------------------------------------------===//
// Compensation detection (Section 5.3)
//===----------------------------------------------------------------------===//

namespace {

/// Builds the compensation scenario: an erroneous value t (flagged sub G)
/// plus a compensating-style term k (real value 0, influenced by flagged
/// sub F from a two-sum). Output t + k: with detection, only G is
/// reported; without, F leaks through too.
Program compensationProgram() {
  ProgramBuilder B;
  auto X = B.input(0); // 1e16
  auto A = B.input(1); // 1.0
  auto Bv = B.input(2); // 1e-17
  // G: t = (x + 1) - x  (flagged, error reaches the output)
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  // two-sum of (a, b): s = a + b; bv = s - a (flagged F); err = b - bv
  // (err's real value is exactly 0).
  auto S = B.op(Opcode::AddF64, A, Bv);
  auto BV = B.op(Opcode::SubF64, S, A);
  auto Err = B.op(Opcode::SubF64, Bv, BV);
  // Compensated-shaped op: out = t + err.
  auto Out = B.op(Opcode::AddF64, T, Err);
  B.out(Out);
  B.halt();
  return B.finish();
}

std::set<Opcode> causeOps(const Herbgrind &HG) {
  std::set<Opcode> Ops;
  for (uint32_t PC : HG.records().reportedRootCauses())
    Ops.insert(HG.opRecords().at(PC).Op);
  return Ops;
}

} // namespace

TEST(Analysis, CompensatingTermsDoNotPropagateInfluence) {
  Program P = compensationProgram();
  AnalysisConfig Cfg;
  Cfg.DetectCompensation = true;
  Herbgrind HG(P, Cfg);
  HG.runOnInput({1e16, 1.0, 1e-17});
  std::vector<uint32_t> Causes = HG.records().reportedRootCauses();
  ASSERT_FALSE(Causes.empty());
  // Exactly one root cause: the cancellation sub G; the two-sum's
  // compensating machinery is filtered out.
  uint64_t Compensations = 0;
  for (const auto &[PC, Rec] : HG.opRecords())
    Compensations += Rec.CompensationsDetected;
  EXPECT_GT(Compensations, 0u);
  EXPECT_EQ(Causes.size(), 1u);
}

TEST(Analysis, DisablingCompensationDetectionLeaksFalsePositives) {
  Program P = compensationProgram();
  AnalysisConfig CfgOff;
  CfgOff.DetectCompensation = false;
  Herbgrind Off(P, CfgOff);
  Off.runOnInput({1e16, 1.0, 1e-17});
  AnalysisConfig CfgOn;
  CfgOn.DetectCompensation = true;
  Herbgrind On(P, CfgOn);
  On.runOnInput({1e16, 1.0, 1e-17});
  EXPECT_GT(Off.records().reportedRootCauses().size(),
            On.records().reportedRootCauses().size());
}

//===----------------------------------------------------------------------===//
// Library wrapping (Section 5.3 / 8.2)
//===----------------------------------------------------------------------===//

TEST(Analysis, WrappedLibraryCallsAreAtomicInExpressions) {
  // exp(x) - 1 near x = 1e-17: the subtraction cancels catastrophically.
  ProgramBuilder B;
  auto X = B.input(0);
  auto E = B.op(Opcode::ExpF64, X);
  auto R = B.op(Opcode::SubF64, E, B.constF64(1.0));
  B.out(R);
  B.halt();
  Program P = B.finish();

  Herbgrind HG(P);
  Rng Rand(21);
  for (int I = 0; I < 32; ++I)
    HG.runOnInput({Rand.betweenOrdinals(1e-20, 1e-15)});
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.allRootCauses().empty());
  EXPECT_EQ(Rep.allRootCauses()[0].Body, "(- (exp x) 1)");
  EXPECT_LE(Rep.allRootCauses()[0].OpCount, 2u);
}

TEST(Analysis, UnwrappedLibraryCallsLeakInternals) {
  ProgramBuilder B;
  auto X = B.input(0);
  auto E = B.op(Opcode::ExpF64, X);
  auto R = B.op(Opcode::SubF64, E, B.constF64(1.0));
  B.out(R);
  B.halt();
  Program P = B.finish();

  AnalysisConfig Cfg;
  Cfg.WrapLibraryCalls = false;
  Herbgrind HG(P, Cfg);
  Rng Rand(22);
  for (int I = 0; I < 32; ++I)
    HG.runOnInput({Rand.betweenOrdinals(1e-20, 1e-15)});
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.allRootCauses().empty());
  // Internals leak: much bigger expressions, containing libm's magic
  // rounding constant rather than a clean (exp x).
  unsigned MaxOps = 0;
  for (const RootCauseReport &RC : Rep.allRootCauses())
    MaxOps = std::max(MaxOps, RC.OpCount);
  EXPECT_GT(MaxOps, 9u);
}

//===----------------------------------------------------------------------===//
// SIMD and bit-trick shadowing
//===----------------------------------------------------------------------===//

TEST(Analysis, SimdLanesAreShadowedIndependently) {
  // Lane 0 computes the cancellation bug; lane 1 is benign.
  ProgramBuilder B;
  auto X = B.input(0);
  auto VX = B.op(Opcode::BuildV2F64, X, B.constF64(2.0));
  auto One = B.op(Opcode::BuildV2F64, B.constF64(1.0), B.constF64(3.0));
  auto Sum = B.op(Opcode::AddV2F64, VX, One);
  auto Diff = B.op(Opcode::SubV2F64, Sum, VX);
  B.out(B.op(Opcode::ExtractLaneF64, Diff, B.constI64(0)));
  B.out(B.op(Opcode::ExtractLaneF64, Diff, B.constI64(1)));
  B.halt();
  Herbgrind HG(B.finish());
  HG.runOnInput({1e16});
  // Lane 0's output is wrong (0 instead of 1); lane 1's is exact (3).
  EXPECT_EQ(HG.lastOutputs()[0].asF64(), 0.0);
  EXPECT_EQ(HG.lastOutputs()[1].asF64(), 3.0);
  ASSERT_FALSE(HG.records().reportedRootCauses().empty());
}

TEST(Analysis, XorSignFlipIsShadowedAsNegation) {
  ProgramBuilder B;
  double SignMaskD = doubleFromBits(1ULL << 63);
  auto X = B.input(0);
  auto V = B.op(Opcode::BuildV2F64, X, X);
  auto Mask = B.op(Opcode::BuildV2F64, B.constF64(SignMaskD),
                   B.constF64(SignMaskD));
  auto Neg = B.op(Opcode::XorV128, V, Mask);
  auto Lane = B.op(Opcode::ExtractLaneF64, Neg, B.constI64(0));
  // Then cancel: (-x + x) + 1 ... use the negated value so its trace must
  // have survived the bit trick for the root cause to mention it.
  auto Zero = B.op(Opcode::AddF64, Lane, X);
  auto Bad = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)),
                  X);
  B.out(B.op(Opcode::AddF64, Zero, Bad));
  B.halt();
  Herbgrind HG(B.finish());
  HG.runOnInput({1e16});
  // The negation op must appear in some record (it was shadowed, not
  // dropped).
  bool SawNeg = false;
  for (const auto &[PC, Rec] : HG.opRecords())
    if (Rec.Op == Opcode::NegF64)
      SawNeg = true;
  EXPECT_TRUE(SawNeg);
}

//===----------------------------------------------------------------------===//
// Input characteristics (Section 4.4)
//===----------------------------------------------------------------------===//

TEST(Analysis, ProblematicInputsAreNarrowerThanTotal) {
  // baz-like kernel: error only when x is near 113.
  ProgramBuilder B;
  auto X = B.input(0);
  auto Z = B.op(Opcode::DivF64, B.constF64(1.0),
                B.op(Opcode::SubF64, X, B.constF64(113.0)));
  auto R = B.op(Opcode::SubF64, B.op(Opcode::AddF64, Z, B.constF64(M_PI)),
                Z);
  B.out(R);
  B.halt();
  Herbgrind HG(B.finish());
  Rng Rand(33);
  for (int I = 0; I < 100; ++I)
    HG.runOnInput({Rand.uniformReal(0.0, 100.0)}); // far from 113: fine
  for (int I = 0; I < 10; ++I)
    HG.runOnInput({113.0 + Rand.uniformReal(-1e-9, 1e-9)}); // catastrophic

  // The flagged record is the final subtraction; its symbolic expression
  // reaches down to the program input x, so the variable *is* x.
  const OpRecord *Flagged = nullptr;
  for (const auto &[PC, Rec] : HG.opRecords())
    if (Rec.Flagged > 0 && Rec.TotalInputs.Vars.size() > 0)
      Flagged = &Rec;
  ASSERT_NE(Flagged, nullptr);
  ASSERT_TRUE(Flagged->Expr);
  EXPECT_NE(Flagged->Expr->fpcoreBody().find("(- x 113)"),
            std::string::npos);
  // The paper's point: the total range covers everything baz was called
  // on, while the problematic range pins x to the neighborhood of 113.
  const VarSummary &Total = Flagged->TotalInputs.Vars[0];
  const VarSummary &Prob = Flagged->ProblematicInputs.Vars[0];
  EXPECT_GT(Prob.Count, 0u);
  EXPECT_LT(Prob.Count, Total.Count);
  EXPECT_LT(Total.Lo, 100.0);
  EXPECT_GT(Prob.Lo, 112.9);
  EXPECT_LT(Prob.Hi, 113.1);
}

TEST(Analysis, RangeModesAffectPreconditions) {
  Program P = plotterKernel();
  for (RangeMode Mode :
       {RangeMode::Off, RangeMode::Single, RangeMode::SignSplit}) {
    AnalysisConfig Cfg;
    Cfg.Ranges = Mode;
    Herbgrind HG(P, Cfg);
    Rng Rand(44);
    for (int I = 0; I < 32; ++I)
      HG.runOnInput(
          {Rand.uniformReal(0.01, 0.25), Rand.uniformReal(-1e-9, 1e-9)});
    Report Rep = buildReport(HG);
    std::vector<RootCauseReport> Causes = Rep.allRootCauses();
    ASSERT_FALSE(Causes.empty());
    const std::string &FPCore = Causes[0].FPCore;
    if (Mode == RangeMode::Off)
      EXPECT_EQ(FPCore.find(":pre"), std::string::npos);
    else
      EXPECT_NE(FPCore.find(":pre"), std::string::npos);
    if (Mode == RangeMode::SignSplit)
      EXPECT_NE(FPCore.find("(or "), std::string::npos) << FPCore;
  }
}

//===----------------------------------------------------------------------===//
// NaN detection (the Gram-Schmidt case, Section 7)
//===----------------------------------------------------------------------===//

TEST(Analysis, NaNFromRankDeficiencyIsMaximalError) {
  // v2 = 2*v1; after projection v2' is exactly 0 in the reals but rounding
  // garbage in floats; normalizing divides real 0 by real 0 => real NaN vs
  // finite float garbage, i.e. 64 bits of error at the output.
  ProgramBuilder B;
  auto V1x = B.input(0);
  auto V1y = B.input(1);
  auto Two = B.constF64(2.0);
  auto Eps = B.constF64(1e-17);
  // v2 = 2*v1 perturbed so the float dot products round.
  auto V2x = B.op(Opcode::MulF64, V1x, B.op(Opcode::AddF64, Two, Eps));
  auto V2y = B.op(Opcode::MulF64, V1y, B.op(Opcode::AddF64, Two, Eps));
  // proj = (v2 . v1) / (v1 . v1)
  auto Dot21 = B.op(Opcode::AddF64, B.op(Opcode::MulF64, V2x, V1x),
                    B.op(Opcode::MulF64, V2y, V1y));
  auto Dot11 = B.op(Opcode::AddF64, B.op(Opcode::MulF64, V1x, V1x),
                    B.op(Opcode::MulF64, V1y, V1y));
  auto Proj = B.op(Opcode::DivF64, Dot21, Dot11);
  // v2' = v2 - proj*v1 (exactly zero in the reals)
  auto Wx = B.op(Opcode::SubF64, V2x, B.op(Opcode::MulF64, Proj, V1x));
  auto Wy = B.op(Opcode::SubF64, V2y, B.op(Opcode::MulF64, Proj, V1y));
  // normalize: q = w / ||w||
  auto Norm = B.op(Opcode::SqrtF64,
                   B.op(Opcode::AddF64, B.op(Opcode::MulF64, Wx, Wx),
                        B.op(Opcode::MulF64, Wy, Wy)));
  B.out(B.op(Opcode::DivF64, Wx, Norm));
  B.halt();

  Herbgrind HG(B.finish());
  HG.runOnInput({0.3, 0.7});
  Report Rep = buildReport(HG);
  ASSERT_FALSE(Rep.Spots.empty()) << "expected an erroneous output spot";
  EXPECT_GE(Rep.Spots[0].MaxErrorBits, 63.0);
  EXPECT_FALSE(Rep.Spots[0].RootCauses.empty());
}

//===----------------------------------------------------------------------===//
// Optimization toggles keep results identical
//===----------------------------------------------------------------------===//

TEST(Analysis, OptimizationTogglesPreserveResults) {
  Program P = plotterKernel();
  auto RunWith = [&](bool TypeAnalysis, bool Share, bool Pools) {
    AnalysisConfig Cfg;
    Cfg.UseTypeAnalysis = TypeAnalysis;
    Cfg.SharedShadowValues = Share;
    Cfg.UsePools = Pools;
    Herbgrind HG(P, Cfg);
    Rng Rand(55);
    for (int I = 0; I < 16; ++I)
      HG.runOnInput(
          {Rand.uniformReal(0.01, 0.25), Rand.uniformReal(-1e-9, 1e-9)});
    Report Rep = buildReport(HG);
    return Rep.render();
  };
  std::string Baseline = RunWith(true, true, true);
  EXPECT_EQ(RunWith(false, true, true), Baseline);
  EXPECT_EQ(RunWith(true, false, true), Baseline);
  EXPECT_EQ(RunWith(true, true, false), Baseline);
  EXPECT_EQ(RunWith(false, false, false), Baseline);
}

TEST(Analysis, StatsAreCollected) {
  Program P = plotterKernel();
  Herbgrind HG(P);
  HG.runOnInput({0.1, 1e-9});
  AnalysisStats St = HG.stats();
  EXPECT_GT(St.InstrumentedSteps, 0u);
  EXPECT_GT(St.ShadowOpsExecuted, 0u);
  EXPECT_GT(St.TraceNodesAllocated, 0u);
  EXPECT_GT(St.ShadowValuesAllocated, 0u);
}

TEST(Analysis, ReportRendersPaperStyle) {
  Program P = plotterKernel();
  Herbgrind HG(P);
  Rng Rand(66);
  for (int I = 0; I < 32; ++I)
    HG.runOnInput(
        {Rand.uniformReal(0.01, 0.25), Rand.uniformReal(-1e-9, 1e-9)});
  std::string Text = buildReport(HG).render();
  EXPECT_NE(Text.find("Output @ main.cpp:24 in run(int, int)"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("Influenced by erroneous expressions:"),
            std::string::npos);
  EXPECT_NE(Text.find("(FPCore (x y)"), std::string::npos);
  EXPECT_NE(Text.find("Example problematic input:"), std::string::npos);
}
