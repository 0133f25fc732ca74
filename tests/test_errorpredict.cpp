//===- tests/test_errorpredict.cpp - Tier-0 predicate properties ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Property tests for the tier-0 error predicates (analysis/ErrorPredict):
// on seeded random op chains, the propagated AbsErr bound must dominate
// the true |real - concrete| deviation measured by the 256-bit BigFloat
// shadow, the predicted local-error bits must dominate the true local
// error the full analysis would flag, and the output predicate must fire
// on every value whose true error crosses the threshold (soundness). The
// price of soundness -- the false-positive escalation rate -- is measured
// and reported, with only a collapse guard asserted.
//
//===----------------------------------------------------------------------===//

#include "analysis/ErrorPredict.h"
#include "analysis/RealOps.h"
#include "ir/Opcode.h"
#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

using namespace herbgrind;
using namespace herbgrind::errpredict;

namespace {

/// One tier-0-tracked value next to its exact BigFloat shadow: the
/// ground truth the predicates are checked against.
struct Tracked {
  double C = 0.0; ///< Concrete double (what the program computes).
  BigFloat R;     ///< Exact real (256-bit shadow).
  PredVal P;      ///< Tier-0 running-error pair; |R - C| <= |Delta| + Noise.
  double predErr() const { return predTotal(P.Delta, P.Noise); }
};

/// |R - C| as a double. The bound side of the comparison gets the
/// tolerance (not this side): the bound's own double arithmetic and this
/// measurement's final rounding each wobble by parts in 2^52, and an
/// exactly-tight bound (common for add/sub) must still pass.
double trueAbsErr(const Tracked &T) {
  if (T.R.isNaN() || std::isnan(T.C))
    return std::isnan(T.C) && T.R.isNaN() ? 0.0
                                          : std::numeric_limits<double>::infinity();
  BigFloat D, CB = BigFloat::fromDouble(T.C);
  BigFloat::subInto(D, T.R, CB);
  return std::fabs(D.toDouble());
}

/// The ops the random chains draw from: the full predicate table's
/// interesting rows (cancellation, poles, domain edges, libm).
const Opcode ChainOps[] = {
    Opcode::AddF64,  Opcode::SubF64,  Opcode::MulF64,  Opcode::DivF64,
    Opcode::SqrtF64, Opcode::NegF64,  Opcode::AbsF64,  Opcode::MinF64,
    Opcode::MaxF64,  Opcode::FmaF64,  Opcode::SinF64,  Opcode::CosF64,
    Opcode::ExpF64,  Opcode::LogF64,  Opcode::Log1pF64, Opcode::Expm1F64,
    Opcode::CbrtF64, Opcode::AtanF64, Opcode::TanhF64, Opcode::HypotF64,
};

/// Applies one op to tracked values: concrete via evalScalarOp, exact via
/// evalRealOp, bound via predictScalarOp -- precisely the three paths the
/// tiered analysis keeps in correspondence.
Tracked applyTracked(Opcode Op, const std::vector<Tracked> &Args) {
  unsigned N = static_cast<unsigned>(Args.size());
  Value V[3];
  BigFloat R[3];
  PredVal E[3];
  for (unsigned I = 0; I < N; ++I) {
    V[I] = Value::ofF64(Args[I].C);
    R[I] = Args[I].R;
    E[I] = Args[I].P;
  }
  Tracked Out;
  Out.C = evalScalarOp(Op, V, N).F64;
  Out.R = evalRealOp(Op, R, N);
  PredVal P = predictScalarOp(Op, V, E, N, Value::ofF64(Out.C));
  Out.P = {P.Delta, P.Noise};
  return Out;
}

/// |R - (C + Delta)| as a double: how far the signed running estimate is
/// from the truth. Must stay within Noise for the pair to be sound. Both
/// subtractions happen in BigFloat -- rounding R - C to double first
/// would smear more than the noise bounds being checked.
double trueDeltaDev(const Tracked &T) {
  if (T.R.isNaN() || std::isnan(T.C) || !std::isfinite(T.P.Delta))
    return std::numeric_limits<double>::infinity();
  BigFloat D, D2, CB = BigFloat::fromDouble(T.C);
  BigFloat DB = BigFloat::fromDouble(T.P.Delta);
  BigFloat::subInto(D, T.R, CB);
  BigFloat::subInto(D2, D, DB);
  return std::fabs(D2.toDouble());
}

/// A random leaf: exact by construction (tier-0 leaves carry E = 0).
Tracked randomLeaf(Rng &Rand) {
  Tracked T;
  switch (Rand.nextBelow(4)) {
  case 0:
    T.C = Rand.betweenOrdinals(1.0, 1e15);
    break;
  case 1:
    T.C = Rand.betweenOrdinals(-10.0, 10.0);
    break;
  case 2:
    T.C = Rand.betweenOrdinals(1e-12, 1.0);
    break;
  default:
    T.C = Rand.uniformReal(-1.0, 1.0);
    break;
  }
  T.R = BigFloat::fromDouble(T.C);
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Soundness of the propagated absolute-error bound
//===----------------------------------------------------------------------===//

TEST(ErrorPredict, AbsErrBoundDominatesTrueErrorOnRandomChains) {
  Rng Rand(0xe7707);
  int Checked = 0, Useful = 0;
  for (int Trial = 0; Trial < 4000; ++Trial) {
    // A chain of 1-4 ops over 1-3 exact leaves.
    std::vector<Tracked> Pool;
    double MagMax = 0.0; // resolution scale of the 256-bit ground truth
    for (int L = 0; L < 3; ++L) {
      Pool.push_back(randomLeaf(Rand));
      MagMax = std::max(MagMax, std::fabs(Pool.back().C));
    }
    unsigned Len = 1 + static_cast<unsigned>(Rand.nextBelow(4));
    for (unsigned Step = 0; Step < Len; ++Step) {
      Opcode Op = ChainOps[Rand.nextBelow(sizeof(ChainOps) /
                                          sizeof(*ChainOps))];
      unsigned N = opInfo(Op).Arity;
      std::vector<Tracked> Args;
      for (unsigned I = 0; I < N; ++I)
        Args.push_back(Pool[Rand.nextBelow(Pool.size())]);
      Tracked Out = applyTracked(Op, Args);
      MagMax = std::max(MagMax, std::fabs(Out.C));

      ++Checked;
      double True = trueAbsErr(Out);
      // The exact-residual rows can track errors *below* what the
      // 256-bit BigFloat ground truth resolves (it rounds a real like
      // 0.6 + 1e-78 back to 0.6). Only assert contracts the measurement
      // can actually see: bounds above the shadow's own rounding floor,
      // ~2^-250 of the largest magnitude in the chain.
      double Floor = MagMax * 0x1p-200;
      if (std::isfinite(Out.predErr())) {
        ++Useful;
        if (Out.predErr() >= Floor)
          EXPECT_LE(True, Out.predErr() * (1.0 + 1e-9))
              << "op " << opInfo(Op).Name << " trial " << Trial
              << " concrete " << Out.C;
        // The sharper running-error contract: the signed estimate tracks
        // the truth to within its own noise bound.
        if (Out.P.Noise >= Floor)
          EXPECT_LE(trueDeltaDev(Out), Out.P.Noise * (1.0 + 1e-9))
              << "op " << opInfo(Op).Name << " trial " << Trial
              << " delta " << Out.P.Delta << " concrete " << Out.C;
      }
      Pool.push_back(Out);
    }
  }
  // The bound must be *useful*, not inf everywhere: most random ops land
  // in the known rows of the predicate table.
  EXPECT_GT(Useful * 2, Checked);
}

//===----------------------------------------------------------------------===//
// The exact-residual div refinement
//===----------------------------------------------------------------------===//

TEST(ErrorPredict, DivRefinementRecoversExactResidualOnExactInputs) {
  // For exact operands the refined div row must carry the *true*
  // rounding error of q = fl(a/b) as its signed Delta -- computed as
  // -fma(q, b, -a) / b -- with a Noise bound orders of magnitude below
  // the interval row's half-ulp (whose Delta is 0).
  Rng Rand(0xd1f);
  int Inexact = 0;
  for (int Trial = 0; Trial < 2000; ++Trial) {
    double A = Rand.betweenOrdinals(1.0, 1e9);
    double B = Rand.betweenOrdinals(1.0, 1e6);
    if (Rand.nextBelow(2))
      A = -A;
    if (Rand.nextBelow(2))
      B = -B;
    double Q = A / B;
    Value V[2] = {Value::ofF64(A), Value::ofF64(B)};
    PredVal E[2]; // exact leaves
    PredVal P = predictScalarOp(Opcode::DivF64, V, E, 2, Value::ofF64(Q));
    double R = std::fma(Q, B, -A);
    EXPECT_EQ(P.Delta, -R / B) << "trial " << Trial;
    EXPECT_LT(P.Noise, 0x1p-80 * std::fabs(Q) + 1e-300) << "trial " << Trial;
    if (R != 0.0)
      ++Inexact;
    // The pair must still be sound against the BigFloat ground truth.
    Tracked T;
    T.C = Q;
    T.R = evalRealOp(Opcode::DivF64,
                     std::array<BigFloat, 2>{BigFloat::fromDouble(A),
                                             BigFloat::fromDouble(B)}
                         .data(),
                     2);
    T.P = {P.Delta, P.Noise};
    double Floor = std::fabs(Q) * 0x1p-200;
    if (T.P.Noise >= Floor)
      EXPECT_LE(trueDeltaDev(T), T.P.Noise * (1.0 + 1e-9)) << "trial " << Trial;
  }
  ASSERT_GT(Inexact, 0) << "vacuous: every sampled quotient was exact";
}

TEST(ErrorPredict, DivRefinementStaysSoundWithErroneousArguments) {
  // Feed the div row argument pairs that already carry signed error and
  // noise, and check |real - (q + Delta)| <= Noise against a BigFloat
  // evaluation of the *true* perturbed quotient at the Delta corner.
  Rng Rand(0xd1f2);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    double A = Rand.betweenOrdinals(1.0, 1e9);
    double B = Rand.betweenOrdinals(1.0, 1e6);
    if (Rand.nextBelow(2))
      A = -A;
    if (Rand.nextBelow(2))
      B = -B;
    double DA = Rand.uniformReal(-1e-8, 1e-8) * A;
    double DB = Rand.uniformReal(-1e-8, 1e-8) * B;
    PredVal E[2] = {{DA, 0.0}, {DB, 0.0}};
    double Q = A / B;
    Value V[2] = {Value::ofF64(A), Value::ofF64(B)};
    PredVal P = predictScalarOp(Opcode::DivF64, V, E, 2, Value::ofF64(Q));
    ASSERT_TRUE(std::isfinite(P.Noise)) << "trial " << Trial;
    // real0 = A + DA exactly, real1 = B + DB exactly (Noise = 0).
    BigFloat RA, RB, RQ;
    BigFloat::addInto(RA, BigFloat::fromDouble(A), BigFloat::fromDouble(DA));
    BigFloat::addInto(RB, BigFloat::fromDouble(B), BigFloat::fromDouble(DB));
    RQ = BigFloat::div(RA, RB);
    Tracked T;
    T.C = Q;
    T.R = RQ;
    T.P = {P.Delta, P.Noise};
    double Floor = std::fabs(Q) * 0x1p-200;
    if (T.P.Noise >= Floor)
      EXPECT_LE(trueDeltaDev(T), T.P.Noise * (1.0 + 1e-9))
          << "trial " << Trial << " A " << A << " B " << B;
  }
}

//===----------------------------------------------------------------------===//
// Soundness of the output predicate (what escalation hinges on)
//===----------------------------------------------------------------------===//

TEST(ErrorPredict, OutputPredicateFiresOnEveryTrulyErroneousValue) {
  const double Threshold = 5.0; // Cfg.OutputErrorThreshold's default.
  Rng R2(0x50a75);
  uint64_t Erroneous = 0, Missed = 0, Clean = 0, FalsePositive = 0;
  for (int Trial = 0; Trial < 4000; ++Trial) {
    std::vector<Tracked> Pool;
    for (int L = 0; L < 3; ++L)
      Pool.push_back(randomLeaf(R2));
    unsigned Len = 1 + static_cast<unsigned>(R2.nextBelow(4));
    Tracked Out = Pool[0];
    for (unsigned Step = 0; Step < Len; ++Step) {
      Opcode Op = ChainOps[R2.nextBelow(sizeof(ChainOps) / sizeof(*ChainOps))];
      unsigned N = opInfo(Op).Arity;
      std::vector<Tracked> Args;
      for (unsigned I = 0; I < N; ++I)
        Args.push_back(Pool[R2.nextBelow(Pool.size())]);
      Out = applyTracked(Op, Args);
      Pool.push_back(Out);
    }

    // Ground truth: the error bits the full shadow would report for this
    // value at an output spot.
    double TrueBits = std::isnan(Out.C) || Out.R.isNaN()
                          ? 64.0
                          : bitsOfErrorDouble(Out.C, Out.R.toDouble());
    bool TrulyErroneous = TrueBits > Threshold;
    bool Suspect =
        outputSuspect(Value::ofF64(Out.C), Out.predErr(), Threshold);

    if (TrulyErroneous) {
      ++Erroneous;
      if (!Suspect)
        ++Missed;
      EXPECT_TRUE(Suspect) << "trial " << Trial << ": true error "
                           << TrueBits << " bits escaped the predicate";
    } else {
      ++Clean;
      if (Suspect)
        ++FalsePositive;
    }
  }
  EXPECT_EQ(Missed, 0u);
  ASSERT_GT(Erroneous, 0u) << "vacuous: no chain was actually erroneous";
  ASSERT_GT(Clean, 0u) << "vacuous: every chain was erroneous";

  // The cost of soundness, reported not asserted (beyond a collapse
  // guard): how often a clean value would still escalate.
  double FpRate = static_cast<double>(FalsePositive) /
                  static_cast<double>(Clean);
  std::printf("[ tier-0 ] %llu erroneous (0 missed), %llu clean, "
              "false-positive escalation rate %.1f%%\n",
              static_cast<unsigned long long>(Erroneous),
              static_cast<unsigned long long>(Clean), 100.0 * FpRate);
  ::testing::Test::RecordProperty("tier0_false_positive_rate_percent",
                                  static_cast<int>(100.0 * FpRate));
  EXPECT_LT(FpRate, 0.9) << "predicate collapsed: it escalates everything";
}

//===----------------------------------------------------------------------===//
// The spot predicates
//===----------------------------------------------------------------------===//

TEST(ErrorPredict, ComparisonPredicate) {
  Value A = Value::ofF64(1.0), B = Value::ofF64(2.0);
  // Far apart relative to the bounds: the comparison cannot flip.
  EXPECT_FALSE(comparisonSuspect(A, B, 0.25, 0.25));
  // Bounds overlap the gap: suspect.
  EXPECT_TRUE(comparisonSuspect(A, B, 0.75, 0.75));
  // Exact values never flip.
  EXPECT_FALSE(comparisonSuspect(A, B, 0.0, 0.0));
  // Equal concretes with any uncertainty: suspect.
  EXPECT_TRUE(comparisonSuspect(A, A, 1e-300, 0.0));
  // NaN anywhere with any uncertainty: suspect.
  EXPECT_TRUE(comparisonSuspect(Value::ofF64(std::nan("")), B, 0.0, 0.25));
  EXPECT_TRUE(comparisonSuspect(A, B, 0.0, HUGE_VAL));
  // An exact pair is clean whatever its values: its reals are its
  // concretes, so the real predicate is the float predicate.
  EXPECT_FALSE(comparisonSuspect(Value::ofF64(std::nan("")), B, 0.0, 0.0));
  EXPECT_FALSE(comparisonSuspect(Value::ofF64(HUGE_VAL), B, 0.0, 0.0));
}

TEST(ErrorPredict, ConversionPredicate) {
  // Exact value: truncation cannot diverge.
  EXPECT_FALSE(conversionSuspect(3.75, 0.0));
  // Error too small to cross an integer boundary.
  EXPECT_FALSE(conversionSuspect(3.5, 0.25));
  // Error reaches across the boundary at 4.
  EXPECT_TRUE(conversionSuspect(3.9, 0.2));
  // Sign-crossing truncation.
  EXPECT_TRUE(conversionSuspect(0.5, 0.75));
  // Exact out of int64 range: shadow and concrete saturate identically,
  // so no divergence is possible.
  EXPECT_FALSE(conversionSuspect(1e19, 0.0));
  // Inexact near or past the boundary: always suspect.
  EXPECT_TRUE(conversionSuspect(1e19, 1.0));
  EXPECT_TRUE(conversionSuspect(9.2e18, 1e17));
  // An exact non-finite operand (a raw input) truncates the same way on
  // both sides: NaN to 0, infinities to the saturated ends.
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(conversionSuspect(std::nan(""), 0.0));
  EXPECT_FALSE(conversionSuspect(Inf, 0.0));
  EXPECT_FALSE(conversionSuspect(-Inf, 0.0));
  // Inexact non-finite values stay suspect.
  EXPECT_TRUE(conversionSuspect(std::nan(""), 1.0));
  EXPECT_TRUE(conversionSuspect(Inf, 1.0));
  EXPECT_TRUE(conversionSuspect(-Inf, 0.5));
  EXPECT_TRUE(conversionSuspect(1.0, Inf));
}

TEST(ErrorPredict, OutputPredicateEdgeCases) {
  // NaN concrete is maximal error in the full analysis even for an
  // unshadowed value, so the predicate must fire regardless of the bound.
  EXPECT_TRUE(outputSuspect(Value::ofF64(std::nan("")), 0.0, 5.0));
  // Exact values never fire.
  EXPECT_FALSE(outputSuspect(Value::ofF64(1.5), 0.0, 5.0));
  // A bound far above the threshold fires.
  EXPECT_TRUE(outputSuspect(Value::ofF64(1.0), 0.5, 5.0));
}

TEST(ErrorPredict, HalfUlpKeepsExactValuesExact) {
  EXPECT_EQ(halfUlpAround(1.5, 0.0, ValueType::F64), 0.0);
  EXPECT_EQ(halfUlpAround(0.0, 0.0, ValueType::F32), 0.0);
  EXPECT_GT(halfUlpAround(1.5, 1e-18, ValueType::F64), 0.0);
}

TEST(ErrorPredict, PredictedErrorBitsBasics) {
  EXPECT_EQ(predictedErrorBits(1.0, 0.0, ValueType::F64), 0.0);
  // An error of one ulp at 1.0 is about one bit.
  double Ulp = std::nextafter(1.0, 2.0) - 1.0;
  double Bits = predictedErrorBits(1.0, Ulp, ValueType::F64);
  EXPECT_GT(Bits, 0.5);
  EXPECT_LT(Bits, 3.0);
  // Non-finite inputs saturate.
  EXPECT_EQ(predictedErrorBits(std::nan(""), 0.0, ValueType::F64), 64.0);
  EXPECT_EQ(
      predictedErrorBits(1.0, std::numeric_limits<double>::infinity(),
                         ValueType::F64),
      64.0);
}
