//===- analysis/ErrorPredict.cpp - Tier-0 cheap error predicates ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "analysis/ErrorPredict.h"

#include "support/FloatBits.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace herbgrind {
namespace errpredict {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double maxBitsFor(ValueType Ty) { return Ty == ValueType::F32 ? 32.0 : 64.0; }

/// The maximally-suspect prediction: unbounded error.
constexpr PredVal Suspect = {0.0, kInf};

/// The concrete scalar of an argument as a double (F32 promotes exactly).
double scalarOf(const Value &V) {
  switch (V.Ty) {
  case ValueType::F64:
    return V.F64;
  case ValueType::F32:
    return static_cast<double>(V.F32);
  case ValueType::I64:
    return static_cast<double>(V.I64);
  default:
    return std::numeric_limits<double>::quiet_NaN();
  }
}

/// One ulp of \p Ty at magnitude \p M (M >= 0, finite).
double ulpAt(double M, ValueType Ty) {
  if (Ty == ValueType::F32) {
    float F = static_cast<float>(M);
    if (std::isinf(F))
      return kInf;
    float AbsF = std::fabs(F);
    return static_cast<double>(std::nextafterf(AbsF, kInf) - AbsF);
  }
  double AbsM = std::fabs(M);
  return std::nextafter(AbsM, kInf) - AbsM;
}

/// A little POD accumulating the per-op interval analysis. Drift is the
/// propagated |real - concrete| contribution (Lipschitz x incoming error
/// bound), Spread the argument-rounding contribution (Lipschitz x half-ulp
/// radius) that only shows up in the local-error comparison, and RSlack
/// the result's own rounding slack (0 for exact ops).
struct Terms {
  double Drift = 0.0;
  double Spread = 0.0;
  double RSlack = 0.0;
  bool Unknown = false; ///< Derivative unboundable: everything is suspect.

  void addLip(double Lip, double Err, double Ulp) {
    Drift += mulNoFlush(Lip, Err);
    Spread += mulNoFlush(Lip, Ulp);
  }
  void unknown() { Unknown = true; }

private:
  /// A bound that silently underflows to zero stops being a bound; keep
  /// at least one subnormal quantum of it.
  static double mulNoFlush(double A, double B) {
    double P = A * B;
    if (P == 0.0 && A != 0.0 && B != 0.0)
      return std::numeric_limits<double>::denorm_min();
    return P;
  }
};

/// 2Sum (Knuth): the rounding error of s = fl(a + b), exact for any
/// finite a, b, s in round-to-nearest, with no ordering requirement.
double twoSumResidual(double A, double B, double S) {
  double Bv = S - A;
  double Av = S - Bv;
  return (A - Av) + (B - Bv);
}

/// Running-error refinement: for ops whose rounding residual is exactly
/// representable (2Sum for +/-, fma-based 2Prod for *, fma(q, b, -a)
/// for /), replace the interval result with a *signed* estimate
///   real = concrete + Delta, up to +-Noise
/// propagated through the op in double arithmetic. Delta carries the
/// residual with its sign, so compensated algorithms that re-inject it
/// (Kahan) see their accumulated Delta telescope back toward zero.
///
/// Crucially, the roundoff of folding Delta itself is not *estimated*
/// but measured exactly, by running 2Sum/2Prod a second level down on
/// the fold: Noise grows by exactly what the fold dropped, which for
/// compensated loops over representable data is exactly nothing. An
/// estimated slop (any fixed epsilon times the fold's magnitude) would
/// feed the Sum->Comp->Sum noise cycle and compound geometrically; the
/// exact slop keeps the cycle at zero until a fold genuinely rounds.
///
/// Soundness: each row establishes |real - (CR + DeltaOut)| <= NoiseOut
/// with NoiseOut = (NoiseIn + Slop) * (1 + 2^-44), where Slop sums the
/// exact fold residuals and the inflation covers the (nonnegative-sum)
/// rounding of the Noise expression itself. The one place a residual can
/// be *inexact* is an fma whose product sits so low that the residual's
/// bits fall below the subnormal quantum; those get a fixed few-DMin
/// floor. Double *additions* that land subnormal are exact, so 2Sum
/// needs no such guard. Any non-finite intermediate keeps the interval
/// fallback, which has already degraded appropriately.
void refineRunningError(Opcode Op, const double *C, const PredVal *Args,
                        double CR, PredVal &P) {
  constexpr double DMin = std::numeric_limits<double>::denorm_min();
  double D0 = Args[0].Delta, N0 = Args[0].Noise;
  double DeltaOut, Slop, NoiseIn;
  switch (Op) {
  case Opcode::AddF64:
  case Opcode::SubF64: {
    double D1 = Args[1].Delta, N1 = Args[1].Noise;
    double A = C[0], B = Op == Opcode::SubF64 ? -C[1] : C[1];
    if (Op == Opcode::SubF64)
      D1 = -D1;
    double R = twoSumResidual(A, B, CR);
    // Fold the three delta terms, measuring each fold's own roundoff.
    double S1 = D0 + D1;
    double E1 = twoSumResidual(D0, D1, S1);
    DeltaOut = S1 + R;
    double E2 = twoSumResidual(S1, R, DeltaOut);
    Slop = std::fabs(E1) + std::fabs(E2);
    NoiseIn = N0 + N1;
    break;
  }
  case Opcode::MulF64: {
    // 2Prod: fma(a, b, -p) is the exact residual of p = fl(a * b).
    // real0 * real1 = (a + d0 +- n0)(b + d1 +- n1)
    //              = p + r + a*d1 + b*d0 + d0*d1
    //                +- (n0*(|b| + |d1| + n1) + n1*(|a| + |d0|)).
    double D1 = Args[1].Delta, N1 = Args[1].Noise;
    double R = std::fma(C[0], C[1], -CR);
    double P0 = C[1] * D0, F0 = std::fma(C[1], D0, -P0);
    double P1 = C[0] * D1, F1 = std::fma(C[0], D1, -P1);
    double P2 = D0 * D1, F2 = std::fma(D0, D1, -P2);
    double S1 = P0 + P1;
    double E1 = twoSumResidual(P0, P1, S1);
    double S2 = S1 + P2;
    double E2 = twoSumResidual(S1, P2, S2);
    DeltaOut = S2 + R;
    double E3 = twoSumResidual(S2, R, DeltaOut);
    Slop = ((std::fabs(F0) + std::fabs(F1)) + std::fabs(F2)) +
           ((std::fabs(E1) + std::fabs(E2)) + std::fabs(E3));
    // An fma residual is exact only while the product's low-order bits
    // stay representable; near the subnormal floor (product magnitude
    // below ~2^-968 with both factors nonzero) up to half a quantum per
    // residual can be lost.
    auto Hazard = [](double Prod, double A, double B) {
      return A != 0.0 && B != 0.0 && std::fabs(Prod) < 0x1p-968;
    };
    if (Hazard(CR, C[0], C[1]) || Hazard(P0, C[1], D0) ||
        Hazard(P1, C[0], D1) || Hazard(P2, D0, D1))
      Slop += 4.0 * DMin;
    NoiseIn = N0 * ((std::fabs(C[1]) + std::fabs(D1)) + N1) +
              N1 * (std::fabs(C[0]) + std::fabs(D0));
    // The noise products can flush to zero below NoiseIn's resolution;
    // the floor costs two subnormal quanta of tightness.
    if (N0 != 0.0 || N1 != 0.0)
      NoiseIn += 2.0 * DMin;
    break;
  }
  case Opcode::DivF64: {
    // Division has an exact residual too: for q = fl(a / b), the value
    // q*b - a is representable (away from the subnormal floor), so
    // r = fma(q, b, -a) recovers it exactly and a - q*b = -r. With
    // real0 = a + d0 +- n0 and real1 = b + d1 +- n1,
    //   real0/real1 - q = (-r + d0 - q*d1 +- (n0 + |q|*n1))
    //                     / (b + d1 +- n1).
    // The numerator folds with measured residuals like the mul row; the
    // denominator's wiggle and the final division's own rounding become
    // noise terms bounded through DenLo = |b| - (|d1| + n1).
    double D1 = Args[1].Delta, N1 = Args[1].Noise;
    double W1 = std::fabs(D1) + N1;
    double DenLo = std::fabs(C[1]) - W1;
    if (!(DenLo > 0.0))
      return; // denominator interval reaches zero: keep the fallback
    auto Hazard = [](double Prod, double A, double B) {
      return A != 0.0 && B != 0.0 && std::fabs(Prod) < 0x1p-968;
    };
    // A noise product or quotient that flushes to zero stops being a
    // bound; substitute one subnormal quantum (the true value was below
    // it, so the substitute still dominates).
    auto MulNF = [](double A, double B) {
      double Q = A * B;
      return Q == 0.0 && A != 0.0 && B != 0.0 ? DMin : Q;
    };
    auto DivNF = [](double A, double B) {
      double Q = A / B;
      return Q == 0.0 && A != 0.0 ? DMin : Q;
    };
    double R = std::fma(CR, C[1], -C[0]);
    double P1 = CR * D1, F1 = std::fma(CR, D1, -P1);
    double S1 = D0 - P1;
    double E1 = twoSumResidual(D0, -P1, S1);
    double NumD = S1 - R; // the folded numerator -r + d0 - q*d1
    double E2 = twoSumResidual(S1, -R, NumD);
    double SlopNum = (std::fabs(F1) + std::fabs(E1)) + std::fabs(E2);
    if (Hazard(C[0], CR, C[1]) || Hazard(P1, CR, D1))
      SlopNum += 4.0 * DMin;
    DeltaOut = NumD / C[1];
    // The division's own rounding, measured exactly with one more fma:
    // NumD / b - DeltaOut = -RQ / b.
    double RQ = std::fma(DeltaOut, C[1], -NumD);
    double RQAbs = std::fabs(RQ);
    if (Hazard(NumD, DeltaOut, C[1]))
      RQAbs += DMin;
    double Ns = N0 + MulNF(std::fabs(CR), N1);
    // |trueDelta - DeltaOut| decomposes over
    //   Num/Den - NumD/b = (Num - NumD)/Den + NumD*(b - Den)/(Den*b)
    // plus the measured rounding of the division itself.
    double T1 = DivNF(Ns + SlopNum, DenLo);
    double T2 =
        DivNF(MulNF(std::fabs(NumD), W1), MulNF(std::fabs(C[1]), DenLo));
    NoiseIn = T1 + T2;
    Slop = DivNF(RQAbs, std::fabs(C[1]));
    // Subnormal-but-nonzero noise terms above round absolutely, not
    // relatively (the tail's relative inflation misses them); a few
    // quanta cover every such loss.
    if (Ns != 0.0 || SlopNum != 0.0 || W1 != 0.0 || RQAbs != 0.0)
      Slop += 4.0 * DMin;
    break;
  }
  case Opcode::NegF64:
    // Exact: real(-x) = -concrete - delta, noise unchanged.
    P.Delta = -D0;
    P.Noise = N0;
    return;
  case Opcode::AbsF64: {
    // Only when the value's interval excludes zero is |real| a plain
    // sign-flip of the estimate; a straddling interval stays fallback.
    double Reach = std::fabs(D0) + N0;
    if (!(std::fabs(C[0]) > Reach))
      return;
    P.Delta = C[0] < 0.0 ? -D0 : D0;
    P.Noise = N0;
    return;
  }
  case Opcode::F32toF64:
    // Widening is exact; the pair passes straight through.
    P.Delta = D0;
    P.Noise = N0;
    return;
  default:
    return;
  }

  // (1 + 2^-44) covers the nonnegative-sum roundings of the Slop and
  // NoiseIn expressions themselves (well under 2^9 of them, each 2^-53).
  double NoiseOut = (NoiseIn + Slop) * (1.0 + 0x1p-44);
  if (!std::isfinite(DeltaOut) || !std::isfinite(NoiseOut))
    return; // keep the interval fallback, already degraded appropriately
  // Adopt unconditionally (not min-of-bounds): the refinement is sound on
  // its own and at most a slop wider than the interval bound for one op,
  // while the signed estimate it preserves is what keeps *chains* tight --
  // an interval bound that wins an op by half an ulp forfeits every later
  // cancellation.
  P.Delta = DeltaOut;
  P.Noise = NoiseOut;
}

} // namespace

double halfUlpAround(double C, double E, ValueType Ty) {
  if (E == 0.0)
    return 0.0; // the real *is* the representable C: no rounding happens
  if (!std::isfinite(C) || !std::isfinite(E))
    return kInf;
  double M = std::fabs(C) + E;
  if (!std::isfinite(M))
    return kInf;
  double U = 0.5 * ulpAt(M, Ty);
  // Deep-subnormal flush: rounding an inexact real always costs
  // something, so never report zero.
  return U == 0.0 ? std::numeric_limits<double>::denorm_min() : U;
}

double predictedErrorBits(double Concrete, double AbsErr, ValueType Ty) {
  if (std::isnan(Concrete) || !std::isfinite(AbsErr))
    return maxBitsFor(Ty);
  if (AbsErr == 0.0)
    return 0.0;
  double Lo = Concrete - AbsErr;
  double Hi = Concrete + AbsErr;
  if (!std::isfinite(Lo) || !std::isfinite(Hi))
    return maxBitsFor(Ty);
  uint64_t Ulps;
  if (Ty == ValueType::F32) {
    float C = static_cast<float>(Concrete);
    Ulps = std::max(ulpsBetweenFloats(C, static_cast<float>(Lo)),
                    ulpsBetweenFloats(C, static_cast<float>(Hi)));
  } else {
    Ulps = std::max(ulpsBetweenDoubles(Concrete, Lo),
                    ulpsBetweenDoubles(Concrete, Hi));
  }
  return std::log2(static_cast<double>(Ulps) + 1.0);
}

PredVal predictScalarOp(Opcode Op, const Value *ArgConcrete,
                        const PredVal *Args, unsigned NumArgs,
                        const Value &ConcreteResult) {
  const OpInfo &Info = opInfo(Op);
  double CR = scalarOf(ConcreteResult);

  // Gather concrete scalars, incoming bounds, per-argument rounding radii
  // and widened radii. The interval rows below see each argument through
  // its collapsed unsigned bound E = |Delta| + Noise; only the exact-
  // residual refinement at the bottom looks at the signed split. Anything
  // non-finite in sight means the full-mode NaN rules may apply: degrade
  // to maximally suspect.
  double C[3] = {0, 0, 0}, E[3] = {0, 0, 0}, U[3] = {0, 0, 0},
         W[3] = {0, 0, 0};
  bool AnyNonFinite = !std::isfinite(CR);
  for (unsigned I = 0; I < NumArgs && I < 3; ++I) {
    C[I] = scalarOf(ArgConcrete[I]);
    E[I] = predTotal(Args[I].Delta, Args[I].Noise);
    U[I] = halfUlpAround(C[I], E[I], Info.OperandTy);
    W[I] = E[I] + U[I];
    if (!std::isfinite(C[I]) || !std::isfinite(W[I]))
      AnyNonFinite = true;
  }
  if (AnyNonFinite)
    return Suspect;

  Terms T;
  bool ResultRounds = true; // most ops round their result once
  switch (Op) {
  case Opcode::AddF64:
  case Opcode::SubF64:
  case Opcode::AddF32:
  case Opcode::SubF32:
    T.addLip(1.0, E[0], U[0]);
    T.addLip(1.0, E[1], U[1]);
    break;
  case Opcode::NegF64:
  case Opcode::AbsF64:
  case Opcode::NegF32:
  case Opcode::AbsF32:
    T.addLip(1.0, E[0], U[0]);
    ResultRounds = false;
    break;
  case Opcode::MulF64:
  case Opcode::MulF32:
    T.addLip(std::fabs(C[1]) + W[1], E[0], U[0]);
    T.addLip(std::fabs(C[0]) + W[0], E[1], U[1]);
    break;
  case Opcode::DivF64:
  case Opcode::DivF32: {
    double DenomLo = std::fabs(C[1]) - W[1];
    if (DenomLo <= 0.0) {
      T.unknown();
      break;
    }
    T.addLip(1.0 / DenomLo, E[0], U[0]);
    // Divide twice instead of squaring (DenomLo^2 can overflow to inf and
    // zero the quotient), and keep an underflowed-but-nonzero derivative
    // from flushing the whole term away.
    double Lip1 = (std::fabs(C[0]) + W[0]) / DenomLo / DenomLo;
    if (Lip1 == 0.0 && C[0] != 0.0)
      Lip1 = std::numeric_limits<double>::denorm_min();
    T.addLip(Lip1, E[1], U[1]);
    break;
  }
  case Opcode::SqrtF64:
  case Opcode::SqrtF32: {
    if (W[0] == 0.0)
      break; // exact argument: sqrt rounds once, nothing propagates
    double Lo = C[0] - W[0];
    if (Lo <= 0.0) {
      T.unknown();
      break;
    }
    T.addLip(0.5 / std::sqrt(Lo), E[0], U[0]);
    break;
  }
  case Opcode::MinF64:
  case Opcode::MaxF64:
    // min/max are jointly 1-Lipschitz and produce one of their (already
    // representable) inputs: no result rounding, spread is the worst
    // argument's radius.
    T.Drift = std::max(E[0], E[1]);
    T.Spread = std::max(U[0], U[1]);
    ResultRounds = false;
    break;
  case Opcode::FmaF64:
    T.addLip(std::fabs(C[1]) + W[1], E[0], U[0]);
    T.addLip(std::fabs(C[0]) + W[0], E[1], U[1]);
    T.addLip(1.0, E[2], U[2]);
    break;
  case Opcode::CopySignF64:
    // Sound only when the sign donor cannot straddle zero.
    if (W[1] != 0.0 && std::fabs(C[1]) <= W[1]) {
      T.unknown();
      break;
    }
    T.addLip(1.0, E[0], U[0]);
    ResultRounds = false;
    break;

  case Opcode::ExpF64:
    T.addLip(std::exp(std::min(C[0] + W[0], 710.0)), E[0], U[0]);
    break;
  case Opcode::Exp2F64:
    T.addLip(std::exp2(std::min(C[0] + W[0], 1025.0)) * M_LN2, E[0], U[0]);
    break;
  case Opcode::Expm1F64:
    T.addLip(std::exp(std::min(C[0] + W[0], 710.0)), E[0], U[0]);
    break;
  case Opcode::LogF64: {
    double Lo = C[0] - W[0];
    if (Lo <= 0.0)
      T.unknown();
    else
      T.addLip(1.0 / Lo, E[0], U[0]);
    break;
  }
  case Opcode::Log2F64: {
    double Lo = C[0] - W[0];
    if (Lo <= 0.0)
      T.unknown();
    else
      T.addLip(1.0 / (Lo * M_LN2), E[0], U[0]);
    break;
  }
  case Opcode::Log10F64: {
    double Lo = C[0] - W[0];
    if (Lo <= 0.0)
      T.unknown();
    else
      T.addLip(1.0 / (Lo * M_LN10), E[0], U[0]);
    break;
  }
  case Opcode::Log1pF64: {
    double Lo = 1.0 + (C[0] - W[0]);
    if (Lo <= 0.0)
      T.unknown();
    else
      T.addLip(1.0 / Lo, E[0], U[0]);
    break;
  }
  case Opcode::SinF64:
  case Opcode::CosF64:
  case Opcode::AtanF64:
  case Opcode::TanhF64:
    T.addLip(1.0, E[0], U[0]);
    break;
  case Opcode::TanF64: {
    if (W[0] == 0.0)
      break;
    // tan is monotone between poles; a pole inside [lo, hi] shows up as
    // tan(lo) > tan(hi). Wide intervals can wrap a whole period, which
    // that test misses, so refuse them outright.
    double Lo = C[0] - W[0], Hi = C[0] + W[0];
    if (W[0] >= 1.0) {
      T.unknown();
      break;
    }
    double TLo = std::tan(Lo), THi = std::tan(Hi);
    if (!(TLo <= THi)) {
      T.unknown();
      break;
    }
    double MaxT2 = std::max(TLo * TLo, THi * THi);
    T.addLip(1.0 + MaxT2, E[0], U[0]);
    break;
  }
  case Opcode::AsinF64:
  case Opcode::AcosF64: {
    double M = std::fabs(C[0]) + W[0];
    if (M >= 1.0) {
      if (W[0] == 0.0 && std::fabs(C[0]) == 1.0)
        break; // exact endpoint: result is exact +-pi/2 / 0 / pi, rounded
      T.unknown();
      break;
    }
    T.addLip(1.0 / std::sqrt(1.0 - M * M), E[0], U[0]);
    break;
  }
  case Opcode::Atan2F64: {
    // atan2(y, x): |grad| <= 1/r. Bound r from below over the box, and
    // refuse boxes that can touch the branch cut (negative x axis) or the
    // origin.
    double RLo = std::hypot(C[0], C[1]) - (W[0] + W[1]);
    bool CutRisk = (C[1] - W[1]) < 0.0 && std::fabs(C[0]) <= W[0];
    if (RLo <= 0.0 || (CutRisk && (W[0] != 0.0 || W[1] != 0.0))) {
      T.unknown();
      break;
    }
    T.addLip(1.0 / RLo, E[0], U[0]);
    T.addLip(1.0 / RLo, E[1], U[1]);
    break;
  }
  case Opcode::SinhF64:
  case Opcode::CoshF64:
    T.addLip(std::cosh(std::min(std::fabs(C[0]) + W[0], 710.0)), E[0], U[0]);
    break;
  case Opcode::PowF64: {
    if (W[0] == 0.0 && W[1] == 0.0)
      break; // exact args: one rounded result
    double ALo = C[0] - W[0], AHi = C[0] + W[0];
    double BLo = C[1] - W[1], BHi = C[1] + W[1];
    if (ALo <= 0.0) {
      T.unknown();
      break;
    }
    // a^b is coordinate-wise monotone on a > 0, so the box's extreme is
    // at a corner.
    double MaxCorner = 0.0;
    for (double A : {ALo, AHi})
      for (double B : {BLo, BHi})
        MaxCorner = std::max(MaxCorner, std::pow(A, B));
    if (!std::isfinite(MaxCorner)) {
      T.unknown();
      break;
    }
    double MaxAbsB = std::max(std::fabs(BLo), std::fabs(BHi));
    double MaxAbsLogA =
        std::max(std::fabs(std::log(ALo)), std::fabs(std::log(AHi)));
    T.addLip(MaxAbsB * MaxCorner / ALo, E[0], U[0]);
    T.addLip(MaxAbsLogA * MaxCorner, E[1], U[1]);
    break;
  }
  case Opcode::CbrtF64: {
    if (W[0] == 0.0)
      break;
    double M = std::fabs(C[0]) - W[0];
    if (M <= 0.0) {
      T.unknown();
      break;
    }
    T.addLip(1.0 / (3.0 * std::cbrt(M * M)), E[0], U[0]);
    break;
  }
  case Opcode::HypotF64:
    T.addLip(1.0, E[0], U[0]);
    T.addLip(1.0, E[1], U[1]);
    break;
  case Opcode::FmodF64:
    // Exact on representables, but discontinuous: any wiggle can jump by
    // |b|.
    if (W[0] != 0.0 || W[1] != 0.0)
      T.unknown();
    else
      ResultRounds = false;
    break;

  case Opcode::FloorF64:
  case Opcode::CeilF64:
  case Opcode::RoundF64:
  case Opcode::TruncF64: {
    ResultRounds = false;
    if (W[0] == 0.0)
      break;
    auto Apply = [Op](double X) {
      switch (Op) {
      case Opcode::FloorF64:
        return std::floor(X);
      case Opcode::CeilF64:
        return std::ceil(X);
      case Opcode::RoundF64:
        return std::round(X);
      default:
        return std::trunc(X);
      }
    };
    double FLo = Apply(C[0] - W[0]), FHi = Apply(C[0] + W[0]);
    if (FLo != FHi) {
      // The interval straddles a step: both the real's and the rounded
      // argument's results live in [FLo, FHi].
      T.Drift = FHi - FLo;
    }
    break;
  }

  case Opcode::F64toF32:
    T.addLip(1.0, E[0], U[0]);
    break;
  case Opcode::F32toF64:
    T.addLip(1.0, E[0], U[0]);
    ResultRounds = false; // every float is a double
    break;

  default:
    // No derivative table entry. Exact inputs still give an exact real
    // (modulo one result rounding); anything inexact is unboundable.
    if (W[0] != 0.0 || (NumArgs > 1 && W[1] != 0.0) ||
        (NumArgs > 2 && W[2] != 0.0))
      T.unknown();
    break;
  }

  if (T.Unknown || !std::isfinite(T.Drift) || !std::isfinite(T.Spread))
    return Suspect;

  // Result-rounding slack: half an ulp at the widened result magnitude for
  // correctly-rounded ops, 4 ulps of headroom for libm calls (glibc is
  // faithful at best, and cbrt in particular is documented up to ~3 ulp
  // off on some targets).
  double RSlack = 0.0;
  if (ResultRounds) {
    double Reach = std::fabs(CR) + T.Drift + T.Spread;
    if (!std::isfinite(Reach))
      return Suspect;
    RSlack = 0.5 * ulpAt(Reach, Info.ResultTy);
    if (Info.IsLibCall)
      RSlack *= 8.0;
    // A rounding result can hide up to half a subnormal quantum even when
    // it lands on zero (concrete underflow of a tiny exact product);
    // flushing the slack to zero would certify such values as exact.
    if (RSlack == 0.0)
      RSlack = std::numeric_limits<double>::denorm_min();
  }

  // Interval fallback: no signed estimate, everything is Noise, and
  // |real result - concrete result| <= drift + the concrete's own rounding.
  PredVal P = {0.0, T.Drift + RSlack};
  refineRunningError(Op, C, Args, CR, P);
  return P;
}

bool comparisonSuspect(const Value &A, const Value &B, double ErrA,
                       double ErrB) {
  double CA = scalarOf(A), CB = scalarOf(B);
  if (!std::isfinite(CA) || !std::isfinite(CB) || !std::isfinite(ErrA) ||
      !std::isfinite(ErrB))
    return true;
  double Sum = ErrA + ErrB;
  return Sum > 0.0 && std::fabs(CA - CB) <= Sum;
}

bool conversionSuspect(double Concrete, double Err) {
  if (!std::isfinite(Concrete) || !std::isfinite(Err))
    return true;
  if (Err == 0.0)
    return false;
  // The real rounds to a double somewhere inside the (outward-nudged)
  // interval; if truncation is constant across it, the spot cannot
  // diverge. Values near the i64 boundary are always suspect.
  if (std::fabs(Concrete) + Err >= 9.2233720368547758e18)
    return true;
  double Lo = prevDouble(Concrete - Err), Hi = nextDouble(Concrete + Err);
  return std::trunc(Lo) != std::trunc(Hi);
}

bool outputSuspect(const Value &LaneVal, double Err, double ThresholdBits) {
  ValueType Ty = LaneVal.Ty == ValueType::F32 ? ValueType::F32 : ValueType::F64;
  double C = scalarOf(LaneVal);
  if (std::isnan(C))
    return true;
  double Reach = Err + halfUlpAround(C, Err, Ty);
  return predictedErrorBits(C, Reach, Ty) + kPredMarginBits > ThresholdBits;
}

} // namespace errpredict
} // namespace herbgrind
