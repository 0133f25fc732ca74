//===- tests/test_bigfloat.cpp - BigFloat core arithmetic tests -----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The strongest oracle available offline is IEEE-754 itself: hardware double
// +, -, *, /, sqrt are correctly rounded, and BigFloat at >= 128 bits applied
// to double inputs is exact (+,-,*) or correctly rounded with sticky (/,
// sqrt), so converting the BigFloat result back to double must reproduce the
// hardware result bit-for-bit (barring astronomically unlikely double-
// rounding ties for / and sqrt, which the fixed test seeds do not hit).
//
//===----------------------------------------------------------------------===//

#include "real/BigFloat.h"

#include "ir/Opcode.h"
#include "real/RealMath.h"

#include "support/FloatBits.h"
#include "support/LimbAlloc.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

using namespace herbgrind;

namespace {

/// Random double spread over interesting magnitudes.
double randomDouble(Rng &R) {
  switch (R.nextBelow(4)) {
  case 0:
    return R.uniformReal(-1.0, 1.0);
  case 1:
    return R.betweenOrdinals(-1e30, 1e30);
  case 2:
    return R.anyFiniteDouble();
  default:
    return R.uniformReal(-1e6, 1e6);
  }
}

bool sameDoubleBits(double A, double B) {
  if (std::isnan(A) && std::isnan(B))
    return true;
  return bitsOfDouble(A) == bitsOfDouble(B);
}

class BigFloatPrecisionTest : public ::testing::TestWithParam<size_t> {};

/// Sweeps every limb count from 1 to 8: precisions 64..256 exercise the
/// inline-limb representation, 320..512 the spilled one. Results must be
/// bit-identical across the inline/heap boundary.
class BigFloatLimbSweepTest : public ::testing::TestWithParam<size_t> {};

/// V <<= Shift for Shift < 64 (bits shifted past the top are dropped).
void shiftLeftSmall(std::vector<uint64_t> &V, unsigned Shift) {
  for (size_t I = V.size(); I-- > 0;)
    V[I] = (V[I] << Shift) | (I > 0 ? V[I - 1] >> (64 - Shift) : 0);
}

/// The bit-serial square root BigFloat::sqrtInto used before its limb-level
/// kernel, kept as the oracle for it. It takes the integer root of
/// Num = F * 2^(64*NI), NI = N + 1 limbs, one bit per iteration: F is the
/// mantissa over NI limbs, halved when the exponent is odd; the root has NI
/// limbs with the top bit set and any remainder is the sticky bit.
BigFloat referenceSqrt(const BigFloat &X) {
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (X.isNegative())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);

  size_t N = BigFloatBuilder::limbCount(X);
  int64_t E = BigFloatBuilder::rawExp(X);
  size_t NI = N + 1;
  size_t W = 2 * NI;
  std::vector<uint64_t> Num(W, 0);
  std::copy(BigFloatBuilder::limbs(X), BigFloatBuilder::limbs(X) + N,
            Num.begin() + NI + 1);
  if (E & 1) {
    for (size_t I = NI; I < W; ++I)
      Num[I] = (Num[I] >> 1) | (I + 1 < W ? Num[I + 1] << 63 : 0);
    E += 1;
  }
  auto Bit = [&](size_t Pos) { return (Num[Pos / 64] >> (Pos % 64)) & 1; };

  std::vector<uint64_t> Rem(W, 0), Root(W, 0), Trial(W, 0);
  for (size_t I = NI * 64; I-- > 0;) {
    // Rem = Rem*4 + the next two bits of Num.
    shiftLeftSmall(Rem, 2);
    Rem[0] |= (Bit(2 * I + 1) << 1) | Bit(2 * I);
    // Trial = Root*4 + 1.
    Trial = Root;
    shiftLeftSmall(Trial, 2);
    Trial[0] |= 1;
    shiftLeftSmall(Root, 1);
    if (!std::lexicographical_compare(Rem.rbegin(), Rem.rend(),
                                      Trial.rbegin(), Trial.rend())) {
      unsigned __int128 Borrow = 0;
      for (size_t J = 0; J < W; ++J) {
        unsigned __int128 D = (unsigned __int128)Rem[J] - Trial[J] - Borrow;
        Rem[J] = static_cast<uint64_t>(D);
        Borrow = (D >> 64) & 1;
      }
      Root[0] |= 1;
    }
  }
  bool Sticky = std::any_of(Rem.begin(), Rem.end(),
                            [](uint64_t L) { return L != 0; });
  BigFloat R;
  BigFloatBuilder::normalizeAndRoundInto(R, false, E / 2, Root.data(), NI,
                                         Sticky, N);
  return R;
}

/// Bit-for-bit equality: kind, sign, precision, exponent and limbs.
::testing::AssertionResult sameBigFloat(const BigFloat &A, const BigFloat &B) {
  bool Same = A.kind() == B.kind() && A.isNegative() == B.isNegative() &&
              A.precisionBits() == B.precisionBits();
  if (Same && A.kind() == BigFloat::Kind::Finite) {
    size_t N = BigFloatBuilder::limbCount(A);
    Same = BigFloatBuilder::rawExp(A) == BigFloatBuilder::rawExp(B) &&
           N == BigFloatBuilder::limbCount(B) &&
           std::equal(BigFloatBuilder::limbs(A), BigFloatBuilder::limbs(A) + N,
                      BigFloatBuilder::limbs(B));
  }
  if (Same)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << A.debugStr() << " vs "
                                       << B.debugStr();
}

} // namespace

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

TEST(BigFloat, DoubleRoundTripSpecials) {
  EXPECT_EQ(BigFloat::fromDouble(0.0).toDouble(), 0.0);
  EXPECT_TRUE(std::signbit(BigFloat::fromDouble(-0.0).toDouble()));
  EXPECT_TRUE(std::isnan(BigFloat::fromDouble(std::nan("")).toDouble()));
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(BigFloat::fromDouble(Inf).toDouble(), Inf);
  EXPECT_EQ(BigFloat::fromDouble(-Inf).toDouble(), -Inf);
}

TEST(BigFloat, DoubleRoundTripDirected) {
  for (double X :
       {1.0, -1.0, 0.5, 2.0, 0.1, 1e308, -1e308, 1e-308, 5e-324, -5e-324,
        2.2250738585072014e-308 /* min normal */,
        1.7976931348623157e308 /* max */, 3.141592653589793, 1e16 + 1}) {
    EXPECT_TRUE(sameDoubleBits(BigFloat::fromDouble(X).toDouble(), X)) << X;
  }
}

TEST(BigFloat, DoubleRoundTripRandom) {
  Rng R(101);
  for (int I = 0; I < 20000; ++I) {
    double X = R.anyFiniteDouble();
    EXPECT_TRUE(sameDoubleBits(BigFloat::fromDouble(X).toDouble(), X)) << X;
  }
}

TEST(BigFloat, SubnormalDoubleRoundTrip) {
  Rng R(102);
  for (int I = 0; I < 5000; ++I) {
    // Random subnormals: bit patterns with a zero exponent field.
    uint64_t Bits = R.next() & ((1ULL << 52) - 1);
    if (R.chance(1, 2))
      Bits |= 1ULL << 63;
    double X = doubleFromBits(Bits);
    EXPECT_TRUE(sameDoubleBits(BigFloat::fromDouble(X).toDouble(), X)) << X;
  }
}

TEST(BigFloat, FloatRoundTripRandom) {
  Rng R(103);
  for (int I = 0; I < 20000; ++I) {
    float X = floatFromBits(static_cast<uint32_t>(R.next()));
    if (std::isnan(X))
      continue;
    EXPECT_EQ(bitsOfFloat(BigFloat::fromFloat(X).toFloat()), bitsOfFloat(X))
        << X;
  }
}

TEST(BigFloat, DoubleToFloatMatchesHardwareNarrowing) {
  Rng R(104);
  for (int I = 0; I < 20000; ++I) {
    double X = randomDouble(R);
    float Narrowed = static_cast<float>(X);
    float Ours = BigFloat::fromDouble(X).toFloat();
    EXPECT_EQ(bitsOfFloat(Ours), bitsOfFloat(Narrowed)) << X;
  }
}

TEST(BigFloat, FromInt64) {
  EXPECT_EQ(BigFloat::fromInt64(0).toDouble(), 0.0);
  EXPECT_EQ(BigFloat::fromInt64(1).toDouble(), 1.0);
  EXPECT_EQ(BigFloat::fromInt64(-7).toDouble(), -7.0);
  EXPECT_EQ(BigFloat::fromInt64(INT64_MIN).toDouble(), -9223372036854775808.0);
  EXPECT_EQ(BigFloat::fromInt64(INT64_MAX).toDouble(),
            static_cast<double>(INT64_MAX));
}

TEST(BigFloat, ToInt64Trunc) {
  EXPECT_EQ(BigFloat::fromDouble(3.9).toInt64Trunc(), 3);
  EXPECT_EQ(BigFloat::fromDouble(-3.9).toInt64Trunc(), -3);
  EXPECT_EQ(BigFloat::fromDouble(0.99).toInt64Trunc(), 0);
  EXPECT_EQ(BigFloat::fromDouble(-0.0).toInt64Trunc(), 0);
  EXPECT_EQ(BigFloat::nan().toInt64Trunc(), 0);
  EXPECT_EQ(BigFloat::inf(false).toInt64Trunc(), INT64_MAX);
  EXPECT_EQ(BigFloat::inf(true).toInt64Trunc(), INT64_MIN);
  EXPECT_EQ(BigFloat::fromDouble(1e30).toInt64Trunc(), INT64_MAX);
  EXPECT_EQ(BigFloat::fromDouble(-1e30).toInt64Trunc(), INT64_MIN);
  EXPECT_EQ(BigFloat::fromDouble(-9223372036854775808.0).toInt64Trunc(),
            INT64_MIN);
  // The real of an exact operand truncates exactly as the concrete
  // F64toI64 does, special values included: tier 0 relies on it to clear
  // conversions of exact operands.
  const double Inf = std::numeric_limits<double>::infinity();
  const double Edge = 0x1p63, Below = 0x1p63 - 1024;
  const double Max = std::numeric_limits<double>::max();
  const double Denorm = std::numeric_limits<double>::denorm_min();
  for (double X : {0.0, -0.0, Inf, -Inf, std::nan(""), Edge, -Edge, Below,
                   -Below, Max, -Max, Denorm, -Denorm, 0.5, -0.5, 1.0,
                   -1.0}) {
    Value Arg = Value::ofF64(X);
    EXPECT_EQ(BigFloat::fromDouble(X).toInt64Trunc(),
              evalScalarOp(Opcode::F64toI64, &Arg, 1).I64)
        << X;
  }
  Rng R(105);
  for (int I = 0; I < 10000; ++I) {
    double X = R.uniformReal(-1e15, 1e15);
    EXPECT_EQ(BigFloat::fromDouble(X).toInt64Trunc(),
              static_cast<int64_t>(X))
        << X;
  }
}

//===----------------------------------------------------------------------===//
// IEEE agreement for the core operations
//===----------------------------------------------------------------------===//

INSTANTIATE_TEST_SUITE_P(Precisions, BigFloatPrecisionTest,
                         ::testing::Values(128, 256, 512, 1024));

TEST_P(BigFloatPrecisionTest, AddMatchesIEEE) {
  size_t Prec = GetParam();
  Rng R(201);
  for (int I = 0; I < 5000; ++I) {
    double A = randomDouble(R);
    double B = randomDouble(R);
    BigFloat Sum = BigFloat::add(BigFloat::fromDouble(A, Prec),
                                 BigFloat::fromDouble(B, Prec));
    EXPECT_TRUE(sameDoubleBits(Sum.toDouble(), A + B))
        << A << " + " << B << " prec " << Prec;
  }
}

TEST_P(BigFloatPrecisionTest, SubMatchesIEEE) {
  size_t Prec = GetParam();
  Rng R(202);
  for (int I = 0; I < 5000; ++I) {
    double A = randomDouble(R);
    double B = randomDouble(R);
    BigFloat D = BigFloat::sub(BigFloat::fromDouble(A, Prec),
                               BigFloat::fromDouble(B, Prec));
    EXPECT_TRUE(sameDoubleBits(D.toDouble(), A - B))
        << A << " - " << B << " prec " << Prec;
  }
}

TEST_P(BigFloatPrecisionTest, MulMatchesIEEE) {
  size_t Prec = GetParam();
  Rng R(203);
  for (int I = 0; I < 5000; ++I) {
    double A = randomDouble(R);
    double B = randomDouble(R);
    double Expected = A * B;
    if (std::isinf(Expected) && !std::isinf(A) && !std::isinf(B))
      continue; // BigFloat has unbounded exponent range; overflow differs
    if (Expected == 0.0 && A != 0.0 && B != 0.0)
      continue; // likewise underflow-to-zero... except toDouble rounds it
    BigFloat P = BigFloat::mul(BigFloat::fromDouble(A, Prec),
                               BigFloat::fromDouble(B, Prec));
    EXPECT_TRUE(sameDoubleBits(P.toDouble(), Expected))
        << A << " * " << B << " prec " << Prec;
  }
}

TEST_P(BigFloatPrecisionTest, MulHandlesOverflowToInfViaRounding) {
  size_t Prec = GetParam();
  BigFloat P = BigFloat::mul(BigFloat::fromDouble(1e308, Prec),
                             BigFloat::fromDouble(10.0, Prec));
  EXPECT_EQ(P.toDouble(), std::numeric_limits<double>::infinity());
}

TEST_P(BigFloatPrecisionTest, DivMatchesIEEE) {
  size_t Prec = GetParam();
  Rng R(204);
  for (int I = 0; I < 5000; ++I) {
    double A = randomDouble(R);
    double B = randomDouble(R);
    if (B == 0.0)
      continue;
    double Expected = A / B;
    if (std::isinf(Expected) && !std::isinf(A))
      continue;
    if (Expected == 0.0 && A != 0.0 && !std::isinf(B))
      continue;
    BigFloat Q = BigFloat::div(BigFloat::fromDouble(A, Prec),
                               BigFloat::fromDouble(B, Prec));
    EXPECT_TRUE(sameDoubleBits(Q.toDouble(), Expected))
        << A << " / " << B << " prec " << Prec;
  }
}

TEST_P(BigFloatPrecisionTest, SqrtMatchesIEEE) {
  size_t Prec = GetParam();
  Rng R(205);
  for (int I = 0; I < 2000; ++I) {
    double A = std::fabs(randomDouble(R));
    BigFloat S = BigFloat::sqrt(BigFloat::fromDouble(A, Prec));
    EXPECT_TRUE(sameDoubleBits(S.toDouble(), std::sqrt(A)))
        << A << " prec " << Prec;
  }
}

TEST(BigFloat, FmaMatchesHardware) {
  Rng R(206);
  for (int I = 0; I < 5000; ++I) {
    double A = R.uniformReal(-1e10, 1e10);
    double B = R.uniformReal(-1e10, 1e10);
    double C = R.uniformReal(-1e10, 1e10);
    BigFloat F = BigFloat::fma(BigFloat::fromDouble(A), BigFloat::fromDouble(B),
                               BigFloat::fromDouble(C));
    EXPECT_TRUE(sameDoubleBits(F.toDouble(), std::fma(A, B, C)))
        << A << " " << B << " " << C;
  }
}

//===----------------------------------------------------------------------===//
// The inline <-> heap limb boundary (1 to 8 limbs)
//===----------------------------------------------------------------------===//

INSTANTIATE_TEST_SUITE_P(LimbCounts, BigFloatLimbSweepTest,
                         ::testing::Values(64, 128, 192, 256, 320, 384, 448,
                                           512));

TEST_P(BigFloatLimbSweepTest, ArithmeticMatchesWideReference) {
  // Oracle: with moderate exponent gaps, 1024-bit add/sub/mul of doubles is
  // exact, so rounding the exact value once to P bits must reproduce the
  // P-bit operation (which is correctly rounded by contract) for every limb
  // count, inline or spilled.
  size_t Prec = GetParam();
  Rng R(601);
  for (int I = 0; I < 2000; ++I) {
    double A = R.uniformReal(-1e12, 1e12);
    double B = R.uniformReal(-1e12, 1e12);
    BigFloat PA = BigFloat::fromDouble(A, Prec);
    BigFloat PB = BigFloat::fromDouble(B, Prec);
    BigFloat WA = BigFloat::fromDouble(A, 1024);
    BigFloat WB = BigFloat::fromDouble(B, 1024);
    EXPECT_EQ(BigFloat::cmp(BigFloat::add(PA, PB),
                            BigFloat::add(WA, WB).withPrecision(Prec)),
              0)
        << A << " + " << B << " prec " << Prec;
    EXPECT_EQ(BigFloat::cmp(BigFloat::sub(PA, PB),
                            BigFloat::sub(WA, WB).withPrecision(Prec)),
              0)
        << A << " - " << B << " prec " << Prec;
    EXPECT_EQ(BigFloat::cmp(BigFloat::mul(PA, PB),
                            BigFloat::mul(WA, WB).withPrecision(Prec)),
              0)
        << A << " * " << B << " prec " << Prec;
  }
}

TEST_P(BigFloatLimbSweepTest, AliasedDestinationPassing) {
  // The Into forms are alias-safe: Dst aliasing one or both operands must
  // give the exact value-returning result, at every limb count.
  size_t Prec = GetParam();
  Rng R(602);
  for (int I = 0; I < 1000; ++I) {
    double XD = R.uniformReal(-1e6, 1e6);
    double YD = R.uniformReal(-1e6, 1e6);
    BigFloat X = BigFloat::fromDouble(XD, Prec);
    BigFloat Y = BigFloat::fromDouble(YD, Prec);

    BigFloat A = X;
    BigFloat::addInto(A, A, A); // Dst == both operands
    EXPECT_EQ(BigFloat::cmp(A, BigFloat::add(X, X)), 0) << XD;

    BigFloat M = X;
    BigFloat::mulInto(M, M, M);
    EXPECT_EQ(BigFloat::cmp(M, BigFloat::mul(X, X)), 0) << XD;

    BigFloat S = X;
    BigFloat::subInto(S, S, Y); // Dst == first operand
    EXPECT_EQ(BigFloat::cmp(S, BigFloat::sub(X, Y)), 0) << XD << " " << YD;

    BigFloat S2 = Y;
    BigFloat::subInto(S2, X, S2); // Dst == second operand
    EXPECT_EQ(BigFloat::cmp(S2, BigFloat::sub(X, Y)), 0) << XD << " " << YD;

    if (!Y.isZero()) {
      BigFloat D = X;
      BigFloat::divInto(D, D, Y);
      EXPECT_EQ(BigFloat::cmp(D, BigFloat::div(X, Y)), 0) << XD << " " << YD;

      BigFloat D2 = X;
      BigFloat::divInto(D2, D2, D2); // x/x == 1 exactly
      EXPECT_EQ(BigFloat::cmp(D2, BigFloat::fromInt64(1, Prec)), 0) << XD;
    }

    BigFloat Q = X.abs();
    BigFloat::sqrtInto(Q, Q);
    EXPECT_EQ(BigFloat::cmp(Q, BigFloat::sqrt(X.abs())), 0) << XD;
  }
}

TEST_P(BigFloatLimbSweepTest, SqrtMatchesBitSerialReference) {
  // The IEEE checks only see the top 53 bits of a root. Here every bit
  // counts: sqrtInto must reproduce the bit-serial oracle exactly on
  // random, all-ones and sparse mantissas, exact squares and squares one
  // ulp either side, at both exponent parities and near the ends of the
  // double and int64 exponent ranges.
  size_t Prec = GetParam();
  size_t N = Prec / 64;
  Rng R(604 + N);
  const int64_t EdgeExps[] = {-1074,         -1073,         -1022,
                              -1021,         1023,          1024,
                              INT64_MIN,     INT64_MIN + 1, INT64_MAX - 2,
                              INT64_MAX - 1};
  std::vector<uint64_t> Mant(N);
  BigFloat X, Got;
  for (int I = 0; I < 4000; ++I) {
    int64_t Exp = R.chance(1, 4)
                      ? EdgeExps[R.nextBelow(std::size(EdgeExps))]
                      : static_cast<int64_t>(R.nextBelow(2001)) - 1000;
    switch (R.nextBelow(6)) {
    case 0: // random
      for (uint64_t &L : Mant)
        L = R.next();
      break;
    case 1: // all ones
      std::fill(Mant.begin(), Mant.end(), ~0ULL);
      break;
    case 2: // sparse: a few set bits below the leading one
      std::fill(Mant.begin(), Mant.end(), 0);
      for (uint64_t K = R.nextBelow(4); K-- > 0;) {
        uint64_t Pos = R.nextBelow(64 * N);
        Mant[Pos / 64] |= 1ULL << (Pos % 64);
      }
      break;
    default: { // an exact square, or one ulp either side of it
      // A root with at most 32N significant bits squares exactly into N
      // limbs.
      std::vector<uint64_t> Half(N, 0);
      for (size_t B = 0; B < 32 * N; ++B)
        if (R.chance(1, 2))
          Half[N - 1 - B / 64] |= 1ULL << (63 - B % 64);
      Half[N - 1] |= 1ULL << 63;
      BigFloat Root;
      int64_t RootExp = std::clamp<int64_t>(Exp / 2, -(1LL << 60), 1LL << 60);
      BigFloatBuilder::makeRoundedInto(Root, false, RootExp, Half.data(), N,
                                       false, N);
      BigFloat Sq = BigFloat::mul(Root, Root);
      Exp = BigFloatBuilder::rawExp(Sq);
      std::copy(BigFloatBuilder::limbs(Sq), BigFloatBuilder::limbs(Sq) + N,
                Mant.begin());
      bool AllOnes = std::all_of(Mant.begin(), Mant.end(),
                                 [](uint64_t L) { return L == ~0ULL; });
      bool PowerOfTwo =
          Mant[N - 1] == 1ULL << 63 &&
          std::all_of(Mant.begin(), Mant.end() - 1,
                      [](uint64_t L) { return L == 0; });
      uint64_t Ulp = R.nextBelow(3);
      if (Ulp == 1 && !AllOnes) {
        for (uint64_t &L : Mant)
          if (++L != 0)
            break;
      } else if (Ulp == 2 && !PowerOfTwo) {
        for (uint64_t &L : Mant)
          if (L-- != 0)
            break;
      }
      break;
    }
    }
    Mant[N - 1] |= 1ULL << 63;
    BigFloatBuilder::makeRoundedInto(X, false, Exp, Mant.data(), N, false, N);
    BigFloat::sqrtInto(Got, X);
    ASSERT_TRUE(sameBigFloat(Got, referenceSqrt(X)))
        << "sqrt of " << X.debugStr() << " prec " << Prec;
  }

  // Specials and zeros keep the old kernel's results too.
  for (const BigFloat &S :
       {BigFloat::zero(false), BigFloat::zero(true), BigFloat::inf(false),
        BigFloat::inf(true), BigFloat::nan(),
        BigFloat::fromDouble(-2.0, Prec)})
    EXPECT_TRUE(sameBigFloat(BigFloat::sqrt(S), referenceSqrt(S)))
        << S.debugStr();
}

TEST_P(BigFloatLimbSweepTest, AliasedSpecialValues) {
  size_t Prec = GetParam();
  BigFloat Inf = BigFloat::inf(false);
  BigFloat::subInto(Inf, Inf, Inf); // inf - inf aliased -> NaN
  EXPECT_TRUE(Inf.isNaN());

  BigFloat Z = BigFloat::zero(false);
  BigFloat::divInto(Z, Z, Z); // 0/0 aliased -> NaN
  EXPECT_TRUE(Z.isNaN());

  BigFloat X = BigFloat::fromDouble(3.5, Prec);
  BigFloat::subInto(X, X, X); // x - x aliased -> +0
  EXPECT_TRUE(X.isZero());
  EXPECT_FALSE(X.isNegative());
}

TEST(BigFloat, CopyAndMoveAcrossInlineHeapBoundary) {
  // 256 bits (4 limbs) is the inline representation, 512 bits (8 limbs)
  // spills. Copies and moves in all four direction combinations must
  // preserve the exact value.
  BigFloat Inline =
      BigFloat::div(BigFloat::fromInt64(1, 256), BigFloat::fromInt64(3, 256));
  BigFloat Spilled =
      BigFloat::div(BigFloat::fromInt64(1, 512), BigFloat::fromInt64(3, 512));
  EXPECT_EQ(Inline.precisionBits(), 256u);
  EXPECT_EQ(Spilled.precisionBits(), 512u);

  // Copy construct both ways.
  BigFloat CopyOfInline = Inline;
  BigFloat CopyOfSpilled = Spilled;
  EXPECT_EQ(BigFloat::cmp(CopyOfInline, Inline), 0);
  EXPECT_EQ(BigFloat::cmp(CopyOfSpilled, Spilled), 0);
  EXPECT_EQ(CopyOfSpilled.debugStr(), Spilled.debugStr());

  // Cross-assign: an inline-valued object receives a spilled value and
  // vice versa (exercises storage adoption in both directions).
  BigFloat A = Inline;
  A = Spilled;
  EXPECT_EQ(BigFloat::cmp(A, Spilled), 0);
  EXPECT_EQ(A.precisionBits(), 512u);
  BigFloat B = Spilled;
  B = Inline;
  EXPECT_EQ(BigFloat::cmp(B, Inline), 0);
  EXPECT_EQ(B.precisionBits(), 256u);

  // Moves preserve the value; the source is only required to be valid for
  // destruction/reassignment afterwards.
  BigFloat MovedSpill = std::move(A);
  EXPECT_EQ(BigFloat::cmp(MovedSpill, Spilled), 0);
  A = MovedSpill; // reassign the moved-from object
  EXPECT_EQ(BigFloat::cmp(A, Spilled), 0);
  BigFloat MovedInline = std::move(B);
  EXPECT_EQ(BigFloat::cmp(MovedInline, Inline), 0);

  // Round-tripping a spilled value through withPrecision back to an inline
  // width crosses the boundary in arithmetic form too.
  BigFloat Narrowed = Spilled.withPrecision(256);
  EXPECT_EQ(BigFloat::cmp(Narrowed, Inline), 0);
  BigFloat Widened = Inline.withPrecision(512);
  EXPECT_EQ(Widened.precisionBits(), 512u);
  EXPECT_EQ(BigFloat::cmp(Widened.withPrecision(256), Inline), 0);
}

TEST(BigFloat, SteadyStateArithmeticIsAllocationFree) {
  // At the default 256-bit precision every value is inline and every
  // scratch buffer is stack-resident: after a warm-up round, add/sub/mul/
  // div/sqrt must perform zero heap allocations.
  Rng R(603);
  auto Round = [&] {
    BigFloat Acc = BigFloat::fromDouble(1.0, 256);
    BigFloat T;
    for (int I = 0; I < 200; ++I) {
      BigFloat X = BigFloat::fromDouble(R.uniformReal(0.5, 2.0), 256);
      BigFloat::mulInto(T, Acc, X);
      BigFloat::addInto(Acc, T, X);
      BigFloat::divInto(Acc, Acc, X);
      BigFloat::sqrtInto(T, Acc.abs());
      BigFloat::subInto(Acc, Acc, T);
      BigFloat::addInto(Acc, Acc, BigFloat::fromDouble(1.5, 256));
    }
    return Acc;
  };
  Round(); // warm-up: may touch the limb cache cold paths
  limballoc::resetCounters();
  Round();
  EXPECT_EQ(limballoc::heapAllocs(), 0u)
      << "steady-state 256-bit arithmetic reached the heap";

  // The same holds at the widths RealMath's transcendentals take roots at:
  // sqrt at 384 and 512 bits (512 spills its scratch to the limb cache),
  // and atan and hypot of 256-bit values, which work at 384 bits.
  auto WideRound = [&] {
    BigFloat T;
    for (int I = 0; I < 50; ++I) {
      double D = R.uniformReal(0.5, 2.0);
      BigFloat::sqrtInto(T, BigFloat::fromDouble(D, 384));
      BigFloat::sqrtInto(T, BigFloat::fromDouble(D, 512));
      BigFloat X = BigFloat::fromDouble(D, 256);
      T = realmath::atan(X);
      T = realmath::hypot(X, T);
    }
  };
  WideRound();
  limballoc::resetCounters();
  WideRound();
  EXPECT_EQ(limballoc::heapAllocs(), 0u)
      << "steady-state sqrt, atan or hypot at RealMath widths reached the "
         "heap";
}

//===----------------------------------------------------------------------===//
// Exactness and identities at high precision
//===----------------------------------------------------------------------===//

TEST(BigFloat, AdditionIsExactAtSufficientPrecision) {
  // (a + b) - a == b exactly when the working precision covers both.
  Rng R(301);
  for (int I = 0; I < 2000; ++I) {
    double A = R.uniformReal(-1e20, 1e20);
    double B = R.uniformReal(-1.0, 1.0);
    BigFloat BA = BigFloat::fromDouble(A, 256);
    BigFloat BB = BigFloat::fromDouble(B, 256);
    BigFloat Sum = BigFloat::add(BA, BB);
    BigFloat Back = BigFloat::sub(Sum, BA);
    EXPECT_EQ(BigFloat::cmp(Back, BB), 0) << A << " " << B;
  }
}

TEST(BigFloat, MulDivRoundTripOnFullMantissas) {
  // Build full-mantissa values by multiplying doubles, then check that
  // division is consistent with multiplication to within one ulp at the
  // working precision.
  Rng R(302);
  for (int I = 0; I < 500; ++I) {
    BigFloat A = BigFloat::fromDouble(R.uniformReal(0.5, 2.0), 256);
    BigFloat B = BigFloat::fromDouble(R.uniformReal(0.5, 2.0), 256);
    for (int J = 0; J < 3; ++J) {
      A = BigFloat::mul(A, BigFloat::fromDouble(R.uniformReal(0.5, 2.0), 256));
      B = BigFloat::mul(B, BigFloat::fromDouble(R.uniformReal(0.5, 2.0), 256));
    }
    BigFloat Q = BigFloat::div(A, B);
    BigFloat Back = BigFloat::mul(Q, B);
    // |Back - A| / |A| <= 2^-250 or so.
    BigFloat Diff = BigFloat::sub(Back, A).abs();
    if (!Diff.isZero()) {
      EXPECT_LT(Diff.exponent(), A.exponent() - 250)
          << A.debugStr() << " / " << B.debugStr();
    }
  }
}

TEST(BigFloat, SqrtOfExactSquareIsExact) {
  Rng R(303);
  for (int I = 0; I < 500; ++I) {
    BigFloat A = BigFloat::fromDouble(R.uniformReal(0.1, 100.0), 256);
    BigFloat Sq = BigFloat::mul(A, A);
    // A^2 at 256 bits is exact for 53-bit A, so sqrt must return A exactly.
    EXPECT_EQ(BigFloat::cmp(BigFloat::sqrt(Sq), A), 0);
  }
}

TEST(BigFloat, MulExactKeepsAllBits) {
  Rng R(304);
  for (int I = 0; I < 2000; ++I) {
    double A = R.uniformReal(-1e5, 1e5);
    double B = R.uniformReal(-1e5, 1e5);
    BigFloat P =
        BigFloat::mulExact(BigFloat::fromDouble(A, 64), BigFloat::fromDouble(B, 64));
    // The exact product of two doubles fits in 106 bits, so even rounding
    // back to double and comparing with fma detects any lost bits.
    EXPECT_TRUE(sameDoubleBits(P.toDouble(), A * B));
  }
}

//===----------------------------------------------------------------------===//
// Special values
//===----------------------------------------------------------------------===//

TEST(BigFloat, SpecialValueArithmetic) {
  BigFloat PInf = BigFloat::inf(false);
  BigFloat NInf = BigFloat::inf(true);
  BigFloat NaN = BigFloat::nan();
  BigFloat One = BigFloat::fromInt64(1);
  BigFloat Zero = BigFloat::zero(false);

  EXPECT_TRUE(BigFloat::add(PInf, NInf).isNaN());
  EXPECT_TRUE(BigFloat::add(PInf, One).isInf());
  EXPECT_TRUE(BigFloat::add(NaN, One).isNaN());
  EXPECT_TRUE(BigFloat::mul(Zero, PInf).isNaN());
  EXPECT_TRUE(BigFloat::mul(NInf, One.negated()).isInf());
  EXPECT_FALSE(BigFloat::mul(NInf, One.negated()).isNegative());
  EXPECT_TRUE(BigFloat::div(One, Zero).isInf());
  EXPECT_TRUE(BigFloat::div(Zero, Zero).isNaN());
  EXPECT_TRUE(BigFloat::div(PInf, PInf).isNaN());
  EXPECT_TRUE(BigFloat::div(One, PInf).isZero());
  EXPECT_TRUE(BigFloat::sqrt(One.negated()).isNaN());
  EXPECT_TRUE(BigFloat::sqrt(NInf).isNaN());
  EXPECT_TRUE(BigFloat::sqrt(PInf).isInf());
}

TEST(BigFloat, SignedZeroSemantics) {
  BigFloat PZ = BigFloat::zero(false);
  BigFloat NZ = BigFloat::zero(true);
  EXPECT_FALSE(BigFloat::add(PZ, NZ).isNegative());
  EXPECT_TRUE(BigFloat::add(NZ, NZ).isNegative());
  EXPECT_TRUE(BigFloat::mul(NZ, BigFloat::fromInt64(3)).isNegative());
  // x - x == +0 under round-to-nearest.
  BigFloat X = BigFloat::fromDouble(1.5);
  BigFloat D = BigFloat::sub(X, X);
  EXPECT_TRUE(D.isZero());
  EXPECT_FALSE(D.isNegative());
}

//===----------------------------------------------------------------------===//
// Comparison
//===----------------------------------------------------------------------===//

TEST(BigFloat, ComparisonMatchesDoubles) {
  Rng R(401);
  for (int I = 0; I < 10000; ++I) {
    double A = randomDouble(R);
    double B = randomDouble(R);
    BigFloat BA = BigFloat::fromDouble(A);
    BigFloat BB = BigFloat::fromDouble(B);
    EXPECT_EQ(BigFloat::lt(BA, BB), A < B) << A << " " << B;
    EXPECT_EQ(BigFloat::le(BA, BB), A <= B) << A << " " << B;
    EXPECT_EQ(BigFloat::eq(BA, BB), A == B) << A << " " << B;
  }
}

TEST(BigFloat, ComparisonWithNaN) {
  BigFloat NaN = BigFloat::nan();
  BigFloat One = BigFloat::fromInt64(1);
  EXPECT_FALSE(BigFloat::lt(NaN, One));
  EXPECT_FALSE(BigFloat::le(NaN, One));
  EXPECT_FALSE(BigFloat::gt(NaN, One));
  EXPECT_FALSE(BigFloat::eq(NaN, NaN));
  EXPECT_TRUE(BigFloat::ne(NaN, NaN));
}

TEST(BigFloat, ComparisonAcrossPrecisions) {
  BigFloat A = BigFloat::fromDouble(1.5, 128);
  BigFloat B = BigFloat::fromDouble(1.5, 512);
  EXPECT_EQ(BigFloat::cmp(A, B), 0);
  BigFloat C = BigFloat::fromDouble(nextDouble(1.5), 512);
  EXPECT_LT(BigFloat::cmp(A, C), 0);
}

//===----------------------------------------------------------------------===//
// Integer roundings
//===----------------------------------------------------------------------===//

TEST(BigFloat, FloorCeilTruncRoundMatchLibm) {
  Rng R(501);
  for (int I = 0; I < 10000; ++I) {
    double X = R.uniformReal(-100.0, 100.0);
    if (R.chance(1, 10))
      X = std::round(X); // hit exact integers too
    BigFloat B = BigFloat::fromDouble(X);
    EXPECT_EQ(B.floor().toDouble(), std::floor(X)) << X;
    EXPECT_EQ(B.ceil().toDouble(), std::ceil(X)) << X;
    EXPECT_EQ(B.trunc().toDouble(), std::trunc(X)) << X;
    EXPECT_EQ(B.roundNearest().toDouble(), std::round(X)) << X;
  }
}

TEST(BigFloat, RoundNearestEvenTies) {
  EXPECT_EQ(BigFloat::fromDouble(0.5).roundNearestEven().toDouble(), 0.0);
  EXPECT_EQ(BigFloat::fromDouble(1.5).roundNearestEven().toDouble(), 2.0);
  EXPECT_EQ(BigFloat::fromDouble(2.5).roundNearestEven().toDouble(), 2.0);
  EXPECT_EQ(BigFloat::fromDouble(-1.5).roundNearestEven().toDouble(), -2.0);
  EXPECT_EQ(BigFloat::fromDouble(-2.5).roundNearestEven().toDouble(), -2.0);
}

TEST(BigFloat, IsIntegerAndOddness) {
  EXPECT_TRUE(BigFloat::fromDouble(4.0).isInteger());
  EXPECT_TRUE(BigFloat::fromDouble(-3.0).isOddInteger());
  EXPECT_FALSE(BigFloat::fromDouble(4.0).isOddInteger());
  EXPECT_FALSE(BigFloat::fromDouble(4.5).isInteger());
  EXPECT_TRUE(BigFloat::zero().isInteger());
  EXPECT_FALSE(BigFloat::fromDouble(1e300).isOddInteger()); // huge => even
  EXPECT_TRUE(BigFloat::fromDouble(1e300).isInteger());
}

//===----------------------------------------------------------------------===//
// Misc
//===----------------------------------------------------------------------===//

TEST(BigFloat, ScalbIsExact) {
  BigFloat X = BigFloat::fromDouble(1.25);
  EXPECT_EQ(BigFloat::scalb(X, 10).toDouble(), 1280.0);
  EXPECT_EQ(BigFloat::scalb(X, -2).toDouble(), 0.3125);
}

TEST(BigFloat, MinMax) {
  BigFloat A = BigFloat::fromDouble(1.0);
  BigFloat B = BigFloat::fromDouble(2.0);
  EXPECT_EQ(BigFloat::fmin(A, B).toDouble(), 1.0);
  EXPECT_EQ(BigFloat::fmax(A, B).toDouble(), 2.0);
  EXPECT_EQ(BigFloat::fmin(BigFloat::nan(), B).toDouble(), 2.0);
  EXPECT_EQ(BigFloat::fmax(A, BigFloat::nan()).toDouble(), 1.0);
}

TEST(BigFloat, WithPrecisionRounds) {
  // 1 + 2^-100 at 256 bits, rounded to 64 bits, collapses to 1.
  BigFloat Small = BigFloat::scalb(BigFloat::fromInt64(1, 256), -100);
  BigFloat X = BigFloat::add(BigFloat::fromInt64(1, 256), Small);
  EXPECT_NE(BigFloat::cmp(X, BigFloat::fromInt64(1, 256)), 0);
  BigFloat Narrow = X.withPrecision(64);
  EXPECT_EQ(BigFloat::cmp(Narrow, BigFloat::fromInt64(1)), 0);
}

TEST(BigFloat, ExponentAccessor) {
  EXPECT_EQ(BigFloat::fromDouble(1.0).exponent(), 1);
  EXPECT_EQ(BigFloat::fromDouble(0.5).exponent(), 0);
  EXPECT_EQ(BigFloat::fromDouble(4.0).exponent(), 3);
  EXPECT_EQ(BigFloat::fromDouble(0.75).exponent(), 0);
}
