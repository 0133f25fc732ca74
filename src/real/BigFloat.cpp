//===- real/BigFloat.cpp - Arbitrary-precision binary floats --------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Representation: a finite value is (-1)^Neg * frac * 2^Exp where frac is a
// little-endian limb vector read as a fraction in [1/2, 1) (the top bit of
// the top limb is always set). All rounding is round-to-nearest-even and is
// performed by BigFloatBuilder::makeRoundedInto from an extended mantissa
// plus a sticky flag summarizing any nonzero bits below it.
//
// The limb kernels below are mpn-style: they operate on raw limb pointers,
// and every intermediate mantissa lives in a fixed-capacity stack scratch
// buffer (Scratch, 16 limbs inline -- enough for every operation at the
// default 256-bit precision and for the 384-bit transcendental working
// precision). Wider precisions spill the scratch to the per-thread limb
// cache, so even they do not reach the heap in steady state.
//
//===----------------------------------------------------------------------===//

#include "real/BigFloat.h"

#include "support/FloatBits.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace herbgrind;

size_t BigFloat::limbsForPrecision(size_t PrecBits) {
  if (PrecBits == 0)
    PrecBits = DefaultPrecisionBits;
  return std::max<size_t>(1, (PrecBits + 63) / 64);
}

//===----------------------------------------------------------------------===//
// Raw limb kernels (little-endian).
//===----------------------------------------------------------------------===//

namespace {
/// Stack scratch for intermediate mantissas; covers every buffer the core
/// operations need at <= 6-limb (384-bit) working precision.
using Scratch = InlineLimbs<16>;
} // namespace

static int leadingZeros64(uint64_t X) {
  assert(X != 0 && "clz of zero is undefined");
  return __builtin_clzll(X);
}

static bool vecIsZero(const uint64_t *V, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (V[I] != 0)
      return false;
  return true;
}

/// Compares equal-length magnitude vectors: -1, 0, +1.
static int cmpVec(const uint64_t *A, const uint64_t *B, size_t N) {
  for (size_t I = N; I-- > 0;) {
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  }
  return 0;
}

/// A += B (equal lengths); returns the carry out.
static uint64_t addVecInPlace(uint64_t *A, const uint64_t *B, size_t N) {
  unsigned __int128 Carry = 0;
  for (size_t I = 0; I < N; ++I) {
    unsigned __int128 Sum = (unsigned __int128)A[I] + B[I] + Carry;
    A[I] = static_cast<uint64_t>(Sum);
    Carry = Sum >> 64;
  }
  return static_cast<uint64_t>(Carry);
}

/// A -= B (equal lengths, requires A >= B).
static void subVecInPlace(uint64_t *A, const uint64_t *B, size_t N) {
  unsigned __int128 Borrow = 0;
  for (size_t I = 0; I < N; ++I) {
    unsigned __int128 Diff = (unsigned __int128)A[I] - B[I] - Borrow;
    A[I] = static_cast<uint64_t>(Diff);
    Borrow = (Diff >> 64) & 1;
  }
  assert(Borrow == 0 && "subVecInPlace requires A >= B");
  (void)Borrow;
}

/// Subtracts 1 from A (requires A != 0).
static void decrementVec(uint64_t *A, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    if (A[I]-- != 0)
      return;
  }
  assert(false && "decrementVec underflow");
}

/// A += B where B has NB <= NA limbs; returns the carry out of A.
static uint64_t addVecPadded(uint64_t *A, size_t NA, const uint64_t *B,
                             size_t NB) {
  uint64_t Carry = addVecInPlace(A, B, NB);
  for (size_t I = NB; Carry && I < NA; ++I)
    Carry = ++A[I] == 0;
  return Carry;
}

/// Reads bit Pos of A (0 = least significant).
static bool getBit(const uint64_t *A, size_t N, size_t Pos) {
  size_t LimbIdx = Pos / 64;
  if (LimbIdx >= N)
    return false;
  return (A[LimbIdx] >> (Pos % 64)) & 1;
}

/// Shifts A right by Shift bits in place; ORs dropped nonzero bits into
/// Sticky.
static void shiftRightVec(uint64_t *A, size_t N, size_t Shift, bool &Sticky) {
  size_t LimbShift = Shift / 64;
  size_t BitShift = Shift % 64;
  if (LimbShift >= N) {
    if (!vecIsZero(A, N))
      Sticky = true;
    std::memset(A, 0, N * sizeof(uint64_t));
    return;
  }
  for (size_t I = 0; I < LimbShift; ++I)
    if (A[I] != 0)
      Sticky = true;
  if (BitShift == 0) {
    for (size_t I = 0; I + LimbShift < N; ++I)
      A[I] = A[I + LimbShift];
  } else {
    if ((A[LimbShift] & ((1ULL << BitShift) - 1)) != 0)
      Sticky = true;
    for (size_t I = 0; I + LimbShift < N; ++I) {
      uint64_t Low = A[I + LimbShift] >> BitShift;
      uint64_t High = I + LimbShift + 1 < N
                          ? A[I + LimbShift + 1] << (64 - BitShift)
                          : 0;
      A[I] = Low | High;
    }
  }
  std::memset(A + (N - LimbShift), 0, LimbShift * sizeof(uint64_t));
}

/// Shifts A left by Shift bits in place (bits shifted past the top are
/// dropped; callers guarantee they are zero).
static void shiftLeftVec(uint64_t *A, size_t N, size_t Shift) {
  size_t LimbShift = Shift / 64;
  size_t BitShift = Shift % 64;
  if (LimbShift >= N) {
    std::memset(A, 0, N * sizeof(uint64_t));
    return;
  }
  if (BitShift == 0) {
    for (size_t I = N; I-- > LimbShift;)
      A[I] = A[I - LimbShift];
  } else {
    for (size_t I = N; I-- > LimbShift;) {
      uint64_t High = A[I - LimbShift] << BitShift;
      uint64_t Low = I - LimbShift > 0
                         ? A[I - LimbShift - 1] >> (64 - BitShift)
                         : 0;
      A[I] = High | Low;
    }
  }
  std::memset(A, 0, LimbShift * sizeof(uint64_t));
}

/// Schoolbook multiplication into R (NA + NB limbs, zeroed by the caller).
/// R must not alias A or B; A and B may alias each other.
static void mulVec(uint64_t *R, const uint64_t *A, size_t NA,
                   const uint64_t *B, size_t NB) {
  for (size_t I = 0; I < NA; ++I) {
    if (A[I] == 0)
      continue;
    unsigned __int128 Carry = 0;
    for (size_t J = 0; J < NB; ++J) {
      unsigned __int128 Cur = (unsigned __int128)A[I] * B[J] + R[I + J] + Carry;
      R[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    R[I + NB] += static_cast<uint64_t>(Carry);
  }
}

/// Knuth algorithm D: divides U (NU limbs) by V (NV limbs, normalized: top
/// bit of V[NV-1] set, NU >= NV >= 1). Writes the quotient's NU - NV + 1
/// limbs to Q and leaves the remainder in U (its top limbs zeroed).
/// \p RScratch must hold NU + 1 limbs; Q and RScratch must not alias U or V.
static void divmodVec(uint64_t *U, size_t NU, const uint64_t *V, size_t NV,
                      uint64_t *Q, uint64_t *RScratch) {
  assert(NV >= 1 && NU >= NV && "divmodVec size mismatch");
  assert((V[NV - 1] >> 63) == 1 && "divisor must be normalized");

  if (NV == 1) {
    unsigned __int128 Rem = 0;
    for (size_t I = NU; I-- > 0;) {
      unsigned __int128 Cur = (Rem << 64) | U[I];
      Q[I] = static_cast<uint64_t>(Cur / V[0]);
      Rem = Cur % V[0];
    }
    std::memset(U, 0, NU * sizeof(uint64_t));
    U[0] = static_cast<uint64_t>(Rem);
    return;
  }

  // Work on a copy of U with one extra high limb.
  uint64_t *R = RScratch;
  std::memcpy(R, U, NU * sizeof(uint64_t));
  R[NU] = 0;

  for (size_t JP1 = NU - NV + 1; JP1-- > 0;) {
    size_t J = JP1;
    unsigned __int128 Num =
        ((unsigned __int128)R[J + NV] << 64) | R[J + NV - 1];
    unsigned __int128 QHat = Num / V[NV - 1];
    unsigned __int128 RHat = Num % V[NV - 1];
    // Correct QHat down until it is a valid 64-bit digit estimate.
    while (QHat >> 64 ||
           QHat * V[NV - 2] > ((RHat << 64) | R[J + NV - 2])) {
      --QHat;
      RHat += V[NV - 1];
      if (RHat >> 64)
        break;
    }
    // Multiply-subtract QHat * V from R[J .. J+NV].
    uint64_t QDigit = static_cast<uint64_t>(QHat);
    unsigned __int128 Borrow = 0;
    unsigned __int128 Carry = 0;
    for (size_t I = 0; I < NV; ++I) {
      unsigned __int128 Prod = (unsigned __int128)QDigit * V[I] + Carry;
      Carry = Prod >> 64;
      unsigned __int128 Diff =
          (unsigned __int128)R[J + I] - (uint64_t)Prod - Borrow;
      R[J + I] = static_cast<uint64_t>(Diff);
      Borrow = (Diff >> 64) & 1;
    }
    unsigned __int128 Diff = (unsigned __int128)R[J + NV] - Carry - Borrow;
    R[J + NV] = static_cast<uint64_t>(Diff);
    bool WentNegative = (Diff >> 64) & 1;
    if (WentNegative) {
      // QHat was one too large; add V back.
      --QDigit;
      unsigned __int128 AddCarry = 0;
      for (size_t I = 0; I < NV; ++I) {
        unsigned __int128 Sum = (unsigned __int128)R[J + I] + V[I] + AddCarry;
        R[J + I] = static_cast<uint64_t>(Sum);
        AddCarry = Sum >> 64;
      }
      R[J + NV] += static_cast<uint64_t>(AddCarry);
    }
    Q[J] = QDigit;
  }

  // Remainder is R[0 .. NV-1].
  for (size_t I = 0; I < NU; ++I)
    U[I] = I < NV ? R[I] : 0;
}

/// floor(sqrt(A)) for A in [2^126, 2^128); the remainder A - S^2 (at most
/// 2S, so 65 bits) goes to Rem. A double square root seeds the root to
/// within 2^12; one integer Newton step lands on floor(sqrt(A)) or one
/// above it, and a square-and-compare settles which.
static uint64_t sqrtRem2(unsigned __int128 A, unsigned __int128 &Rem) {
  assert((A >> 126) != 0 && "sqrtRem2 requires a normalized operand");
  double Seed = std::sqrt(static_cast<double>(A));
  uint64_t S0 = Seed >= 0x1p64 ? ~0ULL : static_cast<uint64_t>(Seed);
  unsigned __int128 S1 = (S0 + A / S0) >> 1;
  uint64_t S = S1 >> 64 ? ~0ULL : static_cast<uint64_t>(S1);
  if ((unsigned __int128)S * S > A)
    --S;
  Rem = A - (unsigned __int128)S * S;
  return S;
}

/// Integer square root with remainder, a limb-block at a time (Zimmermann,
/// "Karatsuba Square Root", INRIA RR-3805: the algorithm behind GMP's
/// mpn_sqrtrem). A holds 2N limbs whose top two bits are not both zero.
/// Writes S = floor(sqrt(A)) to N limbs (top bit set) and the remainder
/// A - S^2, at most 2S, to the N + 1 limbs of R. No argument may overlap
/// another.
///
/// With B = 2^(64L), L = N/2 and H = N - L, the root S' of A's top 2H limbs
/// (remainder R') is the high part of S. Dividing R'B plus the next L limbs
/// of A by 2S' gives the low part Q and a remainder u. The exact remainder
/// uB + (A's low L limbs) - Q^2 is negative only when S = S'B + Q is one
/// too large, and one correction step fixes that.
static void sqrtRemVec(uint64_t *S, uint64_t *R, const uint64_t *A,
                       size_t N) {
  if (N == 1) {
    unsigned __int128 Rem;
    S[0] = sqrtRem2(((unsigned __int128)A[1] << 64) | A[0], Rem);
    R[0] = static_cast<uint64_t>(Rem);
    R[1] = static_cast<uint64_t>(Rem >> 64);
    return;
  }
  size_t L = N / 2, H = N - L;
  const uint64_t *SHi = S + L;

  // U = R' * B + A[L .. 2L-1]: the recursion writes R' straight into the
  // top H + 1 limbs.
  Scratch U;
  U.assignZeros(N + 1);
  std::memcpy(U.data(), A + L, L * sizeof(uint64_t));
  sqrtRemVec(S + L, U.data() + L, A + 2 * L, H);

  // Divide by the normalized S' rather than 2S': Q = floor(Q'/2), and the
  // remainder gains S' back when Q' is odd. Q' <= 2B + 1 because R' <= 2S'
  // and S' >= B/2, so Q <= B fits L limbs plus one bit.
  Scratch Q;
  Q.assignZeros(L + 2);
  Scratch DivScratch;
  DivScratch.assignZeros(N + 2);
  divmodVec(U.data(), N + 1, SHi, H, Q.data(), DivScratch.data());
  bool Odd = Q[0] & 1;
  bool Dummy = false;
  shiftRightVec(Q.data(), L + 1, 1, Dummy);
  if (Odd)
    addVecPadded(U.data(), H + 1, SHi, H);

  // S = S' * B + Q. Q == B carries into S', and out of N limbs when S' is
  // all ones. S is then 2^(64N), whose square exceeds A, so the correction
  // below always takes that carry back.
  std::memcpy(S, Q.data(), L * sizeof(uint64_t));
  addVecPadded(S + L, H, Q.data() + L, 1);

  // Rem = u * B + A[0 .. L-1] - Q^2, over N + 2 limbs.
  Scratch Rem;
  Rem.assignZeros(N + 2);
  std::memcpy(Rem.data(), A, L * sizeof(uint64_t));
  std::memcpy(Rem.data() + L, U.data(), (H + 1) * sizeof(uint64_t));
  Scratch QSq;
  QSq.assignZeros(N + 2);
  mulVec(QSq.data(), Q.data(), L + 1, Q.data(), L + 1);
  if (cmpVec(Rem.data(), QSq.data(), N + 2) < 0) {
    // S is one too large: S -= 1 (wrapping a carried-out S back to all
    // ones), then Rem += 2S + 1.
    for (size_t I = 0; I < N; ++I)
      if (S[I]-- != 0)
        break;
    const uint64_t One = 1;
    addVecPadded(Rem.data(), N + 2, S, N);
    addVecPadded(Rem.data(), N + 2, S, N);
    addVecPadded(Rem.data(), N + 2, &One, 1);
  }
  subVecInPlace(Rem.data(), QSq.data(), N + 2);
  assert(Rem[N + 1] == 0 && "sqrtRemVec remainder exceeds 2S");
  std::memcpy(R, Rem.data(), (N + 1) * sizeof(uint64_t));
}

//===----------------------------------------------------------------------===//
// Rounding construction.
//===----------------------------------------------------------------------===//

void BigFloatBuilder::makeRoundedInto(BigFloat &Dst, bool Neg, int64_t Exp,
                                      const uint64_t *Mant, size_t MantLimbs,
                                      bool Sticky, size_t TargetLimbs) {
  assert(MantLimbs > 0 && (Mant[MantLimbs - 1] >> 63) == 1 &&
         "makeRoundedInto requires a normalized mantissa");
  Dst.K = BigFloat::Kind::Finite;
  Dst.Neg = Neg;
  Dst.Exp = Exp;
  Dst.LimbCountHint = static_cast<uint32_t>(TargetLimbs);

  if (MantLimbs <= TargetLimbs) {
    // Exact (apart from Sticky bits strictly below the round position, which
    // round to nothing because the round bit itself is zero).
    Dst.Limbs.assignZeros(TargetLimbs);
    std::memcpy(Dst.Limbs.data() + (TargetLimbs - MantLimbs), Mant,
                MantLimbs * sizeof(uint64_t));
    return;
  }

  size_t Drop = MantLimbs - TargetLimbs;
  bool RoundBit = (Mant[Drop - 1] >> 63) & 1;
  bool StickyLocal = Sticky || (Mant[Drop - 1] & ~(1ULL << 63)) != 0;
  for (size_t I = 0; I + 1 < Drop && !StickyLocal; ++I)
    StickyLocal = Mant[I] != 0;

  Dst.Limbs.assignCopy(Mant + Drop, TargetLimbs);
  uint64_t *L = Dst.Limbs.data();
  bool LowBit = L[0] & 1;
  if (RoundBit && (StickyLocal || LowBit)) {
    // Increment; on carry-out the mantissa becomes exactly 2^(64*Target),
    // i.e. frac 1/2 at Exp+1.
    uint64_t Carry = 1;
    for (size_t I = 0; I < TargetLimbs && Carry; ++I) {
      L[I] += Carry;
      Carry = L[I] == 0 ? 1 : 0;
    }
    if (Carry) {
      std::memset(L, 0, TargetLimbs * sizeof(uint64_t));
      L[TargetLimbs - 1] = 1ULL << 63;
      ++Dst.Exp;
    }
  }
  assert((Dst.Limbs.back() >> 63) == 1 && "rounding lost normalization");
}

void BigFloatBuilder::normalizeAndRoundInto(BigFloat &Dst, bool Neg,
                                            int64_t Exp, uint64_t *Mant,
                                            size_t MantLimbs, bool Sticky,
                                            size_t TargetLimbs) {
  size_t TopIdx = MantLimbs;
  while (TopIdx > 0 && Mant[TopIdx - 1] == 0)
    --TopIdx;
  if (TopIdx == 0) {
    assert(!Sticky && "cannot normalize a pure-sticky value");
    Dst = BigFloat::zero(false);
    return;
  }
  size_t Shift = (MantLimbs - TopIdx) * 64 +
                 static_cast<size_t>(leadingZeros64(Mant[TopIdx - 1]));
  // When Sticky bits exist below the buffer, the left shift must not move
  // the round position past them; callers size their buffers to guarantee
  // this (see BigFloat.cpp commentary on add/div/sqrt).
  assert(!Sticky || MantLimbs > TargetLimbs);
  assert(!Sticky || Shift <= 64 * (MantLimbs - TargetLimbs));
  if (Shift > 0)
    shiftLeftVec(Mant, MantLimbs, Shift);
  makeRoundedInto(Dst, Neg, Exp - static_cast<int64_t>(Shift), Mant,
                  MantLimbs, Sticky, TargetLimbs);
}

//===----------------------------------------------------------------------===//
// Constructors and conversions.
//===----------------------------------------------------------------------===//

BigFloat BigFloat::zero(bool Negative) {
  BigFloat R;
  R.K = Kind::Zero;
  R.Neg = Negative;
  R.LimbCountHint = static_cast<uint32_t>(limbsForPrecision(0));
  return R;
}

BigFloat BigFloat::inf(bool Negative) {
  BigFloat R;
  R.K = Kind::Inf;
  R.Neg = Negative;
  R.LimbCountHint = static_cast<uint32_t>(limbsForPrecision(0));
  return R;
}

BigFloat BigFloat::nan() {
  BigFloat R;
  R.K = Kind::NaN;
  R.LimbCountHint = static_cast<uint32_t>(limbsForPrecision(0));
  return R;
}

BigFloat BigFloat::fromMantissaExp(bool Negative, uint64_t Mant, int64_t Exp2,
                                   size_t PrecBits) {
  size_t N = limbsForPrecision(PrecBits);
  if (Mant == 0) {
    BigFloat R = zero(Negative);
    R.LimbCountHint = static_cast<uint32_t>(N);
    return R;
  }
  int Lz = leadingZeros64(Mant);
  BigFloat R;
  R.K = Kind::Finite;
  R.Neg = Negative;
  R.Exp = Exp2 + 64 - Lz;
  R.Limbs.assignZeros(N);
  R.Limbs[N - 1] = Mant << Lz;
  R.LimbCountHint = static_cast<uint32_t>(N);
  return R;
}

BigFloat BigFloat::fromDouble(double X, size_t PrecBits) {
  if (std::isnan(X))
    return nan();
  if (std::isinf(X))
    return inf(X < 0);
  uint64_t Bits = bitsOfDouble(X);
  bool Negative = Bits >> 63;
  uint64_t ExpField = (Bits >> 52) & 0x7ff;
  uint64_t MantField = Bits & ((1ULL << 52) - 1);
  if (ExpField == 0) {
    // Subnormal (or zero): value = MantField * 2^-1074.
    if (MantField == 0) {
      BigFloat R = zero(Negative);
      R.LimbCountHint = static_cast<uint32_t>(limbsForPrecision(PrecBits));
      return R;
    }
    return fromMantissaExp(Negative, MantField, -1074, PrecBits);
  }
  // Normal: value = (2^52 + MantField) * 2^(ExpField - 1075).
  return fromMantissaExp(Negative, (1ULL << 52) | MantField,
                         static_cast<int64_t>(ExpField) - 1075, PrecBits);
}

BigFloat BigFloat::fromFloat(float X, size_t PrecBits) {
  if (std::isnan(X))
    return nan();
  if (std::isinf(X))
    return inf(X < 0);
  uint32_t Bits = bitsOfFloat(X);
  bool Negative = Bits >> 31;
  uint32_t ExpField = (Bits >> 23) & 0xff;
  uint32_t MantField = Bits & ((1U << 23) - 1);
  if (ExpField == 0) {
    if (MantField == 0) {
      BigFloat R = zero(Negative);
      R.LimbCountHint = static_cast<uint32_t>(limbsForPrecision(PrecBits));
      return R;
    }
    return fromMantissaExp(Negative, MantField, -149, PrecBits);
  }
  return fromMantissaExp(Negative, (1U << 23) | MantField,
                         static_cast<int64_t>(ExpField) - 150, PrecBits);
}

BigFloat BigFloat::fromInt64(int64_t X, size_t PrecBits) {
  if (X >= 0)
    return fromMantissaExp(false, static_cast<uint64_t>(X), 0, PrecBits);
  // -INT64_MIN overflows; negate in unsigned arithmetic.
  return fromMantissaExp(true, ~static_cast<uint64_t>(X) + 1, 0, PrecBits);
}

BigFloat BigFloat::fromUInt64(uint64_t X, size_t PrecBits) {
  return fromMantissaExp(false, X, 0, PrecBits);
}

namespace {
/// IEEE destination format parameters for rounding conversions.
struct IEEEFormat {
  int MantBits;      ///< Including the implicit bit (53 for double).
  int64_t MaxExp;    ///< Values with Exp > MaxExp after rounding overflow.
  int64_t MinNormal; ///< Smallest Exp that is still a normal number.
  int64_t SubOffset; ///< -log2(smallest subnormal) (1074 for double).
  int ExpBias;       ///< Exponent bias (1023 for double).
};
} // namespace

static const IEEEFormat DoubleFormat = {53, 1024, -1021, 1074, 1023};
static const IEEEFormat FloatFormat = {24, 128, -125, 149, 127};

/// Extracts the top KeepBits bits of a normalized mantissa as an integer,
/// rounding to nearest-even with the remaining bits (plus StickyIn).
/// The result may be 2^KeepBits (carry), which callers must handle.
static uint64_t roundTopBits(const uint64_t *Limbs, size_t N, int KeepBits,
                             bool StickyIn) {
  assert(KeepBits >= 0 && KeepBits <= 63 && "roundTopBits range");
  // The kept bits, round bit, and the top of the sticky region all live in
  // the top two limbs; gather them into one 128-bit window.
  unsigned __int128 Window = (unsigned __int128)Limbs[N - 1] << 64;
  if (N >= 2)
    Window |= Limbs[N - 2];
  uint64_t Kept =
      KeepBits == 0 ? 0 : static_cast<uint64_t>(Window >> (128 - KeepBits));
  bool RoundBit = (Window >> (127 - KeepBits)) & 1;
  bool Sticky = StickyIn;
  unsigned __int128 BelowMask =
      (((unsigned __int128)1) << (127 - KeepBits)) - 1;
  if (Window & BelowMask)
    Sticky = true;
  for (size_t I = 0; I + 2 < N && !Sticky; ++I)
    Sticky = Limbs[I] != 0;
  if (RoundBit && (Sticky || (Kept & 1)))
    ++Kept;
  return Kept;
}

/// Shared double/float conversion.
static uint64_t roundToIEEEBits(const BigFloat &X, const IEEEFormat &Fmt) {
  uint64_t SignBit = X.isNegative() ? 1ULL << (Fmt.MantBits == 53 ? 63 : 31)
                                    : 0;
  const uint64_t *Limbs = BigFloatBuilder::limbs(X);
  size_t N = BigFloatBuilder::limbCount(X);
  int64_t Exp = BigFloatBuilder::rawExp(X);
  uint64_t InfBits =
      Fmt.MantBits == 53 ? 0x7ffULL << 52 : static_cast<uint64_t>(0xff) << 23;
  int FieldBits = Fmt.MantBits - 1;

  if (Exp > Fmt.MaxExp)
    return SignBit | InfBits;

  if (Exp >= Fmt.MinNormal) {
    uint64_t M = roundTopBits(Limbs, N, Fmt.MantBits, false);
    if (M >> Fmt.MantBits) {
      // Carried to the next binade.
      M >>= 1;
      ++Exp;
      if (Exp > Fmt.MaxExp)
        return SignBit | InfBits;
    }
    uint64_t Biased = static_cast<uint64_t>(Exp - 1 + Fmt.ExpBias);
    uint64_t Field = M & ((1ULL << FieldBits) - 1);
    return SignBit | (Biased << FieldBits) | Field;
  }

  // Subnormal (or rounds to zero).
  int64_t KeepBits64 = Exp + Fmt.SubOffset;
  if (KeepBits64 < 0)
    return SignBit; // magnitude below half the smallest subnormal
  int KeepBits = static_cast<int>(std::min<int64_t>(KeepBits64, 63));
  uint64_t K = roundTopBits(Limbs, N, KeepBits, false);
  // K may equal 2^KeepBits, which is the next subnormal (or the smallest
  // normal when KeepBits == FieldBits); the bit pattern works out in both
  // cases because the subnormal field and exponent field are adjacent.
  return SignBit | K;
}

double BigFloat::toDouble() const {
  switch (K) {
  case Kind::Zero:
    return Neg ? -0.0 : 0.0;
  case Kind::Inf:
    return Neg ? -HUGE_VAL : HUGE_VAL;
  case Kind::NaN:
    return std::nan("");
  case Kind::Finite:
    return doubleFromBits(roundToIEEEBits(*this, DoubleFormat));
  }
  assert(false && "unknown kind");
  return 0.0;
}

float BigFloat::toFloat() const {
  switch (K) {
  case Kind::Zero:
    return Neg ? -0.0f : 0.0f;
  case Kind::Inf:
    return Neg ? -HUGE_VALF : HUGE_VALF;
  case Kind::NaN:
    return std::nanf("");
  case Kind::Finite:
    return floatFromBits(
        static_cast<uint32_t>(roundToIEEEBits(*this, FloatFormat)));
  }
  assert(false && "unknown kind");
  return 0.0f;
}

int64_t BigFloat::toInt64Trunc() const {
  switch (K) {
  case Kind::Zero:
    return 0;
  case Kind::NaN:
    return 0;
  case Kind::Inf:
    return Neg ? INT64_MIN : INT64_MAX;
  case Kind::Finite:
    break;
  }
  if (Exp <= 0)
    return 0;
  if (Exp > 64)
    return Neg ? INT64_MIN : INT64_MAX;
  // Integer part = top Exp bits of the mantissa.
  uint64_t Mag;
  if (Exp == 64) {
    Mag = Limbs.back();
  } else {
    Mag = Limbs.back() >> (64 - Exp);
  }
  if (!Neg)
    return Mag > static_cast<uint64_t>(INT64_MAX)
               ? INT64_MAX
               : static_cast<int64_t>(Mag);
  if (Mag > (1ULL << 63))
    return INT64_MIN;
  return -static_cast<int64_t>(Mag - 1) - 1;
}

BigFloat BigFloat::withPrecision(size_t PrecBits) const {
  size_t N = limbsForPrecision(PrecBits);
  BigFloat R = *this;
  R.LimbCountHint = static_cast<uint32_t>(N);
  if (K != Kind::Finite)
    return R;
  if (N == Limbs.size())
    return R;
  if (N > Limbs.size()) {
    R.Limbs.assignZeros(N);
    std::memcpy(R.Limbs.data() + (N - Limbs.size()), Limbs.data(),
                Limbs.size() * sizeof(uint64_t));
    return R;
  }
  BigFloatBuilder::makeRoundedInto(R, Neg, Exp, Limbs.data(), Limbs.size(),
                                   false, N);
  return R;
}

//===----------------------------------------------------------------------===//
// Observers.
//===----------------------------------------------------------------------===//

int64_t BigFloat::exponent() const {
  assert(K == Kind::Finite && "exponent of a non-finite/zero value");
  return Exp;
}

bool BigFloat::isInteger() const {
  switch (K) {
  case Kind::Zero:
    return true;
  case Kind::Inf:
  case Kind::NaN:
    return false;
  case Kind::Finite:
    break;
  }
  if (Exp <= 0)
    return false;
  int64_t TotalBits = static_cast<int64_t>(Limbs.size()) * 64;
  if (Exp >= TotalBits)
    return true;
  // Fractional bits are the low (TotalBits - Exp) bits.
  size_t FracBits = static_cast<size_t>(TotalBits - Exp);
  for (size_t Pos = 0; Pos < FracBits; ++Pos)
    if (getBit(Limbs.data(), Limbs.size(), Pos))
      return false;
  return true;
}

bool BigFloat::isOddInteger() const {
  if (!isInteger() || K == Kind::Zero)
    return false;
  int64_t TotalBits = static_cast<int64_t>(Limbs.size()) * 64;
  if (Exp > TotalBits)
    return false; // huge => divisible by large powers of two
  // The units bit of the integer part sits at position TotalBits - Exp.
  return getBit(Limbs.data(), Limbs.size(),
                static_cast<size_t>(TotalBits - Exp));
}

//===----------------------------------------------------------------------===//
// Sign manipulation.
//===----------------------------------------------------------------------===//

BigFloat BigFloat::negated() const {
  BigFloat R = *this;
  if (K != Kind::NaN)
    R.Neg = !R.Neg;
  return R;
}

BigFloat BigFloat::abs() const {
  BigFloat R = *this;
  R.Neg = false;
  return R;
}

BigFloat BigFloat::copySign(const BigFloat &SignSource) const {
  BigFloat R = *this;
  R.Neg = SignSource.Neg;
  return R;
}

//===----------------------------------------------------------------------===//
// Comparison.
//===----------------------------------------------------------------------===//

/// Magnitude comparison of two finite nonzero values (signs ignored).
static int cmpFiniteMagnitudes(const BigFloat &A, const BigFloat &B) {
  int64_t EA = BigFloatBuilder::rawExp(A);
  int64_t EB = BigFloatBuilder::rawExp(B);
  if (EA != EB)
    return EA < EB ? -1 : 1;
  // Compare mantissas, treating missing low limbs as zero.
  const uint64_t *LA = BigFloatBuilder::limbs(A);
  const uint64_t *LB = BigFloatBuilder::limbs(B);
  size_t NA = BigFloatBuilder::limbCount(A);
  size_t NB = BigFloatBuilder::limbCount(B);
  size_t N = std::max(NA, NB);
  for (size_t I = N; I-- > 0;) {
    uint64_t VA = I >= N - NA ? LA[I - (N - NA)] : 0;
    uint64_t VB = I >= N - NB ? LB[I - (N - NB)] : 0;
    if (VA != VB)
      return VA < VB ? -1 : 1;
  }
  return 0;
}

int BigFloat::cmp(const BigFloat &A, const BigFloat &B) {
  assert(!A.isNaN() && !B.isNaN() && "cmp of NaN");
  bool AZero = A.isZero();
  bool BZero = B.isZero();
  if (AZero && BZero)
    return 0;
  if (AZero)
    return B.Neg ? 1 : -1;
  if (BZero)
    return A.Neg ? -1 : 1;
  if (A.Neg != B.Neg)
    return A.Neg ? -1 : 1;
  int SignFactor = A.Neg ? -1 : 1;
  if (A.isInf() || B.isInf()) {
    if (A.isInf() && B.isInf())
      return 0;
    return A.isInf() ? SignFactor : -SignFactor;
  }
  return SignFactor * cmpFiniteMagnitudes(A, B);
}

bool BigFloat::lt(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return false;
  return cmp(A, B) < 0;
}

bool BigFloat::le(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return false;
  return cmp(A, B) <= 0;
}

bool BigFloat::gt(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return false;
  return cmp(A, B) > 0;
}

bool BigFloat::ge(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return false;
  return cmp(A, B) >= 0;
}

bool BigFloat::eq(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return false;
  return cmp(A, B) == 0;
}

bool BigFloat::ne(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return true;
  return cmp(A, B) != 0;
}

//===----------------------------------------------------------------------===//
// Arithmetic.
//===----------------------------------------------------------------------===//

/// Result precision rule: the larger of the operand precisions.
static size_t resultLimbs(const BigFloat &A, const BigFloat &B) {
  return std::max(BigFloat::limbsForPrecision(A.precisionBits()),
                  BigFloat::limbsForPrecision(B.precisionBits()));
}

/// Magnitude |A| + |B| with the given result sign (both finite nonzero).
/// Reads both operands into scratch before writing Dst, so Dst may alias.
static void addMagnitudesInto(BigFloat &Dst, const BigFloat &A,
                              const BigFloat &B, bool Neg, size_t Target) {
  const uint64_t *MHi = BigFloatBuilder::limbs(A);
  const uint64_t *MLo = BigFloatBuilder::limbs(B);
  size_t NHi = BigFloatBuilder::limbCount(A);
  size_t NLo = BigFloatBuilder::limbCount(B);
  int64_t EHi = BigFloatBuilder::rawExp(A);
  int64_t ELo = BigFloatBuilder::rawExp(B);
  if (EHi < ELo) {
    std::swap(MHi, MLo);
    std::swap(NHi, NLo);
    std::swap(EHi, ELo);
  }
  size_t W = Target + 2;
  assert(NHi <= Target && NLo <= Target &&
         "operand precision exceeds result precision");

  // Place Hi's mantissa at the top of a W-limb buffer.
  Scratch Buf;
  Buf.assignZeros(W);
  std::memcpy(Buf.data() + (W - NHi), MHi, NHi * sizeof(uint64_t));
  // Place Lo at the top too, then shift it down into alignment.
  Scratch LoBuf;
  LoBuf.assignZeros(W);
  std::memcpy(LoBuf.data() + (W - NLo), MLo, NLo * sizeof(uint64_t));
  bool Sticky = false;
  uint64_t Diff = static_cast<uint64_t>(EHi - ELo);
  if (Diff >= W * 64) {
    std::memset(LoBuf.data(), 0, W * sizeof(uint64_t));
    Sticky = true;
  } else {
    shiftRightVec(LoBuf.data(), W, static_cast<size_t>(Diff), Sticky);
  }

  uint64_t Carry = addVecInPlace(Buf.data(), LoBuf.data(), W);
  int64_t Exp = EHi;
  if (Carry) {
    shiftRightVec(Buf.data(), W, 1, Sticky);
    Buf[W - 1] |= 1ULL << 63;
    ++Exp;
  }
  BigFloatBuilder::normalizeAndRoundInto(Dst, Neg, Exp, Buf.data(), W, Sticky,
                                         Target);
}

/// Magnitude |A| - |B| with |A| > |B| (the caller pre-orders operands and
/// peels off the exactly-equal case). Sign Neg applies to the |A| >= |B|
/// orientation. Alias-safe like addMagnitudesInto.
static void subMagnitudesInto(BigFloat &Dst, const BigFloat &A,
                              const BigFloat &B, bool Neg, size_t Target) {
  const uint64_t *MA = BigFloatBuilder::limbs(A);
  const uint64_t *MB = BigFloatBuilder::limbs(B);
  size_t NA = BigFloatBuilder::limbCount(A);
  size_t NB = BigFloatBuilder::limbCount(B);
  int64_t EA = BigFloatBuilder::rawExp(A);
  int64_t EB = BigFloatBuilder::rawExp(B);
  assert(EA >= EB && "subMagnitudesInto requires pre-ordered operands");
  size_t W = Target + 2;
  Scratch Buf;
  Buf.assignZeros(W);
  std::memcpy(Buf.data() + (W - NA), MA, NA * sizeof(uint64_t));
  Scratch LoBuf;
  LoBuf.assignZeros(W);
  std::memcpy(LoBuf.data() + (W - NB), MB, NB * sizeof(uint64_t));
  bool Sticky = false;
  uint64_t Diff = static_cast<uint64_t>(EA - EB);
  if (Diff >= W * 64) {
    std::memset(LoBuf.data(), 0, W * sizeof(uint64_t));
    Sticky = true;
  } else {
    shiftRightVec(LoBuf.data(), W, static_cast<size_t>(Diff), Sticky);
  }

  // Equal buffers imply exactly equal values (Sticky requires an exponent
  // gap >= 1, which forces LoBuf's top bit clear while Buf's is set), and
  // the caller already peeled off the exactly-equal case.
  assert(cmpVec(Buf.data(), LoBuf.data(), W) > 0 &&
         "subMagnitudesInto operands not pre-ordered");
  subVecInPlace(Buf.data(), LoBuf.data(), W);
  if (Sticky) {
    // The dropped bits of B make the true result slightly smaller than Buf;
    // represent that as (Buf - 1ulp) + sticky.
    assert(!vecIsZero(Buf.data(), W) &&
           "sticky subtraction cannot cancel to zero");
    decrementVec(Buf.data(), W);
    if (vecIsZero(Buf.data(), W)) {
      // Result is strictly between 0 and one buffer ulp: impossible, since
      // Sticky requires an exponent gap much larger than the buffer.
      assert(false && "sticky cancellation to zero");
    }
  }
  BigFloatBuilder::normalizeAndRoundInto(Dst, Neg, EA, Buf.data(), W, Sticky,
                                         Target);
}

void BigFloat::addInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B) {
  size_t Target = resultLimbs(A, B);
  if (A.isNaN() || B.isNaN()) {
    Dst = nan();
    return;
  }
  if (A.isInf() || B.isInf()) {
    if (A.isInf() && B.isInf())
      Dst = A.Neg == B.Neg ? A : nan();
    else
      Dst = A.isInf() ? A : B;
    return;
  }
  if (A.isZero() && B.isZero()) {
    Dst = zero(A.Neg && B.Neg);
    return;
  }
  if (A.isZero()) {
    Dst = B.withPrecision(Target * 64);
    return;
  }
  if (B.isZero()) {
    Dst = A.withPrecision(Target * 64);
    return;
  }

  if (A.Neg == B.Neg) {
    addMagnitudesInto(Dst, A, B, A.Neg, Target);
    return;
  }

  // Opposite signs: compute |larger| - |smaller| with the larger's sign.
  int MagCmp = cmpFiniteMagnitudes(A, B);
  if (MagCmp == 0) {
    Dst = zero(false);
    return;
  }
  const BigFloat *Big = &A;
  const BigFloat *Small = &B;
  if (MagCmp < 0)
    std::swap(Big, Small);
  subMagnitudesInto(Dst, *Big, *Small, Big->Neg, Target);
}

void BigFloat::subInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B) {
  addInto(Dst, A, B.negated());
}

void BigFloat::mulInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B) {
  size_t Target = resultLimbs(A, B);
  if (A.isNaN() || B.isNaN()) {
    Dst = nan();
    return;
  }
  bool Neg = A.Neg != B.Neg;
  if (A.isInf() || B.isInf()) {
    Dst = A.isZero() || B.isZero() ? nan() : inf(Neg);
    return;
  }
  if (A.isZero() || B.isZero()) {
    Dst = zero(Neg);
    return;
  }

  size_t NA = A.Limbs.size();
  size_t NB = B.Limbs.size();
  Scratch Prod;
  Prod.assignZeros(NA + NB);
  mulVec(Prod.data(), A.Limbs.data(), NA, B.Limbs.data(), NB);
  BigFloatBuilder::normalizeAndRoundInto(Dst, Neg, A.Exp + B.Exp, Prod.data(),
                                         NA + NB, false, Target);
}

BigFloat BigFloat::mulExact(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN() || B.isNaN())
    return nan();
  bool Neg = A.Neg != B.Neg;
  if (A.isInf() || B.isInf()) {
    if (A.isZero() || B.isZero())
      return nan();
    return inf(Neg);
  }
  if (A.isZero() || B.isZero())
    return zero(Neg);
  size_t NA = A.Limbs.size();
  size_t NB = B.Limbs.size();
  Scratch Prod;
  Prod.assignZeros(NA + NB);
  mulVec(Prod.data(), A.Limbs.data(), NA, B.Limbs.data(), NB);
  BigFloat R;
  BigFloatBuilder::normalizeAndRoundInto(R, Neg, A.Exp + B.Exp, Prod.data(),
                                         NA + NB, false, NA + NB);
  return R;
}

void BigFloat::divInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B) {
  size_t Target = resultLimbs(A, B);
  if (A.isNaN() || B.isNaN()) {
    Dst = nan();
    return;
  }
  bool Neg = A.Neg != B.Neg;
  if (A.isInf()) {
    Dst = B.isInf() ? nan() : inf(Neg);
    return;
  }
  if (B.isInf()) {
    Dst = zero(Neg);
    return;
  }
  if (B.isZero()) {
    Dst = A.isZero() ? nan() : inf(Neg);
    return;
  }
  if (A.isZero()) {
    Dst = zero(Neg);
    return;
  }

  int64_t ExpA = A.Exp, ExpB = B.Exp;
  // Extend the divisor's mantissa to Target limbs.
  size_t N = Target;
  Scratch MB;
  MB.assignZeros(N);
  std::memcpy(MB.data() + (N - B.Limbs.size()), B.Limbs.data(),
              B.Limbs.size() * sizeof(uint64_t));

  // U = MA * 2^(64*(N+1)); quotient has N+2 limbs, top limb in {0, 1}.
  size_t NU = 2 * N + 1;
  Scratch U;
  U.assignZeros(NU);
  std::memcpy(U.data() + (N + 1) + (N - A.Limbs.size()), A.Limbs.data(),
              A.Limbs.size() * sizeof(uint64_t));
  size_t QN = NU - N + 1; // == N + 2
  Scratch Q;
  Q.assignZeros(QN);
  Scratch RS;
  RS.assignZeros(NU + 1);
  divmodVec(U.data(), NU, MB.data(), N, Q.data(), RS.data());
  bool Sticky = !vecIsZero(U.data(), NU);
  BigFloatBuilder::normalizeAndRoundInto(Dst, Neg, ExpA - ExpB + 64, Q.data(),
                                         QN, Sticky, Target);
}

void BigFloat::sqrtInto(BigFloat &Dst, const BigFloat &X) {
  if (X.isNaN()) {
    Dst = nan();
    return;
  }
  if (X.isZero()) {
    Dst = X;
    return;
  }
  if (X.Neg) {
    Dst = nan();
    return;
  }
  if (X.isInf()) {
    Dst = inf(false);
    return;
  }

  size_t N = X.Limbs.size();
  // Integer square root of Num = F * 2^(64*NI), NI = N + 1, where F is the
  // mantissa over NI limbs (one low guard limb), halved when the exponent
  // is odd so that value = F * 2^E with E even and F in [1/4, 1). The
  // root S = floor(sqrt(Num)) has NI limbs with the top bit set: exactly
  // the mantissa plus a guard limb, and the remainder is the sticky bit.
  int64_t E = X.Exp;
  size_t NI = N + 1;
  Scratch Num;
  Num.assignZeros(2 * NI);
  std::memcpy(Num.data() + NI + 1, X.Limbs.data(), N * sizeof(uint64_t));
  if (E & 1) {
    bool Dummy = false;
    shiftRightVec(Num.data() + NI, NI, 1, Dummy);
    assert(!Dummy && "guard limb absorbed the shift");
    E += 1;
  }

  Scratch Root;
  Root.assignZeros(NI);
  Scratch Rem;
  Rem.assignZeros(NI + 1);
  sqrtRemVec(Root.data(), Rem.data(), Num.data(), NI);
  bool Sticky = !vecIsZero(Rem.data(), NI + 1);
  assert((Root[NI - 1] >> 63) == 1 && "isqrt result not normalized");
  BigFloatBuilder::normalizeAndRoundInto(Dst, false, E / 2, Root.data(), NI,
                                         Sticky, N);
}

BigFloat BigFloat::add(const BigFloat &A, const BigFloat &B) {
  BigFloat R;
  addInto(R, A, B);
  return R;
}

BigFloat BigFloat::sub(const BigFloat &A, const BigFloat &B) {
  BigFloat R;
  subInto(R, A, B);
  return R;
}

BigFloat BigFloat::mul(const BigFloat &A, const BigFloat &B) {
  BigFloat R;
  mulInto(R, A, B);
  return R;
}

BigFloat BigFloat::div(const BigFloat &A, const BigFloat &B) {
  BigFloat R;
  divInto(R, A, B);
  return R;
}

BigFloat BigFloat::sqrt(const BigFloat &X) {
  BigFloat R;
  sqrtInto(R, X);
  return R;
}

BigFloat BigFloat::fma(const BigFloat &A, const BigFloat &B,
                       const BigFloat &C) {
  size_t Target = std::max(resultLimbs(A, B), limbsForPrecision(
                                                  C.precisionBits()));
  BigFloat P = mulExact(A, B);
  // Add at a precision wide enough to keep the exact product's bits in play,
  // then round once to the target.
  BigFloat CWide = C.withPrecision(P.precisionBits() + 128);
  BigFloat PWide = P.withPrecision(P.precisionBits() + 128);
  BigFloat Sum = add(PWide, CWide);
  return Sum.withPrecision(Target * 64);
}

BigFloat BigFloat::scalb(const BigFloat &X, int64_t Shift) {
  if (!X.isFinite() || X.isZero())
    return X;
  BigFloat R = X;
  R.Exp += Shift;
  return R;
}

BigFloat BigFloat::fmin(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN())
    return B;
  if (B.isNaN())
    return A;
  return cmp(A, B) <= 0 ? A : B;
}

BigFloat BigFloat::fmax(const BigFloat &A, const BigFloat &B) {
  if (A.isNaN())
    return B;
  if (B.isNaN())
    return A;
  return cmp(A, B) >= 0 ? A : B;
}

//===----------------------------------------------------------------------===//
// Integer roundings.
//===----------------------------------------------------------------------===//

BigFloat BigFloat::trunc() const {
  if (K != Kind::Finite)
    return *this;
  if (Exp <= 0)
    return zero(Neg);
  int64_t TotalBits = static_cast<int64_t>(Limbs.size()) * 64;
  if (Exp >= TotalBits)
    return *this;
  BigFloat R = *this;
  size_t FracBits = static_cast<size_t>(TotalBits - Exp);
  size_t FullLimbs = FracBits / 64;
  size_t PartialBits = FracBits % 64;
  for (size_t I = 0; I < FullLimbs; ++I)
    R.Limbs[I] = 0;
  if (PartialBits)
    R.Limbs[FullLimbs] &= ~((1ULL << PartialBits) - 1);
  if (vecIsZero(R.Limbs.data(), R.Limbs.size()))
    return zero(Neg);
  return R;
}

/// True if this value has any fractional bits (i.e. trunc() != *this).
static bool hasFraction(const BigFloat &X) {
  return X.isFinite() && !X.isZero() && !X.isInteger();
}

BigFloat BigFloat::floor() const {
  if (K != Kind::Finite)
    return K == Kind::Zero ? zero(false) : *this;
  BigFloat T = trunc();
  if (!hasFraction(*this))
    return T;
  if (!Neg)
    return T;
  return sub(T, fromInt64(1, precisionBits()));
}

BigFloat BigFloat::ceil() const {
  if (K != Kind::Finite)
    return K == Kind::Zero ? zero(false) : *this;
  BigFloat T = trunc();
  if (!hasFraction(*this))
    return T;
  if (Neg)
    return T;
  return add(T, fromInt64(1, precisionBits()));
}

/// Fraction comparison helper: -1 if |frac| < 1/2, 0 if == 1/2, +1 if > 1/2.
static int cmpFractionToHalf(const BigFloat &X) {
  assert(hasFraction(X) && "no fraction to compare");
  const uint64_t *Limbs = BigFloatBuilder::limbs(X);
  size_t N = BigFloatBuilder::limbCount(X);
  int64_t Exp = BigFloatBuilder::rawExp(X);
  int64_t TotalBits = static_cast<int64_t>(N) * 64;
  if (Exp <= 0) {
    // |X| < 1: fraction is |X| itself. |X| >= 1/2 iff Exp == 0.
    if (Exp < 0)
      return -1;
    // Exp == 0: |X| in [1/2, 1); equal to 1/2 iff only the top bit is set.
    for (size_t Pos = 0; Pos < static_cast<size_t>(TotalBits) - 1; ++Pos)
      if (getBit(Limbs, N, Pos))
        return 1;
    return 0;
  }
  // The first fractional bit sits at position TotalBits - Exp - 1.
  size_t HalfPos = static_cast<size_t>(TotalBits - Exp - 1);
  if (!getBit(Limbs, N, HalfPos))
    return -1;
  for (size_t Pos = 0; Pos < HalfPos; ++Pos)
    if (getBit(Limbs, N, Pos))
      return 1;
  return 0;
}

BigFloat BigFloat::roundNearest() const {
  if (K != Kind::Finite)
    return *this;
  if (!hasFraction(*this))
    return trunc();
  BigFloat T = trunc();
  if (cmpFractionToHalf(*this) >= 0) {
    BigFloat One = fromInt64(Neg ? -1 : 1, precisionBits());
    return add(T, One);
  }
  if (T.isZero())
    return zero(Neg);
  return T;
}

BigFloat BigFloat::roundNearestEven() const {
  if (K != Kind::Finite)
    return *this;
  if (!hasFraction(*this))
    return trunc();
  BigFloat T = trunc();
  int HalfCmp = cmpFractionToHalf(*this);
  bool RoundAway;
  if (HalfCmp > 0) {
    RoundAway = true;
  } else if (HalfCmp < 0) {
    RoundAway = false;
  } else {
    RoundAway = T.isOddInteger();
  }
  if (RoundAway) {
    BigFloat One = fromInt64(Neg ? -1 : 1, precisionBits());
    return add(T, One);
  }
  if (T.isZero())
    return zero(Neg);
  return T;
}

//===----------------------------------------------------------------------===//
// Debug printing.
//===----------------------------------------------------------------------===//

std::string BigFloat::debugStr() const {
  switch (K) {
  case Kind::Zero:
    return Neg ? "-0" : "+0";
  case Kind::Inf:
    return Neg ? "-inf" : "+inf";
  case Kind::NaN:
    return "nan";
  case Kind::Finite:
    break;
  }
  std::string S = Neg ? "-0x." : "+0x.";
  for (size_t I = Limbs.size(); I-- > 0;)
    S += format("%016llx", static_cast<unsigned long long>(Limbs[I]));
  S += format("p%+lld[%zu]", static_cast<long long>(Exp), precisionBits());
  return S;
}
