//===- real/RealMath.cpp - Transcendental functions on BigFloat -----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Strategy: every public function fixes one working precision WP = input
// precision + GuardBits, hands its finite arguments to a file-static kernel
// (`expAt`, `logAt`, `atanAt`, ...) that returns a value accurate at WP, and
// rounds that once to the input precision. Kernels built on other kernels
// (pow on log and exp, tanh on expm1, acos and asin on atan) call the `At`
// forms at their own WP instead of widening the argument again.
//
// Arguments are reduced with BigFloat arithmetic; the series are summed in
// fixed point, on N-limb fractions (WP in whole limbs plus one guard limb)
// with truncating multiplies. The Horner loop drops limbs as it goes
// inwards: a partial sum that will be multiplied by Z^j is needed only to
// 64N - j*log2(1/Z) bits. The series coefficients (1/k!, 1/(2k+1)) and the
// log table ln(1 + j/32) are per-thread tables that grow with the requested
// precision, like the pi and ln2 caches.
//
//   exp    X = K ln2 + R with |R| < 1/2; expm1(R / 2^k) by its series,
//          then k doublings expm1(2a) = expm1(a) (2 + expm1(a)).
//   log    X = M 2^K, M in [sqrt(1/2), sqrt(2)); ln M = ln c + 2 atanh((M -
//          c) / (M + c)) for the table point c = 1 + j/32 nearest M.
//   trig   reduceCircular, then sin by its series on R / 3^k and k
//          triplings, cos by 1 - cos on R / 2^k and k doublings (R
//          already under 2^-8 needs neither).
//   atan   halvings down to |a| < 1/8, then the Gregory series in a^2.
//   cbrt   Newton y <- (2y + a/y^2)/3 from a double seed, each step at just
//          the precision its result needs.
//   pow    exp(Y ln|X|): one log and one exp, at a precision chosen from a
//          double estimate of |Y ln|X|| before either runs.
//
// A kernel's value is accurate to about WP bits before it is rounded to
// WP, and the series carry a guard limb past WP, so where the exact value
// sits next to a WP-representable one (exp(x) = 1 + x + x^2/2 for a tiny
// x) the rounding to WP lands on that neighbour. The public result, that
// value rounded to the input precision, is then bit-identical to what the
// term-by-term series these kernels replaced return (kept as the oracle in
// tests/RealMathReference.h), except with probability around 2^-120 per
// call.
// Constants (pi, ln2) are computed by Machin-style small-denominator series
// and cached at the largest precision requested so far.
//
//===----------------------------------------------------------------------===//

#include "real/RealMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace herbgrind;
using realmath::pi;
using realmath::ln2;

/// Guard bits added to the working precision of every function.
static const size_t GuardBits = 128;

//===----------------------------------------------------------------------===//
// Small helpers.
//===----------------------------------------------------------------------===//

/// Divides a finite nonzero BigFloat by a small positive integer with a
/// single limb pass. Alias-safe destination-passing: \p Dst may be \p X;
/// the quotient is built in stack scratch before Dst is written.
static void divBySmallInto(BigFloat &Dst, const BigFloat &X, uint64_t D) {
  assert(D > 0 && "division by zero");
  if (!X.isFinite() || X.isZero()) {
    Dst = X;
    return;
  }
  const uint64_t *M = BigFloatBuilder::limbs(X);
  size_t N = BigFloatBuilder::limbCount(X);
  bool NegX = X.isNegative();
  int64_t ExpX = BigFloatBuilder::rawExp(X);
  InlineLimbs<16> Q;
  Q.assignZeros(N + 1);
  unsigned __int128 Rem = 0;
  for (size_t I = N; I-- > 0;) {
    unsigned __int128 Cur = (Rem << 64) | M[I];
    Q[I + 1] = static_cast<uint64_t>(Cur / D);
    Rem = Cur % D;
  }
  unsigned __int128 Cur = Rem << 64;
  Q[0] = static_cast<uint64_t>(Cur / D);
  bool Sticky = (Cur % D) != 0;
  BigFloatBuilder::normalizeAndRoundInto(Dst, NegX, ExpX, Q.data(), N + 1,
                                         Sticky, N);
}

static BigFloat divBySmall(const BigFloat &X, uint64_t D) {
  BigFloat R;
  divBySmallInto(R, X, D);
  return R;
}

/// True when adding Term to a sum of magnitude ~Ref can no longer change
/// the top WorkBits bits.
static bool negligible(const BigFloat &Term, const BigFloat &Ref,
                       size_t WorkBits) {
  if (Term.isZero())
    return true;
  if (Ref.isZero())
    return false;
  return Term.exponent() <
         Ref.exponent() - static_cast<int64_t>(WorkBits) - 16;
}

static size_t workPrec(const BigFloat &X) {
  return X.precisionBits() + GuardBits;
}

static BigFloat widened(const BigFloat &X, size_t WP) {
  return X.withPrecision(WP);
}

static BigFloat one(size_t WP) { return BigFloat::fromInt64(1, WP); }

//===----------------------------------------------------------------------===//
// Fixed-point series arithmetic.
//
// A fraction is N little-endian limbs read as L / 2^(64N), in [0, 1). The
// operations truncate; every kernel carries one guard limb past WP, which
// absorbs the few units of the last limb that truncation and the doublings
// cost.
//===----------------------------------------------------------------------===//

namespace {
/// Scratch for one fraction: inline up to 24 limbs (1024-bit inputs), the
/// per-thread limb cache beyond.
using FixBuf = InlineLimbs<24>;
} // namespace

/// Limbs of the fractions a kernel working at WP bits sums its series on:
/// WP in whole limbs plus one guard limb. The result is then rounded to WP
/// once, and the guard limb keeps that rounding the rounding of the exact
/// value: where the reference series returns a short exact polynomial (exp
/// of a tiny x is 1 + x at WP, a tie at the input precision), so does this.
static size_t fixLimbs(size_t WP) { return (WP + 63) / 64 + 1; }

static bool fixIsZero(const uint64_t *A, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (A[I])
      return false;
  return true;
}

/// Leading zero bits of a fraction (64N for zero).
static size_t fixLeadingZeros(const uint64_t *A, size_t N) {
  for (size_t I = N; I-- > 0;)
    if (A[I])
      return (N - 1 - I) * 64 + static_cast<size_t>(__builtin_clzll(A[I]));
  return 64 * N;
}

/// R = the top M limbs of A * B, for M-limb fractions: the product
/// truncated, low by at most M units of its last limb. Columns are summed
/// one at a time (Comba) from column M - 1 up; partial products of leading
/// zero limbs (a small partial sum's, or a small argument's) are skipped.
/// R may alias A or B.
static void fixMul(uint64_t *R, const uint64_t *A, const uint64_t *B,
                   size_t M) {
  size_t TopA = M, TopB = M; // limbs up to the highest nonzero one
  while (TopA > 0 && A[TopA - 1] == 0)
    --TopA;
  while (TopB > 0 && B[TopB - 1] == 0)
    --TopB;
  uint64_t Stack[32];
  FixBuf Spill;
  uint64_t *Out = Stack;
  if (M > 32) {
    Spill.assignZeros(M);
    Out = Spill.data();
  }
  unsigned __int128 Acc = 0; // the running column sum, above a third word
  uint64_t Top = 0;
  for (size_t T = M - 1; T + 1 < 2 * M; ++T) {
    // Products A[I] * B[T - I] with I < TopA and T - I < TopB.
    size_t ILo = T + 1 > TopB ? T + 1 - TopB : 0;
    for (size_t I = ILo; I < TopA && I <= T; ++I) {
      unsigned __int128 P = (unsigned __int128)A[I] * B[T - I];
      Acc += P;
      Top += Acc < P;
    }
    if (T >= M)
      Out[T - M] = static_cast<uint64_t>(Acc);
    Acc = (Acc >> 64) | ((unsigned __int128)Top << 64);
    Top = 0;
  }
  Out[M - 1] = static_cast<uint64_t>(Acc);
  std::memcpy(R, Out, M * sizeof(uint64_t));
}

/// R = A + B over M limbs (the sums here stay below 1: no carry out).
static void fixAdd(uint64_t *R, const uint64_t *A, const uint64_t *B,
                   size_t M) {
  unsigned __int128 Carry = 0;
  for (size_t I = 0; I < M; ++I) {
    Carry += (unsigned __int128)A[I] + B[I];
    R[I] = static_cast<uint64_t>(Carry);
    Carry >>= 64;
  }
  assert(Carry == 0 && "fixed-point sum reached 1");
}

/// R = A - B over M limbs (A >= B).
static void fixSub(uint64_t *R, const uint64_t *A, const uint64_t *B,
                   size_t M) {
  unsigned __int128 Borrow = 0;
  for (size_t I = 0; I < M; ++I) {
    unsigned __int128 Diff = (unsigned __int128)A[I] - B[I] - Borrow;
    R[I] = static_cast<uint64_t>(Diff);
    Borrow = (Diff >> 64) & 1;
  }
}

/// A = 1 - A (two's complement; A nonzero).
static void fixNegate(uint64_t *A, size_t N) {
  bool Carry = true;
  for (size_t I = 0; I < N; ++I) {
    A[I] = ~A[I] + Carry;
    Carry = Carry && A[I] == 0;
  }
}

/// A >>= Bits (Bits < 64), truncating.
static void fixShiftRight(uint64_t *A, size_t N, unsigned Bits) {
  if (Bits == 0)
    return;
  for (size_t I = 0; I < N; ++I)
    A[I] = (A[I] >> Bits) | (I + 1 < N ? A[I + 1] << (64 - Bits) : 0);
}

/// A <<= 1 (the top bit must be clear).
static void fixShiftLeft1(uint64_t *A, size_t N) {
  assert((A[N - 1] >> 63) == 0 && "fixed-point doubling reached 1");
  for (size_t I = N; I-- > 0;)
    A[I] = (A[I] << 1) | (I > 0 ? A[I - 1] >> 63 : 0);
}

/// A = floor(A / D) in place.
static void fixDivSmall(uint64_t *A, size_t N, uint64_t D) {
  unsigned __int128 Rem = 0;
  for (size_t I = N; I-- > 0;) {
    unsigned __int128 Cur = (Rem << 64) | A[I];
    A[I] = static_cast<uint64_t>(Cur / D);
    Rem = Cur % D;
  }
}

/// Dst = 1/D as an N-limb fraction, truncated (D > 1).
static void fixReciprocal(uint64_t *Dst, size_t N, uint64_t D) {
  unsigned __int128 Rem = 1;
  for (size_t I = N; I-- > 0;) {
    unsigned __int128 Cur = Rem << 64;
    Dst[I] = static_cast<uint64_t>(Cur / D);
    Rem = Cur % D;
  }
}

/// Dst = |X| as an N-limb fraction, truncated; requires |X| < 1.
static void toFix(uint64_t *Dst, const BigFloat &X, size_t N) {
  std::memset(Dst, 0, N * sizeof(uint64_t));
  if (X.isZero())
    return;
  assert(X.isFinite() && X.exponent() <= 0 && "toFix needs |X| < 1");
  const uint64_t *M = BigFloatBuilder::limbs(X);
  size_t NX = BigFloatBuilder::limbCount(X);
  uint64_t Shift = static_cast<uint64_t>(-X.exponent());
  if (Shift >= 64 * N)
    return;
  size_t LimbShift = static_cast<size_t>(Shift / 64);
  unsigned Bits = static_cast<unsigned>(Shift % 64);
  // Limb I of the unshifted, top-aligned mantissa.
  auto Aligned = [&](size_t I) -> uint64_t {
    return I < N && NX + I >= N ? M[NX + I - N] : 0;
  };
  for (size_t D = 0; D + LimbShift < N; ++D) {
    uint64_t Lo = Aligned(D + LimbShift) >> Bits;
    uint64_t Hi = Bits ? Aligned(D + LimbShift + 1) << (64 - Bits) : 0;
    Dst[D] = Lo | Hi;
  }
}

/// 1 + W (or 1 - W when \p Minus) for an N-limb fraction W, rounded to WP.
static BigFloat onePlusFix(const uint64_t *W, size_t N, bool Minus,
                           size_t WP) {
  if (fixIsZero(W, N))
    return one(WP);
  FixBuf B;
  B.assignZeros(N + 1);
  std::memcpy(B.data(), W, N * sizeof(uint64_t));
  BigFloat R;
  size_t Target = BigFloat::limbsForPrecision(WP);
  if (Minus) {
    fixNegate(B.data(), N);
    BigFloatBuilder::normalizeAndRoundInto(R, false, 0, B.data(), N, false,
                                           Target);
  } else {
    B[N] = 1;
    BigFloatBuilder::normalizeAndRoundInto(R, false, 64, B.data(), N + 1,
                                           false, Target);
  }
  return R;
}

namespace {
/// A per-thread table of series coefficients as fixed-point fractions:
/// entry I is 1/I! (Factorial, used from I = 2) or 1/(2I + 1) (used from
/// I = 1). Entries are built on first use at the widest limb count asked
/// for so far; narrower requests read their top limbs.
struct CoefTable {
  explicit CoefTable(bool Factorial) : Factorial(Factorial) {}
  bool Factorial;
  size_t N = 0;                ///< Limbs per entry.
  std::vector<uint64_t> Limbs; ///< Entry I at [I * N, (I + 1) * N).
  std::vector<size_t> Lz;      ///< Leading zero bits of entry I.
};
} // namespace

static CoefTable &factorialTable() {
  thread_local CoefTable T(true);
  return T;
}

static CoefTable &oddReciprocalTable() {
  thread_local CoefTable T(false);
  return T;
}

/// Entry I of \p T at N limbs (its top N limbs), building entries and
/// widening the table as needed. The pointer is valid until the next call
/// that grows the table.
static const uint64_t *coefAt(CoefTable &T, size_t I, size_t N, size_t &Lz) {
  if (N > T.N) {
    T.N = N;
    T.Limbs.clear();
    T.Lz.clear();
  }
  while (T.Lz.size() <= I) {
    size_t K = T.Lz.size();
    T.Limbs.resize((K + 1) * T.N, 0);
    uint64_t *E = T.Limbs.data() + K * T.N;
    if (T.Factorial && K >= 2) {
      if (K == 2)
        E[T.N - 1] = 1ULL << 63;
      else
        std::memcpy(E, E - T.N, T.N * sizeof(uint64_t));
      if (K > 2)
        fixDivSmall(E, T.N, K);
    } else if (!T.Factorial && K >= 1) {
      fixReciprocal(E, T.N, 2 * K + 1);
    }
    T.Lz.push_back(fixLeadingZeros(E, T.N));
  }
  Lz = T.Lz[I];
  return T.Limbs.data() + I * T.N + (T.N - N);
}

/// W = Z * (c_0 -/+ Z (c_1 -/+ Z (c_2 ...))) with c_j entry I0 + j*Step of
/// \p T (alternating signs when \p Alternating): the tail of a series whose
/// leading term the caller adds. Terms stop when Z^(j+1) c_j falls below
/// the last limb. Every partial sum is smaller than its coefficient, so the
/// alternating differences never go negative.
static void seriesFix(uint64_t *W, const uint64_t *Z, size_t N, CoefTable &T,
                      size_t I0, size_t Step, bool Alternating) {
  std::memset(W, 0, N * sizeof(uint64_t));
  size_t ZBits = fixLeadingZeros(Z, N);
  assert((ZBits > 0 || T.Factorial) && "1/(2k+1) needs Z < 1/2 to end");
  size_t J = 0;
  for (;; ++J) {
    size_t Lz;
    coefAt(T, I0 + J * Step, N, Lz);
    if (ZBits * (J + 1) + Lz >= 64 * N)
      break;
  }
  if (J == 0)
    return;
  FixBuf PBuf, ProdBuf;
  PBuf.assignZeros(N);
  ProdBuf.assignZeros(N);
  uint64_t *P = PBuf.data();
  uint64_t *Prod = ProdBuf.data();
  size_t Lz;
  const uint64_t *C0 = coefAt(T, I0, N, Lz); // top N limbs of entry I0
  for (size_t I = J; I-- > 0;) {
    // This partial sum is scaled by Z^(I+1) in W.
    size_t Drop = ZBits * (I + 1) / 64;
    size_t M = Drop < N ? N - Drop : 1;
    const uint64_t *C = C0 + I * Step * T.N + (N - M);
    uint64_t *PM = P + (N - M);
    if (I + 1 == J) {
      std::memcpy(PM, C, M * sizeof(uint64_t));
      continue;
    }
    fixMul(Prod, Z + (N - M), PM, M);
    if (Alternating)
      fixSub(PM, C, Prod, M);
    else
      fixAdd(PM, C, Prod, M);
  }
  fixMul(W, Z, P, N);
}

/// X (1 -/+ W) at WP for a finite nonzero |X| < 1, where W is seriesFix's
/// tail in Z = X^2 (\p Square) or Z = |X|, subtracted when \p Alternating.
/// The fraction carries W's absolute error and the product keeps X's
/// relative precision, so a tiny X keeps all its bits.
static BigFloat timesSeries(const BigFloat &X, size_t WP, bool Square,
                            CoefTable &T, size_t I0, size_t Step,
                            bool Alternating) {
  size_t N = fixLimbs(WP);
  FixBuf ZBuf, WBuf;
  ZBuf.assignZeros(N);
  WBuf.assignZeros(N);
  toFix(ZBuf.data(), X, N);
  if (Square)
    fixMul(ZBuf.data(), ZBuf.data(), ZBuf.data(), N);
  seriesFix(WBuf.data(), ZBuf.data(), N, T, I0, Step, Alternating);
  return BigFloat::mul(X, onePlusFix(WBuf.data(), N, Alternating, WP));
}

//===----------------------------------------------------------------------===//
// Constants.
//===----------------------------------------------------------------------===//

/// atan(1/M) for a small integer M via the Gregory series; all divisions
/// are by small integers. Converges log2(M^2) bits per term.
static BigFloat atanReciprocal(uint64_t M, size_t PrecBits) {
  size_t WP = PrecBits + GuardBits;
  uint64_t MSquared = M * M; // callers keep M <= ~2^31
  BigFloat Pow = divBySmall(one(WP), M);
  BigFloat Sum = Pow;
  BigFloat Ref = Sum;
  BigFloat Term;
  bool Negate = true;
  for (uint64_t K = 1;; ++K, Negate = !Negate) {
    divBySmallInto(Pow, Pow, MSquared);
    divBySmallInto(Term, Pow, 2 * K + 1);
    if (negligible(Term, Ref, WP))
      break;
    BigFloat::addInto(Sum, Sum, Negate ? Term.negated() : Term);
  }
  return Sum;
}

BigFloat realmath::pi(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    // Machin: pi = 16*atan(1/5) - 4*atan(1/239).
    BigFloat A = BigFloat::scalb(atanReciprocal(5, P), 4);
    BigFloat B = BigFloat::scalb(atanReciprocal(239, P), 2);
    Cached = BigFloat::sub(A, B);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

BigFloat realmath::ln2(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    // ln2 = 2*atanh(1/3) = 2 * sum 1/((2k+1) 3^(2k+1)).
    BigFloat Pow = divBySmall(one(WP), 3);
    BigFloat Sum = Pow;
    BigFloat Term;
    for (uint64_t K = 1;; ++K) {
      divBySmallInto(Pow, Pow, 9);
      divBySmallInto(Term, Pow, 2 * K + 1);
      if (negligible(Term, Sum, WP))
        break;
      BigFloat::addInto(Sum, Sum, Term);
    }
    Cached = BigFloat::scalb(Sum, 1).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

static BigFloat logAt(const BigFloat &X, size_t WP);
static BigFloat expAt(const BigFloat &X, size_t WP);

BigFloat realmath::ln10(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    Cached =
        logAt(BigFloat::fromInt64(10, P), P + GuardBits).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

BigFloat realmath::eulerE(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    Cached = expAt(one(P), P + GuardBits).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

//===----------------------------------------------------------------------===//
// Exponentials.
//===----------------------------------------------------------------------===//

/// Halvings before exp's series: each costs one squaring and saves
/// about 64N / (k + log2 j) series terms, balanced near sqrt(64N / 6).
static unsigned expHalvings(size_t N) {
  return std::min(
      63u, static_cast<unsigned>(std::sqrt(static_cast<double>(N) * 64 / 6)));
}

/// |expm1(R)| for an N-limb fraction |R| <= 1/2 (R negative when \p Neg):
/// expm1 of R / 2^k from its series, then k doublings expm1(2a) = expm1(a)
/// (2 + expm1(a)), which read s <- 2s + s^2 above zero and v <- 2v - v^2 on
/// v = -expm1(a) below it.
static void expm1Fix(uint64_t *S, const uint64_t *R, size_t N, bool Neg) {
  unsigned K = expHalvings(N);
  FixBuf ZBuf, TBuf;
  ZBuf.assignCopy(R, N);
  TBuf.assignZeros(N);
  uint64_t *Z = ZBuf.data();
  uint64_t *T = TBuf.data();
  fixShiftRight(Z, N, K);
  // |expm1(z)| = z +/- z * z (1/2! +/- z/3! + ...).
  seriesFix(T, Z, N, factorialTable(), 2, 1, Neg);
  fixMul(T, Z, T, N);
  if (Neg)
    fixSub(S, Z, T, N);
  else
    fixAdd(S, Z, T, N);
  for (unsigned I = 0; I < K; ++I) {
    fixMul(T, S, S, N);
    fixShiftLeft1(S, N);
    if (Neg)
      fixSub(S, S, T, N);
    else
      fixAdd(S, S, T, N);
  }
}

/// exp(X) at WP for a finite nonzero X; saturates past |X| >= 2^50 like
/// the public function.
static BigFloat expAt(const BigFloat &X, size_t WP) {
  if (X.exponent() > 50)
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  // Range-reduce: X = K*ln2 + R with |R| < 1/2, exp(X) = 2^K * exp(R).
  // ln2 carries 64 extra bits to absorb |K| <= 2^51. |X| < 1/2 needs no
  // reduction at all, so a tiny X stays exact.
  BigFloat R = X;
  int64_t K = 0;
  if (X.exponent() >= 0) {
    K = static_cast<int64_t>(std::nearbyint(X.toDouble() / M_LN2));
    size_t WP2 = WP + 64;
    BigFloat Ln2 = ln2(WP2);
    R = BigFloat::sub(X, BigFloat::mul(BigFloat::fromInt64(K, WP2), Ln2));
    // Past 2^40 or so the double quotient can miss by one.
    if (!R.isZero() && R.exponent() >= 0) {
      K += R.isNegative() ? -1 : 1;
      R = R.isNegative() ? BigFloat::add(R, Ln2) : BigFloat::sub(R, Ln2);
    }
  }
  size_t N = fixLimbs(WP);
  FixBuf RBuf, SBuf;
  RBuf.assignZeros(N);
  SBuf.assignZeros(N + 1);
  toFix(RBuf.data(), R, N);
  uint64_t *S = SBuf.data();
  expm1Fix(S, RBuf.data(), N, R.isNegative());
  BigFloat V;
  size_t Target = BigFloat::limbsForPrecision(WP);
  if (R.isNegative() && !fixIsZero(S, N)) {
    fixNegate(S, N); // 1 - S
    BigFloatBuilder::normalizeAndRoundInto(V, false, K, S, N, false, Target);
  } else {
    S[N] = 1; // 1 + S over N + 1 limbs
    BigFloatBuilder::normalizeAndRoundInto(V, false, 64 + K, S, N + 1, false,
                                           Target);
  }
  return V;
}

/// expm1(X) at WP for a finite nonzero X.
static BigFloat expm1At(const BigFloat &X, size_t WP) {
  if (X.exponent() <= -1) // |X| < 1/2: X (1 + X/2! + X^2/3! + ...)
    return timesSeries(X, WP, false, factorialTable(), 2, 1, X.isNegative());
  return BigFloat::sub(expAt(X, WP), one(WP));
}

BigFloat realmath::exp(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  // Saturate absurd magnitudes: any |X| >= 2^50 overflows/underflows every
  // IEEE format the analysis rounds into.
  if (X.exponent() > 50)
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  return expAt(X, workPrec(X)).withPrecision(Prec);
}

BigFloat realmath::expm1(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::fromInt64(-1, Prec)
                          : BigFloat::inf(false);
  if (X.isZero())
    return X; // preserves the signed zero, like libm
  return expm1At(X, workPrec(X)).withPrecision(Prec);
}

BigFloat realmath::exp2(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  if (X.exponent() > 50)
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  // 2^X = 2^floor(X) * exp(frac * ln2); exact when X is an integer.
  BigFloat K = X.floor();
  BigFloat Frac = BigFloat::sub(X, K);
  int64_t KInt = K.toInt64Trunc();
  size_t WP = workPrec(X);
  BigFloat E = Frac.isZero()
                   ? one(WP)
                   : expAt(BigFloat::mul(widened(Frac, WP), ln2(WP)), WP);
  return BigFloat::scalb(E, KInt).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Logarithms.
//===----------------------------------------------------------------------===//

/// 2 atanh(t) = 2t (1 + t^2/3 + t^4/5 + ...) for an N-limb fraction T
/// (|t| well below 1), as a fraction.
static void atanhTimes2Fix(uint64_t *Dst, const uint64_t *T, size_t N) {
  FixBuf ZBuf, WBuf;
  ZBuf.assignZeros(N);
  WBuf.assignZeros(N);
  fixMul(ZBuf.data(), T, T, N);
  seriesFix(WBuf.data(), ZBuf.data(), N, oddReciprocalTable(), 1, 1, false);
  fixMul(Dst, T, WBuf.data(), N);
  fixAdd(Dst, Dst, T, N);
  fixShiftLeft1(Dst, N);
}

/// Points of log's reduction table: c_j = 1 + j/2^LogTableBits for |j| <=
/// 2^(LogTableBits-1).
static const int LogTableBits = 5;
static const int LogTableHalf = 1 << (LogTableBits - 1);

/// |ln c_j| at N limbs (top limbs of the widest build so far). The table
/// chains outwards from c_0 = 1: ln(c_{j+1} / c_j) = 2 atanh(1 / (2(32 + j)
/// + 1)), a series in 1/m^2 <= 2^-10.
static const uint64_t *lnTableAt(int J, size_t N) {
  thread_local std::vector<uint64_t> Limbs;
  thread_local size_t TN = 0;
  if (N > TN) {
    TN = N;
    Limbs.assign((2 * LogTableHalf + 1) * TN, 0);
    FixBuf TBuf, Step;
    TBuf.assignZeros(TN);
    Step.assignZeros(TN);
    auto Entry = [&](int I) {
      return Limbs.data() + static_cast<size_t>(I + LogTableHalf) * TN;
    };
    for (int I = 0; I < LogTableHalf; ++I) {
      // Upwards: ln c_{I+1} = ln c_I + 2 atanh(1/m); downwards: |ln c_{-I-1}|
      // = |ln c_{-I}| + 2 atanh(1/m').
      for (int Dir : {1, -1}) {
        int From = Dir * I;
        int To = From + Dir;
        int Lower = std::min(From, To);
        fixReciprocal(TBuf.data(), TN,
                      2 * static_cast<uint64_t>((1 << LogTableBits) + Lower) +
                          1);
        atanhTimes2Fix(Step.data(), TBuf.data(), TN);
        fixAdd(Entry(To), Entry(From), Step.data(), TN);
      }
    }
  }
  return Limbs.data() + static_cast<size_t>(J + LogTableHalf) * TN +
         (TN - N);
}

/// ln(1 + D) at WP for a finite D with |D| < 1/2, D exact at WP: ln c + 2
/// atanh((D - (c - 1)) / (2 + D + (c - 1))) for the table point c nearest
/// 1 + D, so |t| <= 2^-6.
static BigFloat log1pAt(const BigFloat &D, size_t WP) {
  if (D.isZero())
    return BigFloat::zero(false);
  int J = static_cast<int>(std::lround(D.toDouble() * (1 << LogTableBits)));
  J = std::max(-LogTableHalf, std::min(LogTableHalf, J));
  uint64_t AbsJ = static_cast<uint64_t>(J < 0 ? -J : J);
  BigFloat CMinus1 =
      BigFloat::fromMantissaExp(J < 0, AbsJ, -LogTableBits, 64);
  BigFloat TwoPlus = BigFloat::fromMantissaExp(
      false, static_cast<uint64_t>((2 << LogTableBits) + J), -LogTableBits,
      64);
  BigFloat DW = widened(D, std::max(WP, D.precisionBits()));
  BigFloat T = BigFloat::div(BigFloat::sub(DW, CMinus1),
                             BigFloat::add(DW, TwoPlus));
  BigFloat A; // 2 atanh(t) = 2t (1 + t^2/3 + t^4/5 + ...)
  if (!T.isZero())
    A = BigFloat::scalb(
        timesSeries(T, WP, true, oddReciprocalTable(), 1, 1, false), 1);
  if (J == 0)
    return A;
  size_t N = fixLimbs(WP);
  FixBuf Buf;
  Buf.assignCopy(lnTableAt(J, N), N);
  BigFloat LnC;
  BigFloatBuilder::normalizeAndRoundInto(LnC, J < 0, 0, Buf.data(), N, false,
                                         BigFloat::limbsForPrecision(WP));
  return T.isZero() ? LnC : BigFloat::add(LnC, A);
}

/// ln X at WP for a finite positive X.
static BigFloat logAt(const BigFloat &X, size_t WP) {
  // X = M * 2^K with M in (sqrt(1/2), sqrt(2)); M - 1 is exact.
  int64_t K = X.exponent();
  BigFloat M = BigFloat::scalb(X, -K);
  if (M.toDouble() < 0.70710678118654752) {
    M = BigFloat::scalb(M, 1);
    K -= 1;
  }
  BigFloat LnM = log1pAt(BigFloat::sub(M, one(WP)), WP);
  if (K == 0)
    return LnM;
  return BigFloat::add(LnM,
                       BigFloat::mul(BigFloat::fromInt64(K, WP), ln2(WP)));
}

/// log's special-value ladder: true (with the result in \p Out) when X is
/// NaN, zero, negative or infinite.
static bool logSpecial(const BigFloat &X, BigFloat &Out) {
  if (X.isNaN() || (X.isNegative() && !X.isZero()))
    Out = BigFloat::nan();
  else if (X.isZero())
    Out = BigFloat::inf(true);
  else if (X.isInf())
    Out = BigFloat::inf(false);
  else
    return false;
  return true;
}

BigFloat realmath::log(const BigFloat &X) {
  BigFloat Special;
  if (logSpecial(X, Special))
    return Special;
  return logAt(X, workPrec(X)).withPrecision(X.precisionBits());
}

BigFloat realmath::log1p(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (X.isInf())
    return X.isNegative() ? BigFloat::nan() : BigFloat::inf(false);
  BigFloat One = one(WP);
  int MinusOneCmp = BigFloat::cmp(X, One.negated());
  if (MinusOneCmp == 0)
    return BigFloat::inf(true);
  if (MinusOneCmp < 0)
    return BigFloat::nan();
  if (X.exponent() <= -1)
    return log1pAt(X, WP).withPrecision(Prec); // no cancellation in 1 + X
  return logAt(BigFloat::add(widened(X, WP), One), WP).withPrecision(Prec);
}

BigFloat realmath::log2(const BigFloat &X) {
  BigFloat Special;
  if (logSpecial(X, Special))
    return Special;
  size_t WP = workPrec(X);
  return BigFloat::div(logAt(X, WP), ln2(WP))
      .withPrecision(X.precisionBits());
}

BigFloat realmath::log10(const BigFloat &X) {
  BigFloat Special;
  if (logSpecial(X, Special))
    return Special;
  size_t WP = workPrec(X);
  return BigFloat::div(logAt(X, WP), ln10(WP))
      .withPrecision(X.precisionBits());
}

//===----------------------------------------------------------------------===//
// Trigonometry.
//===----------------------------------------------------------------------===//

namespace {
/// Result of circular argument reduction: X = (Quadrant + 4k)*(pi/2) + R
/// with |R| <= pi/4 (plus rounding slack).
struct CircularReduction {
  BigFloat R;
  int Quadrant;
};
} // namespace

/// Reducing an argument of exponent E costs ~E bits of pi (time and
/// memory both). Past ~1M bits that is unpayable -- and pointless for a
/// shadow: such magnitudes only arise from intermediates like
/// exp(exp(x)) whose rounded double is already +/-inf, so the trig
/// functions return NaN instead, matching what the concrete program
/// computes from the overflowed value.
static bool circularReductionFeasible(const BigFloat &X) {
  return X.exponent() <= (int64_t{1} << 20);
}

static CircularReduction reduceCircular(const BigFloat &X, size_t WP) {
  assert(X.isFinite() && !X.isZero() && "reduce of non-finite");
  if (X.exponent() <= -1) {
    // |X| < 1/2 < pi/4: already reduced.
    return {widened(X, WP), 0};
  }
  // Payne-Hanek in spirit: carry enough extra bits of pi to absorb the
  // argument's magnitude.
  size_t ExtP = WP + static_cast<size_t>(std::max<int64_t>(0, X.exponent())) +
                64;
  BigFloat PiHalf = BigFloat::scalb(pi(ExtP), -1);
  BigFloat XE = widened(X, ExtP);
  BigFloat K = BigFloat::div(XE, PiHalf).roundNearest();
  BigFloat R = BigFloat::sub(XE, BigFloat::mul(K, PiHalf));
  // Quadrant = K mod 4 (mathematical modulus).
  BigFloat KDiv4 = BigFloat::scalb(K, -2).floor();
  BigFloat KMod4 = BigFloat::sub(K, BigFloat::scalb(KDiv4, 2));
  int Quadrant = static_cast<int>(KMod4.toInt64Trunc()) & 3;
  return {R.withPrecision(WP), Quadrant};
}

/// sin and cos sum their series on an argument under 2^-CircularFloor;
/// an R that is already that small goes to the series unreduced.
static const int64_t CircularFloor = 8;

/// sin on the reduced range |R| <= pi/4 + slack. sin(R) = R (1 - W), W =
/// R^2/3! - R^4/5! + ..., for an R under 2^-CircularFloor; otherwise the
/// same series gives s = |sin z| for z = R / 3^k, k bringing |z| under
/// 2^-CircularFloor, and k triplings s <- 3s - 4s^3 restore R. Each keeps
/// s's relative error (3s stays below 1 and 4s^3 below s), and R is not
/// small there, so the fraction s holds WP bits with room to spare.
static BigFloat sinReduced(const BigFloat &R, size_t WP) {
  if (R.isZero())
    return R;
  unsigned K = 0;
  uint64_t Pow3 = 1; // 3^k >= 2^(exponent + floor), at most 2^8
  for (int64_t Bits = R.exponent() + CircularFloor;
       Bits > 0 && Pow3 < (uint64_t{1} << Bits); ++K)
    Pow3 *= 3;
  if (K == 0)
    return timesSeries(R, WP, true, factorialTable(), 3, 2, true);
  size_t N = fixLimbs(WP);
  FixBuf SBuf, ZBuf, TBuf;
  SBuf.assignZeros(N);
  ZBuf.assignZeros(N);
  TBuf.assignZeros(N);
  uint64_t *S = SBuf.data();
  uint64_t *Z = ZBuf.data();
  uint64_t *T = TBuf.data();
  toFix(S, R, N);
  fixDivSmall(S, N, Pow3);
  fixMul(Z, S, S, N);
  seriesFix(T, Z, N, factorialTable(), 3, 2, true);
  fixMul(T, S, T, N);
  fixSub(S, S, T, N); // sin z = z - z W
  for (unsigned I = 0; I < K; ++I) {
    fixMul(Z, S, S, N);
    fixMul(Z, Z, S, N);
    std::memcpy(T, S, N * sizeof(uint64_t));
    fixShiftLeft1(T, N);
    fixAdd(S, S, T, N);
    fixShiftLeft1(Z, N);
    fixShiftLeft1(Z, N);
    fixSub(S, S, Z, N);
  }
  BigFloat V;
  BigFloatBuilder::normalizeAndRoundInto(V, R.isNegative(), 0, S, N, false,
                                         BigFloat::limbsForPrecision(WP));
  return V;
}

/// cos on the reduced range. cos(R) = 1 - V with V = z^2/2! - z^4/4! + ...
/// for z = R / 2^k, k bringing |z| under 2^-CircularFloor, then k
/// doublings 1 - cos(2a) = 2 (1 - cos a) (1 + cos a), read v <- 2v (2 - v)
/// (4v - 2v^2 stays below 1 on the reduced range).
static BigFloat cosReduced(const BigFloat &R, size_t WP) {
  if (R.isZero())
    return one(WP);
  size_t N = fixLimbs(WP);
  FixBuf VBuf, ZBuf;
  VBuf.assignZeros(N);
  ZBuf.assignZeros(N);
  uint64_t *V = VBuf.data();
  uint64_t *Z = ZBuf.data();
  unsigned K = static_cast<unsigned>(
      std::max<int64_t>(0, R.exponent() + CircularFloor));
  toFix(V, R, N);
  fixShiftRight(V, N, K);
  fixMul(Z, V, V, N);
  seriesFix(V, Z, N, factorialTable(), 2, 2, true);
  for (unsigned I = 0; I < K; ++I) {
    fixMul(Z, V, V, N);
    fixShiftLeft1(V, N);
    fixSub(V, V, Z, N);
    fixShiftLeft1(V, N);
  }
  return onePlusFix(V, N, true, WP);
}

BigFloat realmath::sin(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat V;
  switch (CR.Quadrant) {
  case 0:
    V = sinReduced(CR.R, WP);
    break;
  case 1:
    V = cosReduced(CR.R, WP);
    break;
  case 2:
    V = sinReduced(CR.R, WP).negated();
    break;
  default:
    V = cosReduced(CR.R, WP).negated();
    break;
  }
  return V.withPrecision(Prec);
}

BigFloat realmath::cos(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return one(Prec);
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat V;
  switch (CR.Quadrant) {
  case 0:
    V = cosReduced(CR.R, WP);
    break;
  case 1:
    V = sinReduced(CR.R, WP).negated();
    break;
  case 2:
    V = cosReduced(CR.R, WP).negated();
    break;
  default:
    V = sinReduced(CR.R, WP);
    break;
  }
  return V.withPrecision(Prec);
}

BigFloat realmath::tan(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat S = sinReduced(CR.R, WP);
  BigFloat C = cosReduced(CR.R, WP);
  BigFloat V = (CR.Quadrant & 1) ? BigFloat::div(C, S).negated()
                                 : BigFloat::div(S, C);
  return V.withPrecision(Prec);
}

/// atan(X) at WP for a finite nonzero X.
static BigFloat atanAt(const BigFloat &X, size_t WP) {
  bool Negate = X.isNegative();
  BigFloat A = widened(X.abs(), WP);
  bool Reciprocal = false;
  if (A.exponent() > 0 && BigFloat::cmp(A, one(WP)) > 0) {
    A = BigFloat::div(one(WP), A);
    Reciprocal = true;
  }
  // Halve with atan(a) = 2*atan(a / (1 + sqrt(1 + a^2))) until a < 1/8.
  int Halvings = 0;
  while (!A.isZero() && A.exponent() > -3) {
    BigFloat Sq = BigFloat::sqrt(
        BigFloat::add(one(WP), BigFloat::mul(A, A)));
    A = BigFloat::div(A, BigFloat::add(one(WP), Sq));
    ++Halvings;
  }
  // Gregory series: atan(a) = a (1 - a^2/3 + a^4/5 - ...).
  BigFloat Sum = A;
  if (!A.isZero())
    Sum = timesSeries(A, WP, true, oddReciprocalTable(), 1, 1, true);
  BigFloat V = BigFloat::scalb(Sum, Halvings);
  if (Reciprocal)
    V = BigFloat::sub(BigFloat::scalb(pi(WP), -1), V);
  if (Negate)
    V = V.negated();
  return V;
}

BigFloat realmath::atan(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (X.isInf()) {
    BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
    return X.isNegative() ? PiHalf.negated() : PiHalf;
  }
  return atanAt(X, workPrec(X)).withPrecision(Prec);
}

/// atan2(Y, X) at WP for finite nonzero Y and X.
static BigFloat atan2At(const BigFloat &Y, const BigFloat &X, size_t WP) {
  BigFloat Base =
      atanAt(BigFloat::div(widened(Y.abs(), WP), widened(X.abs(), WP)), WP);
  BigFloat V = X.isNegative() ? BigFloat::sub(pi(WP), Base) : Base;
  return Y.isNegative() ? V.negated() : V;
}

BigFloat realmath::atan2(const BigFloat &Y, const BigFloat &X) {
  size_t Prec = std::max(Y.precisionBits(), X.precisionBits());
  size_t WP = Prec + GuardBits;
  if (Y.isNaN() || X.isNaN())
    return BigFloat::nan();
  bool YNeg = Y.isNegative();
  auto Signed = [&](const BigFloat &V) {
    return YNeg ? V.negated() : V;
  };
  BigFloat Pi = pi(Prec);
  BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
  if (Y.isZero()) {
    // C99: the sign of the zero selects the branch.
    if (X.isZero())
      return X.isNegative() ? Signed(Pi) : Signed(BigFloat::zero(YNeg));
    if (X.isNegative())
      return Signed(Pi);
    return BigFloat::zero(YNeg);
  }
  if (X.isZero())
    return Signed(PiHalf);
  if (X.isInf() && Y.isInf()) {
    BigFloat PiQuarter = BigFloat::scalb(pi(Prec), -2);
    if (X.isNegative())
      return Signed(BigFloat::sub(Pi, PiQuarter)); // ±3pi/4
    return Signed(PiQuarter);
  }
  if (X.isInf())
    return X.isNegative() ? Signed(Pi) : BigFloat::zero(YNeg);
  if (Y.isInf())
    return Signed(PiHalf);
  return atan2At(Y, X, WP).withPrecision(Prec);
}

BigFloat realmath::asin(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  BigFloat AbsX = X.abs();
  BigFloat One = one(WP);
  int Cmp = X.isInf() ? 1 : BigFloat::cmp(widened(AbsX, WP), One);
  if (Cmp > 0)
    return BigFloat::nan();
  if (Cmp == 0) {
    BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
    return X.isNegative() ? PiHalf.negated() : PiHalf;
  }
  BigFloat XW = widened(X, WP);
  BigFloat Denom = BigFloat::sqrt(BigFloat::sub(One, BigFloat::mul(XW, XW)));
  return atanAt(BigFloat::div(XW, Denom), WP).withPrecision(Prec);
}

BigFloat realmath::acos(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  BigFloat One = one(WP);
  BigFloat XW = widened(X, WP);
  if (X.isInf() || BigFloat::cmp(XW.abs(), One) > 0)
    return BigFloat::nan();
  // acos(x) = atan2(sqrt(1 - x^2), x): no cancellation anywhere.
  BigFloat S = BigFloat::sqrt(BigFloat::sub(One, BigFloat::mul(XW, XW)));
  if (S.isZero()) // x = +-1
    return (XW.isNegative() ? pi(WP) : BigFloat::zero(false))
        .withPrecision(Prec);
  if (XW.isZero())
    return BigFloat::scalb(pi(WP), -1).withPrecision(Prec);
  return atan2At(S, XW, WP).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Hyperbolics.
//===----------------------------------------------------------------------===//

BigFloat realmath::sinh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X; // NaN, ±inf, ±0 all map to themselves
  // |X| < 1/2: X (1 + X^2/3! + X^4/5! + ...) avoids the exp(x) - exp(-x)
  // cancellation.
  if (X.exponent() <= -1)
    return timesSeries(X, WP, true, factorialTable(), 3, 2, false)
        .withPrecision(Prec);
  BigFloat E = expAt(X, WP);
  BigFloat V = BigFloat::sub(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

BigFloat realmath::cosh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  BigFloat E = expAt(X, WP);
  if (E.isInf() || E.isZero())
    return BigFloat::inf(false);
  BigFloat V = BigFloat::add(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

BigFloat realmath::tanh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isZero())
    return X;
  if (X.isInf())
    return BigFloat::fromInt64(X.isNegative() ? -1 : 1, Prec);
  // tanh(|x|) = -expm1(-2|x|) / (2 + expm1(-2|x|)), then restore the sign.
  BigFloat A = BigFloat::scalb(widened(X.abs(), WP), 1).negated();
  BigFloat T = A.exponent() > 50 ? BigFloat::fromInt64(-1, WP)
                                 : expm1At(A, WP);
  BigFloat V = BigFloat::div(T.negated(),
                             BigFloat::add(BigFloat::fromInt64(2, WP), T));
  if (X.isNegative())
    V = V.negated();
  return V.withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Powers and roots.
//===----------------------------------------------------------------------===//

/// Integer power by squaring at working precision.
static BigFloat powInt(const BigFloat &X, int64_t N, size_t WP) {
  if (N == 0)
    return one(WP);
  bool Invert = N < 0;
  uint64_t E = Invert ? -static_cast<uint64_t>(N) : static_cast<uint64_t>(N);
  BigFloat Base = widened(X, WP);
  BigFloat Acc = one(WP);
  while (E) {
    if (E & 1)
      BigFloat::mulInto(Acc, Acc, Base);
    BigFloat::mulInto(Base, Base, Base);
    E >>= 1;
  }
  return Invert ? BigFloat::div(one(WP), Acc) : Acc;
}

/// The top 53 bits of a finite nonzero X's mantissa, truncated, in
/// [1/2, 1).
static double topMantissa(const BigFloat &X) {
  const uint64_t *M = BigFloatBuilder::limbs(X);
  size_t N = BigFloatBuilder::limbCount(X);
  return static_cast<double>(M[N - 1] >> 11) * 0x1p-53;
}

namespace {
/// Where exp(Y ln A) lands, read from the top 53 bits of A and Y.
struct PowEstimate {
  double Hi;  ///< Upper bound on log2 |Y ln A|.
  double Lo;  ///< Lower bound (-inf when A = 1).
  bool Grows; ///< Y ln A > 0 (meaningful when Lo is finite).
};
} // namespace

static PowEstimate estimatePow(const BigFloat &A, const BigFloat &Y) {
  int64_t E = A.exponent();
  double M = topMantissa(A);
  // ln A, with the cancellation near A = 1 done exactly in double.
  double LnA = E == 0   ? std::log1p(M - 1)
               : E == 1 ? std::log1p(2 * M - 1)
                        : static_cast<double>(E) * M_LN2 + std::log(M);
  double Log2Y = static_cast<double>(Y.exponent() - 1) +
                 std::log2(2 * topMantissa(Y));
  // Truncating A's mantissa moves ln A by less than 2^-52; the double
  // arithmetic adds a relative 2^-50 at most.
  double Err = 0x1p-51 + std::fabs(LnA) * 0x1p-48;
  PowEstimate P;
  P.Hi = Log2Y + std::log2(std::fabs(LnA) + Err) + 0x1p-30;
  if (std::fabs(LnA) > Err)
    P.Lo = Log2Y + std::log2(std::fabs(LnA) - Err) - 0x1p-30;
  else if (BigFloat::cmp(A, BigFloat::fromInt64(1)) == 0)
    P.Lo = -HUGE_VAL;
  else // A != 1 is at least one unit of its last place away from 1
    P.Lo = Log2Y - static_cast<double>(A.precisionBits() + 1) - 0x1p-30;
  P.Grows = (A.exponent() >= 1) != Y.isNegative();
  return P;
}

BigFloat realmath::pow(const BigFloat &X, const BigFloat &Y) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  size_t WP = Prec + GuardBits;
  // C99 pow special-value ladder.
  if (Y.isZero())
    return one(Prec);
  if (!X.isNaN() && !X.isZero() && X.isFinite() && !X.isNegative() &&
      X.exponent() == 1 && BigFloat::cmp(X, one(WP)) == 0)
    return one(Prec); // pow(+1, anything) = 1
  if (X.isNaN() || Y.isNaN())
    return BigFloat::nan();
  bool YIsInt = Y.isInteger();
  bool YIsOdd = Y.isOddInteger();
  if (Y.isInf()) {
    int MagCmp = X.isInf() ? 1 : BigFloat::cmp(X.abs(), one(WP));
    if (MagCmp == 0)
      return one(Prec); // pow(-1, ±inf) = 1 as well
    bool GrowsToInf = (MagCmp > 0) == !Y.isNegative();
    return GrowsToInf ? BigFloat::inf(false) : BigFloat::zero(false);
  }
  if (X.isZero()) {
    bool ResultNeg = YIsOdd && X.isNegative();
    if (Y.isNegative())
      return BigFloat::inf(ResultNeg);
    return BigFloat::zero(ResultNeg);
  }
  if (X.isInf()) {
    bool ResultNeg = YIsOdd && X.isNegative();
    if (Y.isNegative())
      return BigFloat::zero(ResultNeg);
    return BigFloat::inf(ResultNeg);
  }
  if (X.isNegative() && !YIsInt)
    return BigFloat::nan();

  // Small integer exponents: exact-ish squaring (also covers negative X).
  if (YIsInt && Y.exponent() <= 32) {
    int64_t N = Y.toInt64Trunc();
    return powInt(X, N, WP).withPrecision(Prec);
  }

  // General case on |X|: exp(T) with T = Y ln|X|. exp's relative error is
  // T's absolute error, so the log runs |T|'s magnitude past WP; exp itself
  // saturates once |T| >= 2^50.
  BigFloat A = X.abs();
  PowEstimate Est = estimatePow(A, Y);
  BigFloat V;
  if (Est.Lo >= 50.5) {
    V = Est.Grows ? BigFloat::inf(false) : BigFloat::zero(false);
  } else {
    size_t ExtP = WP;
    if (Est.Hi > 0)
      ExtP += static_cast<size_t>(std::ceil(Est.Hi)) + 8;
    BigFloat T = BigFloat::mul(Y, logAt(A, ExtP));
    V = T.isZero() ? one(WP) : expAt(T, WP);
  }
  if (X.isNegative() && YIsOdd)
    V = V.negated();
  return V.withPrecision(Prec);
}

BigFloat realmath::cbrt(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X;
  // |X| = F * 2^(3Q) with F in [1/2, 4): a double holds F where X's
  // exponent may be out of its range, and cbrt|X| = cbrt(F) * 2^Q.
  int64_t E = X.exponent();
  int64_t Q = (E >= 0 ? E : E - 2) / 3;
  BigFloat F = BigFloat::scalb(X.abs(), -3 * Q);
  // Newton, y <- (2y + F/y^2) / 3, doubles the correct bits per step (less
  // ~3 for rounding). Plan the steps backwards from WP: a step that must
  // deliver B bits runs at B + 3 bits and needs (B + 1) / 2 from the one
  // before; the double seed gives 48.
  size_t Steps[64];
  size_t NumSteps = 0;
  for (size_t Bits = WP - 4;; Bits = (Bits + 2) / 2) {
    Steps[NumSteps++] = (Bits + 3 + 63) / 64 * 64;
    if ((Bits + 2) / 2 <= 48)
      break;
  }
  BigFloat Y = BigFloat::fromDouble(std::cbrt(F.toDouble()));
  while (NumSteps > 0) {
    size_t P = Steps[--NumSteps];
    Y = widened(Y, P);
    BigFloat Quot = BigFloat::div(widened(F, P), BigFloat::mul(Y, Y));
    Y = divBySmall(BigFloat::add(BigFloat::scalb(Y, 1), Quot), 3);
  }
  BigFloat V = BigFloat::scalb(Y, Q);
  if (X.isNegative())
    V = V.negated();
  return V.withPrecision(Prec);
}

BigFloat realmath::hypot(const BigFloat &X, const BigFloat &Y) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  size_t WP = Prec + GuardBits;
  if (X.isInf() || Y.isInf())
    return BigFloat::inf(false); // even when the other operand is NaN
  if (X.isNaN() || Y.isNaN())
    return BigFloat::nan();
  BigFloat XW = widened(X, WP);
  BigFloat YW = widened(Y, WP);
  BigFloat S = BigFloat::add(BigFloat::mul(XW, XW), BigFloat::mul(YW, YW));
  return BigFloat::sqrt(S).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Remainders.
//===----------------------------------------------------------------------===//

/// Shared fmod/remainder core: X - Q*Y where Q is an integer chosen by
/// \p RoundQ. Computed at enough precision to make the subtraction exact.
template <typename RoundFn>
static BigFloat moduloImpl(const BigFloat &X, const BigFloat &Y,
                           RoundFn RoundQ) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  if (X.isNaN() || Y.isNaN() || X.isInf() || Y.isZero())
    return BigFloat::nan();
  if (X.isZero() || Y.isInf())
    return X.withPrecision(Prec);

  int64_t ExpGap = X.exponent() - Y.exponent();
  size_t ExtP =
      Prec + GuardBits + static_cast<size_t>(std::max<int64_t>(0, ExpGap)) +
      64;
  BigFloat XW = X.withPrecision(ExtP);
  BigFloat YW = Y.withPrecision(ExtP);
  BigFloat Q = RoundQ(BigFloat::div(XW, YW));
  BigFloat R = BigFloat::sub(XW, BigFloat::mul(Q, YW));
  return R.withPrecision(Prec);
}

BigFloat realmath::fmod(const BigFloat &X, const BigFloat &Y) {
  BigFloat R = moduloImpl(X, Y, [](const BigFloat &Q) { return Q.trunc(); });
  if (R.isZero() && !R.isNaN())
    return BigFloat::zero(X.isNegative());
  return R;
}

BigFloat realmath::remainder(const BigFloat &X, const BigFloat &Y) {
  return moduloImpl(X, Y,
                    [](const BigFloat &Q) { return Q.roundNearestEven(); });
}
