//===- real/BigFloat.h - Arbitrary-precision binary floats ------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch arbitrary-precision binary floating-point number, standing
/// in for the MPFR shadow values of the paper (Section 5.1). A finite value
/// is (-1)^sign * frac * 2^Exp where frac is a little-endian limb vector
/// interpreted as a fraction in [1/2, 1) (the top bit of the top limb is
/// always set). Precision is a per-value property, always a whole number of
/// 64-bit limbs; the paper's default is 1000 bits, ours is 256
/// (DefaultPrecisionBits; a caller that wants another passes PrecBits).
///
/// Storage is small-size-optimized: up to four limbs (256 bits, the default
/// precision) live inline in the object, so the shadow hot path never heap-
/// allocates per value; wider precisions spill to a per-thread recycled
/// block cache (support/LimbAlloc.h). Every binary operation also has a
/// destination-passing variant (`addInto(Dst, A, B)` etc.); these are
/// alias-safe (Dst may be A and/or B) and reuse Dst's spilled capacity,
/// which is what makes the transcendental series loops in RealMath.cpp
/// allocation-free in steady state.
///
/// Core operations (add, sub, mul, div, sqrt, conversions to double/float)
/// are correctly rounded to the result precision under round-to-nearest-even.
/// Transcendental functions live in real/RealMath.h and are faithful at the
/// working precision, which is far more accuracy than the 53-bit comparisons
/// the analysis performs ever need.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_REAL_BIGFLOAT_H
#define HERBGRIND_REAL_BIGFLOAT_H

#include "support/LimbAlloc.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace herbgrind {

/// An arbitrary-precision binary float with IEEE-style specials.
class BigFloat {
public:
  enum class Kind : uint8_t { Zero, Finite, Inf, NaN };

  /// Limbs stored inline in the object (256 bits, the default precision).
  static constexpr unsigned InlineLimbCount = 4;

  /// Constructs +0 at the default precision.
  BigFloat() = default;

  /// \name Constructors for special values and conversions.
  /// @{
  static BigFloat zero(bool Negative = false);
  static BigFloat inf(bool Negative = false);
  static BigFloat nan();

  /// Converts a double exactly (any precision >= 53 bits represents every
  /// finite double exactly; the minimum one limb does too).
  static BigFloat fromDouble(double X, size_t PrecBits = 0);

  /// Converts a float exactly.
  static BigFloat fromFloat(float X, size_t PrecBits = 0);

  /// Converts an integer exactly (rounding if PrecBits < 64 is impossible
  /// since the minimum precision is one limb).
  static BigFloat fromInt64(int64_t X, size_t PrecBits = 0);
  static BigFloat fromUInt64(uint64_t X, size_t PrecBits = 0);

  /// Builds (-1)^Negative * Mant * 2^Exp2 exactly.
  static BigFloat fromMantissaExp(bool Negative, uint64_t Mant, int64_t Exp2,
                                  size_t PrecBits = 0);
  /// @}

  /// \name Observers.
  /// @{
  Kind kind() const { return K; }
  bool isZero() const { return K == Kind::Zero; }
  bool isFinite() const { return K == Kind::Zero || K == Kind::Finite; }
  bool isInf() const { return K == Kind::Inf; }
  bool isNaN() const { return K == Kind::NaN; }
  bool isNegative() const { return Neg; }

  /// Precision in bits (multiple of 64). Meaningful for every kind; specials
  /// remember a precision so results inherit a sensible one.
  size_t precisionBits() const { return LimbCountHint * 64; }

  /// For finite nonzero values, the binary exponent E such that
  /// |value| lies in [2^(E-1), 2^E).
  int64_t exponent() const;

  /// True if the value is a (mathematical) integer.
  bool isInteger() const;

  /// True if the value is an odd integer (used by pow's sign rules).
  bool isOddInteger() const;
  /// @}

  /// \name Rounding conversions.
  /// @{
  /// Correctly rounded (nearest-even) conversion to double, including
  /// subnormal and overflow handling.
  double toDouble() const;

  /// Correctly rounded conversion to float.
  float toFloat() const;

  /// Truncates toward zero and saturates to the int64 range. NaN maps to 0,
  /// mirroring a well-defined flavor of the x86 conversion the IR uses.
  int64_t toInt64Trunc() const;

  /// Re-rounds this value to a new precision (nearest-even).
  BigFloat withPrecision(size_t PrecBits) const;
  /// @}

  /// \name Sign manipulations (exact).
  /// @{
  BigFloat negated() const;
  BigFloat abs() const;
  BigFloat copySign(const BigFloat &SignSource) const;
  /// @}

  /// \name Arithmetic. Results are correctly rounded to the larger operand
  /// precision. Special values follow IEEE-754 semantics.
  ///
  /// The `*Into` forms write the result into \p Dst, which may alias either
  /// operand; they reuse Dst's storage and are the allocation-free spelling
  /// used by the shadow hot path. The value-returning forms are thin
  /// wrappers.
  /// @{
  static void addInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B);
  static void subInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B);
  static void mulInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B);
  static void divInto(BigFloat &Dst, const BigFloat &A, const BigFloat &B);
  static void sqrtInto(BigFloat &Dst, const BigFloat &X);

  static BigFloat add(const BigFloat &A, const BigFloat &B);
  static BigFloat sub(const BigFloat &A, const BigFloat &B);
  static BigFloat mul(const BigFloat &A, const BigFloat &B);
  static BigFloat div(const BigFloat &A, const BigFloat &B);
  static BigFloat sqrt(const BigFloat &X);

  /// Exact product at the sum of the operand precisions (no rounding).
  static BigFloat mulExact(const BigFloat &A, const BigFloat &B);

  /// Fused multiply-add: A*B + C with a single rounding.
  static BigFloat fma(const BigFloat &A, const BigFloat &B, const BigFloat &C);

  /// Exact scaling by 2^Shift.
  static BigFloat scalb(const BigFloat &X, int64_t Shift);

  static BigFloat fmin(const BigFloat &A, const BigFloat &B);
  static BigFloat fmax(const BigFloat &A, const BigFloat &B);
  /// @}

  /// \name Integer roundings (exact).
  /// @{
  BigFloat floor() const;
  BigFloat ceil() const;
  BigFloat trunc() const;
  /// Rounds to nearest integer, ties away from zero (like std::round).
  BigFloat roundNearest() const;
  /// Rounds to nearest integer, ties to even (like rint in RNE mode).
  BigFloat roundNearestEven() const;
  /// @}

  /// \name Comparisons.
  /// @{
  /// Three-way comparison of finite-or-infinite values: -1, 0, or +1.
  /// Neither argument may be NaN.
  static int cmp(const BigFloat &A, const BigFloat &B);

  /// IEEE predicates: any comparison with NaN is false (ne is true).
  static bool lt(const BigFloat &A, const BigFloat &B);
  static bool le(const BigFloat &A, const BigFloat &B);
  static bool gt(const BigFloat &A, const BigFloat &B);
  static bool ge(const BigFloat &A, const BigFloat &B);
  static bool eq(const BigFloat &A, const BigFloat &B);
  static bool ne(const BigFloat &A, const BigFloat &B);
  /// @}

  /// Hex-ish representation for debugging: "-0x.ab12...p+12[256]".
  std::string debugStr() const;

  /// The precision a PrecBits of 0 stands for.
  static constexpr size_t DefaultPrecisionBits = 256;

  /// Rounds PrecBits up to a whole number of limbs (minimum one).
  static size_t limbsForPrecision(size_t PrecBits);

private:
  friend class BigFloatBuilder;

  Kind K = Kind::Zero;
  bool Neg = false;
  /// Exponent: value = frac * 2^Exp with frac in [1/2, 1). Only for Finite.
  int64_t Exp = 0;
  /// Little-endian mantissa limbs; top bit of the top limb set when Finite.
  /// Inline up to InlineLimbCount limbs; spills to the per-thread limb
  /// cache above that.
  InlineLimbs<InlineLimbCount> Limbs;
  /// Precision carried by specials (and equal to Limbs.size() when Finite).
  uint32_t LimbCountHint = 1;
};

/// Internal constructor/rounding toolkit shared with RealMath.cpp. Public
/// API users never need this. Mantissas are raw little-endian limb buffers;
/// the `Into` entry points require that \p Mant does not alias \p Dst's
/// storage (every caller rounds out of a scratch buffer).
class BigFloatBuilder {
public:
  /// Builds a finite value by rounding an extended mantissa to TargetLimbs
  /// into \p Dst. \p Mant is little-endian with its top bit set
  /// (normalized); \p Sticky accounts for any nonzero bits below Mant; the
  /// value being rounded is (-1)^Neg * frac(Mant) * 2^Exp.
  static void makeRoundedInto(BigFloat &Dst, bool Neg, int64_t Exp,
                              const uint64_t *Mant, size_t MantLimbs,
                              bool Sticky, size_t TargetLimbs);

  /// Normalizes a possibly-denormalized extended mantissa in place (shifts
  /// out leading zero bits, adjusting Exp), then rounds into \p Dst. Writes
  /// zero if Mant is all zeros and Sticky is clear; asserts if Mant is zero
  /// but Sticky set.
  static void normalizeAndRoundInto(BigFloat &Dst, bool Neg, int64_t Exp,
                                    uint64_t *Mant, size_t MantLimbs,
                                    bool Sticky, size_t TargetLimbs);

  /// Direct access for RealMath: mantissa limbs of a finite value.
  static const uint64_t *limbs(const BigFloat &X) { return X.Limbs.data(); }
  static size_t limbCount(const BigFloat &X) { return X.Limbs.size(); }
  static int64_t rawExp(const BigFloat &X) { return X.Exp; }
};

} // namespace herbgrind

#endif // HERBGRIND_REAL_BIGFLOAT_H
