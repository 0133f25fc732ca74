//===- real/RealMath.h - Transcendental functions on BigFloat ---*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transcendental functions over BigFloat, the part of the MPFR substitute
/// that lets the shadow-real execution evaluate libm-style operations
/// exactly (Section 5.3 "library wrapping"). Each function computes at one
/// working precision, the input precision plus 128 guard bits (a function
/// built on others, like pow on log and exp, runs them at its own working
/// precision), and returns the input-precision rounding of that value. The
/// results are bit-identical -- value, sign and precisionBits() -- to the
/// plain term-by-term series that tests/RealMathReference.h keeps as the
/// oracle, so changing a kernel's speed never changes a report's bytes.
/// Special values follow C99/IEEE conventions so the shadow semantics match
/// what the client binary's libm would have meant.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_REAL_REALMATH_H
#define HERBGRIND_REAL_REALMATH_H

#include "real/BigFloat.h"

namespace herbgrind {
namespace realmath {

/// \name Cached constants at (at least) the requested precision.
/// @{
BigFloat pi(size_t PrecBits);
BigFloat ln2(size_t PrecBits);
BigFloat ln10(size_t PrecBits);
BigFloat eulerE(size_t PrecBits);
/// @}

/// \name Exponentials and logarithms.
/// @{
BigFloat exp(const BigFloat &X);
BigFloat exp2(const BigFloat &X);
BigFloat expm1(const BigFloat &X);
BigFloat log(const BigFloat &X);
BigFloat log2(const BigFloat &X);
BigFloat log10(const BigFloat &X);
BigFloat log1p(const BigFloat &X);
/// @}

/// \name Trigonometry.
/// @{
BigFloat sin(const BigFloat &X);
BigFloat cos(const BigFloat &X);
BigFloat tan(const BigFloat &X);
BigFloat asin(const BigFloat &X);
BigFloat acos(const BigFloat &X);
BigFloat atan(const BigFloat &X);
BigFloat atan2(const BigFloat &Y, const BigFloat &X);
/// @}

/// \name Hyperbolics.
/// @{
BigFloat sinh(const BigFloat &X);
BigFloat cosh(const BigFloat &X);
BigFloat tanh(const BigFloat &X);
/// @}

/// \name Powers and roots.
/// @{
BigFloat pow(const BigFloat &X, const BigFloat &Y);
BigFloat cbrt(const BigFloat &X);
BigFloat hypot(const BigFloat &X, const BigFloat &Y);
/// @}

/// \name Remainders.
/// @{
BigFloat fmod(const BigFloat &X, const BigFloat &Y);
BigFloat remainder(const BigFloat &X, const BigFloat &Y);
/// @}

} // namespace realmath
} // namespace herbgrind

#endif // HERBGRIND_REAL_REALMATH_H
