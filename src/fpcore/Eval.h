//===- fpcore/Eval.h - Direct FPCore evaluation -----------------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct evaluation of FPCore expressions in double arithmetic and in
/// high-precision real arithmetic. This pair is what the improver (the
/// mini-Herbie of Section 8.1) uses to estimate the rounding error of an
/// expression: sample points, evaluate both ways, compare in bits.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_FPCORE_EVAL_H
#define HERBGRIND_FPCORE_EVAL_H

#include "fpcore/FPCore.h"
#include "real/BigFloat.h"

#include <map>

namespace herbgrind {
namespace fpcore {

using DoubleEnv = std::map<std::string, double>;
using RealEnv = std::map<std::string, BigFloat>;

/// Evaluates in doubles (the "float" semantics). While loops are bounded
/// by \p MaxLoopIters; exceeding it yields NaN.
double evalDouble(const Expr &E, const DoubleEnv &Env,
                  uint64_t MaxLoopIters = 1'000'000);

/// Evaluates over BigFloat reals at \p PrecBits.
BigFloat evalReal(const Expr &E, const RealEnv &Env, size_t PrecBits = 256,
                  uint64_t MaxLoopIters = 1'000'000);

/// Bits of error of the double evaluation against the real evaluation at
/// one point (64 when the double result is NaN but the real is not).
double pointErrorBits(const Expr &E, const DoubleEnv &Point,
                      size_t PrecBits = 256);

} // namespace fpcore
} // namespace herbgrind

#endif // HERBGRIND_FPCORE_EVAL_H
