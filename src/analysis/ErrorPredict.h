//===- analysis/ErrorPredict.h - Tier-0 cheap error predicates --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-0 layer of the tiered shadow pipeline: conservative error
/// predicates computed from the native doubles alone, with no BigFloat in
/// sight. Each shadowed value carries a running-error pair (Delta, Noise)
/// asserting real = concrete + Delta +/- Noise: Delta is a *signed*
/// estimate of the accumulated rounding error -- fed by exact 2Sum/2Prod
/// residuals for the basic arithmetic ops -- and Noise soundly bounds the
/// estimate's own error. Ops without an exact residual fall back to
/// interval/Lipschitz propagation over the op's true derivative bounds
/// (the condition-number view of PAPERS.md "Mixing Condition Numbers and
/// Oracles"), folding everything into Noise.
///
/// The signed estimate is what lets tier 0 clear *compensated* code:
/// Kahan summation re-injects each addition's residual, so its Delta
/// telescopes back toward zero while a pure interval bound would grow by
/// half an ulp per iteration exactly as it does for the naive loop.
///
/// The contract that makes tiering sound: for every predicate below, if
/// the full 256-bit shadow analysis would observe an erroneous spot
/// (output error above Tm, a diverging comparison, or a diverging
/// float-to-int conversion), the corresponding tier-0 predicate reports
/// *suspect*. The reverse is deliberately not promised -- false positives
/// only cost an escalation to the BigFloat tier, never a wrong report.
/// Unknown situations (poles, branch cuts, non-finite values, opcodes
/// without a derivative table entry) degrade to "suspect", keeping the
/// bound conservative rather than clever.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_ERRORPREDICT_H
#define HERBGRIND_ANALYSIS_ERRORPREDICT_H

#include "ir/Opcode.h"

#include <limits>

namespace herbgrind {
namespace errpredict {

/// Safety margin (bits) added on top of the interval-derived local-error
/// bound before it is compared against thresholds. Absorbs libm's
/// not-quite-correctly-rounded results and the slack between the Lipschitz
/// bound and the true mean-value constant. Deliberately a constant, not a
/// config knob: it is part of the soundness argument, not a tuning lever.
constexpr double kPredMarginBits = 2.0;

/// Half-ulp rounding radius at type \p Ty around the value neighbourhood
/// [C - E, C + E]: an upper bound on |fl(R) - R| for any real R in that
/// interval. Exact inputs (E == 0) round to themselves -- C is already a
/// representable -- so the radius is 0, which is what keeps chains of
/// exact ops exactly exact. Non-finite C or E yields +inf.
double halfUlpAround(double C, double E, ValueType Ty);

/// One value's tier-0 error state: real = concrete + Delta + e with
/// |e| <= Noise. Exact values are {0, 0}.
struct PredVal {
  double Delta = 0.0; ///< Signed estimate of (real - concrete).
  double Noise = 0.0; ///< Sound bound on the estimate's own error.
};

/// Collapses a (Delta, Noise) pair to the sound unsigned bound
/// |real - concrete| <= |Delta| + Noise the spot predicates consume.
/// Anything non-finite degrades to +inf (maximally suspect).
inline double predTotal(double Delta, double Noise) {
  double T = (Delta < 0.0 ? -Delta : Delta) + Noise;
  return T == T && T <= 1.7976931348623157e308
             ? T
             : std::numeric_limits<double>::infinity();
}

/// Predicts one scalar float operation from its concrete arguments and the
/// per-argument running-error pairs \p Args (pass {0, 0} for exact
/// arguments). \p ConcreteResult is the concrete float result of the op.
/// Returns the result's pair: Delta is zero whenever the op has no
/// exact-residual row, and Noise is +inf when the op's behaviour over the
/// input intervals cannot be bounded (pole, branch cut, non-finite,
/// unknown opcode with inexact inputs).
PredVal predictScalarOp(Opcode Op, const Value *ArgConcrete,
                        const PredVal *Args, unsigned NumArgs,
                        const Value &ConcreteResult);

/// Upper bound on bitsOfError(Concrete, fl(R)) over all reals R with
/// |R - Concrete| <= AbsErr, i.e. the worst output-spot error the full
/// shadow could report for a value carrying this bound. NaN Concrete or
/// non-finite AbsErr yields the maximal error for \p Ty (64 or 32).
double predictedErrorBits(double Concrete, double AbsErr, ValueType Ty);

/// Comparison spot: could the predicate over the reals diverge from the
/// concrete predicate? False when both operands are exact (their reals
/// are their concretes, non-finite ones included); otherwise true when
/// the error intervals of the two operands overlap or any value involved
/// is non-finite.
bool comparisonSuspect(const Value &A, const Value &B, double ErrA,
                       double ErrB);

/// Float-to-int conversion spot: could truncating the real give a
/// different integer than truncating the concrete double? False for an
/// exact operand (Err == 0: the real is the concrete, non-finite ones
/// included); otherwise true for a non-finite value or bound, or when the
/// error interval straddles an integer boundary or the int64 range.
bool conversionSuspect(double Concrete, double Err);

/// Output spot: could the full shadow report more than \p ThresholdBits
/// bits of output error for a value with this bound? (NaN concretes are
/// always suspect; the margin is applied inside.)
bool outputSuspect(const Value &LaneVal, double Err, double ThresholdBits);

} // namespace errpredict
} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_ERRORPREDICT_H
