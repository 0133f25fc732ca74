//===- inputs/InputSummary.h - Input characteristics ------------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input-characteristics system (Section 4.4): for every variable of
/// every symbolic expression, an incremental summary of the values that
/// variable took. The paper ships three kinds -- a representative example,
/// a single range per variable, and sign-split ranges -- and keeps each
/// both for *all* inputs and for the *problematic* inputs (those that
/// caused high local error). The Fig 5b ablation sweeps RangeMode.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_INPUTS_INPUTSUMMARY_H
#define HERBGRIND_INPUTS_INPUTSUMMARY_H

#include <cstdint>
#include <string>
#include <vector>

namespace herbgrind {

/// Which range characteristic to compute and report (Fig 5b).
enum class RangeMode : uint8_t {
  Off,      ///< No ranges; only example inputs.
  Single,   ///< One [lo, hi] interval per variable.
  SignSplit ///< Separate intervals for negative and positive values.
};

/// Incremental summary of one symbolic variable's observed values. All
/// three paper characteristics are folded in O(1) per observation, as the
/// incrementality requirement (Section 4.4, footnote 9) demands.
struct VarSummary {
  uint64_t Count = 0;
  bool SawNaN = false;
  bool SawZero = false;
  double Example = 0.0; ///< First observed value (representative input).
  double Lo = 0.0, Hi = 0.0;
  double NegLo = 0.0, NegHi = 0.0; ///< Negative-sign subrange.
  double PosLo = 0.0, PosHi = 0.0; ///< Positive-sign subrange.
  bool HasRange = false, HasNeg = false, HasPos = false;

  void add(double V);

  /// Folds \p N identical observations of \p V in O(1) (equivalent to
  /// calling add(V) N times). Shard merging uses this to credit a
  /// constant-leaf's history to the variable it merged into.
  void addRepeated(double V, uint64_t N);

  /// Associative merge (incrementalization requires it; tested for).
  void merge(const VarSummary &Other);

  /// Renders the FPCore precondition clause for this variable, e.g.
  /// "(<= -2.061152e-09 x 0.24975)".
  std::string preClause(RangeMode Mode, const std::string &Name) const;
};

struct VarBinding; // from trace/SymExpr.h

/// Summaries for all variables of one symbolic expression, indexed by
/// variable number.
struct InputCharacteristics {
  std::vector<VarSummary> Vars;

  /// Folds one round of (variable, value) bindings.
  void record(const std::vector<VarBinding> &Bindings);

  /// Folds \p N identical observations of \p V into variable \p Idx.
  void addRepeated(uint32_t Idx, double V, uint64_t N);

  /// The summary for variable \p Idx, or an empty summary when the
  /// variable has no recorded observations.
  const VarSummary &var(uint32_t Idx) const;

  /// Renders the "(and ...)" precondition body, or "" when empty/off.
  std::string preCondition(RangeMode Mode) const;
};

} // namespace herbgrind

#endif // HERBGRIND_INPUTS_INPUTSUMMARY_H
