//===- inputs/InputSummary.cpp - Input characteristics --------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "inputs/InputSummary.h"

#include "support/Format.h"
#include "trace/SymExpr.h"

#include <algorithm>
#include <cmath>

using namespace herbgrind;

void VarSummary::add(double V) {
  ++Count;
  if (std::isnan(V)) {
    SawNaN = true;
    return;
  }
  if (Count == 1 || (SawNaN && !HasRange && !SawZero))
    Example = V;
  if (V == 0.0)
    SawZero = true;
  if (!HasRange) {
    Lo = Hi = V;
    HasRange = true;
  } else {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  if (V < 0.0) {
    if (!HasNeg) {
      NegLo = NegHi = V;
      HasNeg = true;
    } else {
      NegLo = std::min(NegLo, V);
      NegHi = std::max(NegHi, V);
    }
  } else if (V > 0.0) {
    if (!HasPos) {
      PosLo = PosHi = V;
      HasPos = true;
    } else {
      PosLo = std::min(PosLo, V);
      PosHi = std::max(PosHi, V);
    }
  }
}

void VarSummary::addRepeated(double V, uint64_t N) {
  if (N == 0)
    return;
  // add() owns all the flag/range logic; repetition only affects Count.
  add(V);
  Count += N - 1;
}

void VarSummary::merge(const VarSummary &O) {
  if (O.Count == 0)
    return;
  if (Count == 0) {
    *this = O;
    return;
  }
  Count += O.Count;
  SawNaN |= O.SawNaN;
  SawZero |= O.SawZero;
  if (O.HasRange) {
    if (!HasRange) {
      Lo = O.Lo;
      Hi = O.Hi;
      HasRange = true;
    } else {
      Lo = std::min(Lo, O.Lo);
      Hi = std::max(Hi, O.Hi);
    }
  }
  if (O.HasNeg) {
    if (!HasNeg) {
      NegLo = O.NegLo;
      NegHi = O.NegHi;
      HasNeg = true;
    } else {
      NegLo = std::min(NegLo, O.NegLo);
      NegHi = std::max(NegHi, O.NegHi);
    }
  }
  if (O.HasPos) {
    if (!HasPos) {
      PosLo = O.PosLo;
      PosHi = O.PosHi;
      HasPos = true;
    } else {
      PosLo = std::min(PosLo, O.PosLo);
      PosHi = std::max(PosHi, O.PosHi);
    }
  }
}

std::string VarSummary::preClause(RangeMode Mode,
                                  const std::string &Name) const {
  if (Mode == RangeMode::Off || !HasRange)
    return "";
  if (Mode == RangeMode::Single)
    return format("(<= %s %s %s)", formatDoubleShortest(Lo).c_str(),
                  Name.c_str(), formatDoubleShortest(Hi).c_str());
  // Sign-split: one clause per populated sign (zero folds into either).
  std::vector<std::string> Parts;
  if (HasNeg)
    Parts.push_back(format("(<= %s %s %s)",
                           formatDoubleShortest(NegLo).c_str(), Name.c_str(),
                           formatDoubleShortest(NegHi).c_str()));
  if (SawZero)
    Parts.push_back(format("(== %s 0)", Name.c_str()));
  if (HasPos)
    Parts.push_back(format("(<= %s %s %s)",
                           formatDoubleShortest(PosLo).c_str(), Name.c_str(),
                           formatDoubleShortest(PosHi).c_str()));
  if (Parts.empty())
    return "";
  if (Parts.size() == 1)
    return Parts[0];
  return "(or " + join(Parts, " ") + ")";
}

void InputCharacteristics::record(const std::vector<VarBinding> &Bindings) {
  for (const VarBinding &B : Bindings) {
    if (Vars.size() <= B.Idx)
      Vars.resize(B.Idx + 1);
    Vars[B.Idx].add(B.Value);
  }
}

void InputCharacteristics::addRepeated(uint32_t Idx, double V, uint64_t N) {
  if (N == 0)
    return;
  if (Vars.size() <= Idx)
    Vars.resize(Idx + 1);
  Vars[Idx].addRepeated(V, N);
}

const VarSummary &InputCharacteristics::var(uint32_t Idx) const {
  static const VarSummary Empty;
  if (Idx < Vars.size())
    return Vars[Idx];
  return Empty;
}

std::string InputCharacteristics::preCondition(RangeMode Mode) const {
  if (Mode == RangeMode::Off)
    return "";
  std::vector<std::string> Clauses;
  for (size_t I = 0; I < Vars.size(); ++I) {
    std::string C =
        Vars[I].preClause(Mode, SymExpr::varName(static_cast<uint32_t>(I)));
    if (!C.empty())
      Clauses.push_back(C);
  }
  if (Clauses.empty())
    return "";
  if (Clauses.size() == 1)
    return Clauses[0];
  return "(and " + join(Clauses, " ") + ")";
}
