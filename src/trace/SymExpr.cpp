//===- trace/SymExpr.cpp - Symbolic expressions & anti-unification --------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/SymExpr.h"

#include "support/FloatBits.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace herbgrind;

std::unique_ptr<SymExpr> SymExpr::makeOp(Opcode Op, uint32_t Site) {
  auto E = std::make_unique<SymExpr>();
  E->Kind = SEKind::Op;
  E->Op = Op;
  E->Site = Site;
  return E;
}

std::unique_ptr<SymExpr> SymExpr::makeConst(double V) {
  auto E = std::make_unique<SymExpr>();
  E->Kind = SEKind::Const;
  E->ConstVal = V;
  return E;
}

std::unique_ptr<SymExpr> SymExpr::makeVar(uint32_t Idx) {
  auto E = std::make_unique<SymExpr>();
  E->Kind = SEKind::Var;
  E->VarIdx = Idx;
  return E;
}

std::unique_ptr<SymExpr> SymExpr::clone() const {
  auto E = std::make_unique<SymExpr>();
  E->Kind = Kind;
  E->Op = Op;
  E->ConstVal = ConstVal;
  E->VarIdx = VarIdx;
  E->Site = Site;
  E->Kids.reserve(Kids.size());
  for (const auto &Kid : Kids)
    E->Kids.push_back(Kid->clone());
  return E;
}

unsigned SymExpr::opCount() const {
  if (Kind != SEKind::Op)
    return 0;
  unsigned N = 1;
  for (const auto &Kid : Kids)
    N += Kid->opCount();
  return N;
}

uint32_t SymExpr::numVars() const {
  if (Kind == SEKind::Var)
    return VarIdx + 1;
  uint32_t N = 0;
  for (const auto &Kid : Kids)
    N = std::max(N, Kid->numVars());
  return N;
}

std::string SymExpr::varName(uint32_t Idx) {
  static const char *Names[] = {"x", "y", "z", "w"};
  if (Idx < 4)
    return Names[Idx];
  return format("v%u", Idx);
}

std::string SymExpr::fpcoreBody() const {
  switch (Kind) {
  case SEKind::Var:
    return varName(VarIdx);
  case SEKind::Const:
    return formatDoubleShortest(ConstVal);
  case SEKind::Op: {
    const OpInfo &Info = opInfo(Op);
    std::string S = "(";
    S += Info.FPCoreName ? Info.FPCoreName : Info.Name;
    for (const auto &Kid : Kids) {
      S += ' ';
      S += Kid->fpcoreBody();
    }
    S += ')';
    return S;
  }
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Anti-unification
//===----------------------------------------------------------------------===//

/// Whether \p T reads as an op node at \p Budget (at budget 1 every node
/// reads as a leaf carrying its value).
static bool readsAsOp(const TraceNode *T, uint32_t Budget) {
  return T->Kind == TraceNode::TNKind::Op && Budget > 1;
}

static std::unique_ptr<SymExpr> symbolizeRec(TraceNode *Trace,
                                             uint32_t Budget) {
  if (!readsAsOp(Trace, Budget))
    return SymExpr::makeConst(Trace->Value);
  auto E = SymExpr::makeOp(Trace->Op, Trace->Site);
  E->Kids.reserve(Trace->NumKids);
  for (unsigned I = 0; I < Trace->NumKids; ++I)
    E->Kids.push_back(symbolizeRec(Trace->Kids[I], Budget - 1));
  return E;
}

std::unique_ptr<SymExpr> herbgrind::symbolize(TraceArena &Arena,
                                              TraceNode *Trace) {
  // First observation: mirror the trace; leaves start out as constants and
  // only become variables once a later execution disagrees with them.
  return symbolizeRec(Trace, Arena.rootBudget());
}

namespace {

/// Bounded-depth structural fingerprint of a symbolic subtree.
uint64_t symFingerprint(const SymExpr *E, uint32_t DepthLeft) {
  auto Mix = [](uint64_t H, uint64_t X) {
    H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    return H;
  };
  switch (E->Kind) {
  case SymExpr::SEKind::Var:
    return Mix(0x7a1, E->VarIdx);
  case SymExpr::SEKind::Const:
    return Mix(0xc0, bitsOfDouble(E->ConstVal));
  case SymExpr::SEKind::Op: {
    uint64_t H = Mix(0x09, static_cast<uint64_t>(E->Op));
    if (DepthLeft == 0)
      return H;
    for (const auto &Kid : E->Kids)
      H = Mix(H, symFingerprint(Kid.get(), DepthLeft - 1));
    return H;
  }
  }
  return 0;
}

/// Overwrites \p E as variable \p Idx, dropping its subtree: the one way
/// both a round and a merge generalize a node.
void becomeVariable(SymExpr &E, uint32_t Idx) {
  E.Kind = SymExpr::SEKind::Var;
  E.Op = Opcode::AddF64;
  E.ConstVal = 0.0;
  E.VarIdx = Idx;
  E.Site = UINT32_MAX;
  E.Kids.clear();
}

/// One in-place anti-unification round: a pre-order walk of the
/// expression against the trace, with the scratch's reused tables standing
/// in for per-round maps.
struct Generalizer {
  TraceArena &Arena;
  uint32_t &NextVarIdx;
  AntiUnifyScratch &Round;

  /// Overwrites \p E with the variable of its (expression class, trace
  /// class) pair; \p T is read at \p Budget. E's subtree is still as the
  /// previous round left it: the walk has changed only nodes it visited,
  /// and none of them lies below E, so fingerprints and indices read the
  /// old expression.
  void makeVariable(SymExpr &E, TraceNode *T, uint32_t Budget) {
    bool Inserted;
    uint32_t &Slot =
        Round.VarForPair.slot(symFingerprint(&E, Arena.equivDepth()),
                              Arena.fingerprint(T, Budget), Inserted);
    if (Inserted) {
      // Keep the old variable index alive when this is the first concrete
      // class paired with it this round, so summaries stay attached.
      bool Kept = E.Kind == SymExpr::SEKind::Var &&
                  Round.Claimed.insert(E.VarIdx, 0);
      Slot = Kept ? E.VarIdx : NextVarIdx++;
      if (!Kept)
        Round.Claimed.insert(Slot, 0);
      Round.Bindings.push_back({Slot, T->Value});
      // A constant held this value on every earlier round; report the
      // promotion so summaries can credit that history to the variable.
      if (E.Kind == SymExpr::SEKind::Const)
        Round.Promotions.push_back({Slot, E.ConstVal});
    }
    becomeVariable(E, Slot);
  }

  void gen(SymExpr &E, TraceNode *T, uint32_t Budget) {
    bool TOp = readsAsOp(T, Budget);
    if (E.Kind == SymExpr::SEKind::Op && TOp && E.Op == T->Op &&
        E.Kids.size() == T->NumKids) {
      E.Site = T->Site;
      for (unsigned I = 0; I < T->NumKids; ++I)
        gen(*E.Kids[I], T->Kids[I], Budget - 1);
      return;
    }
    if (E.Kind == SymExpr::SEKind::Const && !TOp &&
        bitsOfDouble(E.ConstVal) == bitsOfDouble(T->Value))
      return;
    makeVariable(E, T, Budget);
  }
};

} // namespace

void herbgrind::antiUnify(TraceArena &Arena, SymExpr &Expr, TraceNode *Trace,
                          uint32_t &NextVarIdx, AntiUnifyScratch &Round) {
  Round.Bindings.clear();
  Round.Promotions.clear();
  Round.VarForPair.clear();
  Round.Claimed.clear();
  Generalizer G{Arena, NextVarIdx, Round};
  G.gen(Expr, Trace, Arena.rootBudget());
}

//===----------------------------------------------------------------------===//
// Anti-unification of two accumulated expressions (shard merging)
//===----------------------------------------------------------------------===//

namespace {

/// One in-place merge of two accumulated expressions over the scratch's
/// reused tables.
struct Merger {
  uint32_t EquivDepth;
  MergeScratch &M;
  using Site = MergeScratch::Site;

  static bool aligned(const SymExpr &SA, const SymExpr &SB) {
    if (SA.Kind == SymExpr::SEKind::Op && SB.Kind == SymExpr::SEKind::Op)
      return SA.Op == SB.Op && SA.Kids.size() == SB.Kids.size();
    if (SA.Kind == SymExpr::SEKind::Const && SB.Kind == SymExpr::SEKind::Const)
      return bitsOfDouble(SA.ConstVal) == bitsOfDouble(SB.ConstVal);
    return false;
  }

  /// The pre-order walk: aligned op nodes recurse and equal constants stay
  /// concrete; every other position joins the site of its class pair.
  void collect(SymExpr &SA, const SymExpr &SB) {
    if (aligned(SA, SB)) {
      if (SA.Kind == SymExpr::SEKind::Op)
        for (size_t I = 0; I < SA.Kids.size(); ++I)
          collect(*SA.Kids[I], *SB.Kids[I]);
      return;
    }
    bool Inserted;
    uint32_t &Slot = M.SiteForPair.slot(symFingerprint(&SA, EquivDepth),
                                        symFingerprint(&SB, EquivDepth),
                                        Inserted);
    if (Inserted) {
      Slot = static_cast<uint32_t>(M.Sites.size());
      M.Sites.push_back({&SA, &SB});
    }
    M.Positions.push_back({&SA, Slot});
  }

  /// Would sequential processing have generalized this site on B's very
  /// first round (making its index precede every variable B itself
  /// created), or only when B generalized it?
  bool isBTime(const Site &S) const {
    if (S.SB->Kind != SymExpr::SEKind::Var)
      return false; // B ended concrete: the sides simply disagree -> round 1
    if (S.SA->Kind == SymExpr::SEKind::Const) {
      uint32_t J = S.SB->VarIdx;
      if (J < M.BFirstValues.size() && M.BFirstValues[J].first &&
          bitsOfDouble(M.BFirstValues[J].second) !=
              bitsOfDouble(S.SA->ConstVal))
        return false; // disagreed already on B's first observation
      return true;
    }
    if (S.SA->Kind == SymExpr::SEKind::Op)
      return false; // structural mismatch surfaces immediately
    return true;    // A variable splitting against a B variable
  }

  void assignIndices(uint32_t &NextVarIdx) {
    // Pass 1: A-side variables keep their index (first claim wins, exactly
    // like the claimed set of the incremental path).
    for (Site &S : M.Sites)
      if (S.SA->Kind == SymExpr::SEKind::Var &&
          M.KeptA.insert(S.SA->VarIdx, 0)) {
        S.Idx = S.SA->VarIdx;
        S.Assigned = true;
      }
    // Pass 2: new variables. Sites that sequential processing would have
    // generalized on B's first round come first in traversal order; sites
    // created only when B generalized follow in B's creation order (B's
    // variable indices are monotone in creation time).
    for (uint32_t I = 0; I < M.Sites.size(); ++I)
      if (!M.Sites[I].Assigned) {
        M.Sites[I].BTime = isBTime(M.Sites[I]);
        M.Fresh.push_back(I);
      }
    std::sort(M.Fresh.begin(), M.Fresh.end(), [&](uint32_t X, uint32_t Y) {
      const Site &SX = M.Sites[X], &SY = M.Sites[Y];
      if (SX.BTime != SY.BTime)
        return !SX.BTime; // first-round sites precede B-created sites
      if (SX.BTime && SX.SB->VarIdx != SY.SB->VarIdx)
        return SX.SB->VarIdx < SY.SB->VarIdx;
      return X < Y; // traversal order breaks ties
    });
    for (uint32_t I : M.Fresh)
      M.Sites[I].Idx = NextVarIdx++;
    // Report provenance.
    for (const Site &S : M.Sites) {
      MergedVar V;
      V.Idx = S.Idx;
      auto Classify = [](const SymExpr *E, MergedVar::Source &Src,
                         uint32_t &Var, double &Const) {
        switch (E->Kind) {
        case SymExpr::SEKind::Var:
          Src = MergedVar::Source::Var;
          Var = E->VarIdx;
          break;
        case SymExpr::SEKind::Const:
          Src = MergedVar::Source::Const;
          Const = E->ConstVal;
          break;
        case SymExpr::SEKind::Op:
          Src = MergedVar::Source::Subtree;
          break;
        }
      };
      Classify(S.SA, V.A, V.AVar, V.AConst);
      Classify(S.SB, V.B, V.BVar, V.BConst);
      V.KeptA = V.A == MergedVar::Source::Var && V.Idx == V.AVar;
      M.Vars.push_back(V);
    }
  }
};

} // namespace

void herbgrind::antiUnifyMerge(SymExpr &A, const SymExpr &B,
                               uint32_t EquivDepth, uint32_t &NextVarIdx,
                               MergeScratch &Merge) {
  Merge.Vars.clear();
  Merge.KeptA.clear();
  Merge.Sites.clear();
  Merge.Positions.clear();
  Merge.Fresh.clear();
  Merge.SiteForPair.clear();
  Merger M{EquivDepth, Merge};
  M.collect(A, B);
  M.assignIndices(NextVarIdx);
  // Positions are disjoint subtrees of A, and every fingerprint and
  // provenance above read them before any is overwritten.
  for (const auto &[Node, SiteIdx] : Merge.Positions) {
    uint32_t Idx = Merge.Sites[SiteIdx].Idx;
    if (Node->Kind != SymExpr::SEKind::Var || Node->VarIdx != Idx)
      becomeVariable(*Node, Idx);
  }
}
