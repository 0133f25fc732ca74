//===- trace/SymExpr.h - Symbolic expressions & anti-unification -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic expressions (Section 4.3): the abstraction of all concrete
/// traces observed at one operation site, computed by incremental Plotkin
/// anti-unification (most specific generalization). Variables stand in for
/// subtrees that differ across executions; subtrees that are equivalent (to
/// the Section 6.1 bounded depth) on every execution share one variable,
/// which is what lets the input-characteristics system attach a single
/// summary per variable.
///
/// symbolize and antiUnify read a trace with the arena's depth budget
/// (TraceArena::rootBudget, one less per level), so they see the top
/// MaxDepth levels of the trace however many levels its nodes hold: a node
/// read at budget 1 is a constant leaf, and its fingerprint is taken at
/// the budget it is read at.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TRACE_SYMEXPR_H
#define HERBGRIND_TRACE_SYMEXPR_H

#include "support/StampedTable.h"
#include "trace/TraceNode.h"

#include <memory>
#include <string>
#include <vector>

namespace herbgrind {

/// A symbolic expression tree. Plain owned trees (no sharing): one lives on
/// each operation record and is generalized in place.
struct SymExpr {
  enum class SEKind : uint8_t { Op, Const, Var };

  SEKind Kind;
  Opcode Op = Opcode::AddF64;  ///< For Op nodes.
  double ConstVal = 0.0;       ///< For Const leaves.
  uint32_t VarIdx = 0;         ///< For Var leaves.
  uint32_t Site = UINT32_MAX;  ///< Producing pc of the op (reporting).
  std::vector<std::unique_ptr<SymExpr>> Kids;

  static std::unique_ptr<SymExpr> makeOp(Opcode Op, uint32_t Site);
  static std::unique_ptr<SymExpr> makeConst(double V);
  static std::unique_ptr<SymExpr> makeVar(uint32_t Idx);

  std::unique_ptr<SymExpr> clone() const;

  /// Number of operation nodes (the paper's "expressions of N operations").
  unsigned opCount() const;

  /// Highest variable index + 1 (0 when fully concrete).
  uint32_t numVars() const;

  /// Renders the body in FPCore syntax, e.g.
  /// "(- (sqrt (+ (* x0 x0) (* x1 x1))) x0)".
  std::string fpcoreBody() const;

  /// Variable name used in printed output ("x0", "x1", ...).
  static std::string varName(uint32_t Idx);
};

/// The concrete value bound to one variable during one generalization
/// round.
struct VarBinding {
  uint32_t Idx;
  double Value;
};

/// A constant leaf that one anti-unification round promoted to a variable.
/// The constant's value was, by construction, observed on *every* earlier
/// round, so the caller can retroactively credit it to the new variable's
/// input summary; that is what makes per-shard summaries exactly mergeable
/// (the batch engine relies on it).
struct Promotion {
  uint32_t Idx;    ///< The variable the constant became.
  double OldValue; ///< The constant's value.
};

/// Builds the initial symbolic expression for the first concrete trace seen
/// at a site: the trace's top MaxDepth levels are mirrored with leaves as
/// constants; they only become variables once a later execution disagrees
/// with them.
std::unique_ptr<SymExpr> symbolize(TraceArena &Arena, TraceNode *Trace);

/// Everything one anti-unification round keeps besides the expression: its
/// output and its lookup tables. Each round clears and refills it, so one
/// instance reused round after round (each analyzer's ShadowState holds
/// one) reaches the heap only when a round outgrows every earlier one.
struct AntiUnifyScratch {
  std::vector<VarBinding> Bindings;  ///< The round's (variable, value) pairs.
  std::vector<Promotion> Promotions; ///< Constants the round made variables.
  StampedTable VarForPair; ///< (expression class, trace class) -> variable.
  StampedTable Claimed;    ///< Variable indices claimed this round.
};

/// Incremental anti-unification (Section 6 "Incrementalization"): turns
/// the accumulated \p Expr, in place, into the most specific
/// generalization of itself and a new concrete \p Trace. The walk visits
/// \p Expr in pre-order against the trace: a node that still matches is
/// kept (an op node takes the trace's site), and a node that must
/// generalize is overwritten as a variable, so a round on a converged
/// expression keeps every node and allocates nothing. \p Round.Bindings
/// receives the (variable, concrete value) pairs of this round and
/// \p Round.Promotions the constant leaves it turned into variables (see
/// Promotion). Variable indices are kept stable where possible so input
/// summaries can accumulate across rounds; \p NextVarIdx persists on the
/// operation record.
void antiUnify(TraceArena &Arena, SymExpr &Expr, TraceNode *Trace,
               uint32_t &NextVarIdx, AntiUnifyScratch &Round);

//===----------------------------------------------------------------------===//
// Merging two accumulated symbolic expressions (the batch engine)
//===----------------------------------------------------------------------===//

/// Provenance of one variable of a merged symbolic expression: which
/// subtree each input expression had at the variable's position(s). Record
/// merging uses this to combine the two sides' input summaries.
struct MergedVar {
  enum class Source : uint8_t {
    Var,    ///< The side already had a variable there.
    Const,  ///< The side had a constant leaf (same value on all its rounds).
    Subtree ///< The side had an operation subtree (no value history).
  };
  uint32_t Idx = 0; ///< Variable index in the merged expression.
  Source A = Source::Const;
  Source B = Source::Const;
  uint32_t AVar = 0;   ///< Valid when A == Source::Var.
  uint32_t BVar = 0;   ///< Valid when B == Source::Var.
  double AConst = 0.0; ///< Valid when A == Source::Const.
  double BConst = 0.0; ///< Valid when B == Source::Const.
  bool KeptA = false;  ///< Idx was inherited from the A side's variable.
};

/// Everything one merge of two accumulated expressions keeps besides the
/// expressions: its input, its output and its lookup tables. Each merge
/// clears and refills it, so, as with AntiUnifyScratch, one instance
/// reused merge after merge reaches the heap only when a merge outgrows
/// every earlier one.
struct MergeScratch {
  /// Input: per B-side variable, {known, first observed value}.
  std::vector<std::pair<bool, double>> BFirstValues;
  /// Output: the provenance of every merged variable, in first-visit
  /// order.
  std::vector<MergedVar> Vars;
  /// Output: the A-side variable indices the merge kept.
  StampedTable KeptA;

  /// One generalization site: a unique (A-subtree class, B-subtree class)
  /// pair that becomes one merged variable.
  struct Site {
    const SymExpr *SA; ///< The A subtree of the site's first position.
    const SymExpr *SB; ///< The B subtree of the site's first position.
    uint32_t Idx = 0;  ///< The merged variable.
    bool Assigned = false;
    bool BTime = false; ///< Created when B generalized (vs on B's 1st round).
  };
  std::vector<Site> Sites;                           ///< First-visit order.
  std::vector<std::pair<SymExpr *, uint32_t>> Positions; ///< A node, site.
  std::vector<uint32_t> Fresh;  ///< Sites that take a new index.
  StampedTable SiteForPair;     ///< (A class, B class) -> site.
};

/// Plotkin anti-unification of two accumulated symbolic expressions, in
/// place: turns \p A (the earlier shard's) into the most specific
/// generalization of itself and \p B (the later shard's), with subtree
/// equivalence bounded at \p EquivDepth exactly like the incremental
/// path. One pre-order walk of both finds the positions where they
/// disagree; a node where they agree is kept as it is, and only a position
/// whose merged variable is not already there is overwritten, so merging
/// two equal expressions replaces no node. Variable indices from \p A are
/// kept where possible; new variables are numbered from \p NextVarIdx in
/// the order sequential processing of B's rounds after A's would have
/// created them (\p Merge.BFirstValues disambiguates whether a
/// constant-vs-variable position generalized on B's first round or only
/// when B itself generalized it). \p Merge.Vars receives the provenance of
/// every merged variable and \p Merge.KeptA the indices kept from A.
void antiUnifyMerge(SymExpr &A, const SymExpr &B, uint32_t EquivDepth,
                    uint32_t &NextVarIdx, MergeScratch &Merge);

} // namespace herbgrind

#endif // HERBGRIND_TRACE_SYMEXPR_H
