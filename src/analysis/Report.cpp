//===- analysis/Report.cpp - Paper-style root cause reports ---------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include "analysis/Serialize.h"
#include "support/Format.h"

#include <algorithm>
#include <set>

using namespace herbgrind;

std::string herbgrind::fpcoreForRecord(const OpRecord &Rec,
                                       RangeMode Ranges) {
  assert(Rec.Expr && "record without an expression");
  uint32_t NumVars = Rec.Expr->numVars();
  std::vector<std::string> Vars;
  for (uint32_t I = 0; I < NumVars; ++I)
    Vars.push_back(SymExpr::varName(I));
  std::string Out = "(FPCore (" + join(Vars, " ") + ")";
  std::string Pre = Rec.TotalInputs.preCondition(Ranges);
  if (!Pre.empty())
    Out += "\n  :pre " + Pre;
  Out += "\n  " + Rec.Expr->fpcoreBody() + ")";
  return Out;
}

static RootCauseReport buildRootCause(uint32_t PC, const OpRecord &Rec,
                                      RangeMode Ranges) {
  RootCauseReport RC;
  RC.PC = PC;
  RC.Loc = Rec.Loc;
  RC.FPCore = fpcoreForRecord(Rec, Ranges);
  RC.Body = Rec.Expr ? Rec.Expr->fpcoreBody() : "";
  RC.NumVars = Rec.Expr ? Rec.Expr->numVars() : 0;
  RC.OpCount = Rec.Expr ? Rec.Expr->opCount() : 0;
  RC.Flagged = Rec.Flagged;
  RC.MaxLocalError = Rec.LocalError.max();
  RC.AvgLocalError = Rec.LocalError.mean();
  if (!Rec.ExampleProblematic.empty()) {
    std::vector<VarBinding> Sorted = Rec.ExampleProblematic;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const VarBinding &A, const VarBinding &B) {
                return A.Idx < B.Idx;
              });
    std::vector<std::string> Parts;
    for (const VarBinding &B : Sorted)
      Parts.push_back(formatDoubleShortest(B.Value));
    RC.ExampleInput = "(" + join(Parts, ", ") + ")";
  }
  return RC;
}

Report herbgrind::buildReport(const AnalysisResult &Result) {
  Report R;
  for (const auto &[PC, Spot] : Result.Spots) {
    if (Spot.Erroneous == 0)
      continue;
    SpotReport SR;
    SR.PC = PC;
    SR.Kind = Spot.Kind;
    SR.Loc = Spot.Loc;
    SR.Executions = Spot.Executions;
    SR.Erroneous = Spot.Erroneous;
    SR.MaxErrorBits = Spot.ErrorBits.max();
    for (uint32_t OpPC : Result.mostFlaggedFirst(Spot.InfluencingOps)) {
      auto It = Result.Ops.find(OpPC);
      if (It == Result.Ops.end() || !It->second.Expr)
        continue;
      SR.RootCauses.push_back(buildRootCause(OpPC, It->second, Result.Ranges));
    }
    R.Spots.push_back(std::move(SR));
  }
  return R;
}

Report herbgrind::buildReport(const Analyzer &Analysis) {
  return buildReport(Analysis.records());
}

// Report::renderJson lives in Serialize.cpp: the JSON shape is one
// schema traversal shared with the HGB binary backend.

std::vector<RootCauseReport> Report::allRootCauses() const {
  std::vector<RootCauseReport> All;
  std::set<uint32_t> Seen;
  for (const SpotReport &SR : Spots)
    for (const RootCauseReport &RC : SR.RootCauses)
      if (Seen.insert(RC.PC).second)
        All.push_back(RC);
  return All;
}

std::string Report::render() const {
  if (Spots.empty())
    return "No erroneous spots detected.\n";
  std::string Out;
  for (const SpotReport &SR : Spots) {
    Out += format("%s @ %s\n", spotKindName(SR.Kind), SR.Loc.str().c_str());
    if (SR.Kind == SpotKind::Output)
      Out += format("  %llu incorrect values of %llu (max error %.1f bits)\n",
                    static_cast<unsigned long long>(SR.Erroneous),
                    static_cast<unsigned long long>(SR.Executions),
                    SR.MaxErrorBits);
    else
      Out += format("  %llu divergent executions of %llu\n",
                    static_cast<unsigned long long>(SR.Erroneous),
                    static_cast<unsigned long long>(SR.Executions));
    if (SR.RootCauses.empty()) {
      Out += "  (no tracked erroneous expressions influenced this spot)\n";
      continue;
    }
    Out += "  Influenced by erroneous expressions:\n";
    for (const RootCauseReport &RC : SR.RootCauses) {
      std::string Indented = RC.FPCore;
      // Indent every line of the FPCore block.
      std::string Block = "  ";
      for (char C : Indented) {
        Block += C;
        if (C == '\n')
          Block += "  ";
      }
      Out += Block + "\n";
      if (!RC.ExampleInput.empty())
        Out += format("  Example problematic input: %s\n",
                      RC.ExampleInput.c_str());
      Out += format("  (at %s; flagged %llu times; max local error %.1f "
                    "bits)\n",
                    RC.Loc.str().c_str(),
                    static_cast<unsigned long long>(RC.Flagged),
                    RC.MaxLocalError);
    }
    Out += "\n";
  }
  if (!Improvements.empty()) {
    uint64_t Improved = 0;
    for (const ImproveRecord &IR : Improvements)
      Improved += IR.Improved ? 1 : 0;
    Out += format("Improver suggestions (%zu root causes, %llu improved):\n",
                  Improvements.size(),
                  static_cast<unsigned long long>(Improved));
    for (const ImproveRecord &IR : Improvements) {
      Out += format("  pc %u: %s   (%.1f bits mean error%s)\n", IR.PC,
                    IR.Original.c_str(), IR.ErrorBefore,
                    IR.HadSignificantError ? ", significant" : "");
      if (IR.Improved)
        Out += format("    -> %s   (%.1f bits mean error)\n",
                      IR.Rewritten.c_str(), IR.ErrorAfter);
      else
        Out += "    (no accuracy-improving rewrite in the database)\n";
    }
    Out += "\n";
  }
  return Out;
}
