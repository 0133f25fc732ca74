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

static Report buildReportFromRecords(const std::map<uint32_t, OpRecord> &Ops,
                                     const std::map<uint32_t, SpotRecord> &Spots,
                                     RangeMode Ranges) {
  Report R;
  for (const auto &[PC, Spot] : Spots) {
    if (Spot.Erroneous == 0)
      continue;
    SpotReport SR;
    SR.PC = PC;
    SR.Kind = Spot.Kind;
    SR.Loc = Spot.Loc;
    SR.Executions = Spot.Executions;
    SR.Erroneous = Spot.Erroneous;
    SR.MaxErrorBits = Spot.ErrorBits.max();
    std::vector<uint32_t> Influencers(Spot.InfluencingOps.begin(),
                                      Spot.InfluencingOps.end());
    std::sort(Influencers.begin(), Influencers.end(),
              [&](uint32_t A, uint32_t B) {
                uint64_t FA = Ops.count(A) ? Ops.at(A).Flagged : 0;
                uint64_t FB = Ops.count(B) ? Ops.at(B).Flagged : 0;
                if (FA != FB)
                  return FA > FB;
                return A < B;
              });
    for (uint32_t OpPC : Influencers) {
      auto It = Ops.find(OpPC);
      if (It == Ops.end() || !It->second.Expr)
        continue;
      SR.RootCauses.push_back(buildRootCause(OpPC, It->second, Ranges));
    }
    R.Spots.push_back(std::move(SR));
  }
  return R;
}

Report herbgrind::buildReport(const Analyzer &Analysis) {
  return buildReportFromRecords(Analysis.opRecords(), Analysis.spotRecords(),
                                Analysis.config().Ranges);
}

Report herbgrind::buildReport(const AnalysisResult &Result) {
  return buildReportFromRecords(Result.Ops, Result.Spots, Result.Ranges);
}

void Report::mergeFrom(const Report &Other) {
  for (const SpotReport &OS : Other.Spots) {
    SpotReport *Mine = nullptr;
    for (SpotReport &SR : Spots)
      if (SR.PC == OS.PC && SR.Loc == OS.Loc) {
        Mine = &SR;
        break;
      }
    if (!Mine) {
      Spots.push_back(OS);
      continue;
    }
    Mine->Executions += OS.Executions;
    Mine->Erroneous += OS.Erroneous;
    Mine->MaxErrorBits = std::max(Mine->MaxErrorBits, OS.MaxErrorBits);
    for (const RootCauseReport &RC : OS.RootCauses) {
      RootCauseReport *Have = nullptr;
      for (RootCauseReport &M : Mine->RootCauses)
        if (M.PC == RC.PC) {
          Have = &M;
          break;
        }
      if (!Have)
        Mine->RootCauses.push_back(RC);
      else if (RC.Flagged > Have->Flagged)
        *Have = RC; // keep the strongest observation of this cause
    }
    std::sort(Mine->RootCauses.begin(), Mine->RootCauses.end(),
              [](const RootCauseReport &A, const RootCauseReport &B) {
                if (A.Flagged != B.Flagged)
                  return A.Flagged > B.Flagged;
                return A.PC < B.PC;
              });
  }
  if (!Other.Improvements.empty()) {
    // Pc spaces are per-program (exactly why spots merge on (pc, loc)),
    // so cross-benchmark folds key on (pc, expression): two programs
    // blaming different expressions at the same pc keep both records.
    // A full-key collision (same expression under different recorded
    // regimes) keeps the strongest outcome -- mirroring the root-cause
    // policy above -- with field-wise tie-breaks so the benchmark fold
    // order never decides.
    auto Stronger = [](const ImproveRecord &X, const ImproveRecord &Y) {
      if (X.Improved != Y.Improved)
        return X.Improved;
      double GX = X.ErrorBefore - X.ErrorAfter;
      double GY = Y.ErrorBefore - Y.ErrorAfter;
      if (GX != GY)
        return GX > GY;
      if (X.ErrorBefore != Y.ErrorBefore)
        return X.ErrorBefore > Y.ErrorBefore;
      return X.Rewritten < Y.Rewritten;
    };
    for (const ImproveRecord &IR : Other.Improvements) {
      ImproveRecord *Have = nullptr;
      for (ImproveRecord &Mine : Improvements)
        if (Mine.PC == IR.PC && Mine.Original == IR.Original) {
          Have = &Mine;
          break;
        }
      if (!Have)
        Improvements.push_back(IR);
      else if (Stronger(IR, *Have))
        *Have = IR;
    }
    std::sort(Improvements.begin(), Improvements.end(),
              [](const ImproveRecord &A, const ImproveRecord &B) {
                if (A.PC != B.PC)
                  return A.PC < B.PC;
                return A.Original < B.Original;
              });
  }
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
