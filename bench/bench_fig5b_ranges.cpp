//===- bench/bench_fig5b_ranges.cpp - Figure 5b -----------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Figure 5b: how many benchmarks yield an improvable root cause with the
// three input-characteristic configurations: ranges off, a single range
// per variable, and sign-split ranges. The paper finds the configurations
// roughly tied on the FPBench micro-benchmarks (and conjectures larger
// programs would differentiate them).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace herbgrind;
using namespace herbgrind::bench;
using namespace herbgrind::improve;

int main() {
  std::printf("Figure 5b: improvable benchmarks vs range characteristic\n");
  std::printf("%12s %22s %12s\n", "ranges", "causes judged bad",
              "improvable");
  for (RangeMode Mode :
       {RangeMode::Off, RangeMode::Single, RangeMode::SignSplit}) {
    int Significant = 0;
    int Improvable = 0;
    for (const fpcore::Core &C : fpcore::corpus()) {
      if (!isStraightLine(*C.Body))
        continue;
      AnalysisConfig Cfg;
      Cfg.Ranges = Mode;
      auto HG = analyzeCore(C, /*Samples=*/32, Cfg);
      std::vector<uint32_t> Causes = HG->records().reportedRootCauses();
      bool AnySig = false, AnyImp = false;
      size_t Limit = std::min<size_t>(Causes.size(), 2);
      for (size_t I = 0; I < Limit && !AnyImp; ++I) {
        const OpRecord &Rec = HG->opRecords().at(Causes[I]);
        fpcore::ExprPtr Frag = fromSymExpr(*Rec.Expr);
        uint32_t NumVars = Rec.Expr->numVars();
        std::vector<std::string> Params;
        for (uint32_t V = 0; V < NumVars; ++V)
          Params.push_back(SymExpr::varName(V));
        ImproveConfig ICfg;
        ICfg.SampleCount = 96;
        ImproveResult Judge = improveExpr(
            *Frag, Params,
            specsFromCharacteristics(Rec.TotalInputs, NumVars, Mode), ICfg);
        AnySig |= Judge.HadSignificantError;
        AnyImp |= Judge.HadSignificantError && Judge.Improved;
      }
      Significant += AnySig;
      Improvable += AnyImp;
    }
    const char *Name = Mode == RangeMode::Off        ? "off"
                       : Mode == RangeMode::Single   ? "single"
                                                     : "sign-split";
    std::printf("%12s %22d %12d\n", Name, Significant, Improvable);
  }
  return 0;
}
