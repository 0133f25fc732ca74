//===- bench/bench_fig5cd_depth.cpp - Figures 5c and 5d ---------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Figures 5c/5d: the effect of the maximum tracked expression depth on
// runtime (5c) and on how many benchmarks yield an improvable root cause
// (5d). Depth 1 "effectively disables symbolic expression tracking, and
// only reports the operation where error is detected" -- faster, but none
// of the resulting expressions are improvable; deeper tracking costs time
// and plateaus in usefulness.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <memory>

using namespace herbgrind;
using namespace herbgrind::bench;
using namespace herbgrind::improve;

int main() {
  std::printf("Figures 5c/5d: expression depth vs runtime and "
              "improvability\n");
  std::printf("%7s %12s %14s %12s\n", "depth", "runtime (s)",
              "judged bad", "improvable");
  for (uint32_t Depth : {1u, 2u, 3u, 5u, 10u, 24u}) {
    int Significant = 0;
    int Improvable = 0;
    double Elapsed = 0.0; // Fig 5c times the analysis alone
    {
      // Loop-bearing benchmarks included: their long accumulation chains
      // are what deep traces cost time on (extracted fragments stay
      // loop-free, so the judge handles them regardless).
      for (const fpcore::Core &C : fpcore::corpus()) {
        AnalysisConfig Cfg;
        Cfg.MaxExprDepth = Depth;
        std::unique_ptr<Herbgrind> HG;
        Elapsed += timeIt([&] { HG = analyzeCore(C, /*Samples=*/32, Cfg); });
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
              specsFromCharacteristics(Rec.TotalInputs, NumVars,
                                       HG->config().Ranges),
              ICfg);
          AnySig |= Judge.HadSignificantError;
          AnyImp |= Judge.HadSignificantError && Judge.Improved;
        }
        Significant += AnySig;
        Improvable += AnyImp;
      }
    }
    std::printf("%7u %12.2f %14d %12d\n", Depth, Elapsed, Significant,
                Improvable);
  }
  return 0;
}
