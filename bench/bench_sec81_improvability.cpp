//===- bench/bench_sec81_improvability.cpp - Section 8.1 -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Regenerates the Section 8.1 improvability experiment. The paper (86
// benchmarks): the oracle finds 30 with significant error (>5 bits);
// Herbgrind detects 29 of those (96%); the improver confirms significant
// error in 25 of the reported root causes (86%); end-to-end 25/30 (83%)
// of erroneous benchmarks get an improvable root cause.
//
// Pipeline per benchmark:
//  1. oracle: judge the benchmark body directly on its :pre ranges;
//  2. Herbgrind: compile, analyze on sampled inputs, take root causes;
//  3. judge: convert the top root causes to FPCore, sample them on their
//     recorded input characteristics, check error and improvability.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace herbgrind;
using namespace herbgrind::bench;
using namespace herbgrind::improve;

int main() {
  int Total = 0;
  int OracleSignificant = 0;
  int OracleImprovable = 0;
  int HGDetected = 0;
  int HGCauseSignificant = 0;
  int HGCauseImprovable = 0;

  ImproveConfig ICfg;
  ICfg.SampleCount = 128;

  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!isStraightLine(*C.Body))
      continue; // the oracle/judge handles pure expressions, like Herbie
    ++Total;

    // (1) Oracle: extract the expression straight from source.
    ImproveResult Oracle =
        improveExpr(*C.Body, C.Params, specsFromPre(C), ICfg);
    bool Significant = Oracle.HadSignificantError;
    OracleSignificant += Significant;
    OracleImprovable += Significant && Oracle.Improved;
    if (!Significant)
      continue;

    // (2) Herbgrind on the compiled binary.
    auto HG = analyzeCore(C, /*Samples=*/48);
    std::vector<uint32_t> Causes = HG->records().reportedRootCauses();
    if (Causes.empty())
      continue;
    ++HGDetected;

    // (3) Judge the top root causes with the improver.
    bool AnySignificant = false;
    bool AnyImprovable = false;
    size_t Limit = std::min<size_t>(Causes.size(), 3);
    for (size_t I = 0; I < Limit && !AnyImprovable; ++I) {
      const OpRecord &Rec = HG->opRecords().at(Causes[I]);
      if (!Rec.Expr)
        continue;
      fpcore::ExprPtr Frag = fromSymExpr(*Rec.Expr);
      uint32_t NumVars = Rec.Expr->numVars();
      std::vector<std::string> Params;
      for (uint32_t V = 0; V < NumVars; ++V)
        Params.push_back(SymExpr::varName(V));
      std::vector<SampleSpec> Specs = specsFromCharacteristics(
          Rec.TotalInputs, NumVars, HG->config().Ranges);
      ImproveResult Judge = improveExpr(*Frag, Params, Specs, ICfg);
      AnySignificant |= Judge.HadSignificantError;
      AnyImprovable |= Judge.HadSignificantError && Judge.Improved;
    }
    HGCauseSignificant += AnySignificant;
    HGCauseImprovable += AnyImprovable;
  }

  std::printf("Section 8.1 improvability (paper, 86 benchmarks: 30 / 30 / "
              "29 / 25 / 25)\n\n");
  std::printf("benchmarks (straight-line)                  %3d\n", Total);
  std::printf("oracle: significant error (>5 bits)         %3d\n",
              OracleSignificant);
  std::printf("oracle: improvable                          %3d\n",
              OracleImprovable);
  std::printf("Herbgrind: detected + root cause reported   %3d  (%.0f%%)\n",
              HGDetected,
              100.0 * HGDetected / std::max(1, OracleSignificant));
  std::printf("root cause judged significant by improver   %3d\n",
              HGCauseSignificant);
  std::printf("root cause improvable end-to-end            %3d  (%.0f%%)\n",
              HGCauseImprovable,
              100.0 * HGCauseImprovable / std::max(1, OracleSignificant));
  return 0;
}
