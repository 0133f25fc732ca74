//===- bench/bench_sec83_compensation.cpp - Section 8.3 ---------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// The compensation-detection experiment (Section 8.3). The paper runs
// Herbgrind on Shewchuk's Triangle and finds the detector handles all but
// 14 of 225 compensating terms; the missed ones feed control flow (the
// adaptive precision tests), where the shadow-real value of a compensating
// term (exactly zero) sends the branch "the wrong way".
//
// Our Triangle stand-in evaluates a fleet of compensated orient2d
// predicates (two-product + two-diff expansions with an adaptivity
// branch, as in examples/triangle_compensated.cpp) on degenerate inputs
// and counts: compensating operations detected and suppressed, and
// compensation sites that still leak to spots through the adaptive
// branch.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <memory>

using namespace herbgrind;
using namespace herbgrind::bench;

namespace {

/// One compensated orient2d with an adaptive branch (see the example for
/// the annotated version).
Program buildAdaptiveOrient2d() {
  ProgramBuilder B;
  using T = ProgramBuilder::Temp;
  B.setLoc(SourceLoc("predicates.c", 735, "orient2dadapt"));
  T Ax = B.input(0), Ay = B.input(1);
  T Bx = B.input(2), By = B.input(3);
  T Cx = B.input(4), Cy = B.input(5);
  T Acx = B.op(Opcode::SubF64, Ax, Cx);
  T Bcx = B.op(Opcode::SubF64, Bx, Cx);
  T Acy = B.op(Opcode::SubF64, Ay, Cy);
  T Bcy = B.op(Opcode::SubF64, By, Cy);
  T DetLeft = B.op(Opcode::MulF64, Acx, Bcy);
  T DetRight = B.op(Opcode::MulF64, Acy, Bcx);
  T Det = B.op(Opcode::SubF64, DetLeft, DetRight);
  T ErrLeft = B.op(Opcode::FmaF64, Acx, Bcy, B.op(Opcode::NegF64, DetLeft));
  T ErrRight =
      B.op(Opcode::FmaF64, Acy, Bcx, B.op(Opcode::NegF64, DetRight));
  T BVirt = B.op(Opcode::SubF64, DetLeft, Det);
  T ARound = B.op(Opcode::SubF64, DetLeft, B.op(Opcode::AddF64, Det, BVirt));
  T BRound = B.op(Opcode::SubF64, BVirt, DetRight);
  T DiffErr = B.op(Opcode::AddF64, ARound, BRound);
  T Correction =
      B.op(Opcode::AddF64, DiffErr, B.op(Opcode::SubF64, ErrLeft, ErrRight));
  T Exact = B.op(Opcode::AddF64, Det, Correction);
  B.setLoc(SourceLoc("predicates.c", 834, "orient2dadapt"));
  T ErrBound =
      B.op(Opcode::MulF64, B.constF64(1e-15), B.op(Opcode::AbsF64, Det));
  T TakeExact = B.op(Opcode::CmpGEF64, B.op(Opcode::AbsF64, Correction),
                     ErrBound);
  auto ExactPath = B.newLabel();
  B.branchIf(TakeExact, ExactPath);
  B.out(Det);
  B.halt();
  B.bind(ExactPath);
  B.out(Exact);
  B.halt();
  return B.finish();
}

} // namespace

int main() {
  Program P = buildAdaptiveOrient2d();
  Rng R(404);

  auto RunWith = [&](bool Detect) {
    AnalysisConfig Cfg;
    Cfg.DetectCompensation = Detect;
    auto HG = std::make_unique<Herbgrind>(P, Cfg);
    Rng Local(404);
    // A Triangle-like workload: mostly well-conditioned triangles (the
    // fast path suffices and both executions agree), with a minority of
    // nearly-collinear ones where the adaptivity branch fires.
    for (int I = 0; I < 225; ++I) {
      double X2 = Local.uniformReal(1.0, 20.0);
      double Y2 = Local.uniformReal(1.0, 20.0);
      double T = Local.uniformReal(0.1, 0.9);
      bool Degenerate = I % 16 == 0;
      double Off = Degenerate ? Local.uniformReal(-1e-12, 1e-12)
                              : Local.uniformReal(0.5, 3.0);
      HG->runOnInput({0.0, 0.0, X2, Y2, T * X2, T * Y2 + Off});
    }
    return HG;
  };
  (void)R;

  auto On = RunWith(true);
  auto Off = RunWith(false);

  uint64_t Detected = 0;
  uint64_t FlaggedCompSites = 0;
  for (const auto &[PC, Rec] : On->opRecords()) {
    Detected += Rec.CompensationsDetected;
    // Compensation machinery sites: adds/subs beyond the fast det.
    if (Rec.Flagged > 0 && Rec.Loc.Line == 735 && PC > 14)
      ++FlaggedCompSites;
  }
  uint64_t MissedViaControlFlow = 0;
  uint64_t BranchEvals = 0;
  for (const auto &[PC, Spot] : On->spotRecords()) {
    if (Spot.Kind != SpotKind::Comparison)
      continue;
    BranchEvals += Spot.Executions;
    MissedViaControlFlow += Spot.Erroneous;
  }

  std::printf("Section 8.3 compensation detection "
              "(paper: 211 of 225 handled; 14 missed via control flow)\n\n");
  std::printf("compensated operations handled (influence suppressed): "
              "%llu\n",
              static_cast<unsigned long long>(Detected));
  std::printf("adaptivity-branch evaluations:                         "
              "%llu\n",
              static_cast<unsigned long long>(BranchEvals));
  std::printf("missed cases (compensating term reached control flow): "
              "%llu\n",
              static_cast<unsigned long long>(MissedViaControlFlow));
  std::printf("reported root causes, detection on:                    "
              "%zu\n",
              On->records().reportedRootCauses().size());
  std::printf("reported root causes, detection off:                   "
              "%zu\n",
              Off->records().reportedRootCauses().size());
  return 0;
}
