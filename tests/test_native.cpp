//===- tests/test_native.cpp - Native frontend parity suite ---------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The native frontend's contract: (1) for the same math on the same
// inputs, a native::Real run and a ProgramBuilder IR run produce
// semantically identical reports -- same root-cause operations at the
// same source locations with the same error bits -- and, at tier 0, the
// same verdict on every input and the same op count; (2) dynamic
// executions of one source operation merge into one record, loops
// included; (3) a native kernel swept through engine::Engine is
// byte-identical across --jobs values, across reset/reuse, and across
// cold/warm result caches.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"

#include "engine/Engine.h"
#include "fpcore/Corpus.h"
#include "native/Context.h"
#include "native/Kernel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <unistd.h>

using namespace herbgrind;
using native::Real;

namespace {

//===----------------------------------------------------------------------===//
// Semantic report equality (everything but the pc numbering, which is an
// interpreter program counter on one side and a content hash on the other)
//===----------------------------------------------------------------------===//

const RootCauseReport *findCause(const SpotReport &SR,
                                 const std::string &Loc) {
  for (const RootCauseReport &RC : SR.RootCauses)
    if (RC.Loc.str() == Loc)
      return &RC;
  return nullptr;
}

const SpotReport *findSpot(const Report &R, SpotKind Kind,
                           const std::string &Loc) {
  for (const SpotReport &SR : R.Spots)
    if (SR.Kind == Kind && SR.Loc.str() == Loc)
      return &SR;
  return nullptr;
}

/// Asserts that two reports describe the same analysis outcome: spots
/// matched by (kind, location) with equal counters and error bits, and
/// root causes matched by location with equal expressions, preconditions,
/// flag counts, and example inputs.
void expectSemanticallyEqual(const Report &Native, const Report &Ir) {
  ASSERT_EQ(Native.Spots.size(), Ir.Spots.size());
  for (const SpotReport &NS : Native.Spots) {
    SCOPED_TRACE("spot @ " + NS.Loc.str());
    const SpotReport *IS = findSpot(Ir, NS.Kind, NS.Loc.str());
    ASSERT_NE(IS, nullptr);
    EXPECT_EQ(NS.Executions, IS->Executions);
    EXPECT_EQ(NS.Erroneous, IS->Erroneous);
    EXPECT_EQ(NS.MaxErrorBits, IS->MaxErrorBits);
    ASSERT_EQ(NS.RootCauses.size(), IS->RootCauses.size());
    for (const RootCauseReport &NC : NS.RootCauses) {
      SCOPED_TRACE("cause @ " + NC.Loc.str());
      const RootCauseReport *IC = findCause(*IS, NC.Loc.str());
      ASSERT_NE(IC, nullptr);
      EXPECT_EQ(NC.Body, IC->Body);
      EXPECT_EQ(NC.FPCore, IC->FPCore);
      EXPECT_EQ(NC.NumVars, IC->NumVars);
      EXPECT_EQ(NC.Flagged, IC->Flagged);
      EXPECT_EQ(NC.MaxLocalError, IC->MaxLocalError);
      EXPECT_EQ(NC.AvgLocalError, IC->AvgLocalError);
      EXPECT_EQ(NC.ExampleInput, IC->ExampleInput);
    }
  }
}

SourceLoc loc(int Line) { return SourceLoc("parity.c", Line, "f"); }

/// Each parity program is written twice: as a native kernel body and as
/// ProgramBuilder IR of the same math, run on the same input tuples.
using KernelFn = std::function<void(native::Context &, const double *, size_t)>;
using Tuples = std::vector<std::vector<double>>;

/// Runs \p Fn on every tuple, each through Context::run (so each input
/// gets its own tier-0 verdict).
void runNative(native::Context &C, const KernelFn &Fn, const Tuples &In) {
  native::Kernel K;
  K.Name = "parity";
  K.Fn = Fn;
  for (const std::vector<double> &X : In)
    C.run(K, X);
}

Report nativeReport(const KernelFn &Fn, const Tuples &In,
                    const AnalysisConfig &Cfg) {
  native::Context C(Cfg);
  runNative(C, Fn, In);
  return buildReport(C);
}

Report irReport(const Program &P, const Tuples &In,
                const AnalysisConfig &Cfg) {
  Herbgrind HG(P, Cfg);
  for (const std::vector<double> &X : In)
    HG.runOnInput(X);
  return buildReport(HG);
}

//===----------------------------------------------------------------------===//
// Parity 1: (x + 1) - x, the canonical cancellation
//===----------------------------------------------------------------------===//

const Tuples CancelInputs = {{2.0}, {1e8}, {1e15}, {1e16}, {4e16}};

void cancelNative(native::Context &C, const double *, size_t) {
  Real X = C.input(0);
  C.setLoc(loc(1));
  Real Sum = X + 1.0;
  C.setLoc(loc(2));
  Real Diff = Sum - X;
  C.setLoc(loc(3));
  C.output(Diff);
}

Program cancelIr() {
  ProgramBuilder B;
  auto X = B.input(0);
  B.setLoc(loc(1));
  auto Sum = B.op(Opcode::AddF64, X, B.constF64(1.0));
  B.setLoc(loc(2));
  auto Diff = B.op(Opcode::SubF64, Sum, X);
  B.setLoc(loc(3));
  B.out(Diff);
  B.halt();
  return B.finish();
}

TEST(NativeParity, Cancellation) {
  AnalysisConfig Cfg;
  Report N = nativeReport(cancelNative, CancelInputs, Cfg);
  expectSemanticallyEqual(N, irReport(cancelIr(), CancelInputs, Cfg));
  // The report is non-trivial: the subtraction is blamed.
  ASSERT_EQ(N.Spots.size(), 1u);
  ASSERT_FALSE(N.Spots[0].RootCauses.empty());
  EXPECT_EQ(N.Spots[0].RootCauses[0].Loc.str(), loc(2).str());
}

//===----------------------------------------------------------------------===//
// Parity 2: sqrt(x*x + y*y) - x, cancellation behind a sqrt
//===----------------------------------------------------------------------===//

const Tuples DistInputs = {{3.0, 4.0}, {1e8, 1.0}, {3e7, 2.0}, {1e8, 0.5}};

void distNative(native::Context &C, const double *, size_t) {
  Real X = Real::input(0), Y = Real::input(1);
  C.setLoc(loc(11));
  Real H = sqrt(X * X + Y * Y);
  C.setLoc(loc(12));
  Real D = H - X;
  C.setLoc(loc(13));
  C.output(D);
}

Program distIr() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto Y = B.input(1);
  B.setLoc(loc(11));
  auto H = B.op(Opcode::SqrtF64,
                B.op(Opcode::AddF64, B.op(Opcode::MulF64, X, X),
                     B.op(Opcode::MulF64, Y, Y)));
  B.setLoc(loc(12));
  auto D = B.op(Opcode::SubF64, H, X);
  B.setLoc(loc(13));
  B.out(D);
  B.halt();
  return B.finish();
}

TEST(NativeParity, SqrtCancellation) {
  AnalysisConfig Cfg;
  expectSemanticallyEqual(nativeReport(distNative, DistInputs, Cfg),
                          irReport(distIr(), DistInputs, Cfg));
}

// The native x*x and y*y share one source line and opcode, so they merge
// into a single record -- the documented (location, opcode) identity. The
// IR build above inherits the same granularity through its shared setLoc,
// but records them at two pcs; the *reported* causes still agree because
// neither mul is erroneous. Check the native-side record shape directly.
TEST(NativeParity, SameLineSameOpcodeMerges) {
  AnalysisConfig Cfg;
  native::Context C(Cfg);
  std::vector<double> In = {3.0, 4.0};
  C.bindInputs(In.data(), In.size());
  Real X = Real::input(0), Y = Real::input(1);
  C.setLoc(loc(11));
  Real H = sqrt(X * X + Y * Y);
  C.output(H);
  unsigned Muls = 0;
  for (const auto &[PC, Rec] : C.opRecords())
    if (Rec.Op == Opcode::MulF64) {
      ++Muls;
      EXPECT_EQ(Rec.Executions, 2u); // both muls of the one evaluation
    }
  EXPECT_EQ(Muls, 1u);
}

//===----------------------------------------------------------------------===//
// Parity 3: sin^2 + cos^2 - 1, wrapped library calls
//===----------------------------------------------------------------------===//

const Tuples TrigInputs = {{0.5}, {1.25}, {2.0}, {3.0}};

void trigNative(native::Context &C, const double *, size_t) {
  Real X = C.input(0);
  // One location per operation: the (location, opcode) identity then
  // corresponds 1:1 with the IR build's per-pc records.
  C.setLoc(loc(21));
  Real S = sin(X);
  C.setLoc(loc(22));
  Real Co = cos(X);
  C.setLoc(loc(23));
  Real S2 = S * S;
  C.setLoc(loc(24));
  Real C2 = Co * Co;
  C.setLoc(loc(25));
  Real Sum = S2 + C2;
  C.setLoc(loc(26));
  Real R = Sum - 1.0;
  C.setLoc(loc(27));
  C.output(R);
}

Program trigIr() {
  ProgramBuilder B;
  auto X = B.input(0);
  B.setLoc(loc(21));
  auto S = B.op(Opcode::SinF64, X);
  B.setLoc(loc(22));
  auto Co = B.op(Opcode::CosF64, X);
  B.setLoc(loc(23));
  auto S2 = B.op(Opcode::MulF64, S, S);
  B.setLoc(loc(24));
  auto C2 = B.op(Opcode::MulF64, Co, Co);
  B.setLoc(loc(25));
  auto Sum = B.op(Opcode::AddF64, S2, C2);
  B.setLoc(loc(26));
  auto R = B.op(Opcode::SubF64, Sum, B.constF64(1.0));
  B.setLoc(loc(27));
  B.out(R);
  B.halt();
  return B.finish();
}

TEST(NativeParity, WrappedLibraryCalls) {
  AnalysisConfig Cfg;
  // Sub-bit local errors matter in this identity; flag them.
  Cfg.LocalErrorThreshold = 0.01;
  expectSemanticallyEqual(nativeReport(trigNative, TrigInputs, Cfg),
                          irReport(trigIr(), TrigInputs, Cfg));
}

//===----------------------------------------------------------------------===//
// Parity 4: an accumulation loop (the Patriot mechanism), plus merging
//===----------------------------------------------------------------------===//

const Tuples LoopBounds = {{0.7}, {1.0}, {2.0}};

void loopNative(native::Context &C, const double *, size_t) {
  Real Limit = C.input(0);
  Real T = 0.0;
  C.setLoc(loc(31));
  while (T < Limit) {
    C.setLoc(loc(32));
    T += 0.1;
    C.setLoc(loc(31)); // re-stamp the loop condition's site
  }
  C.setLoc(loc(33));
  C.output(T);
}

Program loopIr() {
  ProgramBuilder B;
  using T = ProgramBuilder::Temp;
  T Limit = B.input(0);
  T Acc = B.newTemp();
  B.copyTo(Acc, B.constF64(0.0));
  T Step = B.constF64(0.1);
  auto Head = B.newLabel();
  auto Done = B.newLabel();
  B.bind(Head);
  B.setLoc(loc(31));
  B.branchIf(B.op(Opcode::CmpGEF64, Acc, Limit), Done);
  B.setLoc(loc(32));
  B.copyTo(Acc, B.op(Opcode::AddF64, Acc, Step));
  B.jump(Head);
  B.bind(Done);
  B.setLoc(loc(33));
  B.out(Acc);
  B.halt();
  return B.finish();
}

TEST(NativeParity, AccumulationLoop) {
  AnalysisConfig Cfg;
  Cfg.LocalErrorThreshold = 0.01; // track the sub-bit increment error
  native::Context C(Cfg);
  runNative(C, loopNative, LoopBounds);
  uint64_t AddExecs = 0;
  for (const auto &[PC, Rec] : C.opRecords())
    if (Rec.Op == Opcode::AddF64)
      AddExecs = Rec.Executions;
  // Loop merging: every iteration of every run lands in ONE record
  // (0.7 -> 8 trips, 1.0 -> 10, 2.0 -> 20 with drift; at least 3 runs'
  // worth merged, certainly more than one trip's).
  EXPECT_GT(AddExecs, 30u);
  // The while condition diverges at a drifted boundary and the report
  // blames the increment. (The IR build uses the inverted branch
  // predicate the compiler would emit; divergence is predicate-neutral.)
  Report N = buildReport(C);
  expectSemanticallyEqual(N, irReport(loopIr(), LoopBounds, Cfg));
  const SpotReport *Cmp = findSpot(N, SpotKind::Comparison, loc(31).str());
  ASSERT_NE(Cmp, nullptr);
  EXPECT_GT(Cmp->Erroneous, 0u);
  ASSERT_NE(findCause(*Cmp, loc(32).str()), nullptr);
}

//===----------------------------------------------------------------------===//
// Tier-0 parity: both frontends reach the same verdicts
//===----------------------------------------------------------------------===//

/// Runs one piece of math through both frontends at tier 0. Each input
/// must get the same verdict on both sides, and both must count the same
/// shadow ops. Returns how many inputs were suspect.
unsigned expectSameTier0(const KernelFn &Fn, const Program &P,
                         const Tuples &In) {
  AnalysisConfig Cfg;
  Cfg.PredicateOnly = true;
  Herbgrind HG(P, Cfg);
  native::Context C(Cfg);
  native::Kernel K;
  K.Name = "tier0";
  K.Fn = Fn;
  unsigned Suspect = 0;
  for (size_t I = 0; I < In.size(); ++I) {
    HG.runOnInput(In[I]);
    C.run(K, In[I]);
    EXPECT_EQ(HG.lastRunSuspect(), C.lastRunSuspect()) << "input " << I;
    Suspect += C.lastRunSuspect();
  }
  EXPECT_EQ(HG.stats().ShadowOpsExecuted, C.stats().ShadowOpsExecuted);
  return Suspect;
}

TEST(NativeParity, Tier0VerdictsMatchOnTheParityPrograms) {
  unsigned Suspect = expectSameTier0(cancelNative, cancelIr(), CancelInputs) +
                     expectSameTier0(distNative, distIr(), DistInputs) +
                     expectSameTier0(trigNative, trigIr(), TrigInputs) +
                     expectSameTier0(loopNative, loopIr(), LoopBounds);
  // Both verdicts occur, so agreement is not vacuous.
  const size_t Runs = CancelInputs.size() + DistInputs.size() +
                      TrigInputs.size() + LoopBounds.size();
  EXPECT_GT(Suspect, 0u);
  EXPECT_LT(Suspect, Runs);
}

TEST(NativeParity, Tier0VerdictsMatchOnSeededPrograms) {
  unsigned Suspect = 0, Runs = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    Rng R(Seed);
    unsigned Arity = 1 + static_cast<unsigned>(R.nextBelow(3));
    unsigned NumOps = 3 + static_cast<unsigned>(R.nextBelow(6));
    std::vector<diffharness::RandNativeOp> Ops =
        diffharness::randomNativeProgram(R, Arity, NumOps);
    Tuples In(8);
    for (std::vector<double> &X : In)
      for (unsigned V = 0; V < Arity; ++V)
        X.push_back(R.chance(1, 2) ? R.uniformReal(-10.0, 10.0)
                                   : R.uniformReal(1.0, 1e12));
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Suspect += expectSameTier0(diffharness::nativeProgramFn(Arity, Ops),
                               diffharness::irProgram(Arity, Ops), In);
    Runs += In.size();
  }
  EXPECT_GT(Suspect, 0u);
  EXPECT_LT(Suspect, Runs);
}

//===----------------------------------------------------------------------===//
// Conversion spots and unshadowed fallback
//===----------------------------------------------------------------------===//

TEST(NativeContext, ConversionSpotCatchesDriftedTruncation) {
  AnalysisConfig Cfg;
  native::Context C(Cfg);
  Real T = 0.0;
  C.setLoc(loc(41));
  for (int I = 0; I < 10; ++I)
    T += 0.1; // sums to 0.9999... under doubles, 1.0 in the reals
  C.setLoc(loc(42));
  EXPECT_EQ(T.toInt64(), 0); // native semantics: truncation of 0.999...
  const auto &Spots = C.spotRecords();
  ASSERT_EQ(Spots.size(), 1u);
  const SpotRecord &Spot = Spots.begin()->second;
  EXPECT_EQ(Spot.Kind, SpotKind::Conversion);
  EXPECT_EQ(Spot.Erroneous, 1u); // the real truncation is 1, not 0
}

TEST(NativeReal, UnshadowedMathOutsideAnyContext) {
  // No context anywhere: plain double behavior, nothing recorded.
  ASSERT_EQ(native::Context::active(), nullptr);
  Real X = 2.0;
  Real Y = sqrt(X * X + 2.25);
  EXPECT_EQ(Y.value(), 2.5);
  EXPECT_FALSE(Y.shadowed());
  EXPECT_EQ((Y > X), true);
  EXPECT_EQ(Y.toInt64(), 2);
}

TEST(NativeContext, ResetReproducesFreshRecords) {
  const native::Kernel &K = native::demoKernels()[0];
  AnalysisConfig Cfg;
  native::Context C(Cfg);
  std::vector<double> In = {1e15};
  C.run(K, In);
  std::string First = buildReport(C).renderJson();
  C.reset();
  EXPECT_TRUE(C.opRecords().empty());
  C.run(K, In);
  EXPECT_EQ(buildReport(C).renderJson(), First);
}

TEST(NativeContext, ResetClearsTheCurrentLocation) {
  // A kernel whose first op runs before any HG_LOC must record it under
  // the unknown location on a reset context exactly as on a fresh one;
  // a stale CurLoc from the previous shard would re-key the records and
  // break --jobs byte-identity.
  native::Kernel Unmarked;
  Unmarked.Name = "unmarked";
  Unmarked.Inputs = {{1.0, 2.0}};
  Unmarked.Fn = [](native::Context &C, const double *, size_t) {
    Real X = C.input(0);
    Real Y = X * X; // no HG_LOC anywhere
    C.output(Y);
  };
  std::vector<double> In = {1.5};
  AnalysisConfig Cfg;
  native::Context Fresh(Cfg);
  Fresh.run(Unmarked, In);

  native::Context Recycled(Cfg);
  Recycled.run(native::demoKernels()[0], In); // leaves HG_LOC state behind
  Recycled.reset();
  Recycled.run(Unmarked, In);

  ASSERT_EQ(Fresh.opRecords().size(), Recycled.opRecords().size());
  EXPECT_EQ(Fresh.opRecords().begin()->first,
            Recycled.opRecords().begin()->first);
  EXPECT_EQ(buildReport(Fresh).renderJson(),
            buildReport(Recycled).renderJson());
}

TEST(NativeContext, EachInvocationStartsAtTheUnknownLocation) {
  // Without this, a pre-HG_LOC op in invocation 2..N of a shard would
  // key under the previous invocation's tail location, making record
  // ids depend on how runs are batched into shards.
  native::Kernel Unmarked;
  Unmarked.Name = "unmarked";
  Unmarked.Inputs = {{1.0, 2.0}};
  Unmarked.Fn = [](native::Context &C, const double *, size_t) {
    Real X = C.input(0);
    C.output(X * X); // no HG_LOC anywhere
  };
  std::vector<double> In = {1.5};
  AnalysisConfig Cfg;
  native::Context Fresh(Cfg);
  Fresh.run(Unmarked, In);

  native::Context Mixed(Cfg);
  Mixed.run(native::demoKernels()[0], In); // tail leaves HG_LOC state
  Mixed.run(Unmarked, In);
  for (const auto &[PC, Rec] : Fresh.opRecords()) {
    auto It = Mixed.opRecords().find(PC);
    ASSERT_NE(It, Mixed.opRecords().end());
    EXPECT_EQ(It->second.Executions, Rec.Executions);
  }
}

void stampFromNamedFunction(native::Context &C) { HG_LOC(C); }

TEST(NativeContext, HgLocCapturesTheEnclosingFunction) {
  // __func__ must be evaluated at the expansion site, not inside the
  // macro's helper lambda ("operator()") -- the function name is part of
  // the site-identity hash.
  AnalysisConfig Cfg;
  native::Context C(Cfg);
  stampFromNamedFunction(C);
  EXPECT_EQ(C.loc().Function, "stampFromNamedFunction");
  EXPECT_NE(C.loc().File.find("test_native.cpp"), std::string::npos);
}

TEST(NativeContext, ReinterningIsNotACollision) {
  // Re-stamping locations (every loop trip invalidates the site cache)
  // re-interns the same sites; the collision counter must only count
  // genuinely distinct sites sharing a hash.
  AnalysisConfig Cfg;
  native::Context C(Cfg);
  std::vector<double> In = {2.0};
  for (int I = 0; I < 5; ++I)
    C.run(native::demoKernels()[2], In); // the step loop re-stamps HG_LOC
  EXPECT_EQ(C.stats().SiteCollisions, 0u);
}

TEST(NativeContext, NonLifoDestructionKeepsActiveChainSafe) {
  // The engine replaces a worker's heap-allocated context in place; the
  // activation stack must drop the destroyed element's entries instead of
  // leaving a dangling active() after the replacement dies.
  ASSERT_EQ(native::Context::active(), nullptr);
  auto P = std::make_unique<native::Context>();
  P = std::make_unique<native::Context>(); // old dies while new is active
  EXPECT_EQ(native::Context::active(), P.get());
  P.reset();
  EXPECT_EQ(native::Context::active(), nullptr);
  Real X = 2.0;
  EXPECT_EQ((X * X).value(), 4.0); // unshadowed fallback, no dangling ctx
}

TEST(NativeContext, DestroyingAnotherContextMidRunKeepsActiveSafe) {
  // A context destroyed while it sits below an Activation frame (another
  // context's run() in flight) must not resurface through active().
  ASSERT_EQ(native::Context::active(), nullptr);
  auto Victim = std::make_unique<native::Context>();
  native::Context C;
  native::Kernel K;
  K.Name = "destroyer";
  K.Inputs = {{0.0, 1.0}};
  K.Fn = [&Victim](native::Context &Ctx, const double *, size_t) {
    Victim.reset(); // dies mid-activation, below the run() frame
    Ctx.output(Ctx.input(0) + 1.0);
  };
  std::vector<double> In = {0.5};
  C.run(K, In);
  EXPECT_EQ(native::Context::active(), &C);
  Real R = 1.0;
  EXPECT_EQ((R + R).value(), 2.0); // dispatches through a live context
}

TEST(NativeContext, SiteIdsAreContextIndependent) {
  // Two independent contexts (as two engine workers would hold) number
  // the same kernel's sites identically -- the property shard merging
  // and result caching stand on.
  const native::Kernel &K = native::demoKernels()[1];
  AnalysisConfig Cfg;
  std::vector<double> In = {3.0, 4.0, 5.0};
  native::Context C1(Cfg), C2(Cfg);
  C1.run(K, In);
  C2.run(K, In);
  ASSERT_EQ(C1.opRecords().size(), C2.opRecords().size());
  auto It1 = C1.opRecords().begin();
  for (const auto &[PC, Rec] : C2.opRecords()) {
    EXPECT_EQ(It1->first, PC);
    EXPECT_EQ(It1->second.Op, Rec.Op);
    ++It1;
  }
  EXPECT_EQ(C1.stats().SiteCollisions, 0u);
}

//===----------------------------------------------------------------------===//
// Engine integration: sharding, jobs-invariance, caching
//===----------------------------------------------------------------------===//

struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-native-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
};

engine::EngineConfig smallConfig(unsigned Jobs) {
  engine::EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = 12;
  Cfg.ShardSize = 3; // several shards per kernel: merging is exercised
  return Cfg;
}

TEST(NativeEngine, JobsDoNotChangeTheBytes) {
  engine::Engine One(smallConfig(1));
  engine::Engine Four(smallConfig(4));
  engine::BatchResult R1 = One.run(native::demoKernels());
  engine::BatchResult R4 = Four.run(native::demoKernels());
  EXPECT_GT(R1.Stats.Runs, 0u);
  EXPECT_EQ(R1.renderJson(), R4.renderJson());
}

TEST(NativeEngine, CombinedCorpusAndNativeSweep) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus())
    if (C.Name == "NMSE example 3.1")
      Cores.push_back(C.clone());
  ASSERT_EQ(Cores.size(), 1u);
  engine::Engine E1(smallConfig(1)), E4(smallConfig(4));
  engine::BatchResult R1 = E1.run(Cores, native::demoKernels());
  engine::BatchResult R4 = E4.run(Cores, native::demoKernels());
  ASSERT_EQ(R1.Benchmarks.size(), 1 + native::demoKernels().size());
  EXPECT_EQ(R1.Benchmarks[0].Name, "NMSE example 3.1");
  EXPECT_EQ(R1.renderJson(), R4.renderJson());
}

TEST(NativeEngine, WarmCacheAnalyzesNothingAndMatchesBytes) {
  TempDir Dir("cache");
  engine::EngineConfig Cfg = smallConfig(2);
  Cfg.CacheDir = Dir.Path;
  engine::Engine Eng(Cfg);
  engine::BatchResult Cold = Eng.run(native::demoKernels());
  EXPECT_GT(Cold.Stats.AnalyzedShards, 0u);
  engine::BatchResult Warm = Eng.run(native::demoKernels());
  EXPECT_EQ(Warm.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Warm.Stats.CachedShards, Warm.Stats.Shards);
  EXPECT_EQ(Cold.renderJson(), Warm.renderJson());
}

TEST(NativeEngine, KernelIdentityKeysTheCache) {
  // Same name, different identity: the cache must miss (this is the
  // "bump Identity when the math changes" contract).
  TempDir Dir("ident");
  engine::EngineConfig Cfg = smallConfig(1);
  Cfg.CacheDir = Dir.Path;
  native::Kernel K = native::demoKernels()[0];
  {
    engine::Engine Eng(Cfg);
    engine::BatchResult R = Eng.run({K});
    EXPECT_GT(R.Stats.AnalyzedShards, 0u);
  }
  K.Identity = "cancel-v2";
  {
    engine::Engine Eng(Cfg);
    engine::BatchResult R = Eng.run({K});
    EXPECT_GT(R.Stats.AnalyzedShards, 0u); // fresh identity, no hits
  }
}

} // namespace
