//===- analysis/Analysis.cpp - The Herbgrind root-cause analysis ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "analysis/ErrorPredict.h"
#include "analysis/OpProfile.h"
#include "analysis/RealOps.h"
#include "ir/LibmLowering.h"
#include "support/FloatBits.h"
#include "support/LimbAlloc.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace herbgrind;

//===----------------------------------------------------------------------===//
// Construction and the skip analysis
//===----------------------------------------------------------------------===//

/// Decides statically that a statement can never touch float shadow state,
/// so the instrumented executor can run it bare (Section 6's use of the
/// static type analysis to minimize instrumentation).
static bool computeSkippable(const Statement &S,
                             const std::vector<ValueType> &TempTypes) {
  auto TempIsInt = [&](uint32_t T) { return TempTypes[T] == ValueType::I64; };
  switch (S.Kind) {
  case StmtKind::Branch:
  case StmtKind::Jump:
  case StmtKind::Call:
  case StmtKind::Ret:
  case StmtKind::Halt:
    // Control flow carries no shadow state; divergence is detected at the
    // comparison that computed the condition.
    return true;
  case StmtKind::Const:
    return S.Literal.Ty == ValueType::I64 && TempIsInt(S.Dst);
  case StmtKind::Copy:
    return TempIsInt(S.Dst) && TempIsInt(S.Args[0]);
  case StmtKind::Op: {
    const OpInfo &Info = opInfo(S.Op);
    if (Info.IsFloatOp || Info.IsComparison)
      return false;
    // Pure integer ops on integer-typed temps.
    if (Info.ResultTy != ValueType::I64 ||
        Info.OperandTy != ValueType::I64)
      return false;
    return TempIsInt(S.Dst);
  }
  default:
    // Inputs, memory and thread-state traffic always need shadow handling
    // (stores must invalidate overlapping shadows even for integers).
    return false;
  }
}

Herbgrind::Herbgrind(const Program &P, AnalysisConfig Config)
    : Herbgrind(Config,
                Config.WrapLibraryCalls ? Program(P) : lowerLibraryCalls(P)) {}

Herbgrind::Herbgrind(const AnalysisConfig &Config, Program &&Analyzed)
    : Analyzer(Config, Analyzed.numTemps()), Prog(std::move(Analyzed)),
      Machine(Prog, {}), TempTypes(inferTempTypes(Prog)) {
  assert(Prog.validate().empty() && "invalid program");
  Skippable.reserve(Prog.size());
  for (const Statement &S : Prog.statements())
    Skippable.push_back(computeSkippable(S, TempTypes));
}

void Herbgrind::reset() {
  Analyzer::reset();
  LastOutputs.clear();
  TotalSteps = 0;
  Skipped = 0;
}

AnalysisStats Herbgrind::stats() const {
  AnalysisStats St;
  St.InstrumentedSteps = TotalSteps;
  St.ShadowOpsExecuted = ShadowOps;
  St.SkippedByTypeAnalysis = Skipped;
  St.TraceNodesAllocated = Arena.totalAllocated();
  St.ShadowValuesAllocated = Shadow.totalValuesCreated();
  St.InfluenceSetsInterned = Sets.internedSets();
  return St;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

static double concreteAsDouble(const Value &V) {
  return V.Ty == ValueType::F32 ? static_cast<double>(V.F32) : V.F64;
}

/// A real rounded to the float type \p Ty.
static Value roundReal(const BigFloat &R, ValueType Ty) {
  return Ty == ValueType::F32 ? Value::ofF32(R.toFloat())
                              : Value::ofF64(R.toDouble());
}

/// Bits of error between two floats, both read as type \p Ty.
static double bitsOfErrorAs(ValueType Ty, const Value &A, const Value &B) {
  return Ty == ValueType::F32 ? bitsOfErrorFloat(A.F32, B.F32)
                              : bitsOfErrorDouble(A.F64, B.F64);
}

/// One lane of a (possibly SIMD) value as a scalar.
static Value laneOf(const Value &V, unsigned Lane) {
  if (V.Ty == ValueType::V2F64)
    return Value::ofF64(V.V2F64[Lane]);
  if (V.Ty == ValueType::V4F32)
    return Value::ofF32(V.V4F32[Lane]);
  return V;
}

/// Bits of error between a shadowed value's real and its concrete float
/// (Section 4.2's E); NaN concretes report maximal error per the paper.
static double shadowValueErrorBits(const ShadowValue *SV,
                                   const Value &Concrete) {
  bool ConcreteNaN = Concrete.Ty == ValueType::F32 ? std::isnan(Concrete.F32)
                                                   : std::isnan(Concrete.F64);
  // The paper reports NaN values as maximal error even when the shadow
  // real is NaN too (the Gram-Schmidt case study's "64 bits of error").
  if (ConcreteNaN)
    return Concrete.Ty == ValueType::F32 ? 32.0 : 64.0;
  if (!SV)
    return 0.0;
  return bitsOfErrorAs(SV->Ty, Concrete, roundReal(SV->Real, SV->Ty));
}

ShadowValue *Herbgrind::lazyShadow(uint32_t Temp, unsigned Lane,
                                   const Value &Concrete) {
  ShadowValue *SV = Shadow.tempLane(Temp, Lane);
  if (!SV) {
    SV = leaf(Concrete);
    Shadow.setTempLane(Temp, Lane, SV); // temp keeps the reference
  }
  return SV;
}

//===----------------------------------------------------------------------===//
// The main loop
//===----------------------------------------------------------------------===//

void Herbgrind::runOnInput(const std::vector<double> &Inputs) {
  MachineState &State = Machine;
  State.restart(Inputs);
  // Shadow state is per-run: concrete memory starts fresh, so stale shadow
  // cells from a previous run would be wrong. Resetting in place (instead
  // of rebuilding) keeps the value pool's slabs and the memory table's
  // buckets warm across the runs of a shard.
  Shadow.reset();
  RunSuspect = false;

  bool Running = true;
  while (Running && State.Steps < Cfg.MaxSteps) {
    uint32_t PC = State.PC;
    const Statement &S = Prog.stmt(PC);
    if (Cfg.UseTypeAnalysis && Skippable[PC]) {
      ++Skipped;
      Running = stepConcrete(Prog, State);
      continue;
    }
    // Capture operand concrete values before the concrete step (the
    // destination may alias an operand).
    Value Args[3];
    for (unsigned I = 0; I < S.NumArgs; ++I)
      Args[I] = State.Temps[S.Args[I]];
    Running = stepConcrete(Prog, State);
    shadowStep(S, PC, Args, State);
  }
  TotalSteps += State.Steps;
  // Swap rather than move: both vectors keep their capacity, and the next
  // restart clears the machine's.
  LastOutputs.swap(State.Outputs);
}

void Herbgrind::runOnBatch(const std::vector<double> *Inputs,
                           size_t NumInputs) {
  for (size_t I = 0; I < NumInputs; ++I)
    runOnInput(Inputs[I]);
}

//===----------------------------------------------------------------------===//
// Per-statement shadow semantics
//===----------------------------------------------------------------------===//

/// Lane geometry of a value type in untyped storage.
static void laneLayout(ValueType Ty, unsigned &NumLanes, unsigned &LaneSize,
                       ValueType &LaneTy) {
  switch (Ty) {
  case ValueType::V2F64:
    NumLanes = 2;
    LaneSize = 8;
    LaneTy = ValueType::F64;
    return;
  case ValueType::V4F32:
    NumLanes = 4;
    LaneSize = 4;
    LaneTy = ValueType::F32;
    return;
  case ValueType::F32:
    NumLanes = 1;
    LaneSize = 4;
    LaneTy = ValueType::F32;
    return;
  default:
    NumLanes = 1;
    LaneSize = 8;
    LaneTy = Ty;
    return;
  }
}

void Herbgrind::shadowStep(const Statement &S, uint32_t PC, const Value *Args,
                           MachineState &State) {
  switch (S.Kind) {
  case StmtKind::Const:
  case StmtKind::Input:
    // Lazily shadowed at first use; just make sure no stale shadow lives
    // in the destination temp.
    Shadow.clearTemp(S.Dst);
    return;

  case StmtKind::Copy: {
    // Copies share the shadow value (Section 6 "Sharing").
    ShadowValue *Lanes[4] = {nullptr, nullptr, nullptr, nullptr};
    for (unsigned L = 0; L < 4; ++L) {
      ShadowValue *SV = Shadow.tempLane(S.Args[0], L);
      Lanes[L] = SV ? Shadow.share(SV) : nullptr;
    }
    for (unsigned L = 0; L < 4; ++L)
      Shadow.setTempLane(S.Dst, L, Lanes[L]);
    return;
  }

  case StmtKind::Get:
  case StmtKind::Load: {
    unsigned NumLanes, LaneSize;
    ValueType LaneTy;
    laneLayout(S.AccessTy, NumLanes, LaneSize, LaneTy);
    Shadow.clearTemp(S.Dst);
    for (unsigned L = 0; L < NumLanes; ++L) {
      ShadowValue *SV;
      if (S.Kind == StmtKind::Get) {
        SV = Shadow.getThreadState(S.Disp + int64_t(L) * LaneSize, LaneSize);
      } else {
        uint64_t Addr = static_cast<uint64_t>(Args[0].asI64()) +
                        static_cast<uint64_t>(S.Disp) + L * LaneSize;
        SV = Shadow.getMemory(Addr, LaneSize);
      }
      if (SV && SV->Ty == LaneTy)
        Shadow.setTempLane(S.Dst, L, Shadow.share(SV));
    }
    return;
  }

  case StmtKind::Put:
  case StmtKind::Store: {
    const Value &Src = Args[S.Kind == StmtKind::Put ? 0 : 1];
    uint32_t SrcTemp = S.Args[S.Kind == StmtKind::Put ? 0 : 1];
    unsigned NumLanes, LaneSize;
    ValueType LaneTy;
    laneLayout(Src.Ty, NumLanes, LaneSize, LaneTy);
    (void)LaneTy;
    for (unsigned L = 0; L < NumLanes; ++L) {
      ShadowValue *SV = Shadow.tempLane(SrcTemp, L);
      ShadowValue *Stored = SV ? Shadow.share(SV) : nullptr;
      if (S.Kind == StmtKind::Put) {
        Shadow.putThreadState(S.Disp + int64_t(L) * LaneSize, LaneSize,
                              Stored);
      } else {
        uint64_t Addr = static_cast<uint64_t>(Args[0].asI64()) +
                        static_cast<uint64_t>(S.Disp) + L * LaneSize;
        Shadow.putMemory(Addr, LaneSize, Stored);
      }
    }
    return;
  }

  case StmtKind::Out:
    // Integer outputs flow through conversion spots already.
    if (Args[0].Ty != ValueType::I64)
      for (unsigned L = 0; L < Args[0].laneCount(); ++L)
        output(PC, S.Loc, Shadow.tempLane(S.Args[0], L), laneOf(Args[0], L));
    return;

  case StmtKind::Branch:
  case StmtKind::Jump:
  case StmtKind::Call:
  case StmtKind::Ret:
  case StmtKind::Halt:
    return;

  case StmtKind::Op:
    break;
  }

  const OpInfo &Info = opInfo(S.Op);

  if (Info.IsComparison) {
    const Value &Result = State.Temps[S.Dst];
    if (S.Op == Opcode::F64toI64)
      conversion(PC, S.Loc, Shadow.tempLane(S.Args[0], 0), Args[0],
                 Result.asI64());
    else
      comparison(S.Op, PC, S.Loc, Shadow.tempLane(S.Args[0], 0),
                 Shadow.tempLane(S.Args[1], 0), Args[0], Args[1],
                 Result.asI64() != 0);
    Shadow.clearTemp(S.Dst);
    return;
  }

  if (!Info.IsFloatOp) {
    // Integer op: the result carries no shadow.
    Shadow.clearTemp(S.Dst);
    return;
  }

  // Float-producing ops.
  switch (S.Op) {
  case Opcode::I64toF64:
  case Opcode::I64BitsToF64:
    // Fresh float with integer provenance: lazily shadowed at use.
    Shadow.clearTemp(S.Dst);
    return;

  case Opcode::XorV128:
  case Opcode::AndV128:
    shadowBitwiseVector(S, PC, Args, State.Temps[S.Dst]);
    return;

  case Opcode::ExtractLaneF64:
  case Opcode::ExtractLaneF32: {
    unsigned Lane = static_cast<unsigned>(Args[1].asI64());
    ShadowValue *SV = Shadow.tempLane(S.Args[0], Lane);
    Shadow.clearTemp(S.Dst);
    if (SV)
      Shadow.setTempLane(S.Dst, 0, Shadow.share(SV));
    return;
  }

  case Opcode::BuildV2F64: {
    ShadowValue *A = Shadow.tempLane(S.Args[0], 0);
    ShadowValue *B = Shadow.tempLane(S.Args[1], 0);
    Shadow.clearTemp(S.Dst);
    if (A)
      Shadow.setTempLane(S.Dst, 0, Shadow.share(A));
    if (B)
      Shadow.setTempLane(S.Dst, 1, Shadow.share(B));
    return;
  }

  default:
    break;
  }

  if (Info.IsSIMD) {
    // Lane-wise SIMD arithmetic: run the scalar shadow op per lane.
    Opcode Scalar = simdScalarOp(S.Op);
    const Value &Result = State.Temps[S.Dst];
    unsigned Lanes = Result.laneCount();
    for (unsigned L = 0; L < Lanes; ++L) {
      Value LaneArgs[2];
      Value LaneResult;
      if (Result.Ty == ValueType::V2F64) {
        for (unsigned I = 0; I < S.NumArgs; ++I)
          LaneArgs[I] = Value::ofF64(Args[I].V2F64[L]);
        LaneResult = Value::ofF64(Result.V2F64[L]);
      } else {
        for (unsigned I = 0; I < S.NumArgs; ++I)
          LaneArgs[I] = Value::ofF32(Args[I].V4F32[L]);
        LaneResult = Value::ofF32(Result.V4F32[L]);
      }
      unsigned ArgLanes[2] = {L, L};
      shadowFloatScalar(Scalar, PC, S.Loc, S.Dst, L, S.Args, ArgLanes,
                        LaneArgs, S.NumArgs, LaneResult);
    }
    return;
  }

  // Plain scalar float op (arithmetic, wrapped library call, rounding,
  // float<->float conversion).
  unsigned ArgLanes[3] = {0, 0, 0};
  shadowFloatScalar(S.Op, PC, S.Loc, S.Dst, 0, S.Args, ArgLanes, Args,
                    S.NumArgs, State.Temps[S.Dst]);
}

void Herbgrind::shadowFloatScalar(Opcode Op, uint32_t PC,
                                  const SourceLoc &Loc, uint32_t DstTemp,
                                  unsigned DstLane, const uint32_t *ArgTemps,
                                  const unsigned *ArgLanes,
                                  const Value *ArgConcrete, unsigned NumArgs,
                                  const Value &ConcreteResult) {
  // Gather (or lazily create) shadow inputs: Figure 4's
  //   v = if MR[x] in R then MR[x] else M[x].
  ShadowValue *ArgSV[3];
  for (unsigned I = 0; I < NumArgs; ++I)
    ArgSV[I] = lazyShadow(ArgTemps[I], ArgLanes[I], ArgConcrete[I]);
  Shadow.setTempLane(DstTemp, DstLane,
                     op(Op, PC, Loc, ArgSV, ArgConcrete, NumArgs,
                        ConcreteResult));
}

//===----------------------------------------------------------------------===//
// Bit-trick recognition (Section 5.3)
//===----------------------------------------------------------------------===//

void Herbgrind::shadowBitwiseVector(const Statement &S, uint32_t PC,
                                    const Value *Args, const Value &Result) {
  // gcc negates doubles by XORing the sign bit and takes absolute values by
  // ANDing it away; recognize both shapes (mask in either operand).
  const uint64_t SignMask = 1ULL << 63;
  const uint64_t AbsMask = ~SignMask;
  auto LaneBits = [](const Value &V, unsigned L) {
    return bitsOfDouble(V.V2F64[L]);
  };
  for (unsigned MaskIdx = 0; MaskIdx < 2; ++MaskIdx) {
    unsigned ValIdx = 1 - MaskIdx;
    bool IsNeg = S.Op == Opcode::XorV128 &&
                 LaneBits(Args[MaskIdx], 0) == SignMask &&
                 LaneBits(Args[MaskIdx], 1) == SignMask;
    bool IsAbs = S.Op == Opcode::AndV128 &&
                 LaneBits(Args[MaskIdx], 0) == AbsMask &&
                 LaneBits(Args[MaskIdx], 1) == AbsMask;
    if (!IsNeg && !IsAbs)
      continue;
    Opcode Recognized = IsNeg ? Opcode::NegF64 : Opcode::AbsF64;
    for (unsigned L = 0; L < 2; ++L) {
      Value LaneArg = Value::ofF64(Args[ValIdx].V2F64[L]);
      Value LaneResult = Value::ofF64(Result.V2F64[L]);
      unsigned ArgLanes[1] = {L};
      uint32_t ArgTemps[1] = {S.Args[ValIdx]};
      shadowFloatScalar(Recognized, PC, S.Loc, S.Dst, L, ArgTemps, ArgLanes,
                        &LaneArg, 1, LaneResult);
    }
    return;
  }
  // Unrecognized bit manipulation: conservatively drop shadows.
  Shadow.clearTemp(S.Dst);
}

//===----------------------------------------------------------------------===//
// The analyzer both frontends share
//===----------------------------------------------------------------------===//

Analyzer::Analyzer(const AnalysisConfig &Config, uint32_t NumTemps)
    : Cfg(Config),
      Arena(Config.MaxExprDepth, Config.EquivDepth, Config.UsePools),
      // One shadow state serves every run: runs reset it in place, so its
      // value pool and memory-table buckets are reused run over run.
      Shadow(Arena, NumTemps, Config.UsePools, Config.SharedShadowValues) {
  Records.Ranges = Config.Ranges;
  Records.EquivDepth = Config.EquivDepth;
}

void Analyzer::reset() {
  Shadow.reset();
  Arena.resetForReuse();
  // Interned influence sets survive on purpose: they are value-interned,
  // so reuse cannot change results, only skip re-interning.
  Records.Ops.clear();
  Records.Spots.clear();
  ShadowOps = 0;
  RunSuspect = false;
}

ShadowValue *Analyzer::leaf(const Value &Concrete) {
  if (Cfg.PredicateOnly)
    return Shadow.createPredicate(0.0, 0.0, Concrete.Ty);
  BigFloat Real = Concrete.Ty == ValueType::F32
                      ? BigFloat::fromFloat(Concrete.F32, Cfg.PrecisionBits)
                      : BigFloat::fromDouble(Concrete.F64, Cfg.PrecisionBits);
  return Shadow.create(std::move(Real), Arena.leaf(concreteAsDouble(Concrete)),
                       Sets.empty(), Concrete.Ty);
}

//===----------------------------------------------------------------------===//
// The scalar float shadow op: reals, local error, influences, traces
//===----------------------------------------------------------------------===//

ShadowValue *Analyzer::op(Opcode Op, uint32_t Site, const SourceLoc &Loc,
                          ShadowValue *const *ArgSV, const Value *ArgConcrete,
                          unsigned NumArgs, const Value &ConcreteResult) {
  ++ShadowOps;
  if (Cfg.PredicateOnly) {
    // Tier 0: no reals, no traces, no records -- just propagate the
    // conservative running-error pair.
    errpredict::PredVal ArgP[3];
    for (unsigned I = 0; I < NumArgs; ++I)
      ArgP[I] = {ArgSV[I]->PredDelta, ArgSV[I]->PredNoise};
    errpredict::PredVal P = errpredict::predictScalarOp(
        Op, ArgConcrete, ArgP, NumArgs, ConcreteResult);
    return Shadow.createPredicate(P.Delta, P.Noise, opInfo(Op).ResultTy);
  }

  OpRecord &Rec = Records.Ops[Site];
  if (Rec.Executions == 0) {
    Rec.Op = Op;
    Rec.Loc = Loc;
  }

  // Cost attribution (opprof, --profile-ops): bracket this execution with
  // a clock read and a limballoc counter delta. One relaxed load when the
  // profiler is off.
  const bool ProfThis = opprof::shouldSample();
  uint64_t ProfT0 = 0, ProfHeap0 = 0, ProfHits0 = 0;
  if (ProfThis) {
    ProfHeap0 = limballoc::heapAllocs();
    ProfHits0 = limballoc::cacheHits();
    ProfT0 = metrics::nowNanos();
  }

  // [[.]]_R: the op over the reals, destination-passing straight into the
  // value the result shadow will own. The argument reals are copied into a
  // contiguous array first (evalRealOpInto wants one).
  BigFloat Reals[3];
  for (unsigned I = 0; I < NumArgs; ++I)
    Reals[I] = ArgSV[I]->Real;
  BigFloat RealResult;
  evalRealOpInto(RealResult, Op, Reals, NumArgs);

  const OpInfo &Info = opInfo(Op);
  ValueType ResultTy = Info.ResultTy;

  // Local error (Section 4.2): the error the op would produce even on
  // exactly-computed inputs: E( F(f_R(v)), f_F(F(v)) ). The result is
  // rounded once; the compensation check below reuses it.
  Value RoundedArgs[3];
  for (unsigned I = 0; I < NumArgs; ++I)
    RoundedArgs[I] = roundReal(ArgSV[I]->Real, ArgConcrete[I].Ty);
  Value RoundedResult = roundReal(RealResult, ResultTy);
  Value FloatOnExact = evalScalarOp(Op, RoundedArgs, NumArgs);
  double LocalErr = bitsOfErrorAs(ResultTy, FloatOnExact, RoundedResult);
  // An operation that *creates* a NaN from non-NaN inputs has maximal
  // local error (the paper reports NaNs as maximal error); mere NaN
  // propagation stays neutral so one bad op does not flag its whole
  // downstream cone.
  bool ResultIsNaN = ResultTy == ValueType::F32
                         ? std::isnan(FloatOnExact.F32)
                         : std::isnan(FloatOnExact.F64);
  if (ResultIsNaN || RealResult.isNaN()) {
    bool AnyInputNaN = false;
    for (unsigned I = 0; I < NumArgs; ++I)
      AnyInputNaN |= ArgSV[I]->Real.isNaN();
    if (!AnyInputNaN)
      LocalErr = ResultTy == ValueType::F32 ? 32.0 : 64.0;
  }
  bool Flagged = LocalErr > Cfg.LocalErrorThreshold;

  // Influence propagation, with compensating-term detection (Section 5.3):
  // an add/sub that returns one of its arguments in the reals, without
  // making its error worse, is treated as passing that argument through;
  // the other (compensating) term's influences are dropped.
  const InflSet *Infl = nullptr;
  bool IsAddSub = Op == Opcode::AddF64 || Op == Opcode::SubF64 ||
                  Op == Opcode::AddF32 || Op == Opcode::SubF32;
  if (Cfg.DetectCompensation && IsAddSub && NumArgs == 2 &&
      !RealResult.isNaN()) {
    for (unsigned Pass = 0; Pass < 2 && !Infl; ++Pass) {
      BigFloat PassReal = Pass == 1 && (Op == Opcode::SubF64 ||
                                        Op == Opcode::SubF32)
                              ? ArgSV[Pass]->Real.negated()
                              : ArgSV[Pass]->Real;
      if (ArgSV[Pass]->Real.isNaN() || !BigFloat::eq(RealResult, PassReal))
        continue;
      double OutErr = bitsOfErrorAs(ResultTy, ConcreteResult, RoundedResult);
      double ArgErr = shadowValueErrorBits(ArgSV[Pass], ArgConcrete[Pass]);
      if (OutErr <= ArgErr) {
        Infl = ArgSV[Pass]->Influences;
        ++Rec.CompensationsDetected;
      }
    }
  }
  if (!Infl) {
    Infl = Sets.empty();
    for (unsigned I = 0; I < NumArgs; ++I)
      Infl = Sets.unionOf(Infl, ArgSV[I]->Influences);
  }
  if (Flagged)
    Infl = Sets.insert(Infl, Site);

  // Concrete expression trace (Section 4.3).
  TraceNode *Kids[3];
  for (unsigned I = 0; I < NumArgs; ++I)
    Kids[I] = ArgSV[I]->Trace;
  TraceNode *Trace =
      Arena.node(Op, Site, concreteAsDouble(ConcreteResult), Kids, NumArgs);

  // Incremental record update (Section 6 "Incrementalization").
  ++Rec.Executions;
  Rec.LocalError.add(LocalErr);
  AntiUnifyScratch &Round = Shadow.antiUnifyScratch();
  std::vector<VarBinding> &Bindings = Round.Bindings;
  Bindings.clear();
  if (!Rec.Expr) {
    Rec.Expr = symbolize(Arena, Trace);
  } else {
    antiUnify(Arena, *Rec.Expr, Trace, Rec.NextVarIdx, Round);
    // A promoted constant held its value on every earlier round; credit
    // that history to the new variable before folding this round's
    // binding, so a variable's summary is exactly the multiset of values
    // its position took. That property is what makes per-shard summaries
    // merge losslessly (Executions already counts this round; Flagged
    // does not yet).
    for (const Promotion &Pr : Round.Promotions) {
      Rec.TotalInputs.addRepeated(Pr.Idx, Pr.OldValue, Rec.Executions - 1);
      Rec.ProblematicInputs.addRepeated(Pr.Idx, Pr.OldValue, Rec.Flagged);
      // The worst flagged round (if any) predates this promotion, so the
      // new variable's position held the constant then: complete the
      // example input retroactively too.
      if (Rec.Flagged > 0)
        Rec.ExampleProblematic.push_back({Pr.Idx, Pr.OldValue});
    }
    Rec.TotalInputs.record(Bindings);
  }
  if (Flagged) {
    ++Rec.Flagged;
    Rec.ProblematicInputs.record(Bindings);
    if (LocalErr >= Rec.MaxFlaggedLocalError) {
      Rec.MaxFlaggedLocalError = LocalErr;
      if (!Bindings.empty())
        Rec.ExampleProblematic = Bindings;
    }
  }

  // The result shadow (create consumes the trace reference).
  ShadowValue *Result = Shadow.create(std::move(RealResult), Trace, Infl,
                                      ResultTy);
  if (ProfThis)
    opprof::recordSample(Rec, metrics::nowNanos() - ProfT0,
                         limballoc::heapAllocs() - ProfHeap0,
                         limballoc::cacheHits() - ProfHits0);
  return Result;
}

//===----------------------------------------------------------------------===//
// Spots (Section 4.2)
//===----------------------------------------------------------------------===//

/// The record of spot \p Site, counting one more execution; the first
/// stamps its kind and location.
static SpotRecord &countSpot(std::map<uint32_t, SpotRecord> &Spots,
                             uint32_t Site, SpotKind Kind,
                             const SourceLoc &Loc) {
  SpotRecord &Spot = Spots[Site];
  if (Spot.Executions++ == 0) {
    Spot.Kind = Kind;
    Spot.Loc = Loc;
  }
  return Spot;
}

/// Tier 0's bound on |real - concrete| of a value; unshadowed is exact.
static double predErr(const ShadowValue *SV) {
  return SV ? errpredict::predTotal(SV->PredDelta, SV->PredNoise) : 0.0;
}

void Analyzer::comparison(Opcode Op, uint32_t Site, const SourceLoc &Loc,
                          ShadowValue *A, ShadowValue *B, const Value &ConcA,
                          const Value &ConcB, bool FloatPred) {
  if (Cfg.PredicateOnly) {
    // With no shadows the real predicate trivially agrees; otherwise ask
    // whether the operand intervals allow the predicate to flip.
    if ((A || B) &&
        errpredict::comparisonSuspect(ConcA, ConcB, predErr(A), predErr(B)))
      RunSuspect = true;
    return;
  }
  SpotRecord &Spot = countSpot(Records.Spots, Site, SpotKind::Comparison, Loc);
  if (!A && !B) {
    // No shadows: the real predicate trivially agrees with the float one.
    Spot.ErrorBits.add(0.0);
    return;
  }
  ValueType Ty = ConcA.Ty;
  BigFloat TmpA, TmpB;
  auto RealOf = [&](ShadowValue *SV, const Value &V,
                    BigFloat &Tmp) -> const BigFloat & {
    if (SV)
      return SV->Real; // borrow the shadow's real; no copy on the hot path
    Tmp = Ty == ValueType::F32
              ? BigFloat::fromFloat(V.F32, Cfg.PrecisionBits)
              : BigFloat::fromDouble(V.F64, Cfg.PrecisionBits);
    return Tmp;
  };
  bool RealPred =
      evalRealPredicate(Op, RealOf(A, ConcA, TmpA), RealOf(B, ConcB, TmpB));
  // Note: Figure 4 in the paper attaches the argument influences to the
  // *agreeing* case; per the surrounding text ("cases when it diverges ...
  // are reported as errors") we attach them on divergence.
  if (RealPred != FloatPred) {
    ++Spot.Erroneous;
    Spot.ErrorBits.add(1.0);
    for (ShadowValue *SV : {A, B})
      if (SV)
        for (uint32_t OpPC : *SV->Influences)
          Spot.InfluencingOps.insert(OpPC);
  } else {
    Spot.ErrorBits.add(0.0);
  }
}

void Analyzer::conversion(uint32_t Site, const SourceLoc &Loc,
                          ShadowValue *A, const Value &Conc,
                          int64_t IntResult) {
  if (Cfg.PredicateOnly) {
    if (A && errpredict::conversionSuspect(Conc.asF64(), predErr(A)))
      RunSuspect = true;
    return;
  }
  SpotRecord &Spot = countSpot(Records.Spots, Site, SpotKind::Conversion, Loc);
  if (!A) {
    Spot.ErrorBits.add(0.0);
    return;
  }
  int64_t RealInt = A->Real.toInt64Trunc();
  if (RealInt != IntResult) {
    ++Spot.Erroneous;
    Spot.ErrorBits.add(1.0);
    for (uint32_t OpPC : *A->Influences)
      Spot.InfluencingOps.insert(OpPC);
  } else {
    Spot.ErrorBits.add(0.0);
  }
}

void Analyzer::output(uint32_t Site, const SourceLoc &Loc, ShadowValue *SV,
                      const Value &LaneVal) {
  if (Cfg.PredicateOnly) {
    if (errpredict::outputSuspect(LaneVal, predErr(SV),
                                  Cfg.OutputErrorThreshold))
      RunSuspect = true;
    return;
  }
  SpotRecord &Spot = countSpot(Records.Spots, Site, SpotKind::Output, Loc);
  double Err = shadowValueErrorBits(SV, LaneVal);
  Spot.ErrorBits.add(Err);
  if (Err > Cfg.OutputErrorThreshold) {
    ++Spot.Erroneous;
    if (SV)
      for (uint32_t OpPC : *SV->Influences)
        Spot.InfluencingOps.insert(OpPC);
  }
}

//===----------------------------------------------------------------------===//
// Mergeable records (the batch engine's reduction)
//===----------------------------------------------------------------------===//

void SpotRecord::mergeFrom(const SpotRecord &Other) {
  if (Other.Executions == 0)
    return;
  if (Executions == 0) {
    Kind = Other.Kind;
    Loc = Other.Loc;
  }
  Executions += Other.Executions;
  Erroneous += Other.Erroneous;
  ErrorBits.merge(Other.ErrorBits);
  InfluencingOps.insert(Other.InfluencingOps.begin(),
                        Other.InfluencingOps.end());
}

OpRecord OpRecord::clone() const {
  OpRecord R;
  R.Op = Op;
  R.Loc = Loc;
  R.Executions = Executions;
  R.Flagged = Flagged;
  R.CompensationsDetected = CompensationsDetected;
  R.LocalError = LocalError;
  R.Expr = Expr ? Expr->clone() : nullptr;
  R.NextVarIdx = NextVarIdx;
  R.TotalInputs = TotalInputs;
  R.ProblematicInputs = ProblematicInputs;
  R.MaxFlaggedLocalError = MaxFlaggedLocalError;
  R.ExampleProblematic = ExampleProblematic;
  R.ProfSamples = ProfSamples;
  R.ProfNanos = ProfNanos;
  R.ProfLimbAllocs = ProfLimbAllocs;
  R.ProfLimbHits = ProfLimbHits;
  return R;
}

void OpRecord::mergeFrom(const OpRecord &Other, uint32_t EquivDepth) {
  if (Other.Executions == 0)
    return;
  if (Executions == 0) {
    *this = Other.clone();
    return;
  }

  // Anti-unify the two accumulated expressions. B's per-variable first
  // observed values (Example is the earliest value by construction, thanks
  // to retroactive constant promotion) disambiguate merged-variable
  // numbering so it matches sequential processing.
  assert(Expr && Other.Expr && "executed records always carry expressions");
  std::vector<std::pair<bool, double>> BFirst;
  BFirst.reserve(Other.TotalInputs.Vars.size());
  for (const VarSummary &VS : Other.TotalInputs.Vars)
    BFirst.push_back({VS.Count > 0 && !VS.SawNaN, VS.Example});
  uint32_t NewNext = NextVarIdx;
  std::vector<MergedVar> Vars;
  std::unique_ptr<SymExpr> Merged = antiUnifyExprs(
      Expr.get(), Other.Expr.get(), EquivDepth, BFirst, NewNext, Vars);

  // Combine input summaries through each merged variable's provenance. A
  // constant leaf contributed its value on every one of its side's rounds;
  // a variable contributes its accumulated summary (only once per side --
  // a split variable's history stays with the index that kept it).
  InputCharacteristics NewTotal, NewProb;
  for (const MergedVar &V : Vars) {
    VarSummary T, P;
    if (V.KeptA) {
      T = TotalInputs.var(V.AVar);
      P = ProblematicInputs.var(V.AVar);
    } else if (V.A == MergedVar::Source::Const) {
      T.addRepeated(V.AConst, Executions);
      P.addRepeated(V.AConst, Flagged);
    }
    if (V.B == MergedVar::Source::Var) {
      T.merge(Other.TotalInputs.var(V.BVar));
      P.merge(Other.ProblematicInputs.var(V.BVar));
    } else if (V.B == MergedVar::Source::Const) {
      T.addRepeated(V.BConst, Other.Executions);
      P.addRepeated(V.BConst, Other.Flagged);
    }
    auto Install = [](InputCharacteristics &C, uint32_t Idx, VarSummary &S) {
      if (C.Vars.size() <= Idx)
        C.Vars.resize(Idx + 1);
      C.Vars[Idx] = S;
    };
    if (T.Count > 0)
      Install(NewTotal, V.Idx, T);
    if (P.Count > 0)
      Install(NewProb, V.Idx, P);
  }

  // The worst flagged round decides the example input; ties go to the
  // later shard exactly like the incremental `>=` comparison. Variables
  // the merge itself created from a side's constant held that constant on
  // every one of the side's rounds -- including its worst one -- so their
  // example values are appended here, mirroring the incremental path's
  // retroactive completion on promotion.
  bool TakeB = Other.Flagged > 0 &&
               (Flagged == 0 ||
                Other.MaxFlaggedLocalError >= MaxFlaggedLocalError);
  if (TakeB) {
    std::map<uint32_t, uint32_t> BMap;
    for (const MergedVar &V : Vars)
      if (V.B == MergedVar::Source::Var)
        BMap.emplace(V.BVar, V.Idx); // first claim wins
    std::vector<VarBinding> Remapped;
    for (const VarBinding &Bnd : Other.ExampleProblematic) {
      auto It = BMap.find(Bnd.Idx);
      if (It != BMap.end())
        Remapped.push_back({It->second, Bnd.Value});
    }
    for (const MergedVar &V : Vars)
      if (V.B == MergedVar::Source::Const)
        Remapped.push_back({V.Idx, V.BConst});
    ExampleProblematic = std::move(Remapped);
  } else if (Flagged > 0) {
    for (const MergedVar &V : Vars)
      if (V.A == MergedVar::Source::Const)
        ExampleProblematic.push_back({V.Idx, V.AConst});
  }

  Expr = std::move(Merged);
  NextVarIdx = NewNext;
  TotalInputs = std::move(NewTotal);
  ProblematicInputs = std::move(NewProb);
  Executions += Other.Executions;
  Flagged += Other.Flagged;
  CompensationsDetected += Other.CompensationsDetected;
  LocalError.merge(Other.LocalError);
  MaxFlaggedLocalError = std::max(MaxFlaggedLocalError,
                                  Other.MaxFlaggedLocalError);
  ProfSamples += Other.ProfSamples;
  ProfNanos += Other.ProfNanos;
  ProfLimbAllocs += Other.ProfLimbAllocs;
  ProfLimbHits += Other.ProfLimbHits;
}

AnalysisResult AnalysisResult::clone() const {
  AnalysisResult R;
  R.Ranges = Ranges;
  R.EquivDepth = EquivDepth;
  for (const auto &[PC, Rec] : Ops)
    R.Ops.emplace(PC, Rec.clone());
  R.Spots = Spots;
  return R;
}

void AnalysisResult::mergeFrom(const AnalysisResult &Other) {
  for (const auto &[PC, Rec] : Other.Ops) {
    auto It = Ops.find(PC);
    if (It == Ops.end())
      Ops.emplace(PC, Rec.clone());
    else
      It->second.mergeFrom(Rec, EquivDepth);
  }
  for (const auto &[PC, Spot] : Other.Spots) {
    auto It = Spots.find(PC);
    if (It == Spots.end())
      Spots.emplace(PC, Spot);
    else
      It->second.mergeFrom(Spot);
  }
}

//===----------------------------------------------------------------------===//
// Result extraction
//===----------------------------------------------------------------------===//

std::vector<uint32_t> AnalysisResult::reportedRootCauses() const {
  // Only operations whose influence reached an erroneous spot are reported
  // (Section 4.2 footnote 7).
  std::set<uint32_t> Reached;
  for (const auto &[PC, Spot] : Spots)
    if (Spot.Erroneous > 0)
      Reached.insert(Spot.InfluencingOps.begin(), Spot.InfluencingOps.end());
  return mostFlaggedFirst(Reached);
}

std::vector<uint32_t>
AnalysisResult::mostFlaggedFirst(const std::set<uint32_t> &Sites) const {
  auto Flagged = [&](uint32_t PC) {
    auto It = Ops.find(PC);
    return It == Ops.end() ? 0 : It->second.Flagged;
  };
  std::vector<uint32_t> Result(Sites.begin(), Sites.end());
  std::sort(Result.begin(), Result.end(), [&](uint32_t A, uint32_t B) {
    uint64_t FA = Flagged(A), FB = Flagged(B);
    if (FA != FB)
      return FA > FB;
    return A < B;
  });
  return Result;
}
