//===- analysis/Analysis.h - The Herbgrind root-cause analysis --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of the reproduction: the instrumented executor implementing
/// the analysis of Figures 3 and 4. Every float operation is shadowed with
/// a real value, a concrete expression trace, and an influence set; spots
/// (outputs, float comparisons, float-to-int conversions) accumulate the
/// influences of the erroneous operations that reach them; operation
/// records aggregate local error, anti-unified symbolic expressions, and
/// input characteristics incrementally (Section 6).
///
/// One Herbgrind object can run its program on many inputs; records
/// accumulate across runs, which is how the FPBench driver exercises each
/// benchmark on a sweep of sampled points.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_ANALYSIS_H
#define HERBGRIND_ANALYSIS_ANALYSIS_H

#include "inputs/InputSummary.h"
#include "ir/Interpreter.h"
#include "shadow/ShadowState.h"
#include "support/RunningStat.h"
#include "trace/SymExpr.h"

#include <map>
#include <memory>
#include <set>

namespace herbgrind {

/// All the tunable knobs of the analysis; defaults follow the paper.
struct AnalysisConfig {
  /// Tl: local error (bits) above which an operation becomes a candidate
  /// root cause (Fig 5a sweeps this).
  double LocalErrorThreshold = 5.0;
  /// Tm: output error (bits) above which a spot reports its influencers.
  double OutputErrorThreshold = 5.0;
  /// Shadow-real mantissa bits (the paper defaults to 1000; we to 256).
  size_t PrecisionBits = 256;
  /// Maximum tracked expression depth (Fig 5c/d sweeps this; 1 disables
  /// symbolic expressions like FpDebug-style tools).
  uint32_t MaxExprDepth = 24;
  /// Bounded depth for anti-unification equivalence classes (Section 6.1).
  uint32_t EquivDepth = 5;
  /// Intercept math-library calls as atomic ops (Section 5.3); when false
  /// the program is first lowered so the analysis sees libm internals
  /// (Section 8.2 ablation).
  bool WrapLibraryCalls = true;
  /// Detect compensating terms and stop their influence (Section 5.3).
  bool DetectCompensation = true;
  /// Input range characteristic (Fig 5b ablation).
  RangeMode Ranges = RangeMode::SignSplit;
  /// Section 6 optimization toggles (for the ablation bench).
  bool UseTypeAnalysis = true;
  bool SharedShadowValues = true;
  bool UsePools = true;
  /// Step budget per run.
  uint64_t MaxSteps = 100'000'000;
  /// Tier-0 predicate mode (the cheap tier of the tiered pipeline): no
  /// BigFloat shadows, no traces, no records -- every float op propagates
  /// only a conservative |real - concrete| bound (analysis/ErrorPredict),
  /// and spot observations set the per-run suspect flag instead of
  /// recording anything. A suspect run must be re-analyzed in full mode;
  /// a clean run is guaranteed to contribute no erroneous spots. Not part
  /// of the engine's config hash: it never changes full-mode results,
  /// only which runs pay for them.
  bool PredicateOnly = false;
};

enum class SpotKind : uint8_t { Output, Comparison, Conversion };

/// Per-spot aggregate (Section 4.2): how often this spot executed, how
/// often it was observably wrong, and which candidate root causes flowed
/// into it when it was.
struct SpotRecord {
  SpotKind Kind = SpotKind::Output;
  SourceLoc Loc;
  uint64_t Executions = 0;
  uint64_t Erroneous = 0;
  RunningStat ErrorBits; ///< Output spots: bits; others: 0/1 divergence.
  std::set<uint32_t> InfluencingOps; ///< PCs of influencing flagged ops.

  /// Folds another shard's record for the same spot in (counters sum,
  /// error stats merge, influencer sets union).
  void mergeFrom(const SpotRecord &Other);
};

/// Per-operation aggregate: local error statistics, the anti-unified
/// symbolic expression, and input characteristics (total + problematic).
struct OpRecord {
  Opcode Op = Opcode::AddF64;
  SourceLoc Loc;
  uint64_t Executions = 0;
  uint64_t Flagged = 0; ///< Executions with local error > Tl.
  uint64_t CompensationsDetected = 0;
  RunningStat LocalError;
  std::unique_ptr<SymExpr> Expr;
  uint32_t NextVarIdx = 0;
  InputCharacteristics TotalInputs;
  InputCharacteristics ProblematicInputs;
  double MaxFlaggedLocalError = 0.0;
  std::vector<VarBinding> ExampleProblematic; ///< Bindings at worst round.

  /// \name Profiler cost attribution (opprof, --profile-ops)
  /// Accumulated only while the op profiler samples; deliberately outside
  /// the wire format -- never serialized, never rendered into reports --
  /// so enabling the profiler cannot perturb report bytes. Merged and
  /// cloned with the record like every other aggregate.
  /// @{
  uint64_t ProfSamples = 0;
  uint64_t ProfNanos = 0;
  uint64_t ProfLimbAllocs = 0;
  uint64_t ProfLimbHits = 0;
  /// @}

  /// Deep copy (the symbolic expression is owned).
  OpRecord clone() const;

  /// Folds another shard's record for the same operation site in: the
  /// symbolic expressions are anti-unified (bounded at \p EquivDepth like
  /// the incremental path), input summaries are combined through the
  /// merged variables' provenance, and counters/statistics accumulate.
  /// Merging shards in execution order reproduces what one analysis
  /// running all the rounds sequentially would have recorded -- exactly
  /// so when the two sides' expressions disagree only at leaves and no
  /// NaN reached a disagreeing leaf (a NaN first observation hides the
  /// other shard's first value, which can shift merged-variable
  /// *numbering* relative to a sequential run; aggregates stay correct,
  /// and engine output remains byte-identical across worker counts
  /// either way).
  void mergeFrom(const OpRecord &Other, uint32_t EquivDepth);
};

/// A mergeable snapshot of one analysis' accumulated records: the value
/// the batch engine shards, ships between workers, and reduces. Merging is
/// deterministic; the engine always folds shards in ascending shard order
/// so reports are reproducible at any worker count.
struct AnalysisResult {
  std::map<uint32_t, OpRecord> Ops;
  std::map<uint32_t, SpotRecord> Spots;
  RangeMode Ranges = RangeMode::SignSplit;
  uint32_t EquivDepth = 5;

  AnalysisResult clone() const;

  /// Folds \p Other (a later shard of the same program) in.
  void mergeFrom(const AnalysisResult &Other);
};

/// \name Frontend-independent shadow semantics
/// The analysis below the operand-gathering layer, shared by the
/// interpreter frontend (Herbgrind, which finds operands in shadow
/// temporaries) and the native frontend (native::Context, which finds them
/// on live native::Real values). Both frontends funnel into these cores so
/// the two execution modes cannot drift apart semantically.
/// @{

/// Bits of error between a shadowed value's real and its concrete float
/// (Section 4.2's E); NaN concretes report maximal error per the paper.
double shadowValueErrorBits(const ShadowValue *SV, const Value &Concrete);

/// One shadowed scalar float operation (Figure 4): evaluates the op over
/// the reals, measures local error, detects compensating terms, propagates
/// influences, extends the concrete trace, and folds everything into
/// \p Rec (whose Op/Loc the caller has already stamped). \p PC is the
/// operation's stable static identity (an interpreter pc or an interned
/// native callsite). Returns the result's shadow value; the caller owns
/// one reference.
ShadowValue *shadowScalarOpCore(const AnalysisConfig &Cfg, ShadowState &Shadow,
                                OpRecord &Rec, Opcode Op, uint32_t PC,
                                ShadowValue *const *ArgSV,
                                const Value *ArgConcrete, unsigned NumArgs,
                                const Value &ConcreteResult);

/// One comparison-spot observation: evaluates the predicate over the reals
/// (unshadowed arguments fall back to their concrete bits) and folds
/// agreement or divergence into \p Spot, whose Kind/Loc/Executions the
/// caller has already updated. \p FloatPred is the concrete float
/// predicate's outcome.
void shadowComparisonSpotCore(const AnalysisConfig &Cfg, SpotRecord &Spot,
                              Opcode Op, ShadowValue *A, ShadowValue *B,
                              const Value &ConcA, const Value &ConcB,
                              bool FloatPred);

/// One float-to-int conversion-spot observation (\p IntResult is the
/// concrete truncation's value). Caller updates Kind/Loc/Executions.
void shadowConversionSpotCore(SpotRecord &Spot, ShadowValue *A,
                              int64_t IntResult);

/// One scalar output-spot observation; increments Executions itself (the
/// interpreter counts SIMD outputs per lane). Caller stamps Kind/Loc.
void shadowOutputSpotCore(const AnalysisConfig &Cfg, SpotRecord &Spot,
                          ShadowValue *SV, const Value &LaneVal);

/// Candidate root causes of a record set: flagged op records whose
/// influence reached an erroneous spot, most-flagged first (Section 4.2,
/// footnote 7).
std::vector<uint32_t>
reportedRootCausesFromRecords(const std::map<uint32_t, OpRecord> &Ops,
                              const std::map<uint32_t, SpotRecord> &Spots);

/// @}

/// Cumulative cost/size statistics (Table 1 and the optimization bench).
struct AnalysisStats {
  uint64_t InstrumentedSteps = 0;
  uint64_t ShadowOpsExecuted = 0;
  uint64_t SkippedByTypeAnalysis = 0;
  size_t TraceNodesAllocated = 0;
  size_t ShadowValuesAllocated = 0;
  size_t InfluenceSetsInterned = 0;
};

/// The analysis driver: owns the (possibly lowered) program, the shadow
/// machinery, and all accumulated records.
class Herbgrind {
public:
  explicit Herbgrind(const Program &P, AnalysisConfig Config = {});

  /// Runs the program once under full instrumentation; records accumulate.
  void runOnInput(const std::vector<double> &Inputs);

  /// Runs the program on \p NumInputs input tuples, one after another:
  /// exactly NumInputs sequential runOnInput calls. Kept only for callers
  /// that still use the name; new code calls runOnInput.
  void runOnBatch(const std::vector<double> *Inputs, size_t NumInputs);

  /// Clears every accumulated record and all shadow state, returning the
  /// instance to its freshly-constructed condition while keeping its
  /// arenas' slabs, interned influence sets, and compiled program. A reset
  /// instance produces records identical to a new one's; the batch engine
  /// uses this to recycle worker-local instances across shards.
  void reset();

  /// Per-operation records accumulated so far, keyed by pc. Live views:
  /// they grow as runOnInput is called.
  const std::map<uint32_t, OpRecord> &opRecords() const { return Ops; }

  /// Per-spot records accumulated so far, keyed by pc.
  const std::map<uint32_t, SpotRecord> &spotRecords() const { return Spots; }

  /// Copies the accumulated records out as a mergeable value.
  AnalysisResult snapshot() const;

  /// Concrete outputs of the most recent run (bit-identical to the
  /// uninstrumented interpreter's, by construction).
  const std::vector<Value> &lastOutputs() const { return LastOutputs; }

  /// Tier-0 verdict of the most recent run (predicate mode only): true
  /// when some spot predicate could not rule out an erroneous observation,
  /// i.e. the run needs the full BigFloat shadow. Always false in full
  /// mode.
  bool lastRunSuspect() const { return RunSuspect; }

  /// The analyzed program (the lowered form when WrapLibraryCalls is
  /// off).
  const Program &program() const { return Prog; }

  /// The configuration this analysis was constructed with.
  const AnalysisConfig &config() const { return Cfg; }

  /// Cumulative cost/size counters across all runs so far (Table 1).
  AnalysisStats stats() const;

  /// Candidate root causes: flagged op records whose influence reached an
  /// erroneous spot, most-flagged first (Section 4.2, footnote 7: only
  /// sources whose error flows into spots are reported).
  std::vector<uint32_t> reportedRootCauses() const;

private:
  struct StepContext;
  void shadowStep(const Statement &S, uint32_t PC, const Value *Args,
                  MachineState &State);
  void shadowFloatScalar(Opcode Op, uint32_t PC, const SourceLoc &Loc,
                         uint32_t DstTemp, unsigned DstLane,
                         const uint32_t *ArgTemps, const unsigned *ArgLanes,
                         const Value *ArgConcrete, unsigned NumArgs,
                         const Value &ConcreteResult);
  void shadowComparisonSpot(const Statement &S, uint32_t PC,
                            const Value *Args, const Value &Result);
  void shadowConversionSpot(const Statement &S, uint32_t PC,
                            const Value *Args, const Value &Result);
  void shadowOutputSpot(const Statement &S, uint32_t PC, const Value &Out);
  void shadowBitwiseVector(const Statement &S, uint32_t PC,
                           const Value *Args, const Value &Result);
  ShadowValue *lazyShadow(uint32_t Temp, unsigned Lane, const Value &Concrete,
                          ValueType Ty);

  Program Prog;
  AnalysisConfig Cfg;
  TraceArena Arena;
  InfluenceSets Sets;
  std::unique_ptr<ShadowState> Shadow;
  MachineState Machine; ///< The concrete machine, restarted every run.
  std::vector<ValueType> TempTypes;
  std::vector<bool> Skippable;
  std::map<uint32_t, OpRecord> Ops;
  std::map<uint32_t, SpotRecord> Spots;
  std::vector<Value> LastOutputs;
  uint64_t TotalSteps = 0;
  uint64_t ShadowOps = 0;
  uint64_t Skipped = 0;
  bool RunSuspect = false;
};

} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_ANALYSIS_H
