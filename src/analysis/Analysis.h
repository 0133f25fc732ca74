//===- analysis/Analysis.h - The Herbgrind root-cause analysis --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of the reproduction: the analysis of Figures 3 and 4. Every
/// float operation is shadowed with a real value, a concrete expression
/// trace, and an influence set; spots (outputs, float comparisons,
/// float-to-int conversions) accumulate the influences of the erroneous
/// operations that reach them; operation records aggregate local error,
/// anti-unified symbolic expressions, and input characteristics
/// incrementally (Section 6).
///
/// `Analyzer` holds that analysis once: the shadow state, the records, and
/// one handler per shadow event, each choosing tier 0 or the full shadow.
/// Two frontends derive from it: `Herbgrind`, the instrumented interpreter
/// below, and `native::Context` (native/Context.h), which shadows C++ code
/// written over native::Real.
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
  /// accumulated expression is generalized in place against the other's
  /// (antiUnifyMerge, bounded at \p EquivDepth like the incremental path),
  /// input summaries are combined in place through the merged variables'
  /// provenance, and counters/statistics accumulate.
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

  /// Folds \p Other (a later shard of the same program) in. The two forms
  /// differ only in the sites this result lacks: the rvalue form moves
  /// them over, the other clones them.
  void mergeFrom(const AnalysisResult &Other);
  void mergeFrom(AnalysisResult &&Other);

  /// Candidate root causes: flagged op records whose influence reached an
  /// erroneous spot, most-flagged first (Section 4.2, footnote 7: only
  /// sources whose error flows into spots are reported).
  std::vector<uint32_t> reportedRootCauses() const;

  /// \p Sites ordered most-flagged first, ties by site; a site without a
  /// record counts as never flagged.
  std::vector<uint32_t> mostFlaggedFirst(const std::set<uint32_t> &Sites) const;
};

/// The analysis both frontends share: the shadow state, the accumulated
/// records, and one handler per shadow event (Figure 4) -- a float op, a
/// float comparison, a float-to-int conversion, an output lane. Each
/// handler stamps its record or spot on first execution and chooses tier 0
/// or the full shadow itself, so the interpreter (Herbgrind) and the
/// native frontend (native::Context) cannot drift apart semantically.
///
/// A frontend derives from it and keeps only what differs: where operands
/// live (temporaries, lanes, memory, thread state; or live native::Real
/// values), where a lazy leaf is installed, how a site is named (an
/// interpreter pc or an interned native callsite), and its run loop. No
/// function is virtual: the per-op path stays direct calls.
class Analyzer {
public:
  /// The records accumulated so far. A live view: it grows as runs
  /// execute.
  const AnalysisResult &records() const { return Records; }

  /// Per-operation records accumulated so far, keyed by site.
  const std::map<uint32_t, OpRecord> &opRecords() const {
    return Records.Ops;
  }

  /// Per-spot records accumulated so far, keyed by site.
  const std::map<uint32_t, SpotRecord> &spotRecords() const {
    return Records.Spots;
  }

  /// Copies the accumulated records out as a mergeable value (shardable,
  /// serializable, cacheable -- the engine's unit of reduction).
  AnalysisResult snapshot() const { return Records.clone(); }

  /// Moves the accumulated records out and leaves this analyzer's records
  /// as a fresh one's (its ranges and equivalence depth kept): the
  /// engine's hand-off of a finished shard, which copies nothing.
  AnalysisResult takeRecords();

  /// The configuration this analysis was constructed with.
  const AnalysisConfig &config() const { return Cfg; }

  /// Tier-0 verdict of the most recent run (predicate mode only): true
  /// when some spot predicate could not rule out an erroneous observation,
  /// i.e. the run needs the full BigFloat shadow. Always false in full
  /// mode.
  bool lastRunSuspect() const { return RunSuspect; }

protected:
  /// \p NumTemps sizes the shadow temporaries (0 for the native frontend,
  /// whose shadows live on its Real values).
  Analyzer(const AnalysisConfig &Config, uint32_t NumTemps);

  /// Clears every record and all shadow state in place, keeping the
  /// arenas' slabs and the interned influence sets.
  void reset();

  /// Lazy shadowing (Section 6): the shadow of a value with no recorded
  /// float provenance, made from its concrete bits -- a real-valued leaf,
  /// or at tier 0 the exact pair {0, 0}. The caller owns one reference.
  ShadowValue *leaf(const Value &Concrete);

  /// One scalar float op at \p Site (Figure 4): evaluates the op over the
  /// reals, measures local error, detects compensating terms, propagates
  /// influences, extends the concrete trace, and folds everything into the
  /// site's record. At tier 0 it only propagates the running-error pair.
  /// Every \p ArgSV is non-null. Returns the result's shadow value; the
  /// caller owns one reference.
  ShadowValue *op(Opcode Op, uint32_t Site, const SourceLoc &Loc,
                  ShadowValue *const *ArgSV, const Value *ArgConcrete,
                  unsigned NumArgs, const Value &ConcreteResult);

  /// One comparison-spot observation: the predicate over the reals
  /// (unshadowed arguments fall back to their concrete bits) against the
  /// concrete float predicate's outcome \p FloatPred.
  void comparison(Opcode Op, uint32_t Site, const SourceLoc &Loc,
                  ShadowValue *A, ShadowValue *B, const Value &ConcA,
                  const Value &ConcB, bool FloatPred);

  /// One float-to-int conversion-spot observation (\p IntResult is the
  /// concrete truncation's value).
  void conversion(uint32_t Site, const SourceLoc &Loc, ShadowValue *A,
                  const Value &Conc, int64_t IntResult);

  /// One scalar output-spot observation (a SIMD output is one per lane).
  void output(uint32_t Site, const SourceLoc &Loc, ShadowValue *SV,
              const Value &LaneVal);

  AnalysisConfig Cfg;
  TraceArena Arena;
  InfluenceSets Sets;
  ShadowState Shadow;
  AnalysisResult Records;
  uint64_t ShadowOps = 0;
  bool RunSuspect = false;
};

/// Cumulative cost/size statistics (Table 1 and the optimization bench).
struct AnalysisStats {
  uint64_t InstrumentedSteps = 0;
  uint64_t ShadowOpsExecuted = 0;
  uint64_t SkippedByTypeAnalysis = 0;
  size_t TraceNodesAllocated = 0;
  size_t ShadowValuesAllocated = 0;
  size_t InfluenceSetsInterned = 0;
};

/// The interpreter frontend: owns the (possibly lowered) program and the
/// concrete machine, and feeds every shadowed statement to the Analyzer.
class Herbgrind : public Analyzer {
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

  /// Concrete outputs of the most recent run (bit-identical to the
  /// uninstrumented interpreter's, by construction).
  const std::vector<Value> &lastOutputs() const { return LastOutputs; }

  /// The analyzed program (the lowered form when WrapLibraryCalls is
  /// off).
  const Program &program() const { return Prog; }

  /// Cumulative cost/size counters across all runs so far (Table 1).
  AnalysisStats stats() const;

private:
  /// Builds the base from the analyzed program's temp count, then takes
  /// the program.
  Herbgrind(const AnalysisConfig &Config, Program &&Analyzed);

  void shadowStep(const Statement &S, uint32_t PC, const Value *Args,
                  MachineState &State);
  void shadowFloatScalar(Opcode Op, uint32_t PC, const SourceLoc &Loc,
                         uint32_t DstTemp, unsigned DstLane,
                         const uint32_t *ArgTemps, const unsigned *ArgLanes,
                         const Value *ArgConcrete, unsigned NumArgs,
                         const Value &ConcreteResult);
  void shadowBitwiseVector(const Statement &S, uint32_t PC,
                           const Value *Args, const Value &Result);
  ShadowValue *lazyShadow(uint32_t Temp, unsigned Lane, const Value &Concrete);

  Program Prog;
  MachineState Machine; ///< The concrete machine, restarted every run.
  std::vector<ValueType> TempTypes;
  std::vector<bool> Skippable;
  std::vector<Value> LastOutputs;
  uint64_t TotalSteps = 0;
  uint64_t Skipped = 0;
};

} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_ANALYSIS_H
