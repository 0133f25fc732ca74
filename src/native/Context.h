//===- native/Context.h - Native-execution analysis context ----*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native instrumentation frontend. Where Herbgrind interprets an
/// ir::Program under instrumentation, a native::Context shadows *actual
/// C++ code*: arithmetic on native::Real values executes as ordinary
/// doubles while every operation goes to the same Analyzer (Analysis.h)
/// the interpreter uses -- one handler per op, comparison, conversion and
/// output, tier 0 included -- so buildReport produces the identical
/// paper-style report from a native run and the batch engine
/// shards/merges/caches native kernels exactly like FPCore benchmarks.
/// The context itself only finds operands on live Reals and names sites.
///
/// Stable static op identity without a pc: the context interns (source
/// location, opcode) callsites to a 32-bit content hash of the location
/// and opcode name. Dynamic executions of one source operation -- loop
/// iterations included -- merge into one record exactly like interpreter
/// ops at one pc, and because the id is derived from content rather than
/// encounter order it is identical across workers, processes and cached
/// shard documents, which is what keeps `--jobs N` sweeps byte-identical
/// and ResultCache entries portable. (Two sites hashing to the same id
/// would share one record -- anti-unification keeps that sound, merely
/// coarser -- and are counted in stats().SiteCollisions; with FNV-1a over
/// the full location string this is vanishingly rare.)
///
/// Source locations come from the HG_LOC macro (see Real.h): overloaded
/// operators cannot take default std::source_location-style arguments, so
/// the context carries a "current location" that HG_LOC stamps. Unmarked
/// code still analyzes correctly -- everything merges per opcode under the
/// unknown location -- marking just refines the blame granularity.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_NATIVE_CONTEXT_H
#define HERBGRIND_NATIVE_CONTEXT_H

#include "analysis/Analysis.h"
#include "analysis/Report.h"
#include "native/Real.h"

#include <array>
#include <unordered_map>
#include <unordered_set>

namespace herbgrind {
namespace native {

struct Kernel;

/// Cost/size counters of one native context (the AnalysisStats analogue).
struct ContextStats {
  uint64_t ShadowOpsExecuted = 0;
  uint64_t SpotsExecuted = 0;
  uint64_t InternedSites = 0;
  uint64_t SiteCollisions = 0; ///< Distinct sites sharing a hashed id.
  size_t TraceNodesAllocated = 0;
  size_t ShadowValuesAllocated = 0;
  size_t InfluenceSetsInterned = 0;
};

/// The native frontend's analysis driver for one instrumented execution
/// context. Records accumulate across kernel invocations, which is how
/// the batch engine runs a shard of sampled inputs through one context.
///
/// A context is single-threaded, and every Real it shadows must die
/// before the context does (Reals hold references into its pools). The
/// most recently constructed live context is the thread's *active*
/// context (Context::active()), which is what Real operations fall back
/// to when no operand is shadowed yet.
class Context : public Analyzer {
public:
  /// The analysis configuration is shared with the interpreter frontend.
  /// Native execution always wraps library calls (sin/cos/... are atomic
  /// ops by construction -- there is no client libm code to lower), so
  /// WrapLibraryCalls is ignored; MaxSteps and UseTypeAnalysis likewise
  /// (native code has no interpreter steps to bound or skip).
  explicit Context(AnalysisConfig Config = {});
  ~Context();

  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  /// The innermost live context on this thread (nullptr outside any).
  static Context *active();

  /// \name Source locations (op identity)
  /// @{

  /// Sets the location stamped on subsequently recorded operations and
  /// spots (by value: for programmatic locations and tests).
  void setLoc(SourceLoc Loc);

  /// The HG_LOC fast path: \p StaticLoc must have static storage
  /// duration (the macro's per-callsite static). Pointer identity makes
  /// re-stamping a line free, and interned site ids are cached per
  /// callsite, so marked loops never rebuild location strings.
  void stampLoc(const SourceLoc &StaticLoc);

  const SourceLoc &loc() const { return *CurLoc; }
  /// @}

  /// \name Inputs and outputs (spots)
  /// @{

  /// Binds the current input tuple; Real::input / input(I) read it. The
  /// pointer must stay valid until rebound (the engine binds each sampled
  /// tuple for the duration of one kernel invocation).
  void bindInputs(const double *Vals, size_t N);

  /// A shadowed input value: bound input \p I (asserts when unbound).
  Real input(size_t I);

  /// A shadowed input value carrying \p V (standalone use, no binding).
  Real input(size_t I, double V);

  /// Records an output spot for \p R at the current location and returns
  /// its concrete double (Section 4.2: outputs are where error becomes
  /// observable).
  double output(const Real &R);
  /// @}

  /// Runs \p K once on one input tuple: binds the inputs, activates this
  /// context, and invokes the kernel function. Records accumulate.
  void run(const Kernel &K, const double *Vals, size_t N);
  void run(const Kernel &K, const std::vector<double> &Vals);

  /// Runs \p K on \p NumTuples input tuples, one after another: exactly
  /// NumTuples sequential run() calls. Kept only for callers that still
  /// use the name; new code calls run().
  void runBatch(const Kernel &K, const std::vector<double> *Tuples,
                size_t NumTuples);

  /// Cumulative cost/size counters (records, snapshot, config and the
  /// tier-0 verdict come from the Analyzer).
  ContextStats stats() const;

  /// \name Op dispatch backing Real's operators
  /// The context is chosen from the operands (first shadowed one wins),
  /// falling back to active(); with no context anywhere the op evaluates
  /// concretely, unshadowed. User code normally writes `a + b`, not these.
  /// @{
  static Real unaryOp(Opcode Op, const Real &A);
  static Real binaryOp(Opcode Op, const Real &A, const Real &B);
  static Real ternaryOp(Opcode Op, const Real &A, const Real &B,
                        const Real &C);
  static bool comparisonOp(Opcode Op, const Real &A, const Real &B);
  static int64_t conversionOp(const Real &A);
  /// @}

  /// Clears every accumulated record and rewinds the arenas in place
  /// (slabs, interned influence sets, and the site-intern table survive),
  /// returning the context to its freshly-constructed condition. Every
  /// Real shadowed by this context must already have died; the batch
  /// engine uses this to recycle worker-local contexts across shards, and
  /// a reset context produces records identical to a new one's.
  void reset();

private:
  friend class Real;

  /// One entry of the thread's activation list. Entries are embedded in
  /// the objects that create them (contexts, run() frames), so the list
  /// needs no storage of its own: the thread-local head stays a trivially
  /// destructible raw pointer (safe under TLS teardown) and there is no
  /// depth limit.
  struct ActivationLink {
    Context *Ctx = nullptr;
    ActivationLink *Next = nullptr;
  };

  /// RAII activation used by run(); the constructor also activates.
  struct Activation {
    explicit Activation(Context &C);
    ~Activation();
    ActivationLink Link;
  };

  static void pushLink(ActivationLink &L);
  static void unlink(ActivationLink &L);

  /// Head of this thread's activation list (a raw pointer on purpose:
  /// trivially destructible, so TLS teardown order cannot dangle it).
  static thread_local ActivationLink *ActiveHead;

  /// Interns (current location, tag) to the stable 32-bit site id;
  /// \p Slot caches the answer for the current location's slot array.
  uint32_t internSite(const char *Tag, uint32_t &Slot);
  uint32_t opSite(Opcode Op);
  uint32_t outputSite();

  /// The cached site-id slot array for a location key (one array per
  /// HG_LOC callsite, persisted across reset -- ids are content-derived).
  uint32_t *slotsFor(const void *Key);

  /// The context an operation should record under: the first operand
  /// bound to one wins, else the thread's active context, else nullptr
  /// (pure constant math stays unshadowed).
  static Context *ofOperands(const Real *const *Args, unsigned N);

  /// The operand's shadow value under this context. Installs a lazy leaf
  /// shadow on the Real when it belongs here (or is still unshadowed);
  /// for a Real bound to a *different* context the shadow is ephemeral --
  /// returned in \p Ephemeral for the caller to release -- and carries
  /// only the concrete bits.
  ShadowValue *shadowOf(const Real &R, ShadowValue *&Ephemeral);

  /// The Real's shadow if it belongs to this context, else null (spots
  /// read shadows but never create them).
  ShadowValue *ownShadow(const Real &R) const {
    return R.Ctx == this ? R.SV : nullptr;
  }

  /// One scalar float op: Real.cpp's operators funnel here.
  Real applyOp(Opcode Op, const Real *const *Args, unsigned N);
  /// One float comparison: records a comparison spot, returns the float
  /// predicate.
  bool applyComparison(Opcode Op, const Real &A, const Real &B);
  /// One float-to-int truncation: records a conversion spot.
  int64_t applyConversion(const Real &A);

  void retainShadow(ShadowValue *SV);
  void releaseShadow(ShadowValue *SV);

  const double *Inputs = nullptr;
  size_t NumInputs = 0;
  uint64_t SpotOps = 0;
  uint64_t Collisions = 0;

  /// Interned-site table: hashed id -> canonical key string, for
  /// collision accounting. Content-derived ids survive reset().
  std::unordered_map<uint32_t, std::string> SiteKeys;
  /// Colliding site keys already counted in Collisions (each distinct
  /// site counts once, however often it re-interns).
  std::unordered_set<std::string> CollidedKeys;

  /// Per-opcode site-id slots (+1 for the output spot's "out" tag;
  /// float-to-int conversions key through their own opcode's slot).
  static constexpr unsigned NumSiteSlots =
      static_cast<unsigned>(Opcode::NumOpcodes) + 1;
  using SiteSlots = std::array<uint32_t, NumSiteSlots>;

  /// The current location (never null: points at the unknown-location
  /// sentinel, an HG_LOC static, or OwnLoc) and its slot array.
  const SourceLoc *CurLoc;
  uint32_t *Slots;
  /// Storage behind setLoc-by-value locations, with its own (flushed per
  /// setLoc) slot array.
  SourceLoc OwnLoc;
  SiteSlots OwnSlots;
  /// Slot arrays for static location keys, persisted across reset so a
  /// marked loop's sites intern exactly once per context lifetime.
  std::unordered_map<const void *, SiteSlots> StaticSlotCache;
  /// This context's construction-time activation entry.
  ActivationLink SelfLink;
};

} // namespace native
} // namespace herbgrind

#endif // HERBGRIND_NATIVE_CONTEXT_H
