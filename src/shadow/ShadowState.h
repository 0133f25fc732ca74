//===- shadow/ShadowState.h - Shadow values and shadow storage --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow state (Sections 4.1, 5.1, 5.2): each shadowed float value pairs a
/// high-precision real, a concrete expression trace, and an influence set.
/// Shadow values are reference-counted and pool-allocated so copies through
/// temporaries, thread state, and memory share one object (Section 6
/// "Sharing"). Storage mirrors VEX's three kinds:
///
///  * shadow temporaries: typed, SIMD-aware (one shadow per lane);
///  * shadow thread state: byte-offset keyed cells with overlap
///    invalidation (registers are untyped bytes);
///  * shadow memory: a lazily-populated hash table from addresses to
///    cells -- memory is too large to shadow eagerly (Section 5.2), so a
///    location is only shadowed once a float value is stored there.
///
/// SIMD stores write one cell per lane, which is what lets client programs
/// write a vector and read a scalar back at an offset. Misaligned or
/// partially-overlapping accesses conservatively drop shadows.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SHADOW_SHADOWSTATE_H
#define HERBGRIND_SHADOW_SHADOWSTATE_H

#include "real/BigFloat.h"
#include "shadow/InfluenceSet.h"
#include "support/Pool.h"
#include "trace/SymExpr.h"
#include "trace/TraceNode.h"

#include <array>
#include <map>
#include <unordered_map>

namespace herbgrind {

/// One shadowed scalar float value. Two flavours share this struct: the
/// full 256-bit shadow (Real/Trace/Influences populated) and the tier-0
/// predicate shadow (Trace == nullptr; only PredDelta/PredNoise are
/// meaningful, Real is whatever the pool slot last held and must not be
/// read).
struct ShadowValue {
  BigFloat Real;
  TraceNode *Trace = nullptr;          ///< One reference owned; null in
                                       ///< predicate-only values.
  const InflSet *Influences = nullptr; ///< Interned; not owned.
  double PredDelta = 0.0; ///< Tier-0 signed estimate of (real - concrete)
                          ///< (predicate values only).
  double PredNoise = 0.0; ///< Tier-0 bound on the estimate's own error;
                          ///< |real - concrete| <= |PredDelta| + PredNoise.
  ValueType Ty = ValueType::F64;       ///< F64 or F32.
  uint32_t RefCount = 0;
};

/// Owns all shadow storage for one analysis run.
class ShadowState {
public:
  ShadowState(TraceArena &Arena, InfluenceSets &Sets, uint32_t NumTemps,
              bool UsePool = true, bool ShareValues = true)
      : Arena(Arena), Sets(Sets), ValuePool(UsePool),
        ShareValues(ShareValues), Temps(NumTemps) {}

  ~ShadowState();

  ShadowState(const ShadowState &) = delete;
  ShadowState &operator=(const ShadowState &) = delete;

  /// Releases every held shadow value and clears all storage, leaving the
  /// state exactly as freshly constructed -- but keeping the value pool's
  /// slabs and the memory table's buckets, so a reset-and-rerun (the batch
  /// engine's per-run cycle within a shard) re-allocates no shadow-value
  /// storage. Note the scope: the map/unordered_map *node* allocations of
  /// shadow memory and thread state are still freed here and re-made by
  /// the next run's stores. The benches' zero-allocation gate runs
  /// programs that keep their floats in temporaries, so it does not cover
  /// these cells.
  void reset();

  /// Creates a shadow value; takes ownership of one reference to \p Trace.
  /// The caller receives one reference to the result.
  ShadowValue *create(BigFloat Real, TraceNode *Trace, const InflSet *Infl,
                      ValueType Ty);

  /// Creates a tier-0 predicate shadow value: no BigFloat conversion, no
  /// trace node, no influence set -- just the conservative running-error
  /// pair. The caller receives one reference.
  ShadowValue *createPredicate(double PredDelta, double PredNoise,
                               ValueType Ty);

  void retain(ShadowValue *SV);
  void release(ShadowValue *SV);

  /// Reference-or-copy, depending on the sharing optimization toggle: the
  /// returned value carries one reference owned by the caller.
  ShadowValue *share(ShadowValue *SV);

  /// \name Shadow temporaries (per-lane for SIMD).
  /// @{
  ShadowValue *tempLane(uint32_t Temp, unsigned Lane) const;
  /// Takes ownership of \p SV's reference (may be null to clear the lane).
  void setTempLane(uint32_t Temp, unsigned Lane, ShadowValue *SV);
  void clearTemp(uint32_t Temp);
  /// @}

  /// \name Shadow thread state.
  /// @{
  ShadowValue *getThreadState(int64_t Offset, unsigned Size) const;
  /// Invalidates overlaps, then installs \p SV (takes ownership; null just
  /// invalidates).
  void putThreadState(int64_t Offset, unsigned Size, ShadowValue *SV);
  /// @}

  /// \name Shadow memory (lazy hash table).
  /// @{
  ShadowValue *getMemory(uint64_t Addr, unsigned Size) const;
  void putMemory(uint64_t Addr, unsigned Size, ShadowValue *SV);
  void invalidateMemory(uint64_t Addr, unsigned Size);
  /// @}

  size_t liveValues() const { return ValuePool.live(); }
  size_t totalValuesCreated() const { return ValuePool.totalAllocated(); }
  size_t shadowedMemoryCells() const { return Memory.size(); }

  TraceArena &arena() { return Arena; }
  InfluenceSets &sets() { return Sets; }

  /// The anti-unification scratch of record updates, reused op over op so
  /// a shadowed op does not allocate its tables or outputs.
  AntiUnifyScratch &antiUnifyScratch() { return AntiUnify; }

private:
  struct Cell {
    ShadowValue *SV = nullptr;
    unsigned Size = 0;
  };

  void invalidateThreadState(int64_t Offset, unsigned Size);

  TraceArena &Arena;
  InfluenceSets &Sets;
  Pool<ShadowValue> ValuePool;
  bool ShareValues;

  std::vector<std::array<ShadowValue *, 4>> Temps;
  std::map<int64_t, Cell> ThreadState; ///< ordered: range scans
  std::unordered_map<uint64_t, Cell> Memory;
  AntiUnifyScratch AntiUnify;
};

} // namespace herbgrind

#endif // HERBGRIND_SHADOW_SHADOWSTATE_H
