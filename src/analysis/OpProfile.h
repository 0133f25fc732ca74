//===- analysis/OpProfile.h - Hot-op shadow-cost profiler -------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "where the 6600x goes" profiler: an opt-in sampling mode that
/// attributes shadow-op wall time and BigFloat limb traffic to the same
/// per-site identities the analysis reports use -- an interpreter PC or an
/// interned native `(HG_LOC, opcode)` callsite, both of which resolve to
/// `(SourceLoc, Opcode)` pairs. Enabling it makes `Analyzer::op` (the
/// full shadow) bracket each (sampled) execution with a steady-clock read
/// and a limballoc counter delta, folded into the execution's `OpRecord`
/// and the global metrics counters.
///
/// The accumulated cost lives in OpRecord fields that are deliberately
/// *outside* the wire format: they are never serialized, never rendered
/// into reports, and therefore cannot perturb the byte-identity contract.
/// (The flip side: shards replayed from the result cache executed no
/// shadow ops and carry no cost, which is exactly what they cost.)
///
/// `herbgrind_batch --profile-ops` enables sampling, ranks the merged rows
/// by estimated nanoseconds, and prints the table this header renders;
/// `bench_engine_scaling` folds the top rows into BENCH_engine.json.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_OPPROFILE_H
#define HERBGRIND_ANALYSIS_OPPROFILE_H

#include "ir/Opcode.h"
#include "support/SourceLoc.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace herbgrind {

struct OpRecord;

namespace opprof {

/// Implementation detail of the inline fast path; treat as private.
extern std::atomic<uint32_t> SamplePeriodAtomic;

/// Whether profiling is on at all: one relaxed load, the only cost the
/// shadow hot path pays when the profiler is disabled (the default).
inline bool enabled() {
  return SamplePeriodAtomic.load(std::memory_order_relaxed) != 0;
}

/// Turns profiling on, measuring every \p SamplePeriod-th shadow op
/// (1 = measure every execution; estimates then equal measurements).
void enable(uint32_t SamplePeriod = 1);

/// Turns profiling off.
void disable();

/// The active sample period (0 when disabled).
uint32_t samplePeriod();

bool shouldSampleSlow();

/// Decides whether this shadow-op execution is measured (per-thread
/// round-robin against the sample period).
inline bool shouldSample() { return enabled() && shouldSampleSlow(); }

/// Folds one measured execution into \p Rec and the profile.* metrics.
void recordSample(OpRecord &Rec, uint64_t Nanos, uint64_t LimbAllocs,
                  uint64_t LimbHits);

/// One ranked row: accumulated cost of a `(SourceLoc, Opcode)` site.
struct OpProfileRow {
  Opcode Op = Opcode::AddF64;
  SourceLoc Loc;
  uint64_t Executions = 0;
  uint64_t Samples = 0;
  uint64_t Nanos = 0;      ///< Measured wall nanoseconds (sampled subset).
  uint64_t LimbAllocs = 0; ///< Limb blocks that hit operator new[].
  uint64_t LimbHits = 0;   ///< Limb blocks served from the thread cache.

  /// Measured nanoseconds scaled up to all executions (equals Nanos at
  /// sample period 1).
  double estNanos() const {
    return Samples == 0
               ? 0.0
               : static_cast<double>(Nanos) *
                     (static_cast<double>(Executions) /
                      static_cast<double>(Samples));
  }
};

/// Accumulates profile rows from one analysis' op records into \p Rows,
/// merging by `(Loc, Op)` identity; call once per benchmark report, then
/// finalize.
void accumulateOpProfile(const std::map<uint32_t, OpRecord> &Ops,
                         std::vector<OpProfileRow> &Rows);

/// Folds \p Src into \p Dst by `(Loc, Op)` identity, summing every cost
/// field -- the row-level counterpart of accumulateOpProfile, used to
/// merge telemetry documents from distributed sweep slices. Associative
/// and commutative up to row order; re-finalize after merging to restore
/// the ranking.
void mergeOpProfileRows(std::vector<OpProfileRow> &Dst,
                        const std::vector<OpProfileRow> &Src);

/// Sorts rows by descending estimated cost (ties by location then opcode,
/// so the ranking is deterministic).
void finalizeOpProfile(std::vector<OpProfileRow> &Rows);

/// Renders the ranked cost table (top \p TopN rows; 0 = all) against the
/// given total measured shadow nanoseconds (the "profile.shadow_ns"
/// counter), e.g. for the CLI's stderr summary.
std::string renderOpProfileTable(const std::vector<OpProfileRow> &Rows,
                                 size_t TopN, uint64_t TotalNanos);

} // namespace opprof
} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_OPPROFILE_H
