//===- support/Metrics.h - Lock-cheap metrics registry ----------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide telemetry registry: named counters, gauges, and timer
/// histograms that every subsystem (engine, thread pool, result cache,
/// limb allocator, batch improver, op profiler) reports into, surfaced as
/// one merged snapshot by `herbgrind_batch --metrics-out` and the
/// `--progress` heartbeat.
///
/// The design goal is a hot path cheap enough to leave always on:
///
///  * **Counters and timers are per-thread sharded.** Each thread owns a
///    slab of relaxed-atomic cells; `Counter::add` is one uncontended
///    fetch_add on the calling thread's cell, with no lock and no
///    cross-core cache-line traffic. `snapshot()` merges the slabs (plus
///    the retained totals of threads that have exited -- pool workers die
///    with their pool, their counts must not).
///
///  * **Gauges are single shared cells.** Level signals (queue depth,
///    shards-total) do not sum across threads, so a gauge is one atomic
///    value plus a high-watermark, updated wherever the level changes.
///
///  * **Registration is by name, idempotent, and cheap to cache.** Call
///    `metrics::counter("engine.shards_done")` once (a function-local
///    static is the intended idiom) and keep the returned handle; the
///    handle is a plain index, trivially copyable.
///
/// Telemetry is strictly observational: nothing here feeds analysis
/// output, so enabling any of it cannot perturb report bytes (tested in
/// test_telemetry.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_METRICS_H
#define HERBGRIND_SUPPORT_METRICS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace herbgrind {
namespace metrics {

/// Monotonic wall-clock nanoseconds (steady_clock); the time base of
/// timers, spans, and the op profiler.
uint64_t nowNanos();

/// A monotonically increasing count (events, bytes, nanoseconds). Handles
/// are plain indices: copy them freely, keep them in statics.
class Counter {
public:
  Counter() = default;
  /// Adds \p N on the calling thread's shard (relaxed, uncontended).
  void add(uint64_t N = 1) const;

private:
  friend Counter counter(const char *Name);
  explicit Counter(uint32_t Cell) : Cell(Cell) {}
  uint32_t Cell = UINT32_MAX;
};

/// Registers (or finds) the counter named \p Name.
Counter counter(const char *Name);

/// A level signal (queue depth, shards in flight). One shared cell: set
/// and add are atomic; the snapshot also reports the historical maximum.
class Gauge {
public:
  Gauge() = default;
  void set(int64_t V) const;
  void add(int64_t D) const;
  void sub(int64_t D) const { add(-D); }

private:
  friend Gauge gauge(const char *Name);
  explicit Gauge(void *CellPtr) : CellPtr(CellPtr) {}
  void *CellPtr = nullptr;
};

/// Registers (or finds) the gauge named \p Name.
Gauge gauge(const char *Name);

/// Histogram bucket count: durations bucket by floor(log2(nanoseconds)),
/// clamped to the last bucket (2^31 ns ~ 2.1 s and beyond).
constexpr unsigned TimerBuckets = 32;

/// A duration histogram: count, sum, max, and log2-of-nanoseconds
/// buckets, all per-thread sharded like counters.
class Timer {
public:
  Timer() = default;
  void record(uint64_t Nanos) const;

private:
  friend Timer timer(const char *Name);
  explicit Timer(uint32_t Cell) : Cell(Cell) {}
  /// Base of a contiguous cell block: [count, sum, max, buckets...].
  uint32_t Cell = UINT32_MAX;
};

/// Registers (or finds) the timer named \p Name.
Timer timer(const char *Name);

/// \name Snapshot: the merged view of every registered metric
/// @{

struct CounterSample {
  std::string Name;
  uint64_t Value = 0;
};

struct GaugeSample {
  std::string Name;
  int64_t Value = 0;
  int64_t Max = 0; ///< Historical maximum since the last resetAll().
};

struct TimerSample {
  std::string Name;
  uint64_t Count = 0;
  uint64_t SumNanos = 0;
  uint64_t MaxNanos = 0;
  std::array<uint64_t, TimerBuckets> Buckets{};
};

/// One merged, name-sorted view over all threads (live and exited).
struct Snapshot {
  std::vector<CounterSample> Counters;
  std::vector<GaugeSample> Gauges;
  std::vector<TimerSample> Timers;

  /// Convenience lookups; a missing name reads as zero / null.
  uint64_t counterValue(const std::string &Name) const;
  const GaugeSample *findGauge(const std::string &Name) const;
  const TimerSample *findTimer(const std::string &Name) const;

  /// Folds another snapshot into this one, name by name (missing names
  /// are inserted; the result stays name-sorted). This is the merge
  /// algebra that makes telemetry documents from distributed sweep
  /// slices aggregatable: counters sum; timers sum Count/SumNanos and
  /// every histogram bucket and take the max of MaxNanos; gauges treat
  /// Value and Max as additive levels (two machines' worker counts,
  /// queue depths, and shard-slice totals add -- so the summed watermark
  /// is an upper bound on the true combined peak, and slice totals like
  /// engine.shards_total recover the single-machine value exactly).
  /// The fold is associative and commutative with the empty snapshot as
  /// identity, so any merge tree over the same docs gives the same bytes.
  void mergeFrom(const Snapshot &Other);
};

/// Merges every thread's shards into one snapshot (sorted by name, so
/// rendering is deterministic given deterministic values).
Snapshot snapshot();

/// Zeroes every counter, gauge, timer, and retained exited-thread total.
/// Registration survives. Meant for process/test boundaries; concurrent
/// writers see a benign torn reset, never corruption.
void resetAll();

/// @}

} // namespace metrics
} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_METRICS_H
