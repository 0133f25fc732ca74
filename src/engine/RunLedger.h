//===- engine/RunLedger.h - Persistent sweep run ledger ---------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run ledger: an append-only directory of one durable envelope per
/// sweep (`analysis/Serialize`'s LedgerEntry -- config hash, wire format,
/// tier/cache/pool stats, wall time, and the sweep's merged metrics
/// snapshot, stamped with host and timestamp). Where the telemetry
/// document answers "what did this process do", the ledger answers "how
/// has this configuration behaved over time": `herbgrind_batch ledger
/// list|show|compare` browses it, and `ledgerCompare` flags regressions
/// (wall time, cache hit rate, escalation fraction, steady-state heap
/// allocs) against a chosen baseline entry with configurable thresholds.
///
/// Entries are one JSON file each (`entry-<wallclock ns>-<pid>.json`),
/// written atomically, so concurrent sweeps on a shared directory never
/// interleave and "append" needs no locking. Readers sniff the encoding
/// per entry, so `.hgb` entries (older writers, `json2hgb`) still list.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ENGINE_RUNLEDGER_H
#define HERBGRIND_ENGINE_RUNLEDGER_H

#include "analysis/Serialize.h"
#include "engine/Engine.h"

#include <string>
#include <vector>

namespace herbgrind {
namespace engine {

/// This machine's hostname ("unknown" if the platform won't say).
std::string hostName();

/// Wall-clock nanoseconds since the Unix epoch (the ledger ordering key;
/// metrics::nowNanos() is monotonic and unsuitable for cross-run order).
uint64_t wallClockNanos();

/// \p UnixSeconds rendered as ISO-8601 UTC ("2026-08-08T12:34:56Z").
std::string isoTimestampUtc(uint64_t UnixSeconds);

/// Builds a ledger entry from a finished sweep: config knobs and stats
/// from the engine, provenance (host/timestamp) from this machine, and
/// the process's merged metrics snapshot. \p Label distinguishes entries
/// sharing a directory ("sweep", a bench section name, ...).
LedgerEntry makeLedgerEntry(const EngineConfig &Cfg, const EngineStats &Stats,
                            const std::string &Label);

/// Appends \p Entry to the ledger directory \p Dir (created if missing)
/// as one atomically-written JSON file. On success \p PathOut names the
/// entry file.
bool ledgerAppend(const std::string &Dir, const LedgerEntry &Entry,
                  std::string &PathOut, std::string &Err);

/// Loads every entry in \p Dir, oldest first (by recorded wall-clock
/// timestamp, then filename). \p Paths parallels \p Out. An unparseable
/// file fails the whole list -- a ledger with corrupt entries should be
/// loud, not quietly shorter.
bool ledgerList(const std::string &Dir, std::vector<LedgerEntry> &Out,
                std::vector<std::string> &Paths, std::string &Err);

/// Regression thresholds for ledgerCompare. Fractions are relative to
/// the baseline value; rate deltas are absolute (a hit *rate* lives in
/// [0, 1] already).
struct LedgerThresholds {
  /// Wall time may grow by this fraction before it flags (0.25 = +25%).
  double WallFrac = 0.25;
  /// Result-cache hit rate may drop by this much, absolute (0.10 = ten
  /// percentage points). Only judged when the baseline did lookups.
  double CacheHitDrop = 0.10;
  /// Escalation fraction (escalated runs / runs) may rise by this much,
  /// absolute. Only judged when both entries ran a tiered sweep.
  double EscalationRise = 0.10;
  /// Steady-state limb heap allocations may grow by this fraction...
  double HeapFrac = 0.10;
  /// ...plus this absolute slack, so a 0-alloc baseline tolerates noise
  /// without flagging the first stray allocation.
  uint64_t HeapSlack = 256;
};

/// One flagged regression: the metric, both values, and the limit the
/// current value crossed.
struct LedgerRegression {
  std::string Metric; ///< "wall_seconds", "cache_hit_rate",
                      ///< "escalation_fraction", or "limb_heap_allocs".
  double Baseline = 0.0;
  double Current = 0.0;
  double Limit = 0.0; ///< The threshold-derived bound that was crossed.
};

/// Judges \p Current against \p Baseline. Returns every regression the
/// thresholds flag (empty = no regression). Comparing entries with
/// different config hashes is allowed -- the caller decides whether that
/// comparison means anything -- but see LedgerEntry::ConfigHash.
std::vector<LedgerRegression>
ledgerCompare(const LedgerEntry &Baseline, const LedgerEntry &Current,
              const LedgerThresholds &T = {});

} // namespace engine
} // namespace herbgrind

#endif // HERBGRIND_ENGINE_RUNLEDGER_H
