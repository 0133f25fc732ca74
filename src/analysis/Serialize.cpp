//===- analysis/Serialize.cpp - Result wire format ------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Every schema element below is written once, as a traversal
// `xferX(IO &X, Ref<IO, T> V)` compiled for exactly two codecs:
// wire::Encoder renders through it and wire::Decoder parses through it, so
// the field order written is the field order read. That order IS the wire
// format -- both the JSON byte layout and the HGB binary field sequence --
// so changing it is a format change. Checks only a reader needs (enum
// names, duplicate pcs, run ranges, bucket counts, [lo, hi] pairs) sit
// under `if constexpr (IO::Reads)`; a field a minor version added is read
// only from documents of that minor on (telemetry's meta, shard totals).
//
//===----------------------------------------------------------------------===//

#include "analysis/Serialize.h"

#include "support/Format.h"
#include "support/Json.h"
#include "support/Wire.h"
#include "support/WireBinary.h"

using namespace herbgrind;
using wire::Ref;

//===----------------------------------------------------------------------===//
// Helpers shared by the traversals
//===----------------------------------------------------------------------===//

const char *herbgrind::spotKindName(SpotKind K) {
  switch (K) {
  case SpotKind::Output:
    return "Output";
  case SpotKind::Comparison:
    return "Compare";
  case SpotKind::Conversion:
    return "Conversion";
  }
  return "?";
}

static const char *rangeModeName(RangeMode M) {
  switch (M) {
  case RangeMode::Off:
    return "off";
  case RangeMode::Single:
    return "single";
  case RangeMode::SignSplit:
    return "sign-split";
  }
  return "?";
}

/// An opcode's IR mnemonic (the unique "add.f64"-style name).
static const char *opcodeName(Opcode Op) { return opInfo(Op).Name; }

static constexpr unsigned NumOpcodes =
    static_cast<unsigned>(Opcode::NumOpcodes);

namespace {

/// Names a decoder's schema context ("op record", "loc", ...) for the
/// dynamic extent of one traversal, restoring the caller's on exit so
/// nested traversals don't mislabel the fields that follow them. Encoders
/// report no errors, so it does nothing for them.
template <class IO> struct ScopedCtx {
  IO &X;
  const char *Saved = nullptr;
  ScopedCtx(IO &Codec, const char *C) : X(Codec) {
    if constexpr (IO::Reads) {
      Saved = X.context();
      X.setContext(C);
    }
  }
  ~ScopedCtx() {
    if constexpr (IO::Reads)
      X.setContext(Saved);
  }
};

} // namespace

/// An enum carried by its name: \p Name of each of its \p Count values. A
/// name that matches none fails the decode with "<Unknown> '<name>'".
template <class IO, class E>
static bool xferEnum(IO &X, Ref<IO, E> V, unsigned Count,
                     const char *(*Name)(E), const char *Unknown) {
  std::string S;
  if constexpr (!IO::Reads)
    S = Name(V);
  if (!X.str(S))
    return false;
  if constexpr (IO::Reads) {
    for (unsigned I = 0; I < Count; ++I)
      if (S == Name(static_cast<E>(I))) {
        V = static_cast<E>(I);
        return true;
      }
    return X.failOver(format("%s '%s'", Unknown, S.c_str()));
  }
  return true;
}

/// An array of \p V's elements, each through \p Elem. A decoder appends
/// each element as it reads it, so a hostile count fails at the first
/// missing element instead of allocating up front.
template <class IO, class C, class Fn>
static bool xferArray(IO &X, C &V, Fn Elem) {
  uint64_t N = V.size();
  if (!X.beginArray(N))
    return false;
  if constexpr (IO::Reads) {
    for (uint64_t I = 0; I < N; ++I) {
      typename C::value_type E{};
      if (!X.element() || !Elem(E))
        return false;
      V.insert(V.end(), std::move(E));
    }
  } else {
    for (const auto &E : V)
      if (!X.element() || !Elem(E))
        return false;
  }
  return X.endArray();
}

/// A result's pc-keyed record map, as an array of records that carry
/// their own pc (\p Elem transfers both). A decoder rejects a pc it has
/// already read.
template <class IO, class Map, class Fn>
static bool xferRecords(IO &X, Map &M, const char *What, Fn Elem) {
  uint64_t N = M.size();
  if (!X.beginArray(N))
    return false;
  if constexpr (IO::Reads) {
    for (uint64_t I = 0; I < N; ++I) {
      uint32_t PC = 0;
      typename Map::mapped_type Rec;
      if (!X.element() || !Elem(PC, Rec))
        return false;
      if (!M.emplace(PC, std::move(Rec)).second)
        return X.failOver(
            format("result: duplicate %s record for pc %u", What, PC));
    }
  } else {
    for (const auto &[PC, Rec] : M)
      if (!X.element() || !Elem(PC, Rec))
        return false;
  }
  return X.endArray();
}

//===----------------------------------------------------------------------===//
// Source locations and running statistics
//===----------------------------------------------------------------------===//

template <class IO>
static bool xferSourceLoc(IO &X, Ref<IO, SourceLoc> V) {
  ScopedCtx C(X, "loc");
  return X.beginObject() && X.key("file") && X.str(V.File) &&
         X.key("line") && X.i32(V.Line) && X.key("func") &&
         X.str(V.Function) && X.endObject();
}

template <class IO>
static bool xferStat(IO &X, Ref<IO, RunningStat> V) {
  ScopedCtx C(X, "stat");
  uint64_t Count = V.count();
  double Sum = V.sum(), Max = V.max();
  if (!X.beginObject() || !X.key("count") || !X.u64(Count) ||
      !X.key("sum") || !X.dbl(Sum) || !X.key("max") || !X.dbl(Max) ||
      !X.endObject())
    return false;
  if constexpr (IO::Reads)
    V = RunningStat::fromParts(Count, Sum, Max);
  return true;
}

//===----------------------------------------------------------------------===//
// Input summaries
//===----------------------------------------------------------------------===//

template <class IO>
static bool xferVarSummary(IO &X, Ref<IO, VarSummary> V) {
  ScopedCtx C(X, "varSummary");
  // Each populated range is a [lo, hi] pair whose presence is its flag.
  auto Range = [&](const char *Key, auto &Has, auto &Lo, auto &Hi) {
    if (!X.present(Key, Has))
      return false;
    if (!Has)
      return true;
    uint64_t N = 2;
    if (!X.key(Key) || !X.beginArray(N))
      return false;
    if constexpr (IO::Reads) {
      if (N != 2)
        return X.failOver(format(
            "varSummary: field '%s' not a [lo, hi] number pair", Key));
    }
    return X.element() && X.dbl(Lo) && X.element() && X.dbl(Hi) &&
           X.endArray();
  };
  return X.beginObject() && X.key("count") && X.u64(V.Count) &&
         X.key("sawNaN") && X.boolean(V.SawNaN) && X.key("sawZero") &&
         X.boolean(V.SawZero) && X.key("example") && X.dbl(V.Example) &&
         Range("range", V.HasRange, V.Lo, V.Hi) &&
         Range("neg", V.HasNeg, V.NegLo, V.NegHi) &&
         Range("pos", V.HasPos, V.PosLo, V.PosHi) && X.endObject();
}

template <class IO>
static bool xferInputs(IO &X, Ref<IO, InputCharacteristics> V) {
  ScopedCtx C(X, "inputs");
  return xferArray(X, V.Vars,
                   [&](auto &S) { return xferVarSummary<IO>(X, S); });
}

//===----------------------------------------------------------------------===//
// Symbolic expressions
//===----------------------------------------------------------------------===//

static const char *const SymExprKeys[] = {"const", "var"};

template <class IO>
static bool xferSymExpr(IO &X, Ref<IO, SymExpr> V);

/// An owned expression node; a decoder allocates it first.
template <class IO>
static bool xferExprPtr(IO &X, Ref<IO, std::unique_ptr<SymExpr>> P) {
  if constexpr (IO::Reads)
    P = std::make_unique<SymExpr>();
  return xferSymExpr<IO>(X, *P);
}

template <class IO>
static bool xferSymExpr(IO &X, Ref<IO, SymExpr> V) {
  using K = SymExpr::SEKind;
  ScopedCtx C(X, "expr");
  // Variant tags follow SymExprKeys; an op node is the default branch.
  unsigned Tag = V.Kind == K::Const ? 0 : V.Kind == K::Var ? 1 : 2;
  if (!X.beginObject() || !X.variant(SymExprKeys, 2, Tag))
    return false;
  if constexpr (IO::Reads)
    V.Kind = Tag == 0 ? K::Const : Tag == 1 ? K::Var : K::Op;
  bool Ok;
  switch (V.Kind) {
  case K::Const:
    Ok = X.key("const") && X.dbl(V.ConstVal);
    break;
  case K::Var:
    Ok = X.key("var") && X.u32(V.VarIdx);
    break;
  default:
    Ok = X.key("op") &&
         xferEnum<IO>(X, V.Op, NumOpcodes, opcodeName,
                      "expr: unknown opcode") &&
         X.key("site") && X.u32(V.Site) && X.key("kids") &&
         xferArray(X, V.Kids,
                   [&](auto &Kid) { return xferExprPtr<IO>(X, Kid); });
    break;
  }
  return Ok && X.endObject();
}

//===----------------------------------------------------------------------===//
// Operation and spot records
//===----------------------------------------------------------------------===//

template <class IO>
static bool xferOpRecord(IO &X, Ref<IO, uint32_t> PC, Ref<IO, OpRecord> V) {
  ScopedCtx C(X, "op record");
  if (!X.beginObject() || !X.key("pc") || !X.u32(PC) || !X.key("op") ||
      !xferEnum<IO>(X, V.Op, NumOpcodes, opcodeName,
                    "op record: unknown opcode") ||
      !X.key("loc") || !xferSourceLoc<IO>(X, V.Loc) ||
      !X.key("executions") || !X.u64(V.Executions) || !X.key("flagged") ||
      !X.u64(V.Flagged) || !X.key("compensations") ||
      !X.u64(V.CompensationsDetected) || !X.key("localError") ||
      !xferStat<IO>(X, V.LocalError) || !X.key("maxFlaggedLocalError") ||
      !X.dbl(V.MaxFlaggedLocalError) || !X.key("nextVarIdx") ||
      !X.u32(V.NextVarIdx))
    return false;
  bool HasExpr = V.Expr != nullptr;
  if (!X.present("expr", HasExpr) ||
      (HasExpr && (!X.key("expr") || !xferExprPtr<IO>(X, V.Expr))))
    return false;
  return X.key("totalInputs") && xferInputs<IO>(X, V.TotalInputs) &&
         X.key("problematicInputs") &&
         xferInputs<IO>(X, V.ProblematicInputs) &&
         X.key("exampleProblematic") &&
         xferArray(X, V.ExampleProblematic,
                   [&](auto &B) {
                     ScopedCtx BC(X, "example binding");
                     return X.beginObject() && X.key("var") &&
                            X.u32(B.Idx) && X.key("value") &&
                            X.dbl(B.Value) && X.endObject();
                   }) &&
         X.endObject();
}

template <class IO>
static bool xferSpotRecord(IO &X, Ref<IO, uint32_t> PC,
                           Ref<IO, SpotRecord> V) {
  ScopedCtx C(X, "spot record");
  return X.beginObject() && X.key("pc") && X.u32(PC) && X.key("kind") &&
         xferEnum<IO>(X, V.Kind, 3, spotKindName,
                      "spot record: unknown kind") &&
         X.key("loc") && xferSourceLoc<IO>(X, V.Loc) &&
         X.key("executions") && X.u64(V.Executions) &&
         X.key("erroneous") && X.u64(V.Erroneous) && X.key("errorBits") &&
         xferStat<IO>(X, V.ErrorBits) && X.key("influencingOps") &&
         xferArray(X, V.InfluencingOps,
                   [&](auto &Op) { return X.u32(Op); }) &&
         X.endObject();
}

//===----------------------------------------------------------------------===//
// Analysis results and shard documents
//===----------------------------------------------------------------------===//

template <class IO>
static bool xferAnalysisResult(IO &X, Ref<IO, AnalysisResult> V) {
  ScopedCtx C(X, "result");
  return X.beginObject() && X.key("ranges") &&
         xferEnum<IO>(X, V.Ranges, 3, rangeModeName,
                      "result: unknown range mode") &&
         X.key("equivDepth") && X.u32(V.EquivDepth) && X.key("ops") &&
         xferRecords(X, V.Ops, "op",
                     [&](auto &PC, auto &Rec) {
                       return xferOpRecord<IO>(X, PC, Rec);
                     }) &&
         X.key("spots") &&
         xferRecords(X, V.Spots, "spot",
                     [&](auto &PC, auto &Rec) {
                       return xferSpotRecord<IO>(X, PC, Rec);
                     }) &&
         X.endObject();
}

/// A shard document's body, field by field, so the engine can render
/// records it does not own as a ShardDoc. \p Minor is the document's own
/// minor version: "runTotal" is read only from 1.2 on, and a 1.1 document
/// reads as total 0 (encoders always write the current minor).
template <class IO>
static bool xferShard(IO &X, Ref<IO, std::string> ConfigHash,
                      Ref<IO, std::string> Benchmark,
                      Ref<IO, uint64_t> BenchIndex,
                      Ref<IO, uint64_t> ShardIndex,
                      Ref<IO, uint64_t> RunBegin, Ref<IO, uint64_t> RunEnd,
                      Ref<IO, uint64_t> RunTotal,
                      Ref<IO, AnalysisResult> Result, int Minor) {
  ScopedCtx C(X, "shard");
  if (!X.key("configHash") || !X.str(ConfigHash) || !X.key("benchmark") ||
      !X.str(Benchmark) || !X.key("benchIndex") || !X.u64(BenchIndex) ||
      !X.key("shardIndex") || !X.u64(ShardIndex) || !X.key("runBegin") ||
      !X.u64(RunBegin) || !X.key("runEnd") || !X.u64(RunEnd) ||
      (Minor >= 2 && (!X.key("runTotal") || !X.u64(RunTotal))))
    return false;
  if constexpr (IO::Reads) {
    if (RunEnd < RunBegin)
      return X.failOver(
          format("shard: runEnd (%llu) precedes runBegin (%llu)",
                 static_cast<unsigned long long>(RunEnd),
                 static_cast<unsigned long long>(RunBegin)));
  }
  return X.key("result") && xferAnalysisResult<IO>(X, Result);
}

//===----------------------------------------------------------------------===//
// Improver records, reports and batch reports
//===----------------------------------------------------------------------===//

/// An improver outcome's fields, inside whichever object holds them.
template <class IO>
static bool xferImproveOutcome(IO &X, Ref<IO, ImproveRecord> V) {
  ScopedCtx C(X, "improve record");
  return X.key("original") && X.str(V.Original) && X.key("rewritten") &&
         X.str(V.Rewritten) && X.key("errorBefore") &&
         X.dbl(V.ErrorBefore) && X.key("errorAfter") &&
         X.dbl(V.ErrorAfter) && X.key("significant") &&
         X.boolean(V.HadSignificantError) && X.key("improved") &&
         X.boolean(V.Improved);
}

template <class IO>
static bool xferImproveDoc(IO &X, Ref<IO, ImproveDoc> V) {
  ScopedCtx C(X, "improve");
  return X.key("configHash") && X.str(V.ConfigHash) &&
         X.key("improveHash") && X.str(V.ImproveHash) && X.key("expr") &&
         X.str(V.ExprIdentity) && X.key("specs") && X.str(V.SpecIdentity) &&
         X.key("record") && X.beginObject() &&
         xferImproveOutcome<IO>(X, V.Record) && X.endObject();
}

template <class IO> static bool xferReport(IO &X, Ref<IO, Report> V) {
  ScopedCtx C(X, "report");
  auto RootCause = [&](auto &RC) {
    ScopedCtx CC(X, "root cause");
    return X.beginObject() && X.key("pc") && X.u32(RC.PC) && X.key("loc") &&
           xferSourceLoc<IO>(X, RC.Loc) && X.key("fpcore") &&
           X.str(RC.FPCore) && X.key("body") && X.str(RC.Body) &&
           X.key("numVars") && X.u32(RC.NumVars) && X.key("opCount") &&
           X.u32(RC.OpCount) && X.key("flagged") && X.u64(RC.Flagged) &&
           X.key("maxLocalError") && X.dbl(RC.MaxLocalError) &&
           X.key("avgLocalError") && X.dbl(RC.AvgLocalError) &&
           X.key("exampleInput") && X.str(RC.ExampleInput) && X.endObject();
  };
  auto Spot = [&](auto &SR) {
    ScopedCtx SC(X, "report spot");
    return X.beginObject() && X.key("kind") &&
           xferEnum<IO>(X, SR.Kind, 3, spotKindName,
                        "report: unknown spot kind") &&
           X.key("pc") && X.u32(SR.PC) && X.key("loc") &&
           xferSourceLoc<IO>(X, SR.Loc) && X.key("executions") &&
           X.u64(SR.Executions) && X.key("erroneous") &&
           X.u64(SR.Erroneous) && X.key("maxErrorBits") &&
           X.dbl(SR.MaxErrorBits) && X.key("rootCauses") &&
           xferArray(X, SR.RootCauses, RootCause) && X.endObject();
  };
  auto Improvement = [&](auto &IR) {
    return X.beginObject() && X.key("pc") && X.u32(IR.PC) &&
           xferImproveOutcome<IO>(X, IR) && X.endObject();
  };
  // The improvements section is present only when an improver pass ran:
  // an empty vector renders the exact pre-1.1 bytes, so reports without
  // improver results stay byte-identical to older writers', and a reader
  // round-trips absence to absence.
  bool HasImp = !V.Improvements.empty();
  if (!X.beginObject() || !X.key("spots") || !xferArray(X, V.Spots, Spot) ||
      !X.present("improvements", HasImp) ||
      (HasImp && (!X.key("improvements") ||
                  !xferArray(X, V.Improvements, Improvement))))
    return false;
  return X.endObject();
}

/// What a batch report's entries are to each codec: an encoder reads
/// borrowed entries, a decoder fills owned ones. Both spell their fields
/// alike.
template <class IO>
using BatchEntries =
    std::conditional_t<IO::Reads, std::vector<BatchReportDoc::Entry>,
                       const std::vector<BatchReportEntryRef>>;

template <class IO>
static bool xferBatchReport(IO &X, BatchEntries<IO> &V) {
  ScopedCtx C(X, "batch report");
  return X.key("benchmarks") && xferArray(X, V, [&](auto &En) {
           ScopedCtx BC(X, "benchmark entry");
           return X.beginObject() && X.key("name") && X.str(En.Name) &&
                  X.key("shards") && X.u64(En.Shards) && X.key("runs") &&
                  X.u64(En.Runs) && X.key("report") &&
                  xferReport<IO>(X, En.Rep) && X.endObject();
         });
}

//===----------------------------------------------------------------------===//
// Telemetry and run-ledger documents
//===----------------------------------------------------------------------===//

/// The counters/gauges/timers sections, shared verbatim by the telemetry
/// document and the run-ledger envelope (one schema, two containers).
template <class IO>
static bool xferMetrics(IO &X, Ref<IO, metrics::Snapshot> V) {
  auto Counter = [&](auto &Cs) {
    ScopedCtx CC(X, "metrics counter");
    return X.beginObject() && X.key("name") && X.str(Cs.Name) &&
           X.key("value") && X.u64(Cs.Value) && X.endObject();
  };
  auto Gauge = [&](auto &G) {
    ScopedCtx GC(X, "metrics gauge");
    return X.beginObject() && X.key("name") && X.str(G.Name) &&
           X.key("value") && X.i64(G.Value) && X.key("max") &&
           X.i64(G.Max) && X.endObject();
  };
  auto Timer = [&](auto &T) {
    ScopedCtx TC(X, "metrics timer");
    uint64_t N = metrics::TimerBuckets;
    if (!X.beginObject() || !X.key("name") || !X.str(T.Name) ||
        !X.key("count") || !X.u64(T.Count) || !X.key("sumNs") ||
        !X.u64(T.SumNanos) || !X.key("maxNs") || !X.u64(T.MaxNanos) ||
        !X.key("buckets") || !X.beginArray(N))
      return false;
    if constexpr (IO::Reads) {
      if (N != metrics::TimerBuckets)
        return X.failOver(
            format("metrics timer '%s': expected %u buckets, got %zu",
                   T.Name.c_str(), metrics::TimerBuckets,
                   static_cast<size_t>(N)));
    }
    for (auto &B : T.Buckets)
      if (!X.element() || !X.u64(B))
        return false;
    return X.endArray() && X.endObject();
  };
  return X.key("counters") && xferArray(X, V.Counters, Counter) &&
         X.key("gauges") && xferArray(X, V.Gauges, Gauge) &&
         X.key("timers") && xferArray(X, V.Timers, Timer);
}

/// \p Minor is a decoded document's own minor version: a minor-0 HGB
/// document carries no meta presence byte, so the read is gated on it
/// (the JSON backend resolves presence by name and tolerates either
/// minor). Encoders always write the current minor.
template <class IO>
static bool xferTelemetry(IO &X, Ref<IO, TelemetryDoc> V, int Minor) {
  ScopedCtx C(X, "telemetry");
  bool MetaField = true;
  if constexpr (IO::Reads)
    MetaField = Minor >= 1;
  // The 1.1 meta block is optional so a doc parsed from a minor-0 writer
  // re-renders its exact bytes (absence round-trips to absence).
  if (MetaField && !X.present("meta", V.HasMeta))
    return false;
  if (MetaField && V.HasMeta) {
    ScopedCtx MC(X, "telemetry meta");
    if (!X.key("meta") || !X.beginObject() || !X.key("host") ||
        !X.str(V.Meta.Host) || !X.key("timestamp") ||
        !X.str(V.Meta.Timestamp) || !X.key("mergedDocs") ||
        !X.u64(V.Meta.MergedDocs) || !X.endObject())
      return false;
  }
  if (!xferMetrics<IO>(X, V.Metrics))
    return false;
  ScopedCtx PC(X, "telemetry profile");
  auto Row = [&](auto &R) {
    ScopedCtx RC(X, "telemetry profile row");
    return X.beginObject() && X.key("op") &&
           xferEnum<IO>(X, R.Op, NumOpcodes, opcodeName,
                        "telemetry profile row: unknown opcode") &&
           X.key("loc") && xferSourceLoc<IO>(X, R.Loc) &&
           X.key("executions") && X.u64(R.Executions) && X.key("samples") &&
           X.u64(R.Samples) && X.key("ns") && X.u64(R.Nanos) &&
           X.key("limbAllocs") && X.u64(R.LimbAllocs) &&
           X.key("limbHits") && X.u64(R.LimbHits) && X.endObject();
  };
  return X.key("profile") && X.beginObject() && X.key("totalNs") &&
         X.u64(V.ProfileTotalNanos) && X.key("ops") &&
         xferArray(X, V.Profile, Row) && X.endObject();
}

template <class IO>
static bool xferLedger(IO &X, Ref<IO, LedgerEntry> V) {
  ScopedCtx C(X, "ledger");
  auto Section = [&](const char *Key, const char *Ctx, auto Fields) {
    ScopedCtx SC(X, Ctx);
    return X.key(Key) && X.beginObject() && Fields() && X.endObject();
  };
  return Section("meta", "ledger meta",
                 [&] {
                   return X.key("host") && X.str(V.Host) &&
                          X.key("timestamp") && X.str(V.Timestamp) &&
                          X.key("timestampNs") && X.u64(V.TimestampNanos) &&
                          X.key("label") && X.str(V.Label);
                 }) &&
         Section("config", "ledger config",
                 [&] {
                   return X.key("hash") && X.str(V.ConfigHash) &&
                          X.key("wireFormat") && X.str(V.WireFormat) &&
                          X.key("tier") && X.str(V.Tier) && X.key("jobs") &&
                          X.u64(V.Jobs) && X.key("samples") &&
                          X.u64(V.Samples) && X.key("shardSize") &&
                          X.u64(V.ShardSize) && X.key("batchLanes") &&
                          X.u64(V.BatchLanes);
                 }) &&
         Section("stats", "ledger stats",
                 [&] {
                   return X.key("benchmarks") && X.u64(V.Benchmarks) &&
                          X.key("shards") && X.u64(V.Shards) &&
                          X.key("runs") && X.u64(V.Runs) &&
                          X.key("analyzedShards") &&
                          X.u64(V.AnalyzedShards) &&
                          X.key("cachedShards") && X.u64(V.CachedShards) &&
                          X.key("rcacheHits") && X.u64(V.ResultCacheHits) &&
                          X.key("rcacheMisses") &&
                          X.u64(V.ResultCacheMisses) &&
                          X.key("limbHeapAllocs") &&
                          X.u64(V.LimbHeapAllocs) &&
                          X.key("limbCacheHits") && X.u64(V.LimbCacheHits) &&
                          X.key("tier0Runs") && X.u64(V.Tier0Runs) &&
                          X.key("escalatedRuns") && X.u64(V.EscalatedRuns) &&
                          X.key("poolTasks") && X.u64(V.PoolTasks) &&
                          X.key("poolSteals") && X.u64(V.PoolSteals) &&
                          X.key("wallSeconds") && X.dbl(V.WallSeconds);
                 }) &&
         xferMetrics<IO>(X, V.Metrics);
}

//===----------------------------------------------------------------------===//
// The envelope codec: what every document family shares
//===----------------------------------------------------------------------===//

namespace {

/// One document family's envelope. A family supplies this and its body
/// traversal; renderDoc and parseDoc own everything else: the JSON
/// {"format","version"} keys, the HGB header check, and the structural
/// errors.
struct DocKind {
  /// JSON "format" tag and the family's name in errors. Null for the bare
  /// report, whose JSON form is its body object alone.
  const char *Format;
  wire::Family Family; ///< HGB header family.
  /// Version written. JSON readers accept any minor of Major, since their
  /// fields go by name; HGB readers accept minors up to Minor only, since
  /// theirs go by position and a newer minor's field would be misread.
  int Major, Minor;
  const char *Ctx;     ///< Prefix of structural errors ("shard", ...).
};

constexpr DocKind ShardKind{"herbgrind-shard", wire::Family::Shard,
                            WireFormatMajor, ShardFormatMinor, "shard"};
constexpr DocKind ImproveKind{"herbgrind-improve", wire::Family::Improve,
                              WireFormatMajor, WireFormatMinor, "improve"};
constexpr DocKind ReportKind{nullptr, wire::Family::Report, WireFormatMajor,
                             WireFormatMinor, "report"};
constexpr DocKind BatchKind{"herbgrind-report", wire::Family::BatchReport,
                            WireFormatMajor, WireFormatMinor, "batch report"};
constexpr DocKind TelemetryKind{"herbgrind-telemetry",
                                wire::Family::Telemetry, TelemetryFormatMajor,
                                TelemetryFormatMinor, "telemetry"};
constexpr DocKind LedgerKind{"herbgrind-ledger", wire::Family::Ledger,
                             LedgerFormatMajor, LedgerFormatMinor, "ledger"};

} // namespace

/// Renders one document; \p Body writes the family's fields. JSON wraps
/// them in the {"format","version"} envelope. HGB writes no envelope
/// fields: its header already carries family, major and minor, and
/// repeating them would tax every small document.
template <typename BodyFn>
static std::string renderDoc(const DocKind &K, WireEncoding Enc, BodyFn Body) {
  if (Enc == WireEncoding::Binary) {
    wire::BinaryEncoder E(K.Family, K.Major, K.Minor);
    Body(E);
    return E.take();
  }
  wire::JsonEncoder E;
  if (!K.Format) {
    Body(E);
    return E.take();
  }
  E.beginObject();
  E.key("format");
  E.str(K.Format);
  E.key("version");
  E.beginObject();
  E.key("major");
  E.i64(K.Major);
  E.key("minor");
  E.i64(K.Minor);
  E.endObject();
  Body(E);
  E.endObject();
  return E.take();
}

/// Checks a JSON document's {"format","version"} envelope against \p K
/// and reads the document's own minor version (a missing "minor", from a
/// hypothetical older writer, reads as 0). Minor versions are additive,
/// so any minor of the known major is accepted.
static bool decodeJsonEnvelope(wire::JsonDecoder &D, const DocKind &K,
                               int &Minor) {
  std::string Tag;
  if (!D.key("format") || !D.str(Tag) || Tag != K.Format)
    return D.failOver(format(
        "document is not a %s file (bad or missing 'format')", K.Format));
  if (!D.key("version") || !D.beginObject())
    return D.failOver("missing 'version' object");
  int64_t Major = 0;
  if (!D.key("major") || !D.i64(Major))
    return D.failOver("missing 'version.major'");
  if (Major != K.Major)
    return D.failOver(format("unsupported %s major version %lld (this "
                             "reader understands %d)",
                             K.Format, static_cast<long long>(Major),
                             K.Major));
  bool HasMinor = false;
  int64_t DocMinor = 0;
  if (!D.present("minor", HasMinor) ||
      (HasMinor && (!D.key("minor") || !D.i64(DocMinor))))
    return false;
  Minor = static_cast<int>(DocMinor);
  return D.endObject();
}

/// Parses one document in either encoding, sniffed from the first byte.
/// \p Body reads the family's fields given the document's own minor
/// version, which minor-gated fields (telemetry's meta block) need. A
/// wrong family or format tag, an unknown major, an HGB minor newer than
/// \p K's, trailing HGB bytes and a JSON value that is not an object all
/// fail with \p K's name in the message.
template <typename BodyFn>
static bool parseDoc(const DocKind &K, const std::string &Text,
                     std::string &Err, BodyFn Body) {
  if (wire::isBinary(Text)) {
    const char *Name = K.Format ? K.Format : K.Ctx;
    wire::BinaryDecoder D(Text);
    if (!D.ok())
      Err = D.error();
    else if (D.family() != K.Family)
      Err = format("document is not a %s file (HGB family '%s')", Name,
                   wire::familyName(D.family()));
    else if (D.major() != K.Major)
      Err = format("unsupported %s major version %d (this reader "
                   "understands %d)",
                   Name, D.major(), K.Major);
    else if (D.minor() > K.Minor)
      Err = format("unsupported %s minor version %d (this reader "
                   "understands up to %d)",
                   Name, D.minor(), K.Minor);
    else if (!Body(D, D.minor()))
      Err = D.error();
    else if (!D.atEnd())
      Err = format("%s: trailing bytes after HGB document", K.Ctx);
    else
      return true;
    return false;
  }
  JsonParseResult R = parseJson(Text);
  if (!R.Ok) {
    Err = format("JSON parse error at offset %zu: %s", R.ErrorOffset,
                 R.Error.c_str());
    return false;
  }
  if (!R.Value.isObject()) {
    Err = format("%s document is not an object", K.Ctx);
    return false;
  }
  wire::JsonDecoder D(R.Value);
  int Minor = K.Minor;
  if (K.Format ? D.beginObject() && decodeJsonEnvelope(D, K, Minor) &&
                     Body(D, Minor) && D.endObject()
               : Body(D, Minor))
    return true;
  Err = D.error();
  return false;
}

//===----------------------------------------------------------------------===//
// Rendering and parsing each family
//===----------------------------------------------------------------------===//

std::string herbgrind::renderShard(const std::string &ConfigHash,
                                   const std::string &Benchmark,
                                   uint64_t BenchIndex, uint64_t ShardIndex,
                                   uint64_t RunBegin, uint64_t RunEnd,
                                   uint64_t RunTotal,
                                   const AnalysisResult &Result,
                                   WireEncoding Enc) {
  return renderDoc(ShardKind, Enc, [&](wire::Encoder &E) {
    return xferShard(E, ConfigHash, Benchmark, BenchIndex, ShardIndex,
                     RunBegin, RunEnd, RunTotal, Result, ShardFormatMinor);
  });
}

std::string herbgrind::renderShard(const ShardDoc &Doc, WireEncoding Enc) {
  return renderShard(Doc.ConfigHash, Doc.Benchmark, Doc.BenchIndex,
                     Doc.ShardIndex, Doc.RunBegin, Doc.RunEnd, Doc.RunTotal,
                     Doc.Result, Enc);
}

bool herbgrind::parseShard(const std::string &Text, ShardDoc &Out,
                           std::string &Err) {
  return parseDoc(ShardKind, Text, Err, [&](wire::Decoder &D, int Minor) {
    return xferShard(D, Out.ConfigHash, Out.Benchmark, Out.BenchIndex,
                     Out.ShardIndex, Out.RunBegin, Out.RunEnd, Out.RunTotal,
                     Out.Result, Minor);
  });
}

std::string herbgrind::renderImproveDoc(const ImproveDoc &Doc,
                                        WireEncoding Enc) {
  return renderDoc(ImproveKind, Enc,
                   [&](wire::Encoder &E) { return xferImproveDoc(E, Doc); });
}

bool herbgrind::parseImproveDoc(const std::string &Text, ImproveDoc &Out,
                                std::string &Err) {
  return parseDoc(ImproveKind, Text, Err, [&](wire::Decoder &D, int) {
    return xferImproveDoc(D, Out);
  });
}

std::string herbgrind::renderReport(const Report &R, WireEncoding Enc) {
  return renderDoc(ReportKind, Enc,
                   [&](wire::Encoder &E) { return xferReport(E, R); });
}

// Defined here rather than in Report.cpp so every render goes through
// the one traversal above.
std::string Report::renderJson() const {
  return renderReport(*this, WireEncoding::Json);
}

bool herbgrind::parseReportDoc(const std::string &Text, Report &Out,
                               std::string &Err) {
  return parseDoc(ReportKind, Text, Err, [&](wire::Decoder &D, int) {
    return xferReport(D, Out);
  });
}

std::string
herbgrind::renderBatchReport(const std::vector<BatchReportEntryRef> &Entries,
                             WireEncoding Enc) {
  return renderDoc(BatchKind, Enc, [&](wire::Encoder &E) {
    return xferBatchReport(E, Entries);
  });
}

std::string herbgrind::renderBatchReport(const BatchReportDoc &Doc,
                                         WireEncoding Enc) {
  std::vector<BatchReportEntryRef> Entries;
  Entries.reserve(Doc.Benchmarks.size());
  for (const BatchReportDoc::Entry &En : Doc.Benchmarks)
    Entries.push_back({En.Name, En.Shards, En.Runs, En.Rep});
  return renderBatchReport(Entries, Enc);
}

bool herbgrind::parseBatchReport(const std::string &Text, BatchReportDoc &Out,
                                 std::string &Err) {
  return parseDoc(BatchKind, Text, Err, [&](wire::Decoder &D, int) {
    return xferBatchReport(D, Out.Benchmarks);
  });
}

std::string herbgrind::renderTelemetry(const TelemetryDoc &Doc,
                                       WireEncoding Enc) {
  return renderDoc(TelemetryKind, Enc, [&](wire::Encoder &E) {
    return xferTelemetry(E, Doc, TelemetryFormatMinor);
  });
}

bool herbgrind::parseTelemetry(const std::string &Text, TelemetryDoc &Out,
                               std::string &Err) {
  return parseDoc(TelemetryKind, Text, Err, [&](wire::Decoder &D, int Minor) {
    return xferTelemetry(D, Out, Minor);
  });
}

std::string herbgrind::renderLedgerEntry(const LedgerEntry &L,
                                         WireEncoding Enc) {
  return renderDoc(LedgerKind, Enc,
                   [&](wire::Encoder &E) { return xferLedger(E, L); });
}

bool herbgrind::parseLedgerEntry(const std::string &Text, LedgerEntry &Out,
                                 std::string &Err) {
  return parseDoc(LedgerKind, Text, Err, [&](wire::Decoder &D, int) {
    return xferLedger(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Telemetry merging
//===----------------------------------------------------------------------===//

void TelemetryDoc::mergeFrom(const TelemetryDoc &Other) {
  // A doc that never passed through a merge counts as one process.
  auto LeafCount = [](const TelemetryDoc &D) {
    return D.HasMeta && D.Meta.MergedDocs > 0 ? D.Meta.MergedDocs
                                              : uint64_t(1);
  };
  Meta.MergedDocs = LeafCount(*this) + LeafCount(Other);
  HasMeta = true;
  Metrics.mergeFrom(Other.Metrics);
  opprof::mergeOpProfileRows(Profile, Other.Profile);
  opprof::finalizeOpProfile(Profile);
  ProfileTotalNanos += Other.ProfileTotalNanos;
}

bool herbgrind::mergeTelemetry(const std::vector<std::string> &DocTexts,
                               TelemetryDoc &Out, std::string &Err) {
  if (DocTexts.empty()) {
    Err = "no telemetry documents to merge";
    return false;
  }
  Out = TelemetryDoc();
  for (size_t I = 0; I < DocTexts.size(); ++I) {
    TelemetryDoc Doc;
    if (!parseTelemetry(DocTexts[I], Doc, Err)) {
      Err = format("telemetry document %zu: %s", I, Err.c_str());
      return false;
    }
    if (I == 0)
      Out = std::move(Doc);
    else
      Out.mergeFrom(Doc);
  }
  // A single-doc "merge" still marks the result as merged provenance;
  // Host/Timestamp stay empty either way so the result is deterministic
  // given the inputs (callers stamp provenance before writing).
  if (Out.HasMeta && DocTexts.size() == 1)
    Out.Meta.MergedDocs = std::max<uint64_t>(Out.Meta.MergedDocs, 1);
  if (!Out.HasMeta) {
    Out.HasMeta = true;
    Out.Meta.MergedDocs = 1;
  }
  Out.Meta.Host.clear();
  Out.Meta.Timestamp.clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Conversion between the encodings
//===----------------------------------------------------------------------===//

/// One family's leg of convertWireDoc: parse \p Text, render it in \p To.
template <class Doc>
static bool reencode(const std::string &Text, WireEncoding To,
                     bool (*Parse)(const std::string &, Doc &, std::string &),
                     std::string (*Render)(const Doc &, WireEncoding),
                     std::string &Out, std::string &Err) {
  Doc D;
  if (!Parse(Text, D, Err))
    return false;
  Out = Render(D, To);
  return true;
}

bool herbgrind::convertWireDoc(const std::string &Text, WireEncoding To,
                               std::string &Out, std::string &Err) {
  const bool ToJson = To == WireEncoding::Json;
  if (wire::isBinary(Text) != ToJson) {
    Err = ToJson ? "hgb2json expects an HGB input"
                 : "json2hgb expects a JSON input";
    return false;
  }
  wire::Family Fam{};
  if (ToJson) {
    wire::BinaryDecoder D(Text);
    if (!D.ok()) {
      Err = "malformed HGB header";
      return false;
    }
    Fam = D.family();
  } else {
    JsonParseResult R = parseJson(Text);
    if (!R.Ok) {
      Err = format("JSON parse error at offset %zu: %s", R.ErrorOffset,
                   R.Error.c_str());
      return false;
    }
    const JsonValue *Tag = R.Value.field("format");
    std::string Name = Tag && Tag->isString() ? Tag->Str : "";
    const DocKind *Kind = nullptr;
    for (const DocKind *K : {&ShardKind, &ImproveKind, &ReportKind,
                             &BatchKind, &TelemetryKind, &LedgerKind})
      if (K->Format ? Name == K->Format
                    : Name.empty() && R.Value.field("spots"))
        Kind = K;
    if (!Kind) {
      Err = format("not a herbgrind wire document (unrecognized \"format\": "
                   "\"%s\")",
                   Name.c_str());
      return false;
    }
    Fam = Kind->Family;
  }

  bool Ok = false;
  switch (Fam) {
  case wire::Family::Shard:
    Ok = reencode(Text, To, parseShard, renderShard, Out, Err);
    break;
  case wire::Family::Improve:
    Ok = reencode(Text, To, parseImproveDoc, renderImproveDoc, Out, Err);
    break;
  case wire::Family::Report:
    Ok = reencode(Text, To, parseReportDoc, renderReport, Out, Err);
    break;
  case wire::Family::BatchReport:
    Ok = reencode(Text, To, parseBatchReport, renderBatchReport, Out, Err);
    break;
  case wire::Family::Telemetry:
    Ok = reencode(Text, To, parseTelemetry, renderTelemetry, Out, Err);
    break;
  case wire::Family::Ledger:
    Ok = reencode(Text, To, parseLedgerEntry, renderLedgerEntry, Out, Err);
    break;
  }
  // Per-sweep documents end with the newline the CLI writes after them;
  // per-shard documents (cache entries, emitted shards) have none.
  if (Ok && ToJson && Fam != wire::Family::Shard &&
      Fam != wire::Family::Improve)
    Out += '\n';
  return Ok;
}
