//===- analysis/Serialize.cpp - Result wire format ------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Every document family below is ONE schema traversal, written against the
// abstract wire::Encoder/wire::Decoder interface. The JSON backend
// reproduces the historical hand-rendered bytes exactly; the HGB binary
// backend reads/writes the same traversal positionally. Field order in the
// encode functions IS the wire format -- both the JSON byte layout and the
// binary field sequence -- so changing it is a format change.
//
//===----------------------------------------------------------------------===//

#include "analysis/Serialize.h"

#include "support/Format.h"
#include "support/Wire.h"
#include "support/WireBinary.h"

#include <cassert>

using namespace herbgrind;

//===----------------------------------------------------------------------===//
// Small enum/value helpers shared by render and parse
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

static bool parseSpotKind(const std::string &Name, SpotKind &Out) {
  for (SpotKind K :
       {SpotKind::Output, SpotKind::Comparison, SpotKind::Conversion})
    if (Name == spotKindName(K)) {
      Out = K;
      return true;
    }
  return false;
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

static bool parseRangeMode(const std::string &Name, RangeMode &Out) {
  for (RangeMode M : {RangeMode::Off, RangeMode::Single, RangeMode::SignSplit})
    if (Name == rangeModeName(M)) {
      Out = M;
      return true;
    }
  return false;
}

/// Opcode from its IR mnemonic (the unique "add.f64"-style name).
static bool parseOpcode(const std::string &Name, Opcode &Out) {
  for (unsigned I = 0; I < static_cast<unsigned>(Opcode::NumOpcodes); ++I) {
    Opcode Op = static_cast<Opcode>(I);
    if (Name == opInfo(Op).Name) {
      Out = Op;
      return true;
    }
  }
  return false;
}

namespace {

/// Names the decoder's schema context ("op record", "loc", ...) for the
/// dynamic extent of one decode function, restoring the caller's on exit
/// so nested decodes don't mislabel the fields that follow them.
struct ScopedCtx {
  wire::Decoder &D;
  const char *Saved;
  ScopedCtx(wire::Decoder &Dec, const char *C) : D(Dec), Saved(Dec.context()) {
    D.setContext(C);
  }
  ~ScopedCtx() { D.setContext(Saved); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Source locations
//===----------------------------------------------------------------------===//

static void encodeSourceLoc(wire::Encoder &E, const SourceLoc &Loc) {
  E.beginObject();
  E.key("file");
  E.str(Loc.File);
  E.key("line");
  E.i64(Loc.Line);
  E.key("func");
  E.str(Loc.Function);
  E.endObject();
}

static bool decodeSourceLoc(wire::Decoder &D, SourceLoc &Out) {
  ScopedCtx C(D, "loc");
  int64_t Line = 0;
  if (!D.beginObject() || !D.key("file") || !D.str(Out.File) ||
      !D.key("line") || !D.i64(Line) || !D.key("func") ||
      !D.str(Out.Function))
    return false;
  Out.Line = static_cast<int>(Line);
  return D.endObject();
}

//===----------------------------------------------------------------------===//
// Running statistics
//===----------------------------------------------------------------------===//

static void encodeStat(wire::Encoder &E, const RunningStat &S) {
  E.beginObject();
  E.key("count");
  E.u64(S.count());
  E.key("sum");
  E.dbl(S.sum());
  E.key("max");
  E.dbl(S.max());
  E.endObject();
}

static bool decodeStat(wire::Decoder &D, RunningStat &Out) {
  ScopedCtx C(D, "stat");
  uint64_t Count = 0;
  double Sum = 0, Max = 0;
  if (!D.beginObject() || !D.key("count") || !D.u64(Count) || !D.key("sum") ||
      !D.dbl(Sum) || !D.key("max") || !D.dbl(Max) || !D.endObject())
    return false;
  Out = RunningStat::fromParts(Count, Sum, Max);
  return true;
}

//===----------------------------------------------------------------------===//
// Input summaries
//===----------------------------------------------------------------------===//

static void encodeVarSummary(wire::Encoder &E, const VarSummary &S) {
  E.beginObject();
  E.key("count");
  E.u64(S.Count);
  E.key("sawNaN");
  E.boolean(S.SawNaN);
  E.key("sawZero");
  E.boolean(S.SawZero);
  E.key("example");
  E.dbl(S.Example);
  auto Range = [&](const char *Key, bool Has, double Lo, double Hi) {
    E.present(Has);
    if (!Has)
      return;
    E.key(Key);
    E.beginArray(2);
    E.dbl(Lo);
    E.dbl(Hi);
    E.endArray();
  };
  Range("range", S.HasRange, S.Lo, S.Hi);
  Range("neg", S.HasNeg, S.NegLo, S.NegHi);
  Range("pos", S.HasPos, S.PosLo, S.PosHi);
  E.endObject();
}

static bool decodeVarSummary(wire::Decoder &D, VarSummary &Out) {
  ScopedCtx C(D, "varSummary");
  if (!D.beginObject() || !D.key("count") || !D.u64(Out.Count) ||
      !D.key("sawNaN") || !D.boolean(Out.SawNaN) || !D.key("sawZero") ||
      !D.boolean(Out.SawZero) || !D.key("example") || !D.dbl(Out.Example))
    return false;
  auto Range = [&](const char *Key, bool &Has, double &Lo, double &Hi) {
    if (!D.present(Key, Has))
      return false;
    if (!Has)
      return true; // absent range: the flag stays false
    uint64_t N = 0;
    if (!D.key(Key) || !D.beginArray(N))
      return false;
    if (N != 2)
      return D.failOver(
          format("varSummary: field '%s' not a [lo, hi] number pair", Key));
    return D.element() && D.dbl(Lo) && D.element() && D.dbl(Hi) &&
           D.endArray();
  };
  return Range("range", Out.HasRange, Out.Lo, Out.Hi) &&
         Range("neg", Out.HasNeg, Out.NegLo, Out.NegHi) &&
         Range("pos", Out.HasPos, Out.PosLo, Out.PosHi) && D.endObject();
}

// Defined here rather than in InputSummary.cpp so the schema exists
// exactly once, in the traversal above.
std::string VarSummary::renderJson() const {
  wire::JsonEncoder E;
  encodeVarSummary(E, *this);
  return E.take();
}

static void encodeInputs(wire::Encoder &E, const InputCharacteristics &C) {
  E.beginArray(C.Vars.size());
  for (const VarSummary &V : C.Vars)
    encodeVarSummary(E, V);
  E.endArray();
}

static bool decodeInputs(wire::Decoder &D, InputCharacteristics &Out) {
  ScopedCtx C(D, "inputs");
  uint64_t N = 0;
  if (!D.beginArray(N))
    return false;
  Out.Vars.clear();
  for (uint64_t I = 0; I < N; ++I) {
    VarSummary V;
    if (!D.element() || !decodeVarSummary(D, V))
      return false;
    Out.Vars.push_back(std::move(V));
  }
  return D.endArray();
}

//===----------------------------------------------------------------------===//
// Symbolic expressions
//===----------------------------------------------------------------------===//

static const char *const SymExprKeys[] = {"const", "var"};

static void encodeSymExpr(wire::Encoder &E, const SymExpr &Ex) {
  E.beginObject();
  switch (Ex.Kind) {
  case SymExpr::SEKind::Const:
    E.variantTag(0);
    E.key("const");
    E.dbl(Ex.ConstVal);
    break;
  case SymExpr::SEKind::Var:
    E.variantTag(1);
    E.key("var");
    E.u32(Ex.VarIdx);
    break;
  case SymExpr::SEKind::Op:
    E.variantTag(2);
    E.key("op");
    E.str(opInfo(Ex.Op).Name);
    E.key("site");
    E.u32(Ex.Site);
    E.key("kids");
    E.beginArray(Ex.Kids.size());
    for (const auto &Kid : Ex.Kids)
      encodeSymExpr(E, *Kid);
    E.endArray();
    break;
  }
  E.endObject();
}

static std::unique_ptr<SymExpr> decodeSymExpr(wire::Decoder &D) {
  ScopedCtx C(D, "expr");
  if (!D.beginObject())
    return nullptr;
  unsigned Tag = 0;
  if (!D.variant(SymExprKeys, 2, Tag))
    return nullptr;
  std::unique_ptr<SymExpr> Node;
  switch (Tag) {
  case 0: {
    double V = 0;
    if (!D.key("const") || !D.dbl(V))
      return nullptr;
    Node = SymExpr::makeConst(V);
    break;
  }
  case 1: {
    uint32_t Idx = 0;
    if (!D.key("var") || !D.u32(Idx))
      return nullptr;
    Node = SymExpr::makeVar(Idx);
    break;
  }
  default: {
    std::string OpName;
    uint32_t Site = 0;
    if (!D.key("op") || !D.str(OpName) || !D.key("site") || !D.u32(Site))
      return nullptr;
    Opcode Op;
    if (!parseOpcode(OpName, Op)) {
      D.failOver(format("expr: unknown opcode '%s'", OpName.c_str()));
      return nullptr;
    }
    Node = SymExpr::makeOp(Op, Site);
    uint64_t N = 0;
    if (!D.key("kids") || !D.beginArray(N))
      return nullptr;
    for (uint64_t I = 0; I < N; ++I) {
      if (!D.element())
        return nullptr;
      std::unique_ptr<SymExpr> Kid = decodeSymExpr(D);
      if (!Kid)
        return nullptr;
      Node->Kids.push_back(std::move(Kid));
    }
    if (!D.endArray())
      return nullptr;
    break;
  }
  }
  if (!D.endObject())
    return nullptr;
  return Node;
}

//===----------------------------------------------------------------------===//
// Operation and spot records
//===----------------------------------------------------------------------===//

static void encodeOpRecord(wire::Encoder &E, uint32_t PC, const OpRecord &Rec) {
  E.beginObject();
  E.key("pc");
  E.u32(PC);
  E.key("op");
  E.str(opInfo(Rec.Op).Name);
  E.key("loc");
  encodeSourceLoc(E, Rec.Loc);
  E.key("executions");
  E.u64(Rec.Executions);
  E.key("flagged");
  E.u64(Rec.Flagged);
  E.key("compensations");
  E.u64(Rec.CompensationsDetected);
  E.key("localError");
  encodeStat(E, Rec.LocalError);
  E.key("maxFlaggedLocalError");
  E.dbl(Rec.MaxFlaggedLocalError);
  E.key("nextVarIdx");
  E.u32(Rec.NextVarIdx);
  E.present(Rec.Expr != nullptr);
  if (Rec.Expr) {
    E.key("expr");
    encodeSymExpr(E, *Rec.Expr);
  }
  E.key("totalInputs");
  encodeInputs(E, Rec.TotalInputs);
  E.key("problematicInputs");
  encodeInputs(E, Rec.ProblematicInputs);
  E.key("exampleProblematic");
  E.beginArray(Rec.ExampleProblematic.size());
  for (const VarBinding &B : Rec.ExampleProblematic) {
    E.beginObject();
    E.key("var");
    E.u32(B.Idx);
    E.key("value");
    E.dbl(B.Value);
    E.endObject();
  }
  E.endArray();
  E.endObject();
}

static bool decodeOpRecord(wire::Decoder &D, uint32_t &PC, OpRecord &Rec) {
  ScopedCtx C(D, "op record");
  std::string OpName;
  if (!D.beginObject() || !D.key("pc") || !D.u32(PC) || !D.key("op") ||
      !D.str(OpName))
    return false;
  if (!parseOpcode(OpName, Rec.Op))
    return D.failOver(
        format("op record: unknown opcode '%s'", OpName.c_str()));
  if (!D.key("loc") || !decodeSourceLoc(D, Rec.Loc))
    return false;
  if (!D.key("executions") || !D.u64(Rec.Executions) || !D.key("flagged") ||
      !D.u64(Rec.Flagged) || !D.key("compensations") ||
      !D.u64(Rec.CompensationsDetected))
    return false;
  if (!D.key("localError") || !decodeStat(D, Rec.LocalError))
    return false;
  if (!D.key("maxFlaggedLocalError") || !D.dbl(Rec.MaxFlaggedLocalError) ||
      !D.key("nextVarIdx") || !D.u32(Rec.NextVarIdx))
    return false;
  bool HasExpr = false;
  if (!D.present("expr", HasExpr))
    return false;
  if (HasExpr) {
    if (!D.key("expr"))
      return false;
    Rec.Expr = decodeSymExpr(D);
    if (!Rec.Expr)
      return false;
  }
  if (!D.key("totalInputs") || !decodeInputs(D, Rec.TotalInputs) ||
      !D.key("problematicInputs") || !decodeInputs(D, Rec.ProblematicInputs))
    return false;
  uint64_t N = 0;
  if (!D.key("exampleProblematic") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx BC(D, "example binding");
    VarBinding B{0, 0.0};
    if (!D.element() || !D.beginObject() || !D.key("var") || !D.u32(B.Idx) ||
        !D.key("value") || !D.dbl(B.Value) || !D.endObject())
      return false;
    Rec.ExampleProblematic.push_back(B);
  }
  return D.endArray() && D.endObject();
}

static void encodeSpotRecord(wire::Encoder &E, uint32_t PC,
                             const SpotRecord &Spot) {
  E.beginObject();
  E.key("pc");
  E.u32(PC);
  E.key("kind");
  E.str(spotKindName(Spot.Kind));
  E.key("loc");
  encodeSourceLoc(E, Spot.Loc);
  E.key("executions");
  E.u64(Spot.Executions);
  E.key("erroneous");
  E.u64(Spot.Erroneous);
  E.key("errorBits");
  encodeStat(E, Spot.ErrorBits);
  E.key("influencingOps");
  E.beginArray(Spot.InfluencingOps.size());
  for (uint32_t Op : Spot.InfluencingOps)
    E.u32(Op);
  E.endArray();
  E.endObject();
}

static bool decodeSpotRecord(wire::Decoder &D, uint32_t &PC,
                             SpotRecord &Spot) {
  ScopedCtx C(D, "spot record");
  std::string KindName;
  if (!D.beginObject() || !D.key("pc") || !D.u32(PC) || !D.key("kind") ||
      !D.str(KindName))
    return false;
  if (!parseSpotKind(KindName, Spot.Kind))
    return D.failOver(
        format("spot record: unknown kind '%s'", KindName.c_str()));
  if (!D.key("loc") || !decodeSourceLoc(D, Spot.Loc))
    return false;
  if (!D.key("executions") || !D.u64(Spot.Executions) ||
      !D.key("erroneous") || !D.u64(Spot.Erroneous))
    return false;
  if (!D.key("errorBits") || !decodeStat(D, Spot.ErrorBits))
    return false;
  uint64_t N = 0;
  if (!D.key("influencingOps") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t Op = 0;
    if (!D.element() || !D.u32(Op))
      return false;
    Spot.InfluencingOps.insert(Op);
  }
  return D.endArray() && D.endObject();
}

//===----------------------------------------------------------------------===//
// Analysis results
//===----------------------------------------------------------------------===//

static void encodeAnalysisResult(wire::Encoder &E, const AnalysisResult &R) {
  E.beginObject();
  E.key("ranges");
  E.str(rangeModeName(R.Ranges));
  E.key("equivDepth");
  E.u32(R.EquivDepth);
  E.key("ops");
  E.beginArray(R.Ops.size());
  for (const auto &[PC, Rec] : R.Ops)
    encodeOpRecord(E, PC, Rec);
  E.endArray();
  E.key("spots");
  E.beginArray(R.Spots.size());
  for (const auto &[PC, Spot] : R.Spots)
    encodeSpotRecord(E, PC, Spot);
  E.endArray();
  E.endObject();
}

static bool decodeAnalysisResult(wire::Decoder &D, AnalysisResult &Out) {
  ScopedCtx C(D, "result");
  std::string RangesName;
  if (!D.beginObject() || !D.key("ranges") || !D.str(RangesName) ||
      !D.key("equivDepth") || !D.u32(Out.EquivDepth))
    return false;
  if (!parseRangeMode(RangesName, Out.Ranges))
    return D.failOver(
        format("result: unknown range mode '%s'", RangesName.c_str()));
  uint64_t NumOps = 0;
  if (!D.key("ops") || !D.beginArray(NumOps))
    return false;
  for (uint64_t I = 0; I < NumOps; ++I) {
    uint32_t PC = 0;
    OpRecord Rec;
    if (!D.element() || !decodeOpRecord(D, PC, Rec))
      return false;
    if (!Out.Ops.emplace(PC, std::move(Rec)).second)
      return D.failOver(format("result: duplicate op record for pc %u", PC));
  }
  if (!D.endArray())
    return false;
  uint64_t NumSpots = 0;
  if (!D.key("spots") || !D.beginArray(NumSpots))
    return false;
  for (uint64_t I = 0; I < NumSpots; ++I) {
    uint32_t PC = 0;
    SpotRecord Spot;
    if (!D.element() || !decodeSpotRecord(D, PC, Spot))
      return false;
    if (!Out.Spots.emplace(PC, std::move(Spot)).second)
      return D.failOver(
          format("result: duplicate spot record for pc %u", PC));
  }
  return D.endArray() && D.endObject();
}

std::string herbgrind::renderAnalysisResultJson(const AnalysisResult &R) {
  wire::JsonEncoder E;
  encodeAnalysisResult(E, R);
  return E.take();
}

bool herbgrind::parseAnalysisResultJson(const JsonValue &V, AnalysisResult &Out,
                                        std::string &Err) {
  wire::JsonDecoder D(V);
  if (!decodeAnalysisResult(D, Out)) {
    Err = D.error();
    return false;
  }
  return true;
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
  int Major, Minor;    ///< Version written; readers accept any minor of Major.
  const char *Ctx;     ///< Prefix of structural errors ("shard", ...).
};

constexpr DocKind ShardKind{"herbgrind-shard", wire::Family::Shard,
                            WireFormatMajor, WireFormatMinor, "shard"};
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
/// wrong family or format tag, an unknown major, trailing HGB bytes and a
/// JSON value that is not an object all fail with \p K's name in the
/// message.
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
// Shard documents
//===----------------------------------------------------------------------===//

static void encodeShardBody(wire::Encoder &E, const std::string &ConfigHash,
                            const std::string &Benchmark, uint64_t BenchIndex,
                            uint64_t ShardIndex, uint64_t RunBegin,
                            uint64_t RunEnd, const AnalysisResult &Result) {
  E.key("configHash");
  E.str(ConfigHash);
  E.key("benchmark");
  E.str(Benchmark);
  E.key("benchIndex");
  E.u64(BenchIndex);
  E.key("shardIndex");
  E.u64(ShardIndex);
  E.key("runBegin");
  E.u64(RunBegin);
  E.key("runEnd");
  E.u64(RunEnd);
  E.key("result");
  encodeAnalysisResult(E, Result);
}

static bool decodeShardBody(wire::Decoder &D, ShardDoc &Out) {
  ScopedCtx C(D, "shard");
  if (!D.key("configHash") || !D.str(Out.ConfigHash) || !D.key("benchmark") ||
      !D.str(Out.Benchmark) || !D.key("benchIndex") ||
      !D.u64(Out.BenchIndex) || !D.key("shardIndex") ||
      !D.u64(Out.ShardIndex) || !D.key("runBegin") || !D.u64(Out.RunBegin) ||
      !D.key("runEnd") || !D.u64(Out.RunEnd))
    return false;
  if (Out.RunEnd < Out.RunBegin)
    return D.failOver(
        format("shard: runEnd (%llu) precedes runBegin (%llu)",
               static_cast<unsigned long long>(Out.RunEnd),
               static_cast<unsigned long long>(Out.RunBegin)));
  return D.key("result") && decodeAnalysisResult(D, Out.Result);
}

static std::string renderShardAs(WireEncoding Enc,
                                 const std::string &ConfigHash,
                                 const std::string &Benchmark,
                                 uint64_t BenchIndex, uint64_t ShardIndex,
                                 uint64_t RunBegin, uint64_t RunEnd,
                                 const AnalysisResult &Result) {
  return renderDoc(ShardKind, Enc, [&](wire::Encoder &E) {
    encodeShardBody(E, ConfigHash, Benchmark, BenchIndex, ShardIndex,
                    RunBegin, RunEnd, Result);
  });
}

std::string herbgrind::renderShardJson(const std::string &ConfigHash,
                                       const std::string &Benchmark,
                                       uint64_t BenchIndex,
                                       uint64_t ShardIndex, uint64_t RunBegin,
                                       uint64_t RunEnd,
                                       const AnalysisResult &Result) {
  return renderShardAs(WireEncoding::Json, ConfigHash, Benchmark, BenchIndex,
                       ShardIndex, RunBegin, RunEnd, Result);
}

std::string herbgrind::renderShardBinary(const std::string &ConfigHash,
                                         const std::string &Benchmark,
                                         uint64_t BenchIndex,
                                         uint64_t ShardIndex,
                                         uint64_t RunBegin, uint64_t RunEnd,
                                         const AnalysisResult &Result) {
  return renderShardAs(WireEncoding::Binary, ConfigHash, Benchmark,
                       BenchIndex, ShardIndex, RunBegin, RunEnd, Result);
}

std::string herbgrind::renderShard(const ShardDoc &Doc, WireEncoding Enc) {
  return renderShardAs(Enc, Doc.ConfigHash, Doc.Benchmark, Doc.BenchIndex,
                       Doc.ShardIndex, Doc.RunBegin, Doc.RunEnd, Doc.Result);
}

std::string herbgrind::renderShardJson(const ShardDoc &Doc) {
  return renderShard(Doc, WireEncoding::Json);
}

std::string herbgrind::renderShardBinary(const ShardDoc &Doc) {
  return renderShard(Doc, WireEncoding::Binary);
}

bool herbgrind::parseShard(const std::string &Text, ShardDoc &Out,
                           std::string &Err) {
  return parseDoc(ShardKind, Text, Err, [&](wire::Decoder &D, int) {
    return decodeShardBody(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Improver records and the improve cache document
//===----------------------------------------------------------------------===//

static void encodeImproveOutcome(wire::Encoder &E, const ImproveRecord &R) {
  E.key("original");
  E.str(R.Original);
  E.key("rewritten");
  E.str(R.Rewritten);
  E.key("errorBefore");
  E.dbl(R.ErrorBefore);
  E.key("errorAfter");
  E.dbl(R.ErrorAfter);
  E.key("significant");
  E.boolean(R.HadSignificantError);
  E.key("improved");
  E.boolean(R.Improved);
}

static bool decodeImproveOutcome(wire::Decoder &D, ImproveRecord &Out) {
  ScopedCtx C(D, "improve record");
  return D.key("original") && D.str(Out.Original) && D.key("rewritten") &&
         D.str(Out.Rewritten) && D.key("errorBefore") &&
         D.dbl(Out.ErrorBefore) && D.key("errorAfter") &&
         D.dbl(Out.ErrorAfter) && D.key("significant") &&
         D.boolean(Out.HadSignificantError) && D.key("improved") &&
         D.boolean(Out.Improved);
}

static void encodeImproveDocBody(wire::Encoder &E, const ImproveDoc &Doc) {
  E.key("configHash");
  E.str(Doc.ConfigHash);
  E.key("improveHash");
  E.str(Doc.ImproveHash);
  E.key("expr");
  E.str(Doc.ExprIdentity);
  E.key("specs");
  E.str(Doc.SpecIdentity);
  E.key("record");
  E.beginObject();
  encodeImproveOutcome(E, Doc.Record);
  E.endObject();
}

static bool decodeImproveDocBody(wire::Decoder &D, ImproveDoc &Out) {
  ScopedCtx C(D, "improve");
  if (!D.key("configHash") || !D.str(Out.ConfigHash) ||
      !D.key("improveHash") || !D.str(Out.ImproveHash) || !D.key("expr") ||
      !D.str(Out.ExprIdentity) || !D.key("specs") || !D.str(Out.SpecIdentity))
    return false;
  return D.key("record") && D.beginObject() &&
         decodeImproveOutcome(D, Out.Record) && D.endObject();
}

static std::string renderImproveDoc(const ImproveDoc &Doc,
                                    WireEncoding Enc) {
  return renderDoc(ImproveKind, Enc,
                   [&](wire::Encoder &E) { encodeImproveDocBody(E, Doc); });
}

std::string herbgrind::renderImproveDocJson(const ImproveDoc &Doc) {
  return renderImproveDoc(Doc, WireEncoding::Json);
}

std::string herbgrind::renderImproveDocBinary(const ImproveDoc &Doc) {
  return renderImproveDoc(Doc, WireEncoding::Binary);
}

bool herbgrind::parseImproveDoc(const std::string &Text, ImproveDoc &Out,
                                std::string &Err) {
  return parseDoc(ImproveKind, Text, Err, [&](wire::Decoder &D, int) {
    return decodeImproveDocBody(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Presentation-level reports
//===----------------------------------------------------------------------===//

static void encodeReportBody(wire::Encoder &E, const Report &R) {
  E.beginObject();
  E.key("spots");
  E.beginArray(R.Spots.size());
  for (const SpotReport &SR : R.Spots) {
    E.beginObject();
    E.key("kind");
    E.str(spotKindName(SR.Kind));
    E.key("pc");
    E.u32(SR.PC);
    E.key("loc");
    encodeSourceLoc(E, SR.Loc);
    E.key("executions");
    E.u64(SR.Executions);
    E.key("erroneous");
    E.u64(SR.Erroneous);
    E.key("maxErrorBits");
    E.dbl(SR.MaxErrorBits);
    E.key("rootCauses");
    E.beginArray(SR.RootCauses.size());
    for (const RootCauseReport &RC : SR.RootCauses) {
      E.beginObject();
      E.key("pc");
      E.u32(RC.PC);
      E.key("loc");
      encodeSourceLoc(E, RC.Loc);
      E.key("fpcore");
      E.str(RC.FPCore);
      E.key("body");
      E.str(RC.Body);
      E.key("numVars");
      E.u32(RC.NumVars);
      E.key("opCount");
      E.u64(RC.OpCount);
      E.key("flagged");
      E.u64(RC.Flagged);
      E.key("maxLocalError");
      E.dbl(RC.MaxLocalError);
      E.key("avgLocalError");
      E.dbl(RC.AvgLocalError);
      E.key("exampleInput");
      E.str(RC.ExampleInput);
      E.endObject();
    }
    E.endArray();
    E.endObject();
  }
  E.endArray();
  // The improvements section is emitted only when an improver pass ran:
  // an empty vector renders the exact pre-1.1 bytes, so reports without
  // improver results stay byte-identical to older writers'.
  E.present(!R.Improvements.empty());
  if (!R.Improvements.empty()) {
    E.key("improvements");
    E.beginArray(R.Improvements.size());
    for (const ImproveRecord &IR : R.Improvements) {
      E.beginObject();
      E.key("pc");
      E.u32(IR.PC);
      encodeImproveOutcome(E, IR);
      E.endObject();
    }
    E.endArray();
  }
  E.endObject();
}

static bool decodeReportBody(wire::Decoder &D, Report &Out) {
  ScopedCtx C(D, "report");
  if (!D.beginObject())
    return false;
  uint64_t NumSpots = 0;
  if (!D.key("spots") || !D.beginArray(NumSpots))
    return false;
  for (uint64_t I = 0; I < NumSpots; ++I) {
    ScopedCtx SC(D, "report spot");
    SpotReport SR;
    std::string KindName;
    if (!D.element() || !D.beginObject() || !D.key("kind") ||
        !D.str(KindName))
      return false;
    if (!parseSpotKind(KindName, SR.Kind))
      return D.failOver(
          format("report: unknown spot kind '%s'", KindName.c_str()));
    if (!D.key("pc") || !D.u32(SR.PC) || !D.key("loc") ||
        !decodeSourceLoc(D, SR.Loc) || !D.key("executions") ||
        !D.u64(SR.Executions) || !D.key("erroneous") ||
        !D.u64(SR.Erroneous) || !D.key("maxErrorBits") ||
        !D.dbl(SR.MaxErrorBits))
      return false;
    uint64_t NumCauses = 0;
    if (!D.key("rootCauses") || !D.beginArray(NumCauses))
      return false;
    for (uint64_t J = 0; J < NumCauses; ++J) {
      ScopedCtx CC(D, "root cause");
      RootCauseReport RC;
      uint64_t OpCount = 0;
      if (!D.element() || !D.beginObject() || !D.key("pc") || !D.u32(RC.PC) ||
          !D.key("loc") || !decodeSourceLoc(D, RC.Loc) || !D.key("fpcore") ||
          !D.str(RC.FPCore) || !D.key("body") || !D.str(RC.Body) ||
          !D.key("numVars") || !D.u32(RC.NumVars) || !D.key("opCount") ||
          !D.u64(OpCount) || !D.key("flagged") || !D.u64(RC.Flagged) ||
          !D.key("maxLocalError") || !D.dbl(RC.MaxLocalError) ||
          !D.key("avgLocalError") || !D.dbl(RC.AvgLocalError) ||
          !D.key("exampleInput") || !D.str(RC.ExampleInput) ||
          !D.endObject())
        return false;
      RC.OpCount = static_cast<unsigned>(OpCount);
      SR.RootCauses.push_back(std::move(RC));
    }
    if (!D.endArray() || !D.endObject())
      return false;
    Out.Spots.push_back(std::move(SR));
  }
  if (!D.endArray())
    return false;
  // Optional improvements section (absent from pre-1.1 writers and from
  // reports no improver pass ran over); absence round-trips to absence.
  bool HasImp = false;
  if (!D.present("improvements", HasImp))
    return false;
  if (HasImp) {
    uint64_t N = 0;
    if (!D.key("improvements") || !D.beginArray(N))
      return false;
    for (uint64_t I = 0; I < N; ++I) {
      ImproveRecord IR;
      if (!D.element() || !D.beginObject() || !D.key("pc") || !D.u32(IR.PC) ||
          !decodeImproveOutcome(D, IR) || !D.endObject())
        return false;
      Out.Improvements.push_back(std::move(IR));
    }
    if (!D.endArray())
      return false;
  }
  return D.endObject();
}

// Defined here rather than in Report.cpp so the schema exists exactly
// once, in the traversal above.
std::string Report::renderJson() const {
  return renderDoc(ReportKind, WireEncoding::Json,
                   [&](wire::Encoder &E) { encodeReportBody(E, *this); });
}

std::string herbgrind::renderReportBinary(const Report &R) {
  return renderDoc(ReportKind, WireEncoding::Binary,
                   [&](wire::Encoder &E) { encodeReportBody(E, R); });
}

bool herbgrind::parseReportDoc(const std::string &Text, Report &Out,
                               std::string &Err) {
  return parseDoc(ReportKind, Text, Err, [&](wire::Decoder &D, int) {
    return decodeReportBody(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Batch report documents
//===----------------------------------------------------------------------===//

static void encodeBatchBody(wire::Encoder &E,
                            const std::vector<BatchReportEntryRef> &Entries) {
  E.key("benchmarks");
  E.beginArray(Entries.size());
  for (const BatchReportEntryRef &En : Entries) {
    E.beginObject();
    E.key("name");
    E.str(*En.Name);
    E.key("shards");
    E.u64(En.Shards);
    E.key("runs");
    E.u64(En.Runs);
    E.key("report");
    encodeReportBody(E, *En.Rep);
    E.endObject();
  }
  E.endArray();
}

static bool decodeBatchBody(wire::Decoder &D, BatchReportDoc &Out) {
  ScopedCtx C(D, "batch report");
  uint64_t N = 0;
  if (!D.key("benchmarks") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx BC(D, "benchmark entry");
    BatchReportDoc::Entry En;
    if (!D.element() || !D.beginObject() || !D.key("name") ||
        !D.str(En.Name) || !D.key("shards") || !D.u64(En.Shards) ||
        !D.key("runs") || !D.u64(En.Runs))
      return false;
    if (!D.key("report") || !decodeReportBody(D, En.Rep) || !D.endObject())
      return false;
    Out.Benchmarks.push_back(std::move(En));
  }
  return D.endArray();
}

static std::string
renderBatchReport(WireEncoding Enc,
                  const std::vector<BatchReportEntryRef> &Entries) {
  return renderDoc(BatchKind, Enc,
                   [&](wire::Encoder &E) { encodeBatchBody(E, Entries); });
}

static std::vector<BatchReportEntryRef>
batchRefs(const BatchReportDoc &Doc) {
  std::vector<BatchReportEntryRef> Entries;
  Entries.reserve(Doc.Benchmarks.size());
  for (const BatchReportDoc::Entry &En : Doc.Benchmarks)
    Entries.push_back({&En.Name, En.Shards, En.Runs, &En.Rep});
  return Entries;
}

std::string herbgrind::renderBatchReportJson(
    const std::vector<BatchReportEntryRef> &Entries) {
  return renderBatchReport(WireEncoding::Json, Entries);
}

std::string herbgrind::renderBatchReportBinary(
    const std::vector<BatchReportEntryRef> &Entries) {
  return renderBatchReport(WireEncoding::Binary, Entries);
}

std::string herbgrind::renderBatchReportJson(const BatchReportDoc &Doc) {
  return renderBatchReport(WireEncoding::Json, batchRefs(Doc));
}

std::string herbgrind::renderBatchReportBinary(const BatchReportDoc &Doc) {
  return renderBatchReport(WireEncoding::Binary, batchRefs(Doc));
}

bool herbgrind::parseBatchReport(const std::string &Text, BatchReportDoc &Out,
                                 std::string &Err) {
  return parseDoc(BatchKind, Text, Err, [&](wire::Decoder &D, int) {
    return decodeBatchBody(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Telemetry documents
//===----------------------------------------------------------------------===//

/// The counters/gauges/timers sections, shared verbatim by the telemetry
/// document and the run-ledger envelope (one schema, two containers).
static void encodeMetricsSnapshot(wire::Encoder &E,
                                  const metrics::Snapshot &S) {
  E.key("counters");
  E.beginArray(S.Counters.size());
  for (const metrics::CounterSample &Cs : S.Counters) {
    E.beginObject();
    E.key("name");
    E.str(Cs.Name);
    E.key("value");
    E.u64(Cs.Value);
    E.endObject();
  }
  E.endArray();
  E.key("gauges");
  E.beginArray(S.Gauges.size());
  for (const metrics::GaugeSample &G : S.Gauges) {
    E.beginObject();
    E.key("name");
    E.str(G.Name);
    E.key("value");
    E.i64(G.Value);
    E.key("max");
    E.i64(G.Max);
    E.endObject();
  }
  E.endArray();
  E.key("timers");
  E.beginArray(S.Timers.size());
  for (const metrics::TimerSample &T : S.Timers) {
    E.beginObject();
    E.key("name");
    E.str(T.Name);
    E.key("count");
    E.u64(T.Count);
    E.key("sumNs");
    E.u64(T.SumNanos);
    E.key("maxNs");
    E.u64(T.MaxNanos);
    E.key("buckets");
    E.beginArray(metrics::TimerBuckets);
    for (unsigned B = 0; B < metrics::TimerBuckets; ++B)
      E.u64(T.Buckets[B]);
    E.endArray();
    E.endObject();
  }
  E.endArray();
}

static bool decodeMetricsSnapshot(wire::Decoder &D, metrics::Snapshot &Out) {
  uint64_t N = 0;
  if (!D.key("counters") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx CC(D, "metrics counter");
    metrics::CounterSample Cs;
    if (!D.element() || !D.beginObject() || !D.key("name") ||
        !D.str(Cs.Name) || !D.key("value") || !D.u64(Cs.Value) ||
        !D.endObject())
      return false;
    Out.Counters.push_back(std::move(Cs));
  }
  if (!D.endArray())
    return false;
  if (!D.key("gauges") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx GC(D, "metrics gauge");
    metrics::GaugeSample G;
    if (!D.element() || !D.beginObject() || !D.key("name") || !D.str(G.Name) ||
        !D.key("value") || !D.i64(G.Value) || !D.key("max") ||
        !D.i64(G.Max) || !D.endObject())
      return false;
    Out.Gauges.push_back(std::move(G));
  }
  if (!D.endArray())
    return false;
  if (!D.key("timers") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx TC(D, "metrics timer");
    metrics::TimerSample T;
    if (!D.element() || !D.beginObject() || !D.key("name") || !D.str(T.Name) ||
        !D.key("count") || !D.u64(T.Count) || !D.key("sumNs") ||
        !D.u64(T.SumNanos) || !D.key("maxNs") || !D.u64(T.MaxNanos))
      return false;
    uint64_t NumBuckets = 0;
    if (!D.key("buckets") || !D.beginArray(NumBuckets))
      return false;
    if (NumBuckets != metrics::TimerBuckets)
      return D.failOver(
          format("metrics timer '%s': expected %u buckets, got %zu",
                 T.Name.c_str(), metrics::TimerBuckets,
                 static_cast<size_t>(NumBuckets)));
    for (unsigned B = 0; B < metrics::TimerBuckets; ++B)
      if (!D.element() || !D.u64(T.Buckets[B]))
        return false;
    if (!D.endArray() || !D.endObject())
      return false;
    Out.Timers.push_back(std::move(T));
  }
  return D.endArray();
}

static void encodeTelemetryBody(wire::Encoder &E, const TelemetryDoc &Doc) {
  // The 1.1 meta block is optional so a doc parsed from a minor-0 writer
  // re-renders its exact bytes (absence round-trips to absence).
  E.present(Doc.HasMeta);
  if (Doc.HasMeta) {
    E.key("meta");
    E.beginObject();
    E.key("host");
    E.str(Doc.Meta.Host);
    E.key("timestamp");
    E.str(Doc.Meta.Timestamp);
    E.key("mergedDocs");
    E.u64(Doc.Meta.MergedDocs);
    E.endObject();
  }
  encodeMetricsSnapshot(E, Doc.Metrics);
  E.key("profile");
  E.beginObject();
  E.key("totalNs");
  E.u64(Doc.ProfileTotalNanos);
  E.key("ops");
  E.beginArray(Doc.Profile.size());
  for (const opprof::OpProfileRow &R : Doc.Profile) {
    E.beginObject();
    E.key("op");
    E.str(opInfo(R.Op).Name);
    E.key("loc");
    encodeSourceLoc(E, R.Loc);
    E.key("executions");
    E.u64(R.Executions);
    E.key("samples");
    E.u64(R.Samples);
    E.key("ns");
    E.u64(R.Nanos);
    E.key("limbAllocs");
    E.u64(R.LimbAllocs);
    E.key("limbHits");
    E.u64(R.LimbHits);
    E.endObject();
  }
  E.endArray();
  E.endObject();
}

/// \p DocMinor is the document's own minor version: a minor-0 binary doc
/// carries no meta presence byte, so the read must be version-gated (the
/// JSON backend resolves presence by name and tolerates either minor).
static bool decodeTelemetryBody(wire::Decoder &D, TelemetryDoc &Out,
                                int DocMinor) {
  ScopedCtx C(D, "telemetry");
  if (DocMinor >= 1) {
    if (!D.present("meta", Out.HasMeta))
      return false;
    if (Out.HasMeta) {
      ScopedCtx MC(D, "telemetry meta");
      if (!D.key("meta") || !D.beginObject() || !D.key("host") ||
          !D.str(Out.Meta.Host) || !D.key("timestamp") ||
          !D.str(Out.Meta.Timestamp) || !D.key("mergedDocs") ||
          !D.u64(Out.Meta.MergedDocs) || !D.endObject())
        return false;
    }
  }
  if (!decodeMetricsSnapshot(D, Out.Metrics))
    return false;
  uint64_t N = 0;
  ScopedCtx PC(D, "telemetry profile");
  if (!D.key("profile") || !D.beginObject() || !D.key("totalNs") ||
      !D.u64(Out.ProfileTotalNanos))
    return false;
  if (!D.key("ops") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx RC(D, "telemetry profile row");
    opprof::OpProfileRow Row;
    std::string OpName;
    if (!D.element() || !D.beginObject() || !D.key("op") || !D.str(OpName))
      return false;
    if (!parseOpcode(OpName, Row.Op))
      return D.failOver(format("telemetry profile row: unknown opcode '%s'",
                               OpName.c_str()));
    if (!D.key("loc") || !decodeSourceLoc(D, Row.Loc))
      return false;
    if (!D.key("executions") || !D.u64(Row.Executions) ||
        !D.key("samples") || !D.u64(Row.Samples) || !D.key("ns") ||
        !D.u64(Row.Nanos) || !D.key("limbAllocs") ||
        !D.u64(Row.LimbAllocs) || !D.key("limbHits") ||
        !D.u64(Row.LimbHits) || !D.endObject())
      return false;
    Out.Profile.push_back(std::move(Row));
  }
  return D.endArray() && D.endObject();
}

static std::string renderTelemetry(const TelemetryDoc &Doc,
                                   WireEncoding Enc) {
  return renderDoc(TelemetryKind, Enc,
                   [&](wire::Encoder &E) { encodeTelemetryBody(E, Doc); });
}

std::string herbgrind::renderTelemetryJson(const TelemetryDoc &Doc) {
  return renderTelemetry(Doc, WireEncoding::Json);
}

std::string herbgrind::renderTelemetryBinary(const TelemetryDoc &Doc) {
  return renderTelemetry(Doc, WireEncoding::Binary);
}

bool herbgrind::parseTelemetry(const std::string &Text, TelemetryDoc &Out,
                               std::string &Err) {
  return parseDoc(TelemetryKind, Text, Err, [&](wire::Decoder &D, int Minor) {
    return decodeTelemetryBody(D, Out, Minor);
  });
}

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
// Run-ledger documents
//===----------------------------------------------------------------------===//

static void encodeLedgerBody(wire::Encoder &E, const LedgerEntry &L) {
  E.key("meta");
  E.beginObject();
  E.key("host");
  E.str(L.Host);
  E.key("timestamp");
  E.str(L.Timestamp);
  E.key("timestampNs");
  E.u64(L.TimestampNanos);
  E.key("label");
  E.str(L.Label);
  E.endObject();
  E.key("config");
  E.beginObject();
  E.key("hash");
  E.str(L.ConfigHash);
  E.key("wireFormat");
  E.str(L.WireFormat);
  E.key("tier");
  E.str(L.Tier);
  E.key("jobs");
  E.u64(L.Jobs);
  E.key("samples");
  E.u64(L.Samples);
  E.key("shardSize");
  E.u64(L.ShardSize);
  E.key("batchLanes");
  E.u64(L.BatchLanes);
  E.endObject();
  E.key("stats");
  E.beginObject();
  E.key("benchmarks");
  E.u64(L.Benchmarks);
  E.key("shards");
  E.u64(L.Shards);
  E.key("runs");
  E.u64(L.Runs);
  E.key("analyzedShards");
  E.u64(L.AnalyzedShards);
  E.key("cachedShards");
  E.u64(L.CachedShards);
  E.key("rcacheHits");
  E.u64(L.ResultCacheHits);
  E.key("rcacheMisses");
  E.u64(L.ResultCacheMisses);
  E.key("limbHeapAllocs");
  E.u64(L.LimbHeapAllocs);
  E.key("limbCacheHits");
  E.u64(L.LimbCacheHits);
  E.key("tier0Runs");
  E.u64(L.Tier0Runs);
  E.key("escalatedRuns");
  E.u64(L.EscalatedRuns);
  E.key("poolTasks");
  E.u64(L.PoolTasks);
  E.key("poolSteals");
  E.u64(L.PoolSteals);
  E.key("wallSeconds");
  E.dbl(L.WallSeconds);
  E.endObject();
  encodeMetricsSnapshot(E, L.Metrics);
}

static bool decodeLedgerBody(wire::Decoder &D, LedgerEntry &Out) {
  ScopedCtx C(D, "ledger");
  {
    ScopedCtx MC(D, "ledger meta");
    if (!D.key("meta") || !D.beginObject() || !D.key("host") ||
        !D.str(Out.Host) || !D.key("timestamp") || !D.str(Out.Timestamp) ||
        !D.key("timestampNs") || !D.u64(Out.TimestampNanos) ||
        !D.key("label") || !D.str(Out.Label) || !D.endObject())
      return false;
  }
  {
    ScopedCtx CC(D, "ledger config");
    if (!D.key("config") || !D.beginObject() || !D.key("hash") ||
        !D.str(Out.ConfigHash) || !D.key("wireFormat") ||
        !D.str(Out.WireFormat) || !D.key("tier") || !D.str(Out.Tier) ||
        !D.key("jobs") || !D.u64(Out.Jobs) || !D.key("samples") ||
        !D.u64(Out.Samples) || !D.key("shardSize") || !D.u64(Out.ShardSize) ||
        !D.key("batchLanes") || !D.u64(Out.BatchLanes) || !D.endObject())
      return false;
  }
  {
    ScopedCtx SC(D, "ledger stats");
    if (!D.key("stats") || !D.beginObject() || !D.key("benchmarks") ||
        !D.u64(Out.Benchmarks) || !D.key("shards") || !D.u64(Out.Shards) ||
        !D.key("runs") || !D.u64(Out.Runs) || !D.key("analyzedShards") ||
        !D.u64(Out.AnalyzedShards) || !D.key("cachedShards") ||
        !D.u64(Out.CachedShards) || !D.key("rcacheHits") ||
        !D.u64(Out.ResultCacheHits) || !D.key("rcacheMisses") ||
        !D.u64(Out.ResultCacheMisses) || !D.key("limbHeapAllocs") ||
        !D.u64(Out.LimbHeapAllocs) || !D.key("limbCacheHits") ||
        !D.u64(Out.LimbCacheHits) || !D.key("tier0Runs") ||
        !D.u64(Out.Tier0Runs) || !D.key("escalatedRuns") ||
        !D.u64(Out.EscalatedRuns) || !D.key("poolTasks") ||
        !D.u64(Out.PoolTasks) || !D.key("poolSteals") ||
        !D.u64(Out.PoolSteals) || !D.key("wallSeconds") ||
        !D.dbl(Out.WallSeconds) || !D.endObject())
      return false;
  }
  return decodeMetricsSnapshot(D, Out.Metrics);
}

static std::string renderLedger(const LedgerEntry &L, WireEncoding Enc) {
  return renderDoc(LedgerKind, Enc,
                   [&](wire::Encoder &E) { encodeLedgerBody(E, L); });
}

std::string herbgrind::renderLedgerEntryJson(const LedgerEntry &E) {
  return renderLedger(E, WireEncoding::Json);
}

std::string herbgrind::renderLedgerEntryBinary(const LedgerEntry &E) {
  return renderLedger(E, WireEncoding::Binary);
}

bool herbgrind::parseLedgerEntry(const std::string &Text, LedgerEntry &Out,
                                 std::string &Err) {
  return parseDoc(LedgerKind, Text, Err, [&](wire::Decoder &D, int) {
    return decodeLedgerBody(D, Out);
  });
}

//===----------------------------------------------------------------------===//
// Conversion between the encodings
//===----------------------------------------------------------------------===//

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

  // Per-sweep documents end with the newline the CLI writes after them;
  // per-shard documents (cache entries, emitted shards) have none.
  const char *Newline =
      ToJson && Fam != wire::Family::Shard && Fam != wire::Family::Improve
          ? "\n"
          : "";
  auto Via = [&](auto Doc, auto Parse, auto Render) {
    if (!Parse(Text, Doc, Err))
      return false;
    Out = Render(Doc, To) + Newline;
    return true;
  };
  switch (Fam) {
  case wire::Family::Shard:
    return Via(ShardDoc(), parseShard, renderShard);
  case wire::Family::Improve:
    return Via(ImproveDoc(), parseImproveDoc, renderImproveDoc);
  case wire::Family::Report:
    return Via(Report(), parseReportDoc, [](const Report &R, WireEncoding E) {
      return E == WireEncoding::Json ? R.renderJson() : renderReportBinary(R);
    });
  case wire::Family::BatchReport:
    return Via(BatchReportDoc(), parseBatchReport,
               [](const BatchReportDoc &D, WireEncoding E) {
                 return renderBatchReport(E, batchRefs(D));
               });
  case wire::Family::Telemetry:
    return Via(TelemetryDoc(), parseTelemetry, renderTelemetry);
  case wire::Family::Ledger:
    return Via(LedgerEntry(), parseLedgerEntry, renderLedger);
  }
  return false;
}
