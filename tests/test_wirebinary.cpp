//===- tests/test_wirebinary.cpp - HGB binary wire format -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The binary backend's contract: (1) every document family round-trips
// through HGB byte-identically AND re-renders the exact JSON bytes the
// JSON backend emits -- the two backends are one schema traversal and
// cannot drift; (2) the sniffing parsers accept either format; (3) every
// truncation or corruption of a binary document fails cleanly (the
// caches treat that as a miss); (4) the decoder bounds nesting depth like
// the JSON parser; (5) the result cache writes HGB entries only, reads a
// JSON entry from an older writer as a miss, and still prunes it; (6)
// mixed-format shard sets merge byte-identically to a direct sweep; (7)
// randomized report
// documents with NaN / infinities / subnormals / -0.0 round-trip in both
// formats; (8) convertWireDoc rewrites every family in either direction.
//
//===----------------------------------------------------------------------===//

#include "EmittedSegment.h"

#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "native/Kernel.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/WireBinary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

Program cancellationKernel() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(T);
  B.halt();
  return B.finish();
}

/// One real shard document, produced by actually analyzing something so
/// every schema branch (ops, spots, expressions, input summaries) is
/// populated.
ShardDoc sampleShard() {
  Program P = cancellationKernel();
  Herbgrind HG(P);
  // Above 2^53, (x + 1) - x cancels to 0 while the real value is 1:
  // maximal local error, so the report has spots to serialize.
  for (double X : {1e16, 2.5e17, 3.7e18, 1e16})
    HG.runOnInput({X});
  ShardDoc Doc;
  Doc.ConfigHash = "0123456789abcdef";
  Doc.Benchmark = "cancellation";
  Doc.BenchIndex = 3;
  Doc.ShardIndex = 1;
  Doc.RunBegin = 16;
  Doc.RunEnd = 32;
  Doc.Result = HG.snapshot();
  return Doc;
}

std::vector<fpcore::Core> smallCorpusSubset(size_t MaxBenchmarks) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= MaxBenchmarks)
      break;
  }
  return Cores;
}

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-test-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return Text;
}

void spew(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips and cross-renders
//===----------------------------------------------------------------------===//

TEST(WireBinary, ShardDocumentRoundTripsAndCrossRenders) {
  ShardDoc Doc = sampleShard();
  std::string Json = renderShard(Doc, WireEncoding::Json);
  std::string Bin = renderShard(Doc, WireEncoding::Binary);
  ASSERT_TRUE(wire::isBinary(Bin));
  ASSERT_FALSE(wire::isBinary(Json));
  EXPECT_LT(Bin.size(), Json.size());

  ShardDoc FromBin, FromJson;
  std::string Err;
  ASSERT_TRUE(parseShard(Bin, FromBin, Err)) << Err;
  ASSERT_TRUE(parseShard(Json, FromJson, Err)) << Err;

  // Both parses re-render byte-identically in BOTH formats: the binary
  // path loses nothing the JSON path carries, and vice versa.
  EXPECT_EQ(renderShard(FromBin, WireEncoding::Json), Json);
  EXPECT_EQ(renderShard(FromJson, WireEncoding::Json), Json);
  EXPECT_EQ(renderShard(FromBin, WireEncoding::Binary), Bin);
  EXPECT_EQ(renderShard(FromJson, WireEncoding::Binary), Bin);
}

TEST(WireBinary, SniffedHeaderCarriesFamilyAndVersion) {
  std::string Bin = renderShard(sampleShard(), WireEncoding::Binary);
  wire::BinaryDecoder D(Bin);
  ASSERT_TRUE(D.ok()) << D.error();
  EXPECT_EQ(D.family(), wire::Family::Shard);
  EXPECT_EQ(D.major(), WireFormatMajor);
  EXPECT_EQ(D.minor(), ShardFormatMinor);
}

TEST(WireBinary, ImproveDocumentRoundTripsAndCrossRenders) {
  ImproveDoc Doc;
  Doc.ConfigHash = "00ff00ff00ff00ff";
  Doc.ImproveHash = "samples=256|seed=51966";
  Doc.ExprIdentity = "(- (+ x0 1) x0)";
  Doc.SpecIdentity = "x0 in [1e8, 1e15]";
  Doc.Record.Original = "(- (+ x0 1) x0)";
  Doc.Record.Rewritten = "1";
  Doc.Record.ErrorBefore = 31.5;
  Doc.Record.ErrorAfter = 0.0;
  Doc.Record.HadSignificantError = true;
  Doc.Record.Improved = true;

  std::string Json = renderImproveDoc(Doc, WireEncoding::Json);
  std::string Bin = renderImproveDoc(Doc, WireEncoding::Binary);
  ImproveDoc Back;
  std::string Err;
  ASSERT_TRUE(parseImproveDoc(Bin, Back, Err)) << Err;
  EXPECT_EQ(renderImproveDoc(Back, WireEncoding::Json), Json);
  EXPECT_EQ(renderImproveDoc(Back, WireEncoding::Binary), Bin);
  ASSERT_TRUE(parseImproveDoc(Json, Back, Err)) << Err;
  EXPECT_EQ(renderImproveDoc(Back, WireEncoding::Binary), Bin);
}

TEST(WireBinary, BatchReportAndTelemetryRoundTripCorpusWide) {
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Engine Eng(Cfg);
  BatchResult Res = Eng.run(smallCorpusSubset(6));

  std::string Json = Res.renderWire(WireEncoding::Json);
  std::string Bin = Res.renderWire(WireEncoding::Binary);
  EXPECT_EQ(Res.renderJson(), Json);

  BatchReportDoc Doc;
  std::string Err;
  ASSERT_TRUE(parseBatchReport(Bin, Doc, Err)) << Err;
  EXPECT_EQ(renderBatchReport(Doc, WireEncoding::Json), Json);
  EXPECT_EQ(renderBatchReport(Doc, WireEncoding::Binary), Bin);
  BatchReportDoc Doc2;
  ASSERT_TRUE(parseBatchReport(Json, Doc2, Err)) << Err;
  EXPECT_EQ(renderBatchReport(Doc2, WireEncoding::Binary), Bin);

  // Telemetry rides the same codec with its own family and version.
  TelemetryDoc Tel;
  Tel.Metrics = metrics::snapshot();
  std::string TelJson = renderTelemetry(Tel, WireEncoding::Json);
  std::string TelBin = renderTelemetry(Tel, WireEncoding::Binary);
  TelemetryDoc TelBack;
  ASSERT_TRUE(parseTelemetry(TelBin, TelBack, Err)) << Err;
  EXPECT_EQ(renderTelemetry(TelBack, WireEncoding::Json), TelJson);
  EXPECT_EQ(renderTelemetry(TelBack, WireEncoding::Binary), TelBin);
  wire::BinaryDecoder D(TelBin);
  ASSERT_TRUE(D.ok()) << D.error();
  EXPECT_EQ(D.family(), wire::Family::Telemetry);
  EXPECT_EQ(D.major(), TelemetryFormatMajor);
}

TEST(WireBinary, BareReportRoundTripsAndCrossRenders) {
  ShardDoc Doc = sampleShard();
  Report R = buildReport(Doc.Result);
  ASSERT_FALSE(R.Spots.empty());
  std::string Json = R.renderJson();
  std::string Bin = renderReport(R, WireEncoding::Binary);

  Report Back;
  std::string Err;
  ASSERT_TRUE(parseReportDoc(Bin, Back, Err)) << Err;
  EXPECT_EQ(Back.renderJson(), Json);
  EXPECT_EQ(renderReport(Back, WireEncoding::Binary), Bin);
  Report Back2;
  ASSERT_TRUE(parseReportDoc(Json, Back2, Err)) << Err;
  EXPECT_EQ(renderReport(Back2, WireEncoding::Binary), Bin);
}

TEST(WireBinary, ConvertWireDocRewritesEveryFamily) {
  ShardDoc Shard = sampleShard();
  ImproveDoc Imp;
  Imp.ConfigHash = "00ff00ff00ff00ff";
  Imp.ExprIdentity = Imp.Record.Original = "(- (+ x0 1) x0)";
  Imp.Record.Rewritten = "1";
  Imp.Record.Improved = true;
  Report Rep = buildReport(Shard.Result);
  BatchReportDoc Batch;
  Batch.Benchmarks.push_back({"cancellation", 1, 4, Rep});
  TelemetryDoc Tel;
  Tel.Metrics = metrics::snapshot();
  LedgerEntry Led;
  Led.Host = "host";
  Led.Tier = "full";
  Led.WallSeconds = 0.25;
  Led.Metrics = Tel.Metrics;

  // Per-sweep documents carry the CLI's trailing newline as JSON;
  // per-shard documents do not.
  const std::pair<std::string, std::string> Docs[] = {
      {renderShard(Shard, WireEncoding::Json),
       renderShard(Shard, WireEncoding::Binary)},
      {renderImproveDoc(Imp, WireEncoding::Json),
       renderImproveDoc(Imp, WireEncoding::Binary)},
      {Rep.renderJson() + "\n", renderReport(Rep, WireEncoding::Binary)},
      {renderBatchReport(Batch, WireEncoding::Json) + "\n",
       renderBatchReport(Batch, WireEncoding::Binary)},
      {renderTelemetry(Tel, WireEncoding::Json) + "\n",
       renderTelemetry(Tel, WireEncoding::Binary)},
      {renderLedgerEntry(Led, WireEncoding::Json) + "\n",
       renderLedgerEntry(Led, WireEncoding::Binary)},
  };
  std::string Out, Err;
  for (const auto &[Json, Bin] : Docs) {
    ASSERT_TRUE(convertWireDoc(Json, WireEncoding::Binary, Out, Err)) << Err;
    EXPECT_EQ(Out, Bin);
    ASSERT_TRUE(convertWireDoc(Bin, WireEncoding::Json, Out, Err)) << Err;
    EXPECT_EQ(Out, Json);
  }

  EXPECT_FALSE(convertWireDoc("{\"format\":\"herbgrind-nope\"}",
                              WireEncoding::Binary, Out, Err));
  EXPECT_EQ(Err, "not a herbgrind wire document (unrecognized \"format\": "
                 "\"herbgrind-nope\")");
  std::string Truncated(reinterpret_cast<const char *>(wire::HgbMagic), 4);
  EXPECT_FALSE(convertWireDoc(Truncated, WireEncoding::Json, Out, Err));
  EXPECT_EQ(Err, "malformed HGB header");
  EXPECT_FALSE(convertWireDoc(Docs[0].first, WireEncoding::Json, Out, Err));
  EXPECT_EQ(Err, "hgb2json expects an HGB input");
  EXPECT_FALSE(convertWireDoc(Docs[0].second, WireEncoding::Binary, Out, Err));
  EXPECT_EQ(Err, "json2hgb expects a JSON input");
}

//===----------------------------------------------------------------------===//
// Malformed input
//===----------------------------------------------------------------------===//

TEST(WireBinary, EveryTruncationFailsCleanly) {
  std::string Bin = renderShard(sampleShard(), WireEncoding::Binary);
  ShardDoc Out;
  std::string Err;
  for (size_t Len = 0; Len < Bin.size(); ++Len) {
    EXPECT_FALSE(parseShard(Bin.substr(0, Len), Out, Err))
        << "truncation to " << Len << " of " << Bin.size()
        << " bytes parsed anyway";
  }
}

TEST(WireBinary, RejectsBadMagicFamilyCodecAndTrailingGarbage) {
  std::string Bin = renderShard(sampleShard(), WireEncoding::Binary);
  ShardDoc Out;
  std::string Err;

  std::string BadMagic = Bin;
  BadMagic[0] = '{';
  EXPECT_FALSE(parseShard(BadMagic, Out, Err));

  // magic + family 9 + version 1.1 + raw codec: unknown family tag.
  std::string BadFamily(reinterpret_cast<const char *>(wire::HgbMagic), 4);
  BadFamily += static_cast<char>(9);
  BadFamily += static_cast<char>(1);
  BadFamily += static_cast<char>(1);
  BadFamily += static_cast<char>(0);
  EXPECT_FALSE(parseShard(BadFamily, Out, Err));
  EXPECT_NE(Err.find("family"), std::string::npos) << Err;

  // A wrong family with a valid header must be rejected by the typed
  // parser ("this is an improve doc, not a shard").
  ImproveDoc IDoc;
  IDoc.ConfigHash = "c";
  std::string Improve = renderImproveDoc(IDoc, WireEncoding::Binary);
  EXPECT_FALSE(parseShard(Improve, Out, Err));

  // Unknown codec byte (the byte right after magic + 3 version varints).
  std::string BadCodec = Bin;
  BadCodec[7] = static_cast<char>(0x7e);
  EXPECT_FALSE(parseShard(BadCodec, Out, Err));
  EXPECT_NE(Err.find("codec"), std::string::npos) << Err;

  // An unknown major version is a hard error, like the JSON envelope's.
  std::string BadMajor = Bin;
  BadMajor[5] = static_cast<char>(WireFormatMajor + 9);
  EXPECT_FALSE(parseShard(BadMajor, Out, Err));
  EXPECT_NE(Err.find("major version"), std::string::npos) << Err;

  std::string Trailing = Bin + "x";
  EXPECT_FALSE(parseShard(Trailing, Out, Err));
}

TEST(WireBinary, DecoderBoundsNestingDepth) {
  // Hand-drive the codec: 600 nested single-element arrays encode fine,
  // but the decoder must refuse to recurse past its depth bound (the
  // same contract the JSON parser enforces).
  wire::BinaryEncoder Enc(wire::Family::Report, WireFormatMajor,
                          WireFormatMinor);
  const unsigned Depth = 600;
  for (unsigned I = 0; I < Depth; ++I)
    Enc.beginArray(1);
  Enc.u64(7);
  for (unsigned I = 0; I < Depth; ++I)
    Enc.endArray();
  std::string Doc = Enc.take();

  wire::BinaryDecoder Dec(Doc);
  ASSERT_TRUE(Dec.ok());
  unsigned Reached = 0;
  uint64_t Count;
  while (Reached < Depth && Dec.beginArray(Count))
    ++Reached;
  EXPECT_LT(Reached, Depth);
  EXPECT_GE(Reached, 256u);
  EXPECT_NE(Dec.error().find("deep"), std::string::npos) << Dec.error();
}

//===----------------------------------------------------------------------===//
// The result cache across formats
//===----------------------------------------------------------------------===//

/// The finished segments in a cache directory.
static std::vector<std::string> segmentsIn(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == SegmentExtension)
      Out.push_back(E.path().string());
  return Out;
}

TEST(WireBinary, LegacyJsonCacheEntriesAreMisses) {
  TempDir Dir("legacy-cache");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  BatchResult First = Engine(Cfg).run(Cores);
  ASSERT_GT(First.Stats.AnalyzedShards, 0u);

  // Replace the segment with the per-entry files earlier versions wrote,
  // under the names they gave them: every document as `<key>.shard.hgb`
  // and as its JSON twin `<key>.shard.json`.
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  std::vector<SegmentEntry> Entries;
  std::string Err;
  ASSERT_TRUE(readSegment(Segments[0], Entries, Err)) << Err;
  uint64_t Legacy = 0;
  for (const SegmentEntry &E : Entries) {
    ShardDoc Doc;
    ASSERT_TRUE(parseShard(E.Doc, Doc, Err)) << Err;
    std::string Base =
        Dir.Path + "/" +
        format("%016llx", static_cast<unsigned long long>(E.Key));
    spew(Base + ".shard.hgb", E.Doc);
    spew(Base + ".shard.json", renderShard(Doc, WireEncoding::Json));
    ++Legacy;
  }
  std::filesystem::remove(Segments[0]);
  ASSERT_EQ(Legacy, First.Stats.Shards);

  // Lookups never open the per-entry files: every shard is analyzed
  // again, the report keeps its bytes, and the rebuilt entries are one
  // segment.
  BatchResult Second = Engine(Cfg).run(Cores);
  EXPECT_EQ(Second.Stats.CachedShards, 0u);
  EXPECT_EQ(Second.Stats.AnalyzedShards, Second.Stats.Shards);
  EXPECT_EQ(Second.renderJson(), First.renderJson());
  EXPECT_EQ(segmentsIn(Dir.Path).size(), 1u);

  // GC still counts and prunes the legacy entries.
  CacheGcStats Stats;
  ASSERT_TRUE(gcCacheDir(Dir.Path, 0, Stats, Err)) << Err;
  EXPECT_EQ(Stats.Entries, 2 * Legacy + 1);
  EXPECT_EQ(Stats.PrunedEntries, Stats.Entries);
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    ADD_FAILURE() << "entry survived a zero-byte cap: " << E.path();
}

TEST(WireBinary, TruncatedCacheEntriesAreMisses) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(3);
  TempDir Dir("trunc-hgb");
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;

  Engine Cold(Cfg);
  BatchResult First = Cold.run(Cores);
  EXPECT_GT(First.Stats.AnalyzedShards, 0u);

  // Chop the segment in half: its rename is atomic, so a store can never
  // produce this, but a full disk or a copied cache can. A torn segment
  // has no footer, and the reader says so.
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  std::string Text = slurp(Segments[0]);
  spew(Segments[0], Text.substr(0, Text.size() / 2));
  std::vector<SegmentEntry> Entries;
  std::string Err;
  EXPECT_FALSE(readSegment(Segments[0], Entries, Err));
  EXPECT_FALSE(Err.empty());

  Engine Damaged(Cfg);
  BatchResult Second = Damaged.run(Cores);
  EXPECT_EQ(Second.Stats.CachedShards, 0u);
  EXPECT_EQ(Second.Stats.AnalyzedShards, Second.Stats.Shards);
  EXPECT_EQ(Second.renderJson(), First.renderJson());

  // The re-analysis stored a whole segment: a third run is fully warm.
  Engine Healed(Cfg);
  BatchResult Third = Healed.run(Cores);
  EXPECT_EQ(Third.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Third.renderJson(), First.renderJson());
}

TEST(WireBinary, GcPrunesBinaryEntries) {
  TempDir Dir("gc-hgb");
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  Engine Eng(Cfg);
  Eng.run(smallCorpusSubset(3));
  // A sweep killed before its flush leaves its temporary segment behind.
  spew(Dir.Path + "/orphan" + SegmentExtension + ".tmp", "partial");

  CacheGcStats Stats;
  std::string Err;
  ASSERT_TRUE(gcCacheDir(Dir.Path, 0, Stats, Err)) << Err;
  EXPECT_EQ(Stats.Entries, 2u); // the sweep's one segment and the orphan
  EXPECT_EQ(Stats.PrunedEntries, Stats.Entries);
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    ADD_FAILURE() << "entry survived a zero-byte cap: " << E.path();
}

TEST(WireBinary, EmittedSegmentConvertsLosslessly) {
  // Every document of a real emitted segment, FPCore and native
  // benchmarks alike, goes HGB -> JSON -> HGB through convertWireDoc (what
  // hgb2json and json2hgb run) byte-identically, and back to the same
  // JSON.
  TempDir Emit("convert-emit");
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.EmitShardDir = Emit.Path;
  BatchResult R = Engine(Cfg).run(smallCorpusSubset(4), native::demoKernels());
  ASSERT_EQ(R.Stats.EmitFailures, 0u);

  std::vector<SegmentEntry> Entries;
  ASSERT_TRUE(emitted::readSegmentOf(Emit.Path, Entries));
  ASSERT_EQ(Entries.size(), R.Stats.Shards);
  for (size_t I = 0; I < Entries.size(); ++I) {
    SCOPED_TRACE("document " + std::to_string(I));
    std::string Json, Hgb, JsonAgain, Err;
    ASSERT_TRUE(convertWireDoc(Entries[I].Doc, WireEncoding::Json, Json, Err))
        << Err;
    ASSERT_TRUE(convertWireDoc(Json, WireEncoding::Binary, Hgb, Err)) << Err;
    EXPECT_EQ(Hgb, Entries[I].Doc);
    ASSERT_TRUE(convertWireDoc(Hgb, WireEncoding::Json, JsonAgain, Err))
        << Err;
    EXPECT_EQ(JsonAgain, Json);
  }
}

//===----------------------------------------------------------------------===//
// Mixed-format merging
//===----------------------------------------------------------------------===//

TEST(WireBinary, MixedFormatShardSetMergesByteIdentically) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;

  TempDir Emit("mixed-emit");
  EngineConfig EmitCfg = Cfg;
  EmitCfg.EmitShardDir = Emit.Path;
  Engine Direct(EmitCfg);
  BatchResult Reference = Direct.run(Cores);

  // Convert every other emitted HGB document to JSON, then merge the
  // mixed set: same report bytes as the direct sweep. Only this
  // library-level merge still sees JSON shard documents.
  std::vector<SegmentEntry> Entries;
  ASSERT_TRUE(emitted::readSegmentOf(Emit.Path, Entries));
  ASSERT_GT(Entries.size(), 1u);

  std::vector<ShardDoc> Docs;
  std::string Err;
  for (size_t I = 0; I < Entries.size(); ++I) {
    const std::string &Text = Entries[I].Doc;
    ASSERT_TRUE(wire::isBinary(Text)) << "document " << I;
    ShardDoc Doc;
    ASSERT_TRUE(parseShard(Text, Doc, Err)) << "document " << I << ": " << Err;
    if (I % 2 == 1) {
      std::string Json = renderShard(Doc, WireEncoding::Json);
      ShardDoc Again;
      ASSERT_TRUE(parseShard(Json, Again, Err)) << Err;
      Docs.push_back(std::move(Again));
    } else {
      Docs.push_back(std::move(Doc));
    }
  }

  BatchResult Merged;
  ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
  EXPECT_EQ(Merged.renderJson(), Reference.renderJson());
}

//===----------------------------------------------------------------------===//
// Randomized documents (special doubles included)
//===----------------------------------------------------------------------===//

namespace {

double specialDouble(Rng &R) {
  switch (R.nextBelow(8)) {
  case 0:
    return std::numeric_limits<double>::quiet_NaN();
  case 1:
    return std::numeric_limits<double>::infinity();
  case 2:
    return -std::numeric_limits<double>::infinity();
  case 3:
    return -0.0;
  case 4:
    return std::numeric_limits<double>::denorm_min(); // 5e-324
  case 5:
    return -2.2250738585072009e-308; // largest-magnitude subnormal
  default:
    return R.anyFiniteDouble();
  }
}

Report randomReport(Rng &R) {
  Report Rep;
  size_t NumSpots = R.nextBelow(4);
  for (size_t S = 0; S < NumSpots; ++S) {
    SpotReport SR;
    SR.PC = static_cast<uint32_t>(R.nextBelow(1000));
    SR.Kind = static_cast<SpotKind>(R.nextBelow(3));
    SR.Loc = SourceLoc("kernel.cpp", static_cast<int>(R.nextBelow(500)),
                       "fn" + std::to_string(R.nextBelow(3)));
    SR.Executions = R.nextBelow(1 << 20);
    SR.Erroneous = R.nextBelow(SR.Executions + 1);
    SR.MaxErrorBits = specialDouble(R);
    size_t NumCauses = R.nextBelow(3);
    for (size_t C = 0; C < NumCauses; ++C) {
      RootCauseReport RC;
      RC.PC = static_cast<uint32_t>(R.nextBelow(1000));
      RC.Loc = SR.Loc;
      RC.FPCore = "(FPCore (x0)\n  (- (+ x0 1) x0))";
      RC.Body = "(- (+ x0 1) x0)";
      RC.NumVars = 1;
      RC.OpCount = static_cast<unsigned>(R.nextBelow(50));
      RC.Flagged = R.nextBelow(1 << 16);
      RC.MaxLocalError = specialDouble(R);
      RC.AvgLocalError = specialDouble(R);
      RC.ExampleInput = "(" + std::to_string(R.nextUnit()) + ")";
      SR.RootCauses.push_back(std::move(RC));
    }
    Rep.Spots.push_back(std::move(SR));
  }
  size_t NumImprovements = R.nextBelow(3);
  for (size_t I = 0; I < NumImprovements; ++I) {
    ImproveRecord IR;
    IR.PC = static_cast<uint32_t>(R.nextBelow(1000));
    IR.Original = "(- (+ x0 1) x0)";
    IR.Rewritten = R.chance(1, 2) ? "1" : "";
    IR.ErrorBefore = specialDouble(R);
    IR.ErrorAfter = specialDouble(R);
    IR.HadSignificantError = R.chance(1, 2);
    IR.Improved = R.chance(1, 2);
    Rep.Improvements.push_back(std::move(IR));
  }
  return Rep;
}

} // namespace

TEST(WireBinary, RandomizedReportsRoundTripInBothFormats) {
  Rng R(0x5eed);
  for (int Iter = 0; Iter < 200; ++Iter) {
    Report Rep = randomReport(R);
    std::string Json = Rep.renderJson();
    std::string Bin = renderReport(Rep, WireEncoding::Binary);

    Report FromJson, FromBin;
    std::string Err;
    ASSERT_TRUE(parseReportDoc(Json, FromJson, Err))
        << "iter " << Iter << ": " << Err;
    ASSERT_TRUE(parseReportDoc(Bin, FromBin, Err))
        << "iter " << Iter << ": " << Err;

    // JSON re-render is byte-stable through either decode path (NaN
    // payloads canonicalize to the NAN token either way).
    EXPECT_EQ(FromJson.renderJson(), Json) << "iter " << Iter;
    EXPECT_EQ(FromBin.renderJson(), Json) << "iter " << Iter;
    // Binary re-render of the binary decode is exact to the byte: raw
    // IEEE-754 storage preserves even NaN payloads.
    EXPECT_EQ(renderReport(FromBin, WireEncoding::Binary), Bin)
        << "iter " << Iter;
  }
}
