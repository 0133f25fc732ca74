//===- tests/test_serialize.cpp - Wire format & result cache --------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The persistence layer's contract: (1) the JSON reader round-trips
// numbers exactly, including the writers' NAN/INFINITY extension; (2)
// parse(render(x)) of an AnalysisResult re-renders byte-identically AND
// merges byte-identically with the in-memory original, corpus-wide; (3)
// presentation reports and batch documents round-trip; (4) unknown major
// versions are rejected; (5) the result cache hits on identical sweeps,
// invalidates on config/seed/FPCore changes, survives corruption (a
// spoiled document is a miss, and exactly the spoiled shards are analyzed
// again), prunes whole segments to its cap, and a warm sweep analyzes
// zero shards while producing identical bytes.
//
//===----------------------------------------------------------------------===//

#include "EmittedSegment.h"

#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/FloatBits.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

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

AnalysisResult analyzeChunk(const Program &P,
                            const std::vector<std::vector<double>> &Inputs,
                            size_t Begin, size_t End) {
  Herbgrind HG(P);
  for (size_t I = Begin; I < End; ++I)
    HG.runOnInput(Inputs[I]);
  return HG.snapshot();
}

/// render -> parse -> assert both re-render identity and report identity,
/// through a shard document in each encoding; returns the JSON parse.
AnalysisResult roundTrip(const AnalysisResult &R, const std::string &Ctx) {
  AnalysisResult Back;
  for (WireEncoding Enc : {WireEncoding::Binary, WireEncoding::Json}) {
    std::string Text = renderShard("h", "b", 0, 0, 0, 1, 1, R, Enc);
    ShardDoc Doc;
    std::string Err;
    EXPECT_TRUE(parseShard(Text, Doc, Err)) << Ctx << ": " << Err;
    EXPECT_EQ(renderShard(Doc, Enc), Text) << Ctx;
    EXPECT_EQ(buildReport(Doc.Result).renderJson(),
              buildReport(R).renderJson())
        << Ctx;
    Back = std::move(Doc.Result);
  }
  return Back;
}

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-test-" + Tag + "-" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void spewFile(const std::string &Path, const std::string &Text) {
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Text;
}

/// The finished segments in a cache directory, sorted.
std::vector<std::string> segmentsIn(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == SegmentExtension)
      Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
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

} // namespace

//===----------------------------------------------------------------------===//
// The JSON reader
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsAndStructure) {
  JsonParseResult R = parseJson(
      "{\"a\":1,\"b\":-2.5e-3,\"c\":\"x\\n\\\"y\\\"\",\"d\":[true,false,"
      "null],\"e\":{\"nested\":[]}}");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Value.isObject());
  EXPECT_EQ(R.Value.field("a")->asU64(), 1u);
  EXPECT_EQ(R.Value.field("b")->asDouble(), -2.5e-3);
  EXPECT_EQ(R.Value.field("c")->Str, "x\n\"y\"");
  ASSERT_TRUE(R.Value.field("d")->isArray());
  EXPECT_EQ(R.Value.field("d")->Arr.size(), 3u);
  EXPECT_TRUE(R.Value.field("d")->Arr[0].BoolVal);
  EXPECT_TRUE(R.Value.field("d")->Arr[2].isNull());
  EXPECT_TRUE(R.Value.field("e")->field("nested")->isArray());
  EXPECT_EQ(R.Value.field("missing"), nullptr);
}

TEST(Json, NumbersRoundTripExactly) {
  for (double X : {0.1, 1.0 / 3.0, 2.061152e-09, -1e308, 4.9e-324, 0.0,
                   1e16, 123456789.123456789}) {
    std::string Doc = "[" + formatDoubleShortest(X) + "]";
    JsonParseResult R = parseJson(Doc);
    ASSERT_TRUE(R.Ok) << Doc;
    EXPECT_EQ(bitsOfDouble(R.Value.Arr[0].asDouble()), bitsOfDouble(X))
        << Doc;
  }
}

TEST(Json, AcceptsTheNonfiniteExtension) {
  JsonParseResult R = parseJson("[NAN,INFINITY,-INFINITY]");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Value.Arr.size(), 3u);
  EXPECT_TRUE(std::isnan(R.Value.Arr[0].asDouble()));
  EXPECT_EQ(R.Value.Arr[1].asDouble(), HUGE_VAL);
  EXPECT_EQ(R.Value.Arr[2].asDouble(), -HUGE_VAL);
}

TEST(Json, DecodesSurrogatePairsAndRejectsLoneSurrogates) {
  JsonParseResult R = parseJson("\"\\ud83d\\ude00\""); // U+1F600
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.Str, "\xf0\x9f\x98\x80");
  EXPECT_FALSE(parseJson("\"\\ud83d\"").Ok);        // unpaired high
  EXPECT_FALSE(parseJson("\"\\ude00\"").Ok);        // unpaired low
  EXPECT_FALSE(parseJson("\"\\ud83d\\u0041\"").Ok); // high + non-low
  EXPECT_FALSE(parseJson("\"\\ud83dx\"").Ok);       // high + literal
}

TEST(Json, RejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "[1] garbage",
        "\"unterminated", "[1.]", "[1e]", "[+1]", "{1:2}", "[Infinity]"}) {
    EXPECT_FALSE(parseJson(Bad).Ok) << "accepted: " << Bad;
  }
}

TEST(Json, BoundsNestingDepth) {
  std::string Deep(2000, '[');
  Deep += std::string(2000, ']');
  EXPECT_FALSE(parseJson(Deep).Ok);
  std::string Fine = std::string(100, '[') + "1" + std::string(100, ']');
  EXPECT_TRUE(parseJson(Fine).Ok);
}

//===----------------------------------------------------------------------===//
// AnalysisResult round-trips
//===----------------------------------------------------------------------===//

TEST(Serialize, KernelResultRoundTripsExactly) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xbeef);
  for (int I = 0; I < 8; ++I)
    Inputs.push_back({R.betweenOrdinals(1.0, 1e16)});
  AnalysisResult Result = analyzeChunk(P, Inputs, 0, 8);
  AnalysisResult Back = roundTrip(Result, "cancellation");

  // Parsed records keep exact bit-level values, not just report text.
  for (const auto &[PC, Rec] : Result.Ops) {
    ASSERT_TRUE(Back.Ops.count(PC));
    const OpRecord &B = Back.Ops.at(PC);
    EXPECT_EQ(B.Executions, Rec.Executions);
    EXPECT_EQ(B.Flagged, Rec.Flagged);
    EXPECT_EQ(B.NextVarIdx, Rec.NextVarIdx);
    EXPECT_EQ(bitsOfDouble(B.LocalError.sum()),
              bitsOfDouble(Rec.LocalError.sum()));
    EXPECT_EQ(bitsOfDouble(B.MaxFlaggedLocalError),
              bitsOfDouble(Rec.MaxFlaggedLocalError));
    ASSERT_EQ(static_cast<bool>(B.Expr), static_cast<bool>(Rec.Expr));
    if (Rec.Expr)
      EXPECT_EQ(B.Expr->fpcoreBody(), Rec.Expr->fpcoreBody());
    ASSERT_EQ(B.ExampleProblematic.size(), Rec.ExampleProblematic.size());
    for (size_t I = 0; I < Rec.ExampleProblematic.size(); ++I) {
      EXPECT_EQ(B.ExampleProblematic[I].Idx, Rec.ExampleProblematic[I].Idx);
      EXPECT_EQ(bitsOfDouble(B.ExampleProblematic[I].Value),
                bitsOfDouble(Rec.ExampleProblematic[I].Value));
    }
  }
  for (const auto &[PC, Spot] : Result.Spots) {
    ASSERT_TRUE(Back.Spots.count(PC));
    EXPECT_EQ(Back.Spots.at(PC).InfluencingOps, Spot.InfluencingOps);
    EXPECT_EQ(Back.Spots.at(PC).Kind, Spot.Kind);
  }
}

TEST(Serialize, ParsedShardsMergeLikeInMemoryShards) {
  // The acceptance property, benchmark by benchmark over the corpus:
  // rendering each shard to JSON, parsing it back, and folding the parsed
  // values produces the same report bytes as folding the originals.
  int Tested = 0;
  for (size_t BI = 0; BI < fpcore::corpus().size() && Tested < 10; ++BI) {
    const fpcore::Core &C = fpcore::corpus()[BI];
    if (!fpcore::isCompilable(C))
      continue;
    ++Tested;
    Program P = fpcore::compile(C);
    Rng R(0x1234 + BI);
    std::vector<fpcore::VarRange> Ranges = fpcore::sampleRanges(C);
    std::vector<std::vector<double>> Inputs;
    for (int I = 0; I < 9; ++I) {
      std::vector<double> In;
      for (const fpcore::VarRange &VR : Ranges)
        In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
      Inputs.push_back(std::move(In));
    }

    AnalysisResult Direct = analyzeChunk(P, Inputs, 0, 3);
    AnalysisResult S2 = analyzeChunk(P, Inputs, 3, 6);
    AnalysisResult S3 = analyzeChunk(P, Inputs, 6, 9);

    AnalysisResult ViaWire = roundTrip(Direct, C.Name);
    ViaWire.mergeFrom(roundTrip(S2, C.Name));
    ViaWire.mergeFrom(roundTrip(S3, C.Name));

    Direct.mergeFrom(S2);
    Direct.mergeFrom(S3);
    EXPECT_EQ(buildReport(ViaWire).renderJson(),
              buildReport(Direct).renderJson())
        << C.Name;
  }
  EXPECT_GE(Tested, 8);
}

TEST(Serialize, EmptyResultRoundTrips) {
  AnalysisResult Empty;
  Empty.Ranges = RangeMode::Single;
  Empty.EquivDepth = 3;
  AnalysisResult Back = roundTrip(Empty, "empty");
  EXPECT_EQ(Back.Ranges, RangeMode::Single);
  EXPECT_EQ(Back.EquivDepth, 3u);
  EXPECT_TRUE(Back.Ops.empty());
  EXPECT_TRUE(Back.Spots.empty());
}

//===----------------------------------------------------------------------===//
// Shard documents and versioning
//===----------------------------------------------------------------------===//

TEST(Serialize, ShardDocRoundTrips) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}, {3e15}};
  ShardDoc Doc;
  Doc.ConfigHash = "0123456789abcdef";
  Doc.Benchmark = "bench \"quoted\" name";
  Doc.BenchIndex = 3;
  Doc.ShardIndex = 7;
  Doc.RunBegin = 14;
  Doc.RunEnd = 17;
  Doc.RunTotal = 20;
  Doc.Result = analyzeChunk(P, Inputs, 0, 3);
  std::string Json = renderShard(Doc, WireEncoding::Json);

  ShardDoc Back;
  std::string Err;
  ASSERT_TRUE(parseShard(Json, Back, Err)) << Err;
  EXPECT_EQ(Back.ConfigHash, Doc.ConfigHash);
  EXPECT_EQ(Back.Benchmark, Doc.Benchmark);
  EXPECT_EQ(Back.BenchIndex, 3u);
  EXPECT_EQ(Back.ShardIndex, 7u);
  EXPECT_EQ(Back.RunBegin, 14u);
  EXPECT_EQ(Back.RunEnd, 17u);
  EXPECT_EQ(Back.RunTotal, 20u);
  EXPECT_EQ(renderShard(Back, WireEncoding::Json), Json);

  // A 1.1 document has no run total and reads as total 0.
  std::string Old = Json;
  for (auto [From, To] : {std::pair<std::string, std::string>{
                              format("\"minor\":%d", ShardFormatMinor),
                              "\"minor\":1"},
                          {",\"runTotal\":20", ""}}) {
    size_t At = Old.find(From);
    ASSERT_NE(At, std::string::npos) << From;
    Old.replace(At, From.size(), To);
  }
  ShardDoc OldBack;
  ASSERT_TRUE(parseShard(Old, OldBack, Err)) << Err;
  EXPECT_EQ(OldBack.RunEnd, 17u);
  EXPECT_EQ(OldBack.RunTotal, 0u);
}

TEST(Serialize, RejectsUnknownMajorVersionAndForeignFormats) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}};
  std::string Json = renderShard("hash", "b", 0, 0, 0, 1, 1,
                                 analyzeChunk(P, Inputs, 0, 1),
                                 WireEncoding::Json);

  // A future major version must be refused, not misread.
  std::string Bumped = Json;
  std::string Needle = format("\"major\":%d", WireFormatMajor);
  size_t At = Bumped.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Bumped.replace(At, Needle.size(), format("\"major\":%d",
                                           WireFormatMajor + 1));
  ShardDoc Out;
  std::string Err;
  EXPECT_FALSE(parseShard(Bumped, Out, Err));
  EXPECT_NE(Err.find("major version"), std::string::npos) << Err;

  // A newer *minor* version of the same major still parses.
  std::string MinorBump = Json;
  Needle = format("\"minor\":%d", ShardFormatMinor);
  At = MinorBump.find(Needle);
  ASSERT_NE(At, std::string::npos);
  MinorBump.replace(At, Needle.size(),
                    format("\"minor\":%d", ShardFormatMinor + 3));
  ShardDoc Out2;
  EXPECT_TRUE(parseShard(MinorBump, Out2, Err)) << Err;

  // Wrong format tag, invalid JSON, wrong shapes.
  ShardDoc Out3;
  EXPECT_FALSE(parseShard("{\"format\":\"something-else\","
                          "\"version\":{\"major\":1}}",
                          Out3, Err));
  EXPECT_FALSE(parseShard("not json", Out3, Err));
  EXPECT_FALSE(parseShard("[]", Out3, Err));

  // Inverted run ranges and negative counters must not wrap through
  // strtoull into huge u64s.
  std::string Inverted = Json;
  Needle = "\"runBegin\":0,\"runEnd\":1";
  At = Inverted.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Inverted.replace(At, Needle.size(), "\"runBegin\":3,\"runEnd\":1");
  ShardDoc Out4;
  EXPECT_FALSE(parseShard(Inverted, Out4, Err));
  EXPECT_NE(Err.find("precedes"), std::string::npos) << Err;

  std::string Negative = Json;
  At = Negative.find(Needle);
  ASSERT_NE(At, std::string::npos);
  Negative.replace(At, Needle.size(), "\"runBegin\":0,\"runEnd\":-1");
  ShardDoc Out5;
  EXPECT_FALSE(parseShard(Negative, Out5, Err));
}

/// FNV-1a, as result-cache segments hash their documents and index.
static uint64_t segmentHash(const char *P, size_t N,
                            uint64_t H = 0xcbf29ce484222325ULL) {
  for (size_t I = 0; I < N; ++I) {
    H ^= static_cast<unsigned char>(P[I]);
    H *= 0x100000001b3ULL;
  }
  return H;
}

TEST(Serialize, HgbReadersRefuseANewerMinor) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}};
  ShardDoc Doc;
  Doc.ConfigHash = "0123456789abcdef";
  Doc.Benchmark = "cancellation";
  Doc.RunEnd = 2;
  Doc.RunTotal = 2;
  Doc.Result = analyzeChunk(P, Inputs, 0, 2);
  const std::string Refusal =
      format("unsupported herbgrind-shard minor version %d (this reader "
             "understands up to %d)",
             ShardFormatMinor + 1, ShardFormatMinor);

  // HGB fields go by position, so a newer minor's document is refused.
  // The header is the magic and three one-byte varints, the minor last.
  std::string Bin = renderShard(Doc, WireEncoding::Binary);
  ASSERT_EQ(Bin[6], ShardFormatMinor);
  std::string Newer = Bin;
  Newer[6] = static_cast<char>(ShardFormatMinor + 1);
  ShardDoc Out;
  std::string Err;
  EXPECT_FALSE(parseShard(Newer, Out, Err));
  EXPECT_EQ(Err, Refusal);
  // A minor too wide for an int must not wrap around to an older one:
  // here 2^32 + 2, a five-byte varint.
  std::string Wide =
      Bin.substr(0, 6) + "\x82\x80\x80\x80\x10" + Bin.substr(7);
  EXPECT_FALSE(parseShard(Wide, Out, Err));
  EXPECT_EQ(Err, "HGB version 1.4294967298 out of range");

  // JSON fields go by name: the same document at the newer minor parses.
  std::string Json = renderShard(Doc, WireEncoding::Json);
  std::string NewerJson = Json;
  std::string Needle = format("\"minor\":%d", ShardFormatMinor);
  size_t At = NewerJson.find(Needle);
  ASSERT_NE(At, std::string::npos);
  NewerJson.replace(At, Needle.size(),
                    format("\"minor\":%d", ShardFormatMinor + 1));
  ASSERT_TRUE(parseShard(NewerJson, Out, Err)) << Err;
  EXPECT_EQ(renderShard(Out, WireEncoding::Json), Json);

  // A cache entry holding the newer HGB document passes its hash and then
  // fails to parse, which makes its lookup a miss.
  TempDir Dir("cache-newer-minor");
  ResultCache::ShardKey Key;
  Key.CoreIdentity = "cancellation";
  Key.RunEnd = 2;
  Key.RunTotal = 2;
  {
    ResultCache Writer(Dir.Path, Doc.ConfigHash);
    Writer.store(Key, Doc.Benchmark, Doc.Result);
  }
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  std::vector<SegmentEntry> Entries;
  ASSERT_TRUE(readSegment(Segments[0], Entries, Err)) << Err;
  ASSERT_EQ(Entries.size(), 1u);
  {
    ResultCache Reader(Dir.Path, Doc.ConfigHash);
    AnalysisResult Got;
    EXPECT_TRUE(Reader.lookup(Key, Got));
  }
  // Re-head the one document, then re-seal its hash in the one index
  // entry and the index hash in the footer (both 32 bytes, hash last).
  std::string Seg = slurpFile(Segments[0]);
  size_t DocAt = Seg.find(Entries[0].Doc);
  ASSERT_NE(DocAt, std::string::npos);
  Seg[DocAt + 6] = static_cast<char>(ShardFormatMinor + 1);
  const size_t Footer = Seg.size() - 32, Index = Footer - 32;
  auto PutU64 = [&Seg](size_t Pos, uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Seg[Pos + I] = static_cast<char>(V >> (8 * I));
  };
  PutU64(Index + 24, segmentHash(Seg.data() + DocAt, Entries[0].Doc.size()));
  PutU64(Footer + 24, segmentHash(Seg.data() + Footer, 24,
                                  segmentHash(Seg.data() + Index, 32)));
  spewFile(Segments[0], Seg);
  ASSERT_TRUE(readSegment(Segments[0], Entries, Err)) << Err;
  EXPECT_FALSE(parseShard(Entries[0].Doc, Out, Err));
  EXPECT_EQ(Err, Refusal);
  ResultCache Reader(Dir.Path, Doc.ConfigHash);
  AnalysisResult Got;
  EXPECT_FALSE(Reader.lookup(Key, Got));
  EXPECT_EQ(Reader.misses(), 1u);
}

//===----------------------------------------------------------------------===//
// Presentation reports and batch documents
//===----------------------------------------------------------------------===//

TEST(Serialize, ReportRoundTripsByteIdentically) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs;
  // Above 2^53 the +1 is swallowed entirely, so the output spot is
  // reliably erroneous and the report non-trivial.
  Rng R(0x7777);
  for (int I = 0; I < 6; ++I)
    Inputs.push_back({R.betweenOrdinals(1e16, 1e18)});
  Report Rep = buildReport(analyzeChunk(P, Inputs, 0, 6));
  ASSERT_FALSE(Rep.Spots.empty());

  std::string Json = Rep.renderJson();
  Report Back;
  std::string Err;
  ASSERT_TRUE(parseReportDoc(Json, Back, Err)) << Err;
  EXPECT_EQ(Back.renderJson(), Json);
  // The parsed report also renders the same human-readable text.
  EXPECT_EQ(Back.render(), Rep.render());
}

TEST(Serialize, BatchReportDocumentRoundTrips) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 6;
  Cfg.ShardSize = 2;
  BatchResult Result = Engine(Cfg).run(Cores);
  std::string Json = Result.renderJson();

  BatchReportDoc Doc;
  std::string Err;
  ASSERT_TRUE(parseBatchReport(Json, Doc, Err)) << Err;
  ASSERT_EQ(Doc.Benchmarks.size(), Cores.size());
  for (size_t I = 0; I < Doc.Benchmarks.size(); ++I) {
    EXPECT_EQ(Doc.Benchmarks[I].Name, Result.Benchmarks[I].Name);
    EXPECT_EQ(Doc.Benchmarks[I].Shards, Result.Benchmarks[I].Shards);
    EXPECT_EQ(Doc.Benchmarks[I].Runs, Result.Benchmarks[I].Runs);
    EXPECT_EQ(Doc.Benchmarks[I].Rep.renderJson(),
              Result.Benchmarks[I].Rep.renderJson());
  }

  // The envelope is versioned like shard documents.
  std::string Bumped = Json;
  std::string Needle = format("\"major\":%d", WireFormatMajor);
  Bumped.replace(Bumped.find(Needle), Needle.size(),
                 format("\"major\":%d", WireFormatMajor + 1));
  BatchReportDoc Doc2;
  EXPECT_FALSE(parseBatchReport(Bumped, Doc2, Err));
}

TEST(Serialize, ImproveRecordsRoundTripByteIdentically) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0x8888);
  for (int I = 0; I < 6; ++I)
    Inputs.push_back({R.betweenOrdinals(1e16, 1e18)});
  Report Rep = buildReport(analyzeChunk(P, Inputs, 0, 6));
  ASSERT_FALSE(Rep.Spots.empty());

  ImproveRecord IR;
  IR.PC = Rep.Spots[0].RootCauses.empty()
              ? 7u
              : Rep.Spots[0].RootCauses[0].PC;
  IR.Original = "(- (+ x 1) x)";
  IR.Rewritten = "1";
  IR.ErrorBefore = 37.25;
  IR.ErrorAfter = 0.0;
  IR.HadSignificantError = true;
  IR.Improved = true;
  Rep.Improvements.push_back(IR);
  ImproveRecord None;
  None.PC = IR.PC + 1;
  None.Original = "(sqrt \"q\\uote\")"; // exercises string escaping
  None.ErrorBefore = 1.5;
  None.ErrorAfter = 1.5;
  Rep.Improvements.push_back(None);

  std::string Json = Rep.renderJson();
  EXPECT_NE(Json.find("\"improvements\":["), std::string::npos);
  Report Back;
  std::string Err;
  ASSERT_TRUE(parseReportDoc(Json, Back, Err)) << Err;
  ASSERT_EQ(Back.Improvements.size(), 2u);
  EXPECT_EQ(Back.Improvements[0].Rewritten, "1");
  EXPECT_TRUE(Back.Improvements[0].Improved);
  EXPECT_FALSE(Back.Improvements[1].Improved);
  EXPECT_EQ(Back.renderJson(), Json);
  EXPECT_EQ(Back.render(), Rep.render());
}

TEST(Serialize, PreImprovementsMinorVersionsAreAccepted) {
  // A 1.0 writer never emitted an "improvements" section; this reader
  // must accept such documents (any minor of a known major) and
  // round-trip the absence to absence.
  std::string Doc = format(
      "{\"format\":\"herbgrind-report\","
      "\"version\":{\"major\":%d,\"minor\":0},"
      "\"benchmarks\":[{\"name\":\"b\",\"shards\":1,\"runs\":2,"
      "\"report\":{\"spots\":[]}}]}",
      WireFormatMajor);
  BatchReportDoc Out;
  std::string Err;
  ASSERT_TRUE(parseBatchReport(Doc, Out, Err)) << Err;
  ASSERT_EQ(Out.Benchmarks.size(), 1u);
  EXPECT_TRUE(Out.Benchmarks[0].Rep.Improvements.empty());
  EXPECT_EQ(Out.Benchmarks[0].Rep.renderJson(), "{\"spots\":[]}");
}

TEST(Serialize, ImproveDocRoundTripsAndRejectsForeignEnvelopes) {
  ImproveDoc Doc;
  Doc.ConfigHash = "92d1a30a41a09a3f";
  Doc.ImproveHash = "improve-v1|samples=256";
  Doc.ExprIdentity = "(- (sqrt (+ x 1)) (sqrt x))";
  Doc.SpecIdentity = "[1,1000000000]";
  Doc.Record.Original = Doc.ExprIdentity;
  Doc.Record.Rewritten = "(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))";
  Doc.Record.ErrorBefore = 23.456789;
  Doc.Record.ErrorAfter = 0.25;
  Doc.Record.HadSignificantError = true;
  Doc.Record.Improved = true;

  std::string Json = renderImproveDoc(Doc, WireEncoding::Json);
  ImproveDoc Back;
  std::string Err;
  ASSERT_TRUE(parseImproveDoc(Json, Back, Err)) << Err;
  EXPECT_EQ(renderImproveDoc(Back, WireEncoding::Json), Json);
  EXPECT_EQ(Back.Record.Rewritten, Doc.Record.Rewritten);
  EXPECT_EQ(Back.Record.ErrorBefore, Doc.Record.ErrorBefore);

  // Wrong format tag and unknown major are both rejected.
  ImproveDoc Out;
  EXPECT_FALSE(parseImproveDoc(renderShard("h", "b", 0, 0, 0, 1, 1,
                                           AnalysisResult{},
                                           WireEncoding::Json),
                               Out, Err));
  std::string Bumped = Json;
  std::string Needle = format("\"major\":%d", WireFormatMajor);
  Bumped.replace(Bumped.find(Needle), Needle.size(),
                 format("\"major\":%d", WireFormatMajor + 1));
  EXPECT_FALSE(parseImproveDoc(Bumped, Out, Err));
}

TEST(Serialize, EveryEnvelopedFamilyRejectsForeignDocuments) {
  // One small document per family, with the family's format tag, error
  // context and sniffing parser. The shared envelope codec must reject
  // each kind of foreign document with the family's own error.
  struct Family {
    const char *Format, *Ctx;
    int Major;
    std::string Bin, Json;
    std::function<bool(const std::string &, std::string &)> Parse;
  };
  ShardDoc Shard;
  Shard.ConfigHash = "h";
  Shard.RunEnd = 1;
  ImproveDoc Improve;
  Improve.ConfigHash = "h";
  BatchReportDoc Batch;
  Batch.Benchmarks.emplace_back();
  Batch.Benchmarks.back().Name = "b";
  TelemetryDoc Telemetry;
  LedgerEntry Ledger;
  Ledger.Host = "h";
  const std::vector<Family> Families = {
      {"herbgrind-shard", "shard", WireFormatMajor,
       renderShard(Shard, WireEncoding::Binary),
       renderShard(Shard, WireEncoding::Json),
       [](const std::string &T, std::string &E) {
         ShardDoc D;
         return parseShard(T, D, E);
       }},
      {"herbgrind-improve", "improve", WireFormatMajor,
       renderImproveDoc(Improve, WireEncoding::Binary),
       renderImproveDoc(Improve, WireEncoding::Json),
       [](const std::string &T, std::string &E) {
         ImproveDoc D;
         return parseImproveDoc(T, D, E);
       }},
      {"herbgrind-report", "batch report", WireFormatMajor,
       renderBatchReport(Batch, WireEncoding::Binary),
       renderBatchReport(Batch, WireEncoding::Json),
       [](const std::string &T, std::string &E) {
         BatchReportDoc D;
         return parseBatchReport(T, D, E);
       }},
      {"herbgrind-telemetry", "telemetry", TelemetryFormatMajor,
       renderTelemetry(Telemetry, WireEncoding::Binary),
       renderTelemetry(Telemetry, WireEncoding::Json),
       [](const std::string &T, std::string &E) {
         TelemetryDoc D;
         return parseTelemetry(T, D, E);
       }},
      {"herbgrind-ledger", "ledger", LedgerFormatMajor,
       renderLedgerEntry(Ledger, WireEncoding::Binary),
       renderLedgerEntry(Ledger, WireEncoding::Json),
       [](const std::string &T, std::string &E) {
         LedgerEntry D;
         return parseLedgerEntry(T, D, E);
       }},
  };
  for (size_t I = 0; I < Families.size(); ++I) {
    const Family &F = Families[I];
    const Family &Other = Families[(I + 1) % Families.size()];
    SCOPED_TRACE(F.Format);
    std::string Err;
    ASSERT_TRUE(F.Parse(F.Bin, Err)) << Err;
    ASSERT_TRUE(F.Parse(F.Json, Err)) << Err;
    // HGB header: magic, family, major and minor varints, codec byte. A
    // raw body (codec 0) lets a trailing byte reach the envelope check.
    ASSERT_EQ(F.Bin[7], 0) << "body stored compressed";
    auto Rejects = [&](const std::string &Doc, const std::string &Want) {
      std::string Why;
      EXPECT_FALSE(F.Parse(Doc, Why));
      EXPECT_NE(Why.find(Want), std::string::npos) << Why;
    };
    const std::string Foreign = format("not a %s file", F.Format);
    const std::string Unsupported =
        format("unsupported %s major version %d", F.Format, F.Major + 1);

    Rejects(F.Bin + "x", std::string(F.Ctx) + ": trailing bytes");
    std::string OtherHeader = F.Bin;
    OtherHeader[4] = Other.Bin[4];
    Rejects(OtherHeader, Foreign);
    std::string BinBump = F.Bin;
    BinBump[5] = static_cast<char>(F.Major + 1);
    Rejects(BinBump, Unsupported);

    std::string JsonBump = F.Json;
    std::string Needle = format("\"major\":%d", F.Major);
    JsonBump.replace(JsonBump.find(Needle), Needle.size(),
                     format("\"major\":%d", F.Major + 1));
    Rejects(JsonBump, Unsupported);
    std::string OtherTag = F.Json;
    Needle = format("\"format\":\"%s\"", F.Format);
    OtherTag.replace(OtherTag.find(Needle), Needle.size(),
                     format("\"format\":\"%s\"", Other.Format));
    Rejects(OtherTag, Foreign);
    Rejects("[" + F.Json + "]",
            std::string(F.Ctx) + " document is not an object");
  }
}

TEST(Serialize, SchemaRejectionsKeepTheirExactText) {
  // One real document per schema, each mutated at one field; the parse
  // must fail with exactly the text `json2hgb` prints for that fault.
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e16}, {2.5e17}, {3.7e18}};
  ShardDoc Shard;
  Shard.ConfigHash = "h";
  Shard.RunBegin = 5;
  Shard.RunEnd = 8;
  Shard.Result = analyzeChunk(P, Inputs, 0, 3);
  ASSERT_GE(Shard.Result.Ops.size(), 2u);
  const uint32_t FirstPC = Shard.Result.Ops.begin()->first;
  const uint32_t SecondPC = std::next(Shard.Result.Ops.begin())->first;
  const std::string ShardJson = renderShard(Shard, WireEncoding::Json);
  const std::string ReportJson = buildReport(Shard.Result).renderJson();

  TelemetryDoc Tel;
  metrics::TimerSample Timer;
  Timer.Name = "engine.shard_ns";
  Timer.Count = 1;
  Tel.Metrics.Timers.push_back(Timer);
  opprof::OpProfileRow Row;
  Row.Op = Opcode::AddF64;
  Tel.Profile.push_back(Row);
  const std::string TelJson = renderTelemetry(Tel, WireEncoding::Json);
  LedgerEntry Ledger;
  Ledger.PoolSteals = 3;
  const std::string LedgerJson = renderLedgerEntry(Ledger, WireEncoding::Json);

  auto Shards = [](const std::string &T, std::string &E) {
    ShardDoc D;
    return parseShard(T, D, E);
  };
  auto Reports = [](const std::string &T, std::string &E) {
    Report D;
    return parseReportDoc(T, D, E);
  };
  auto Telemetry = [](const std::string &T, std::string &E) {
    TelemetryDoc D;
    return parseTelemetry(T, D, E);
  };
  auto Ledgers = [](const std::string &T, std::string &E) {
    LedgerEntry D;
    return parseLedgerEntry(T, D, E);
  };
  struct Case {
    const std::string &Doc;
    std::string From, To; ///< The first From in Doc becomes To.
    std::function<bool(const std::string &, std::string &)> Parse;
    std::string Want;
  };
  const Case Cases[] = {
      {ShardJson, "\"op\":\"add.f64\",\"loc\"", "\"op\":\"nop.f64\",\"loc\"",
       Shards, "op record: unknown opcode 'nop.f64'"},
      {ShardJson, "\"op\":\"add.f64\",\"site\"",
       "\"op\":\"nop.f64\",\"site\"", Shards,
       "expr: unknown opcode 'nop.f64'"},
      {ShardJson, "\"kind\":\"Output\"", "\"kind\":\"Input\"", Shards,
       "spot record: unknown kind 'Input'"},
      {ShardJson, "\"ranges\":\"sign-split\"", "\"ranges\":\"split\"", Shards,
       "result: unknown range mode 'split'"},
      {ReportJson, "\"kind\":\"Output\"", "\"kind\":\"Input\"", Reports,
       "report: unknown spot kind 'Input'"},
      {TelJson, "\"op\":\"add.f64\"", "\"op\":\"nop.f64\"", Telemetry,
       "telemetry profile row: unknown opcode 'nop.f64'"},
      {ShardJson, format("{\"pc\":%u,\"op\"", SecondPC),
       format("{\"pc\":%u,\"op\"", FirstPC), Shards,
       format("result: duplicate op record for pc %u", FirstPC)},
      {ShardJson, "\"runEnd\":8", "\"runEnd\":0", Shards,
       "shard: runEnd (0) precedes runBegin (5)"},
      {TelJson, "\"buckets\":[0,", "\"buckets\":[", Telemetry,
       "metrics timer 'engine.shard_ns': expected 32 buckets, got 31"},
      {ShardJson, "\"range\":[", "\"range\":[0,", Shards,
       "varSummary: field 'range' not a [lo, hi] number pair"},
      {ShardJson, "\"executions\":", "\"executions\":\"1\",\"_\":", Shards,
       "op record: field 'executions' missing or not a number"},
      {ShardJson, "\"flagged\":", "\"flagged\":-1,\"_\":", Shards,
       "op record: field 'flagged' must be a non-negative integer"},
      {LedgerJson, "\"poolSteals\":3", "\"poolSteals\":\"3\"", Ledgers,
       "ledger stats: field 'poolSteals' missing or not a number"},
      // Integers must be plain digits that fit their field: no wrap to
      // 32 bits, no fraction, no saturation.
      {ShardJson, format("{\"pc\":%u,\"op\"", FirstPC),
       format("{\"pc\":%llu,\"op\"", (1ULL << 32) + FirstPC), Shards,
       "op record: field 'pc' must fit in 32 bits"},
      {ShardJson, "\"executions\":", "\"executions\":7.9e1,\"_\":", Shards,
       "op record: field 'executions' must be a non-negative integer"},
      {ShardJson, "\"flagged\":", "\"flagged\":18446744073709551616,\"_\":",
       Shards, "op record: field 'flagged' must fit in 64 bits"},
      {ShardJson, "\"line\":", "\"line\":2147483648,\"_\":", Shards,
       "loc: field 'line' must fit in 32 bits"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Want);
    std::string Doc = C.Doc, Err;
    ASSERT_TRUE(C.Parse(Doc, Err)) << Err;
    size_t At = Doc.find(C.From);
    ASSERT_NE(At, std::string::npos) << C.From;
    Doc.replace(At, C.From.size(), C.To);
    EXPECT_FALSE(C.Parse(Doc, Err));
    EXPECT_EQ(Err, C.Want);
  }
}

//===----------------------------------------------------------------------===//
// Merging emitted shard documents
//===----------------------------------------------------------------------===//

TEST(MergeShards, ReproducesTheDirectSweepByteIdentically) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(5);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 7;
  Cfg.ShardSize = 3;
  std::string Direct = Engine(Cfg).run(Cores).renderJson();

  // Two "machines" run disjoint shard ranges, each emitting one segment.
  TempDir DirA("emitA"), DirB("emitB");
  EngineConfig CfgA = Cfg;
  CfgA.ShardBegin = 0;
  CfgA.ShardEnd = 2;
  CfgA.EmitShardDir = DirA.Path;
  Engine(CfgA).run(Cores);
  EngineConfig CfgB = Cfg;
  CfgB.ShardBegin = 2;
  CfgB.EmitShardDir = DirB.Path;
  Engine(CfgB).run(Cores);

  std::vector<ShardDoc> Docs;
  for (const std::string &Dir : {DirA.Path, DirB.Path})
    ASSERT_TRUE(emitted::readShardsOf(Dir, Docs));
  ASSERT_EQ(Docs.size(), 5u * 3u); // ceil(7/3) = 3 shards per benchmark

  BatchResult Merged;
  std::string Err;
  ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
  EXPECT_EQ(Merged.renderJson(), Direct);
  EXPECT_EQ(Merged.Stats.Runs, 7u * 5u);
}

TEST(MergeShards, TwoSelectionsOfOneConfigurationDoNotMerge) {
  // Emitted keys name no benchmark, so single-benchmark sweeps of one
  // configuration emit equal keys for different benchmarks. Reading both
  // must keep every document, and the merge must fail rather than report
  // one selection.
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  auto Only = [&](size_t I) {
    std::vector<fpcore::Core> One;
    One.push_back(Cores[I].clone());
    return One;
  };
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  TempDir DirA("selA"), DirB("selB");
  std::vector<std::string> Segments(2);
  for (size_t I = 0; I < 2; ++I) {
    EngineConfig Sel = Cfg;
    Sel.EmitShardDir = I == 0 ? DirA.Path : DirB.Path;
    Engine(Sel).run(Only(I));
    ASSERT_TRUE(emitted::segmentOf(Sel.EmitShardDir, Segments[I]));
  }

  std::vector<ShardDoc> Docs;
  std::string Err;
  ASSERT_TRUE(readSegmentShards(Segments, Docs, Err)) << Err;
  ASSERT_EQ(Docs.size(), 4u);
  BatchResult Out;
  EXPECT_FALSE(mergeShards(std::move(Docs), Out, Err));
  EXPECT_NE(Err.find("names both"), std::string::npos) << Err;

  // One directory reused for both selections fails the same way.
  std::filesystem::rename(Segments[1], DirA.Path + "/b" + SegmentExtension);
  std::vector<ShardDoc> Reused;
  ASSERT_TRUE(readSegmentShards({Segments[0], DirA.Path + "/b" +
                                                  SegmentExtension},
                                Reused, Err))
      << Err;
  BatchResult Out2;
  EXPECT_FALSE(mergeShards(std::move(Reused), Out2, Err));

  // A segment read twice (a slice emitted twice, a directory named twice)
  // is taken once and merges to the direct sweep.
  std::vector<ShardDoc> Twice;
  ASSERT_TRUE(readSegmentShards({Segments[0], Segments[0]}, Twice, Err))
      << Err;
  EXPECT_EQ(Twice.size(), 2u);
  BatchResult Merged;
  ASSERT_TRUE(mergeShards(std::move(Twice), Merged, Err)) << Err;
  EXPECT_EQ(Merged.renderJson(), Engine(Cfg).run(Only(0)).renderJson());

  // A file that is not a segment fails, naming it.
  std::vector<ShardDoc> None;
  std::string NotSegment = DirB.Path + "/report.json";
  std::ofstream(NotSegment, std::ios::binary) << Merged.renderJson();
  EXPECT_FALSE(readSegmentShards({NotSegment}, None, Err));
  EXPECT_NE(Err.find(NotSegment), std::string::npos) << Err;
}

TEST(MergeShards, RejectsMixedConfigsAndDuplicates) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}, {3e15}};
  auto MakeDoc = [&](const char *Hash, uint64_t ShardIdx) {
    ShardDoc D;
    D.ConfigHash = Hash;
    D.Benchmark = "k";
    D.ShardIndex = ShardIdx;
    D.RunBegin = ShardIdx;
    D.RunEnd = ShardIdx + 1;
    D.RunTotal = Inputs.size();
    D.Result = analyzeChunk(P, Inputs, ShardIdx, ShardIdx + 1);
    return D;
  };
  auto Merge = [&](const std::vector<uint64_t> &Shards, BatchResult &Out,
                   std::string &Err) {
    std::vector<ShardDoc> Docs;
    for (uint64_t S : Shards)
      Docs.push_back(MakeDoc("aaaa", S));
    return mergeShards(std::move(Docs), Out, Err);
  };

  std::vector<ShardDoc> Mixed;
  Mixed.push_back(MakeDoc("aaaa", 0));
  Mixed.push_back(MakeDoc("bbbb", 1));
  BatchResult Out;
  std::string Err;
  EXPECT_FALSE(mergeShards(std::move(Mixed), Out, Err));
  EXPECT_NE(Err.find("config hash"), std::string::npos) << Err;

  BatchResult Out2;
  EXPECT_FALSE(Merge({0, 0, 1, 2}, Out2, Err));
  EXPECT_NE(Err.find("duplicate shard 0 for benchmark 'k'"),
            std::string::npos)
      << Err;

  std::vector<ShardDoc> Empty;
  BatchResult Out3;
  EXPECT_FALSE(mergeShards(std::move(Empty), Out3, Err));

  // Every gap fails, naming the benchmark and the missing shard: in the
  // middle, at the start and at the end of the layout.
  const std::pair<std::vector<uint64_t>, const char *> Gaps[] = {
      {{0, 2}, "'k' is missing shard 1 (runs 1 to 2)"},
      {{1, 2}, "'k' is missing shard 0 (runs 0 to 1)"},
      {{0, 1}, "'k' is missing shard 2 (runs 2 to 3)"},
  };
  for (const auto &[Shards, Want] : Gaps) {
    BatchResult Gappy;
    EXPECT_FALSE(Merge(Shards, Gappy, Err));
    EXPECT_EQ(Err, Want);
  }

  // So do runs that do not continue where the previous shard's ended.
  std::vector<ShardDoc> Skips;
  Skips.push_back(MakeDoc("aaaa", 0));
  Skips.push_back(MakeDoc("aaaa", 1));
  Skips.back().RunBegin = 2;
  BatchResult Out4;
  EXPECT_FALSE(mergeShards(std::move(Skips), Out4, Err));
  EXPECT_NE(Err.find("shard 1 begins at run 2"), std::string::npos) << Err;

  // A 1.1 document carries no run total: refused, naming it.
  std::vector<ShardDoc> Old;
  Old.push_back(MakeDoc("aaaa", 0));
  Old.back().RunTotal = 0;
  BatchResult Out5;
  EXPECT_FALSE(mergeShards(std::move(Old), Out5, Err));
  EXPECT_NE(Err.find("shard 0 of 'k' has no run total"), std::string::npos)
      << Err;

  // Documents in reverse order fold in shard order.
  BatchResult Forward, Reversed;
  ASSERT_TRUE(Merge({0, 1, 2}, Forward, Err)) << Err;
  ASSERT_TRUE(Merge({2, 1, 0}, Reversed, Err)) << Err;
  EXPECT_EQ(Reversed.renderJson(), Forward.renderJson());
  EXPECT_EQ(Reversed.Stats.Shards, 3u);
  EXPECT_EQ(Reversed.Stats.Runs, 3u);
}

//===----------------------------------------------------------------------===//
// The persistent result cache
//===----------------------------------------------------------------------===//

TEST(ResultCache, WarmSweepAnalyzesNothingAndMatchesByteForByte) {
  TempDir Dir("cache-warm");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(5);
  EngineConfig Cfg;
  Cfg.Jobs = 3;
  Cfg.SamplesPerBenchmark = 7;
  Cfg.ShardSize = 3;
  Cfg.CacheDir = Dir.Path;

  BatchResult Cold = Engine(Cfg).run(Cores);
  EXPECT_EQ(Cold.Stats.AnalyzedShards, Cold.Stats.Shards);
  EXPECT_EQ(Cold.Stats.CachedShards, 0u);

  BatchResult Warm = Engine(Cfg).run(Cores);
  EXPECT_EQ(Warm.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Warm.Stats.CachedShards, Warm.Stats.Shards);
  EXPECT_EQ(Warm.renderJson(), Cold.renderJson());

  // And the cached sweep matches an uncached engine too.
  EngineConfig Plain = Cfg;
  Plain.CacheDir.clear();
  EXPECT_EQ(Engine(Plain).run(Cores).renderJson(), Cold.renderJson());
}

TEST(ResultCache, InvalidatesOnConfigSeedAndProgramChanges) {
  TempDir Dir("cache-inval");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  BatchResult First = Engine(Cfg).run(Cores);
  EXPECT_EQ(First.Stats.CachedShards, 0u);

  // An analysis-config change hashes differently: full re-analysis.
  EngineConfig Changed = Cfg;
  Changed.Analysis.LocalErrorThreshold = 7.5;
  EXPECT_NE(configHash(Changed), configHash(Cfg));
  BatchResult Re = Engine(Changed).run(Cores);
  EXPECT_EQ(Re.Stats.CachedShards, 0u);
  EXPECT_EQ(Re.Stats.AnalyzedShards, Re.Stats.Shards);

  // A seed change likewise.
  EngineConfig Reseeded = Cfg;
  Reseeded.Seed = 0xfeed;
  EXPECT_NE(configHash(Reseeded), configHash(Cfg));
  EXPECT_EQ(Engine(Reseeded).run(Cores).Stats.CachedShards, 0u);

  // Swapping one benchmark for another (different FPCore identity at the
  // same index) misses for the new program, still hits for the old one.
  std::vector<fpcore::Core> Swapped;
  Swapped.push_back(Cores[0].clone());
  Swapped.push_back(smallCorpusSubset(3)[2].clone());
  BatchResult Mixed = Engine(Cfg).run(Swapped);
  EXPECT_EQ(Mixed.Stats.CachedShards, Mixed.Stats.Shards / 2);
  EXPECT_EQ(Mixed.Stats.AnalyzedShards, Mixed.Stats.Shards / 2);

  // The original sweep is still fully warm.
  EXPECT_EQ(Engine(Cfg).run(Cores).Stats.AnalyzedShards, 0u);
}

TEST(ResultCache, CorruptEntriesAreMissesNotErrors) {
  TempDir Dir("cache-corrupt");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  std::string Expected = Engine(Cfg).run(Cores).renderJson();

  // The sweep wrote one segment. Spoil two of its documents in place: flip
  // one bit in the first, and scribble over the second.
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  std::vector<SegmentEntry> Entries;
  std::string Err;
  ASSERT_TRUE(readSegment(Segments[0], Entries, Err)) << Err;
  ASSERT_GE(Entries.size(), 2u);
  std::string Bytes = slurpFile(Segments[0]);
  size_t First = Bytes.find(Entries[0].Doc);
  size_t Second = Bytes.find(Entries[1].Doc);
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Second, std::string::npos);
  Bytes[First + Entries[0].Doc.size() / 2] ^= 0x10;
  Bytes.replace(Second, Entries[1].Doc.size(),
                std::string(Entries[1].Doc.size(), 'x'));
  spewFile(Segments[0], Bytes);
  // The index still stands, so the reader fails on the spoiled bytes
  // rather than returning them.
  EXPECT_FALSE(readSegment(Segments[0], Entries, Err));
  EXPECT_NE(Err.find("fails its hash"), std::string::npos) << Err;

  BatchResult Re = Engine(Cfg).run(Cores);
  EXPECT_EQ(Re.Stats.AnalyzedShards, 2u); // exactly the two spoiled ones
  EXPECT_EQ(Re.renderJson(), Expected);

  // The re-store healed them: a second segment holds their good copies.
  EXPECT_EQ(segmentsIn(Dir.Path).size(), 2u);
  EXPECT_EQ(Engine(Cfg).run(Cores).Stats.AnalyzedShards, 0u);
}

TEST(ResultCache, OwnUnflushedStoresHitWithoutAFlush) {
  // Store N documents, then look each up on the same instance with no
  // flush in between: all N hit, and nothing is on disk but the
  // temporary segment until the flush renames it into place.
  TempDir Dir("cache-replay");
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}, {3e15}, {4e15}};
  ResultCache Cache(Dir.Path, "00000000feedbeef");
  std::vector<ResultCache::ShardKey> Keys;
  std::vector<std::string> Rendered;
  for (uint64_t I = 0; I < Inputs.size(); ++I) {
    ResultCache::ShardKey K;
    K.CoreIdentity = "(FPCore (x) (- (+ x 1) x))";
    K.DerivedSeed = 7;
    K.ShardIndex = I;
    K.RunBegin = I;
    K.RunEnd = I + 1;
    K.RunTotal = Inputs.size();
    AnalysisResult R = analyzeChunk(P, Inputs, I, I + 1);
    Rendered.push_back(renderShard(Cache.configHash(), "k", 0, I, I, I + 1,
                                   K.RunTotal, R, WireEncoding::Binary));
    Cache.store(K, "k", R);
    Keys.push_back(K);
  }
  EXPECT_TRUE(segmentsIn(Dir.Path).empty());
  for (uint64_t I = 0; I < Keys.size(); ++I) {
    AnalysisResult Got;
    ASSERT_TRUE(Cache.lookup(Keys[I], Got)) << "key " << I;
    EXPECT_EQ(renderShard(Cache.configHash(), "k", 0, I, I, I + 1,
                          Inputs.size(), Got, WireEncoding::Binary),
              Rendered[I]);
  }
  EXPECT_EQ(Cache.hits(), Keys.size());
  EXPECT_EQ(Cache.storeFailures(), 0u);

  // One flush, one segment; a fresh instance reads it back whole.
  Cache.flush();
  Cache.flush(); // nothing pending: touches no file
  ASSERT_EQ(segmentsIn(Dir.Path).size(), 1u);
  size_t Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    Files += E.is_regular_file();
  EXPECT_EQ(Files, 1u);
  ResultCache Fresh(Dir.Path, Cache.configHash());
  for (const ResultCache::ShardKey &K : Keys) {
    AnalysisResult Got;
    EXPECT_TRUE(Fresh.lookup(K, Got));
  }
  // The same key under another config hash is a different entry.
  ResultCache Foreign(Dir.Path, "0123456789abcdef");
  AnalysisResult Got;
  EXPECT_FALSE(Foreign.lookup(Keys[0], Got));
}

TEST(ResultCache, AnEmptyIdentityIsNeverServed) {
  // Emitted documents are stored under an empty core identity; no lookup
  // serves one, pending or flushed.
  TempDir Dir("cache-emitted");
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}};
  ResultCache::ShardKey K;
  K.DerivedSeed = 7;
  K.RunEnd = Inputs.size();
  ResultCache Cache(Dir.Path, "00000000feedbeef");
  Cache.store(K, "k", analyzeChunk(P, Inputs, 0, Inputs.size()));
  AnalysisResult Got;
  EXPECT_FALSE(Cache.lookup(K, Got));
  Cache.flush();
  ASSERT_EQ(segmentsIn(Dir.Path).size(), 1u);
  ResultCache Fresh(Dir.Path, Cache.configHash());
  EXPECT_FALSE(Fresh.lookup(K, Got));
  EXPECT_EQ(Cache.misses() + Fresh.misses(), 2u);
  EXPECT_EQ(Cache.hits() + Fresh.hits(), 0u);
}

TEST(ResultCache, AKeyTwoSegmentsHoldIsServedFromAnyValidCopy) {
  // Two sweeps that both missed a shard both store it: two segments hold
  // it. A spoiled copy in one is skipped for the good one in the other.
  TempDir Dir("cache-copies");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  std::string Expected = Engine(Cfg).run(Cores).renderJson();
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  std::string Copy = Dir.Path + "/copy" + SegmentExtension;
  spewFile(Copy, slurpFile(Segments[0]));

  std::vector<SegmentEntry> Entries;
  std::string Err;
  ASSERT_TRUE(readSegment(Copy, Entries, Err)) << Err;
  std::string Bytes = slurpFile(Segments[0]);
  for (const SegmentEntry &E : Entries) {
    size_t At = Bytes.find(E.Doc);
    ASSERT_NE(At, std::string::npos);
    Bytes[At + E.Doc.size() - 1] ^= 0x01;
  }
  spewFile(Segments[0], Bytes);

  // Every first copy is spoiled (whichever segment is first), yet the
  // sweep is fully warm.
  BatchResult Warm = Engine(Cfg).run(Cores);
  EXPECT_EQ(Warm.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Warm.renderJson(), Expected);
}

TEST(ResultCache, EmitFailuresAreCountedNotSwallowed) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(1);
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = 2;
  Cfg.ShardSize = 2;
  // A path that cannot be created as a directory: every write fails.
  TempDir Dir("emit-fail");
  std::string File = Dir.Path + "/not-a-dir";
  std::ofstream(File, std::ios::binary) << "x";
  Cfg.EmitShardDir = File;
  BatchResult R = Engine(Cfg).run(Cores);
  EXPECT_EQ(R.Stats.EmitFailures, R.Stats.Shards);
  EXPECT_GT(R.Stats.EmitFailures, 0u);
}

TEST(ResultCache, ShardRangeSlicesShareTheCache) {
  TempDir Dir("cache-range");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(3);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 2; // 4 shards per benchmark
  Cfg.CacheDir = Dir.Path;

  EngineConfig Half = Cfg;
  Half.ShardEnd = 2;
  BatchResult A = Engine(Half).run(Cores);
  EXPECT_EQ(A.Stats.Shards, 3u * 2u);
  EXPECT_EQ(A.Stats.Runs, 3u * 4u);

  // The full sweep reuses the first half's shards from the cache.
  BatchResult Full = Engine(Cfg).run(Cores);
  EXPECT_EQ(Full.Stats.CachedShards, 3u * 2u);
  EXPECT_EQ(Full.Stats.AnalyzedShards, 3u * 2u);

  // And matches an uncached full sweep byte-for-byte.
  EngineConfig Plain = Cfg;
  Plain.CacheDir.clear();
  EXPECT_EQ(Engine(Plain).run(Cores).renderJson(), Full.renderJson());
}

TEST(ResultCache, GcPrunesLeastRecentlyUsedToTheCap) {
  TempDir Dir("cache-gc");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(3);
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  // Two sweeps, two segments: the first half of every benchmark's shards,
  // then the rest.
  EngineConfig Half = Cfg;
  Half.ShardEnd = 2;
  Engine(Half).run(Cores);
  std::string Reference = Engine(Cfg).run(Cores).renderJson();
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 2u);

  CacheGcStats Before;
  std::string Err;
  ASSERT_TRUE(gcCacheDir(Dir.Path, UINT64_MAX, Before, Err)) << Err;
  EXPECT_EQ(Before.Entries, 2u); // files, not shards
  EXPECT_EQ(Before.PrunedEntries, 0u); // unbounded cap prunes nothing

  // Prune to the larger segment's size: one segment must go, whole, and
  // the survivor fits the cap.
  uint64_t Cap = std::max(std::filesystem::file_size(Segments[0]),
                          std::filesystem::file_size(Segments[1]));
  CacheGcStats Pruned;
  ASSERT_TRUE(gcCacheDir(Dir.Path, Cap, Pruned, Err)) << Err;
  EXPECT_EQ(Pruned.PrunedEntries, 1u);
  EXPECT_LT(Pruned.PrunedEntries, Pruned.Entries);
  EXPECT_LE(Pruned.Bytes - Pruned.PrunedBytes, Cap);
  EXPECT_EQ(segmentsIn(Dir.Path).size(), 1u);

  // A pruned cache is just colder: the rerun refills it byte-identically.
  BatchResult Rerun = Engine(Cfg).run(Cores);
  EXPECT_GT(Rerun.Stats.AnalyzedShards, 0u);
  EXPECT_GT(Rerun.Stats.CachedShards, 0u);
  EXPECT_EQ(Rerun.renderJson(), Reference);

  // Cap 0 empties the cache entirely.
  CacheGcStats Emptied;
  ASSERT_TRUE(gcCacheDir(Dir.Path, 0, Emptied, Err)) << Err;
  EXPECT_EQ(Emptied.PrunedEntries, Emptied.Entries);

  // The engine's own post-run GC honors CacheMaxBytes.
  EngineConfig Capped = Cfg;
  Capped.CacheMaxBytes = Cap;
  BatchResult AutoGc = Engine(Capped).run(Cores);
  EXPECT_EQ(AutoGc.renderJson(), Reference);
  EXPECT_GT(AutoGc.Stats.CachePrunedEntries, 0u);
  CacheGcStats After;
  ASSERT_TRUE(gcCacheDir(Dir.Path, UINT64_MAX, After, Err)) << Err;
  EXPECT_LE(After.Bytes, Cap);
}

TEST(ResultCache, TouchOnHitRefreshesTheSegment) {
  TempDir Dir("cache-touch");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  Engine(Cfg).run(Cores);
  std::vector<std::string> Segments = segmentsIn(Dir.Path);
  ASSERT_EQ(Segments.size(), 1u);
  auto Old = std::filesystem::file_time_type::clock::now() -
             std::chrono::hours(24);
  std::filesystem::last_write_time(Segments[0], Old);

  // Without a cap, hits leave mtimes alone.
  Engine(Cfg).run(Cores);
  EXPECT_EQ(std::filesystem::last_write_time(Segments[0]), Old);
  // With one, the sweep's hits refresh the segment they read.
  Cfg.CacheMaxBytes = UINT64_MAX;
  BatchResult Warm = Engine(Cfg).run(Cores);
  EXPECT_EQ(Warm.Stats.AnalyzedShards, 0u);
  EXPECT_GT(std::filesystem::last_write_time(Segments[0]), Old);
}

//===----------------------------------------------------------------------===//
// The telemetry document (versioned independently of the report format)
//===----------------------------------------------------------------------===//

TEST(Serialize, TelemetryDocumentRoundTripsAndKeepsItsOwnVersion) {
  // Telemetry carries its own major/minor so observability can evolve
  // without forcing a report-format bump (which would invalidate every
  // result cache on disk).
  TelemetryDoc Doc;
  metrics::CounterSample C;
  C.Name = "engine.runs";
  C.Value = 776;
  Doc.Metrics.Counters.push_back(C);
  metrics::GaugeSample G;
  G.Name = "pool.workers";
  G.Value = 4;
  G.Max = 4;
  Doc.Metrics.Gauges.push_back(G);
  metrics::TimerSample T;
  T.Name = "engine.run_ns";
  T.Count = 1;
  T.SumNanos = 123456789;
  T.MaxNanos = 123456789;
  T.Buckets[26] = 1;
  Doc.Metrics.Timers.push_back(T);
  opprof::OpProfileRow Row;
  Row.Op = Opcode::SqrtF64;
  Row.Loc = SourceLoc("quad.cpp", 17, "quadratic");
  Row.Executions = 640;
  Row.Samples = 640;
  Row.Nanos = 987654;
  Row.LimbHits = 12;
  Doc.Profile.push_back(Row);
  Doc.ProfileTotalNanos = 1000000;

  std::string Json = renderTelemetry(Doc, WireEncoding::Json);
  EXPECT_NE(Json.find("\"format\":\"herbgrind-telemetry\""),
            std::string::npos);

  TelemetryDoc Back;
  std::string Err;
  ASSERT_TRUE(parseTelemetry(Json, Back, Err)) << Err;
  EXPECT_EQ(renderTelemetry(Back, WireEncoding::Json), Json);
  ASSERT_EQ(Back.Profile.size(), 1u);
  EXPECT_EQ(Back.Profile[0].Op, Opcode::SqrtF64);
  EXPECT_EQ(Back.Profile[0].Loc.str(), "quad.cpp:17 in quadratic");
  const metrics::TimerSample *TS = Back.Metrics.findTimer("engine.run_ns");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Buckets[26], 1u);

  // Unknown telemetry major: refused, like every other document family.
  std::string Needle = format("\"major\":%d", TelemetryFormatMajor);
  size_t At = Json.find(Needle);
  ASSERT_NE(At, std::string::npos);
  std::string Bumped = Json;
  Bumped.replace(At, Needle.size(),
                 format("\"major\":%d", TelemetryFormatMajor + 2));
  TelemetryDoc Out;
  EXPECT_FALSE(parseTelemetry(Bumped, Out, Err));
  EXPECT_NE(Err.find("major version"), std::string::npos) << Err;

  // The report parsers refuse a telemetry document and vice versa: the
  // format tags keep the two families apart even at the same version.
  ShardDoc Foreign;
  EXPECT_FALSE(parseShard(Json, Foreign, Err));
  EXPECT_FALSE(parseTelemetry(
      "{\"format\":\"herbgrind-shard\",\"version\":{\"major\":1,"
      "\"minor\":0}}",
      Out, Err));
}
