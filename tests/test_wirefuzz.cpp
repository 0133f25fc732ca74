//===- tests/test_wirefuzz.cpp - Seeded mutation test of every decoder ----===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Hostile bytes against every wire decoder. One real document of each of
// the six families, in both encodings, plus a shard document as a 1.1
// writer wrote it (no run total), is mutated a fixed number of times
// from a fixed seed: bit flips, cut-out spans, and bytes overwritten with
// 0x00, 0x7f, 0x80 or 0xff. Each mutant must either fail to parse with a
// non-empty error, or parse into a value whose same-encoding re-render
// parses again. A real result-cache segment gets the same mutations plus
// targeted ones of its footer's count and its index's offsets and lengths;
// every lookup must return exactly the stored result or miss, and the
// segment reader must fail or return stored documents. The FPCore parser
// gets the same mutations of every corpus source and of a body nested
// 20000 deep: each mutant must fail with an error or parse into a core
// that prints, parses back the same, and passes or fails the compiler's
// checker without crashing. Run under ASan/UBSan, this is also a
// memory-safety check of the JSON reader, the HGB reader and its LZSS
// body codec, every schema traversal, the segment index reader, and the
// FPCore parser, checker and compiler.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/WireBinary.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <unistd.h>

using namespace herbgrind;
using namespace herbgrind::engine;

namespace {

/// Mutants made from each seed document.
constexpr int MutantsPerDoc = 200;

/// Parses \p Text and, on success, re-renders the value in \p Enc.
using RoundTrip = std::function<bool(const std::string &Text, WireEncoding Enc,
                                     std::string &Rendered, std::string &Err)>;

template <class Doc>
RoundTrip via(bool (*Parse)(const std::string &, Doc &, std::string &),
              std::string (*Render)(const Doc &, WireEncoding)) {
  return [=](const std::string &Text, WireEncoding Enc, std::string &Rendered,
             std::string &Err) {
    Doc D;
    if (!Parse(Text, D, Err))
      return false;
    Rendered = Render(D, Enc);
    return true;
  };
}

struct SeedDoc {
  const char *Family;
  RoundTrip Parse;
  std::string Json, Bin;
  /// What the seed re-renders to, when that is not the seed itself.
  std::string JsonBack = {}, BinBack = {};
};

/// \p Doc, a shard document rendered with run total 0, as a 1.1 writer
/// rendered it: minor 1 and no "runTotal" field. In HGB that field is the
/// one-byte varint after \p Fields' leading scalars, in a raw body.
std::string asShardMinor1(std::string Doc, const ShardDoc &Fields,
                          WireEncoding Enc) {
  if (Enc == WireEncoding::Json) {
    for (auto [From, To] : {std::pair<std::string, std::string>{
                                format("\"minor\":%d", ShardFormatMinor),
                                "\"minor\":1"},
                            {",\"runTotal\":0", ""}}) {
      size_t At = Doc.find(From);
      EXPECT_NE(At, std::string::npos) << From;
      if (At != std::string::npos)
        Doc.replace(At, From.size(), To);
    }
    return Doc;
  }
  wire::BinaryEncoder Prefix(wire::Family::Shard, WireFormatMajor,
                             ShardFormatMinor);
  Prefix.str(Fields.ConfigHash);
  Prefix.str(Fields.Benchmark);
  Prefix.u64(Fields.BenchIndex);
  Prefix.u64(Fields.ShardIndex);
  Prefix.u64(Fields.RunBegin);
  Prefix.u64(Fields.RunEnd);
  const size_t At = Prefix.take().size();
  // The header is the magic, three one-byte varints and the codec byte.
  if (At >= Doc.size() || Doc[6] != ShardFormatMinor || Doc[7] != 0 ||
      Doc[At] != 0) {
    ADD_FAILURE() << "not a raw-body 1.2 shard with run total 0";
    return Doc;
  }
  Doc[6] = 1;
  Doc.erase(At, 1);
  return Doc;
}

/// One real document per family: records from an actual analysis, a
/// batch report and metrics from an actual engine sweep. The shard family
/// has a second, as a 1.1 writer wrote it.
std::vector<SeedDoc> seedDocs() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(B.op(Opcode::SqrtF64, B.op(Opcode::MulF64, T, T)));
  B.halt();
  Program P = B.finish();
  Herbgrind HG(P);
  for (double V : {1e16, -2.5e17, 3.7e18, 0.5})
    HG.runOnInput({V});
  ShardDoc Shard;
  Shard.ConfigHash = "0123456789abcdef";
  Shard.Benchmark = "cancellation";
  Shard.ShardIndex = 1;
  Shard.RunBegin = 4;
  Shard.RunEnd = 8;
  Shard.RunTotal = 8;
  Shard.Result = HG.snapshot();

  ImproveRecord Rec;
  Rec.Original = "(- (+ x 1) x)";
  Rec.Rewritten = "1";
  Rec.ErrorBefore = 52.5;
  Rec.HadSignificantError = Rec.Improved = true;
  ImproveDoc Improve;
  Improve.ConfigHash = Shard.ConfigHash;
  Improve.ImproveHash = "samples=256";
  Improve.ExprIdentity = Rec.Original;
  Improve.SpecIdentity = "x in [1e8, 1e18]";
  Improve.Record = Rec;

  Report Rep = buildReport(Shard.Result);
  Rec.PC = 1;
  Rep.Improvements.push_back(Rec);

  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus())
    if (fpcore::isCompilable(C) && Cores.size() < 2)
      Cores.push_back(C.clone());
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  BatchResult Sweep = Engine(Cfg).run(Cores);

  TelemetryDoc Tel;
  Tel.HasMeta = true;
  Tel.Meta.Host = "host";
  Tel.Meta.Timestamp = "2024-01-01T00:00:00Z";
  Tel.Metrics = metrics::snapshot();
  opprof::OpProfileRow Row;
  Row.Op = Opcode::SqrtF64;
  Row.Loc = SourceLoc("kernel.cpp", 12, "f");
  Row.Executions = Row.Samples = 4;
  Row.Nanos = 900;
  Tel.Profile.push_back(Row);
  Tel.ProfileTotalNanos = 900;

  LedgerEntry Led;
  Led.Host = "host";
  Led.Label = "sweep";
  Led.Tier = "full";
  Led.WireFormat = "binary";
  Led.Benchmarks = Cores.size();
  Led.Shards = Sweep.Stats.Shards;
  Led.WallSeconds = 0.25;
  Led.Metrics = Tel.Metrics;

  auto Both = [](auto Render, const auto &D) {
    return std::make_pair(Render(D, WireEncoding::Json),
                          Render(D, WireEncoding::Binary));
  };
  auto ShardR = [](const ShardDoc &D, WireEncoding E) {
    return renderShard(D, E);
  };
  auto BatchR = [](const BatchResult &R, WireEncoding E) {
    return R.renderWire(E);
  };
  std::vector<SeedDoc> Docs;
  auto Add = [&](const char *Family, RoundTrip Parse,
                 std::pair<std::string, std::string> Texts) {
    Docs.push_back({Family, std::move(Parse), std::move(Texts.first),
                    std::move(Texts.second)});
  };
  Add("shard", via(parseShard, renderShard), Both(ShardR, Shard));
  Add("improve", via(parseImproveDoc, renderImproveDoc),
      Both(renderImproveDoc, Improve));
  Add("report", via(parseReportDoc, renderReport), Both(renderReport, Rep));
  Add("batch report", via(parseBatchReport, renderBatchReport),
      Both(BatchR, Sweep));
  Add("telemetry", via(parseTelemetry, renderTelemetry),
      Both(renderTelemetry, Tel));
  Add("ledger", via(parseLedgerEntry, renderLedgerEntry),
      Both(renderLedgerEntry, Led));
  // A 1.1 shard reads as run total 0, which is how it re-renders. It holds
  // no records: any record makes the HGB body compress, and asShardMinor1
  // patches a raw body.
  ShardDoc Old;
  Old.ConfigHash = Shard.ConfigHash;
  Old.Benchmark = Shard.Benchmark;
  Old.ShardIndex = Shard.ShardIndex;
  Old.RunBegin = Shard.RunBegin;
  Old.RunEnd = Shard.RunEnd;
  auto [OldJson, OldBin] = Both(ShardR, Old);
  Docs.push_back({"shard 1.1", via(parseShard, renderShard),
                  asShardMinor1(OldJson, Old, WireEncoding::Json),
                  asShardMinor1(OldBin, Old, WireEncoding::Binary), OldJson,
                  OldBin});
  return Docs;
}

/// Applies one to three random mutations to \p Doc.
std::string mutate(std::string Doc, Rng &R) {
  static const unsigned char Bytes[] = {0x00, 0x7f, 0x80, 0xff};
  for (uint64_t N = 1 + R.nextBelow(3); N > 0 && !Doc.empty(); --N) {
    size_t At = R.nextBelow(Doc.size());
    switch (R.nextBelow(3)) {
    case 0: // Flip one bit.
      Doc[At] = static_cast<char>(Doc[At] ^ (1u << R.nextBelow(8)));
      break;
    case 1: // Cut out a span of up to 16 bytes.
      Doc.erase(At, 1 + R.nextBelow(16));
      break;
    default: // Overwrite one byte with an edge value.
      Doc[At] = static_cast<char>(Bytes[R.nextBelow(4)]);
      break;
    }
  }
  return Doc;
}

} // namespace

TEST(WireFuzz, EveryDecoderSurvivesSeededMutants) {
  std::vector<SeedDoc> Docs = seedDocs();
  ASSERT_EQ(Docs.size(), 7u);
  Rng R(0xf022);
  for (const SeedDoc &D : Docs) {
    for (WireEncoding Enc : {WireEncoding::Json, WireEncoding::Binary}) {
      const std::string &Seed = Enc == WireEncoding::Json ? D.Json : D.Bin;
      SCOPED_TRACE(std::string(D.Family) +
                   (Enc == WireEncoding::Json ? " json" : " hgb"));
      const std::string &Back = Enc == WireEncoding::Json ? D.JsonBack
                                                          : D.BinBack;
      std::string Rendered, Err;
      ASSERT_TRUE(D.Parse(Seed, Enc, Rendered, Err)) << Err;
      ASSERT_EQ(Rendered, Back.empty() ? Seed : Back);
      int Parsed = 0;
      for (int I = 0; I < MutantsPerDoc; ++I) {
        std::string Mutant = mutate(Seed, R);
        Err.clear();
        if (!D.Parse(Mutant, Enc, Rendered, Err)) {
          EXPECT_FALSE(Err.empty()) << "mutant " << I << " failed silently";
          continue;
        }
        ++Parsed;
        std::string Again;
        EXPECT_TRUE(D.Parse(Rendered, Enc, Again, Err))
            << "mutant " << I << " re-rendered unparseably: " << Err;
      }
      // Most mutants must be rejected; a decoder that accepts everything
      // would pass the loop above vacuously.
      EXPECT_LT(Parsed, MutantsPerDoc);
    }
  }
}

//===----------------------------------------------------------------------===//
// Result-cache segments
//===----------------------------------------------------------------------===//

namespace {

/// A segment's layout, as far as the targeted mutations need it: a
/// 32-byte footer ending the file (magic, version, count, hash) after
/// `count` 32-byte index entries (key, offset, length, hash).
constexpr size_t FooterBytes = 32, EntryBytes = 32;

uint64_t getU64(const std::string &S, size_t At) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = V << 8 | static_cast<unsigned char>(S[At + I]);
  return V;
}

void putU64(std::string &S, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S[At + I] = static_cast<char>(V >> (8 * I));
}

/// The segment's index hash: FNV-1a over the index, continued over the
/// footer's first 24 bytes.
uint64_t fnv1a64(const char *P, size_t N, uint64_t H) {
  for (size_t I = 0; I < N; ++I) {
    H ^= static_cast<unsigned char>(P[I]);
    H *= 0x100000001b3ULL;
  }
  return H;
}

void rehashIndex(std::string &Seg, uint64_t Count) {
  size_t Footer = Seg.size() - FooterBytes;
  size_t Index = Footer - Count * EntryBytes;
  uint64_t H = fnv1a64(Seg.data() + Index, Count * EntryBytes,
                       0xcbf29ce484222325ULL);
  putU64(Seg, Footer + 24, fnv1a64(Seg.data() + Footer, 24, H));
}

/// Corrupts one field the index reader trusts: the footer's count, or
/// one entry's offset or length. Half the time the index hash is forged
/// to match, so the bounds and document-hash checks behind it are
/// exercised too.
std::string corruptIndex(std::string Seg, uint64_t Count, Rng &R) {
  const size_t Footer = Seg.size() - FooterBytes;
  const size_t Index = Footer - Count * EntryBytes;
  auto Value = [&](uint64_t Old) -> uint64_t {
    switch (R.nextBelow(5)) {
    case 0:
      return Old + 1;
    case 1:
      return Old - 1;
    case 2:
      return Old ^ (uint64_t(1) << R.nextBelow(64));
    case 3:
      return R.nextBelow(Seg.size() + 1);
    default:
      return UINT64_MAX - R.nextBelow(4);
    }
  };
  bool Forge = R.chance(1, 2);
  uint64_t HashCount = Count;
  if (R.chance(1, 3)) {
    uint64_t NewCount = Value(Count);
    putU64(Seg, Footer + 16, NewCount);
    // A forged hash has to be computed over the index the new count
    // claims, which only exists when it fits the file.
    if (NewCount > Footer / EntryBytes)
      Forge = false;
    HashCount = NewCount;
  } else if (Count > 0) {
    size_t At = Index + R.nextBelow(Count) * EntryBytes +
                (R.chance(1, 2) ? 8 : 16);
    putU64(Seg, At, Value(getU64(Seg, At)));
  }
  if (Forge)
    rehashIndex(Seg, HashCount);
  return Seg;
}

} // namespace

TEST(WireFuzz, SegmentReaderAndLookupsSurviveSeededMutants) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("herbgrind-test-segfuzz-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(Dir);
  const std::string Hash = "0123456789abcdef";

  // A real segment: four shards of real records, stored and flushed.
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(B.op(Opcode::SqrtF64, B.op(Opcode::MulF64, T, T)));
  B.halt();
  Program P = B.finish();
  std::vector<ResultCache::ShardKey> Keys;
  std::vector<std::string> Stored;
  {
    ResultCache Writer(Dir, Hash);
    for (uint64_t S = 0; S < 4; ++S) {
      Herbgrind HG(P);
      for (double V : {1e16 * double(S + 1), -2.5e17, 0.5 + double(S)})
        HG.runOnInput({V});
      ResultCache::ShardKey K;
      K.CoreIdentity = "cancellation";
      K.ShardIndex = S;
      K.RunBegin = 3 * S;
      K.RunEnd = 3 * S + 3;
      K.RunTotal = 12;
      AnalysisResult Res = HG.snapshot();
      Stored.push_back(renderShard(Hash, "cancellation", 0, S, K.RunBegin,
                                   K.RunEnd, K.RunTotal, Res,
                                   WireEncoding::Binary));
      Writer.store(K, "cancellation", Res);
      Keys.push_back(K);
    }
  }
  std::string SegPath;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    SegPath = E.path().string();
  ASSERT_EQ(std::filesystem::path(SegPath).extension(), SegmentExtension);
  std::string Seed;
  {
    std::ifstream In(SegPath, std::ios::binary);
    Seed.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  const uint64_t Count = getU64(Seed, Seed.size() - FooterBytes + 16);
  ASSERT_EQ(Count, Keys.size());

  // The unmutated segment reads back whole, both ways.
  std::vector<SegmentEntry> Entries;
  std::string Err;
  ASSERT_TRUE(readSegment(SegPath, Entries, Err)) << Err;
  ASSERT_EQ(Entries.size(), Stored.size());

  Rng R(0x5e6f);
  int ReaderAccepted = 0, AllHit = 0;
  const int Mutants = 2 * MutantsPerDoc;
  for (int I = 0; I < Mutants; ++I) {
    SCOPED_TRACE("mutant " + std::to_string(I));
    std::string Mutant =
        I % 2 ? corruptIndex(Seed, Count, R) : mutate(Seed, R);
    std::ofstream(SegPath, std::ios::binary | std::ios::trunc) << Mutant;

    Err.clear();
    if (readSegment(SegPath, Entries, Err)) {
      ++ReaderAccepted;
      for (const SegmentEntry &E : Entries) {
        EXPECT_NE(std::find(Stored.begin(), Stored.end(), E.Doc),
                  Stored.end())
            << "the reader returned bytes no store wrote";
        ShardDoc Doc;
        EXPECT_TRUE(parseShard(E.Doc, Doc, Err)) << Err;
      }
    } else {
      EXPECT_FALSE(Err.empty()) << "the reader failed silently";
    }

    ResultCache Reader(Dir, Hash);
    int Hits = 0;
    for (size_t K = 0; K < Keys.size(); ++K) {
      AnalysisResult Got;
      if (!Reader.lookup(Keys[K], Got))
        continue;
      ++Hits;
      EXPECT_EQ(renderShard(Hash, "cancellation", 0, Keys[K].ShardIndex,
                            Keys[K].RunBegin, Keys[K].RunEnd,
                            Keys[K].RunTotal, Got, WireEncoding::Binary),
                Stored[K])
          << "a lookup returned a result no store wrote";
    }
    AllHit += Hits == static_cast<int>(Keys.size());
  }
  // Most mutants must be refused; a reader that accepts everything would
  // pass the loop above vacuously.
  EXPECT_LT(ReaderAccepted, Mutants / 2);
  EXPECT_LT(AllHit, Mutants / 2);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// FPCore text
//===----------------------------------------------------------------------===//

TEST(WireFuzz, FPCoreParserSurvivesSeededMutants) {
  std::vector<std::string> Seeds = fpcore::corpusSources();
  // Deeper than the parser's nesting limit: it must refuse, not recurse
  // off the stack, and so must every mutant that stays as deep.
  std::string Deep = "(FPCore (x) ";
  for (int I = 0; I < 20000; ++I)
    Deep += "(+ 1 ";
  Deep += "x";
  Deep.append(20000, ')');
  Seeds.push_back(Deep + ")");
  Rng R(0xfc0e);
  int Parsed = 0, Compiled = 0, Mutants = 0;
  for (size_t S = 0; S < Seeds.size(); ++S) {
    SCOPED_TRACE("seed " + std::to_string(S));
    fpcore::ParseResult Seed = fpcore::parse(Seeds[S]);
    EXPECT_EQ(Seed.Ok, S + 1 < Seeds.size()) << Seed.Error;
    for (int I = 0; I < MutantsPerDoc / 5; ++I, ++Mutants) {
      std::string Mutant = mutate(Seeds[S], R);
      fpcore::ParseResult P = fpcore::parse(Mutant);
      if (!P.Ok) {
        EXPECT_FALSE(P.Error.empty()) << "mutant " << I << " failed silently";
        continue;
      }
      ++Parsed;
      std::string Printed = P.Value.print();
      fpcore::ParseResult Again = fpcore::parse(Printed);
      ASSERT_TRUE(Again.Ok) << "mutant " << I << " printed unparseably: "
                            << Again.Error << "\n"
                            << Printed;
      EXPECT_EQ(Again.Value.print(), Printed) << "mutant " << I;
      std::string WhyNot;
      if (!fpcore::isCompilable(P.Value, &WhyNot)) {
        EXPECT_FALSE(WhyNot.empty()) << "mutant " << I;
        continue;
      }
      ++Compiled;
      EXPECT_EQ(fpcore::compile(P.Value).validate(), "") << Printed;
    }
  }
  // The mutants must reach every stage: some fail to parse, some parse
  // and are refused, some compile.
  EXPECT_LT(Parsed, Mutants);
  EXPECT_LT(Compiled, Parsed);
  EXPECT_GT(Compiled, 0);
}
