//===- tests/test_wirefuzz.cpp - Seeded mutation test of every decoder ----===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Hostile bytes against every wire decoder. One real document of each of
// the six families, in both encodings, is mutated a fixed number of times
// from a fixed seed: bit flips, cut-out spans, and bytes overwritten with
// 0x00, 0x7f, 0x80 or 0xff. Each mutant must either fail to parse with a
// non-empty error, or parse into a value whose same-encoding re-render
// parses again. Run under ASan/UBSan, this is also a memory-safety check
// of the JSON reader, the HGB reader and its LZSS body codec, and every
// schema traversal.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/Metrics.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>

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
};

/// One real document per family: records from an actual analysis, a
/// batch report and metrics from an actual engine sweep.
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
  ASSERT_EQ(Docs.size(), 6u);
  Rng R(0xf022);
  for (const SeedDoc &D : Docs) {
    for (WireEncoding Enc : {WireEncoding::Json, WireEncoding::Binary}) {
      const std::string &Seed = Enc == WireEncoding::Json ? D.Json : D.Bin;
      SCOPED_TRACE(std::string(D.Family) +
                   (Enc == WireEncoding::Json ? " json" : " hgb"));
      std::string Rendered, Err;
      ASSERT_TRUE(D.Parse(Seed, Enc, Rendered, Err)) << Err;
      ASSERT_EQ(Rendered, Seed);
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
