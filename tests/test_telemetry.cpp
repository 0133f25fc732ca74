//===- tests/test_telemetry.cpp - Metrics, tracing, op profiler -----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The observability layer's contract: (1) the metrics registry merges
// counters, gauges, and timer histograms across threads, including
// threads that exited before the snapshot; (2) trace spans record real
// intervals and render as Chrome trace-event JSON that parses; (3) the op
// profiler attributes shadow cost to (SourceLoc, opcode) sites, survives
// clone/merge, and at sample period 1 its rows account for the full
// measured total; (4) the telemetry document round-trips through the
// serializer and rejects unknown major versions; (5) ThreadPool counts
// submissions, executions, and steals; and -- the load-bearing clause --
// (6) enabling every piece of telemetry at once leaves the engine's
// report bytes identical.
//
//===----------------------------------------------------------------------===//

#include "analysis/OpProfile.h"
#include "engine/Engine.h"
#include "engine/ThreadPool.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

using namespace herbgrind;
using namespace herbgrind::engine;

namespace {

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

/// Every test begins from a clean registry; the suites share a process.
struct TelemetryTest : ::testing::Test {
  void SetUp() override {
    metrics::resetAll();
    trace::stop();
    trace::clear();
    opprof::disable();
  }
  void TearDown() override {
    opprof::disable();
    trace::stop();
    trace::clear();
    metrics::resetAll();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, CountersMergeAcrossThreadsIncludingExitedOnes) {
  metrics::Counter C = metrics::counter("test.counter_merge");
  C.add();        // this thread
  C.add(41);      // this thread again
  // Two short-lived threads: their slabs retire before the snapshot and
  // must still be counted.
  std::thread A([&] { C.add(100); });
  std::thread B([&] { metrics::counter("test.counter_merge").add(1000); });
  A.join();
  B.join();
  EXPECT_EQ(metrics::snapshot().counterValue("test.counter_merge"), 1142u);

  // Registration is idempotent: the same name is the same cell.
  metrics::counter("test.counter_merge").add(8);
  EXPECT_EQ(metrics::snapshot().counterValue("test.counter_merge"), 1150u);

  // Missing names read as zero rather than erroring.
  EXPECT_EQ(metrics::snapshot().counterValue("test.never_registered"), 0u);
}

TEST_F(TelemetryTest, GaugesTrackLevelAndHighWatermark) {
  metrics::Gauge G = metrics::gauge("test.gauge");
  G.set(5);
  G.add(7); // 12: the high watermark
  G.sub(9); // 3: the final level
  metrics::Snapshot S = metrics::snapshot();
  const metrics::GaugeSample *GS = S.findGauge("test.gauge");
  ASSERT_NE(GS, nullptr);
  EXPECT_EQ(GS->Value, 3);
  EXPECT_EQ(GS->Max, 12);
  EXPECT_EQ(S.findGauge("test.no_such_gauge"), nullptr);
}

TEST_F(TelemetryTest, TimersHistogramCountSumMaxAndBuckets) {
  metrics::Timer T = metrics::timer("test.timer");
  T.record(1);    // bucket 0
  T.record(9);    // floor(log2 9) = 3
  T.record(1000); // floor(log2 1000) = 9
  metrics::Snapshot S = metrics::snapshot();
  const metrics::TimerSample *TS = S.findTimer("test.timer");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Count, 3u);
  EXPECT_EQ(TS->SumNanos, 1010u);
  EXPECT_EQ(TS->MaxNanos, 1000u);
  EXPECT_EQ(TS->Buckets[0], 1u);
  EXPECT_EQ(TS->Buckets[3], 1u);
  EXPECT_EQ(TS->Buckets[9], 1u);
  uint64_t Total = 0;
  for (uint64_t B : TS->Buckets)
    Total += B;
  EXPECT_EQ(Total, 3u);
}

TEST_F(TelemetryTest, TimerMaxSurvivesThreadExitAsMaxNotSum) {
  // The subtle retirement case: max cells from exited threads must fold
  // by max. Two exited threads recording 100 and 60 must yield max 100,
  // not 160, and a live-thread 30 must not disturb it.
  metrics::Timer T = metrics::timer("test.timer_retire");
  std::thread A([&] { T.record(100); });
  A.join();
  std::thread B([&] { T.record(60); });
  B.join();
  T.record(30);
  const metrics::Snapshot S = metrics::snapshot();
  const metrics::TimerSample *TS = S.findTimer("test.timer_retire");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Count, 3u);
  EXPECT_EQ(TS->SumNanos, 190u);
  EXPECT_EQ(TS->MaxNanos, 100u);
}

TEST_F(TelemetryTest, ResetAllZeroesValuesButKeepsRegistrations) {
  metrics::Counter C = metrics::counter("test.reset");
  C.add(5);
  metrics::gauge("test.reset_gauge").set(9);
  metrics::resetAll();
  metrics::Snapshot S = metrics::snapshot();
  EXPECT_EQ(S.counterValue("test.reset"), 0u);
  const metrics::GaugeSample *GS = S.findGauge("test.reset_gauge");
  ASSERT_NE(GS, nullptr);
  EXPECT_EQ(GS->Value, 0);
  EXPECT_EQ(GS->Max, 0);
  // The old handle still works after the reset.
  C.add(2);
  EXPECT_EQ(metrics::snapshot().counterValue("test.reset"), 2u);
}

TEST_F(TelemetryTest, SnapshotIsNameSorted) {
  metrics::counter("test.zz").add(1);
  metrics::counter("test.aa").add(1);
  metrics::Snapshot S = metrics::snapshot();
  for (size_t I = 1; I < S.Counters.size(); ++I)
    EXPECT_LT(S.Counters[I - 1].Name, S.Counters[I].Name);
}

//===----------------------------------------------------------------------===//
// Trace spans
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, SpansRecordOnlyWhileEnabled) {
  { trace::Span S("telemetry.test.before", "test"); }
  EXPECT_TRUE(trace::collect().empty());

  trace::start();
  EXPECT_TRUE(trace::enabled());
  { trace::Span S("telemetry.test.during", "test", "{\"k\":1}"); }
  trace::stop();
  EXPECT_FALSE(trace::enabled());
  { trace::Span S("telemetry.test.after", "test"); }

  std::vector<trace::Event> Events = trace::collect();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "telemetry.test.during");
  EXPECT_STREQ(Events[0].Cat, "test");
  EXPECT_EQ(Events[0].Args, "{\"k\":1}");
}

TEST_F(TelemetryTest, TimedSpansRecordTheirTimerWhetherOrNotTracing) {
  metrics::Timer T = metrics::timer("test.span_timer");
  { trace::Span S("telemetry.test.untraced", "test", T); }
  trace::start();
  { trace::Span S("telemetry.test.traced", "test", T, "{\"k\":2}"); }
  trace::stop();

  metrics::Snapshot S = metrics::snapshot();
  const metrics::TimerSample *TS = S.findTimer("test.span_timer");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Count, 2u);
  std::vector<trace::Event> Events = trace::collect();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Name, "telemetry.test.traced");
  EXPECT_EQ(Events[0].Args, "{\"k\":2}");
  EXPECT_LE(Events[0].DurNanos, TS->MaxNanos);
}

TEST_F(TelemetryTest, SpansFromExitedThreadsSurviveAndSortByStart) {
  trace::start();
  {
    trace::Span Outer("telemetry.test.outer", "test");
    std::thread T([] { trace::Span Inner("telemetry.test.inner", "test"); });
    T.join();
  }
  trace::stop();
  std::vector<trace::Event> Events = trace::collect();
  ASSERT_EQ(Events.size(), 2u);
  // collect() sorts by start time: the outer span opened first but closed
  // last, so ordering by start puts it first -- and its interval encloses
  // the inner one.
  EXPECT_EQ(Events[0].Name, "telemetry.test.outer");
  EXPECT_EQ(Events[1].Name, "telemetry.test.inner");
  EXPECT_LE(Events[0].StartNanos, Events[1].StartNanos);
  EXPECT_GE(Events[0].StartNanos + Events[0].DurNanos,
            Events[1].StartNanos + Events[1].DurNanos);
  EXPECT_NE(Events[0].Tid, Events[1].Tid);
}

TEST_F(TelemetryTest, ChromeTraceJsonParsesWithExpectedShape) {
  trace::start();
  { trace::Span S("telemetry.test.json", "test", "{\"shard\":3}"); }
  trace::stop();
  std::string Json = trace::renderChromeTrace();

  JsonParseResult R = parseJson(Json);
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonValue &Root = R.Value;
  ASSERT_TRUE(Root.isObject());
  const JsonValue *EventsV = Root.field("traceEvents");
  ASSERT_NE(EventsV, nullptr);
  ASSERT_TRUE(EventsV->isArray());
  bool Found = false;
  for (const JsonValue &Ev : EventsV->Arr) {
    const JsonValue *Name = Ev.field("name");
    if (!Name || Name->Str != "telemetry.test.json")
      continue;
    Found = true;
    ASSERT_NE(Ev.field("ph"), nullptr);
    EXPECT_EQ(Ev.field("ph")->Str, "X");
    EXPECT_EQ(Ev.field("cat")->Str, "test");
    ASSERT_NE(Ev.field("ts"), nullptr);
    ASSERT_NE(Ev.field("dur"), nullptr);
    const JsonValue *Args = Ev.field("args");
    ASSERT_NE(Args, nullptr);
    ASSERT_TRUE(Args->isObject());
    ASSERT_NE(Args->field("shard"), nullptr);
    EXPECT_EQ(Args->field("shard")->asU64(), 3u);
  }
  EXPECT_TRUE(Found);
  const JsonValue *Unit = Root.field("displayTimeUnit");
  ASSERT_NE(Unit, nullptr);
  EXPECT_EQ(Unit->Str, "ns");
}

//===----------------------------------------------------------------------===//
// The op profiler
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, ProfilerAttributesCostToOpRecordsWhenEnabled) {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(T);
  B.halt();
  Program P = B.finish();

  // Disabled (the default): no cost recorded anywhere.
  {
    Herbgrind HG(P);
    HG.runOnInput({1e15});
    for (const auto &[PC, Rec] : HG.opRecords()) {
      EXPECT_EQ(Rec.ProfSamples, 0u) << "pc " << PC;
      EXPECT_EQ(Rec.ProfNanos, 0u) << "pc " << PC;
    }
  }
  EXPECT_EQ(metrics::snapshot().counterValue("profile.shadow_ops_measured"),
            0u);

  // Enabled at period 1: every shadow-op execution is measured.
  opprof::enable(1);
  Herbgrind HG(P);
  HG.runOnInput({1e15});
  HG.runOnInput({2.5});
  opprof::disable();

  uint64_t TotalSamples = 0, TotalNanos = 0;
  for (const auto &[PC, Rec] : HG.opRecords()) {
    EXPECT_EQ(Rec.ProfSamples, Rec.Executions) << "pc " << PC;
    EXPECT_GT(Rec.ProfNanos, 0u) << "pc " << PC;
    TotalSamples += Rec.ProfSamples;
    TotalNanos += Rec.ProfNanos;
  }
  EXPECT_EQ(TotalSamples, 4u); // 2 ops x 2 runs

  // The global counters agree with the per-record sums: that is the >=90%
  // acceptance property -- at period 1 attribution is exact (100%).
  metrics::Snapshot S = metrics::snapshot();
  EXPECT_EQ(S.counterValue("profile.shadow_ops_measured"), TotalSamples);
  EXPECT_EQ(S.counterValue("profile.shadow_ns"), TotalNanos);
}

TEST_F(TelemetryTest, ProfilerSamplePeriodSkipsExecutions) {
  ProgramBuilder B;
  auto X = B.input(0);
  B.out(B.op(Opcode::AddF64, X, B.constF64(1.0)));
  B.halt();
  Program P = B.finish();

  opprof::enable(4);
  EXPECT_EQ(opprof::samplePeriod(), 4u);
  Herbgrind HG(P);
  for (int I = 0; I < 8; ++I)
    HG.runOnInput({static_cast<double>(I)});
  opprof::disable();
  EXPECT_EQ(opprof::samplePeriod(), 0u);

  uint64_t Samples = 0, Executions = 0;
  for (const auto &[PC, Rec] : HG.opRecords()) {
    Samples += Rec.ProfSamples;
    Executions += Rec.Executions;
  }
  EXPECT_EQ(Executions, 8u);
  EXPECT_EQ(Samples, 2u); // every 4th execution on this thread
}

TEST_F(TelemetryTest, ProfileFieldsSurviveCloneAndSumOnMerge) {
  // Executed records must carry expressions for mergeFrom; a constant
  // leaf is the smallest well-formed one.
  OpRecord A;
  A.Op = Opcode::MulF64;
  A.Loc = SourceLoc("a.cpp", 10, "f");
  A.Executions = 6;
  A.Expr = SymExpr::makeConst(2.0);
  A.ProfSamples = 3;
  A.ProfNanos = 300;
  A.ProfLimbAllocs = 2;
  A.ProfLimbHits = 7;

  OpRecord C = A.clone();
  EXPECT_EQ(C.ProfSamples, 3u);
  EXPECT_EQ(C.ProfNanos, 300u);
  EXPECT_EQ(C.ProfLimbAllocs, 2u);
  EXPECT_EQ(C.ProfLimbHits, 7u);

  OpRecord B;
  B.Op = Opcode::MulF64;
  B.Loc = A.Loc;
  B.Executions = 4;
  B.Expr = SymExpr::makeConst(2.0);
  B.ProfSamples = 1;
  B.ProfNanos = 50;
  B.ProfLimbAllocs = 1;
  B.ProfLimbHits = 2;
  A.mergeFrom(B, 3);
  EXPECT_EQ(A.ProfSamples, 4u);
  EXPECT_EQ(A.ProfNanos, 350u);
  EXPECT_EQ(A.ProfLimbAllocs, 3u);
  EXPECT_EQ(A.ProfLimbHits, 9u);
}

TEST_F(TelemetryTest, ProfileRowsMergeBySiteRankAndExtrapolate) {
  std::map<uint32_t, OpRecord> Ops;
  // Two PCs at the same (Loc, Op) site must merge into one row.
  OpRecord &R1 = Ops[1];
  R1.Op = Opcode::AddF64;
  R1.Loc = SourceLoc("k.cpp", 5, "hot");
  R1.Executions = 10;
  R1.ProfSamples = 5;
  R1.ProfNanos = 500;
  OpRecord &R2 = Ops[2];
  R2.Op = Opcode::AddF64;
  R2.Loc = SourceLoc("k.cpp", 5, "hot");
  R2.Executions = 10;
  R2.ProfSamples = 5;
  R2.ProfNanos = 300;
  // A cheaper site at another line.
  OpRecord &R3 = Ops[3];
  R3.Op = Opcode::SqrtF64;
  R3.Loc = SourceLoc("k.cpp", 9, "cold");
  R3.Executions = 4;
  R3.ProfSamples = 2;
  R3.ProfNanos = 100;
  // A record the analysis saw but never executed contributes nothing.
  OpRecord &R4 = Ops[4];
  R4.Op = Opcode::DivF64;
  R4.Executions = 0;

  std::vector<opprof::OpProfileRow> Rows;
  opprof::accumulateOpProfile(Ops, Rows);
  opprof::finalizeOpProfile(Rows);
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Loc.Line, 5);
  EXPECT_EQ(Rows[0].Executions, 20u);
  EXPECT_EQ(Rows[0].Samples, 10u);
  EXPECT_EQ(Rows[0].Nanos, 800u);
  // 800 ns over 10 of 20 executions extrapolates to 1600.
  EXPECT_DOUBLE_EQ(Rows[0].estNanos(), 1600.0);
  EXPECT_EQ(Rows[1].Loc.Line, 9);
  EXPECT_DOUBLE_EQ(Rows[1].estNanos(), 200.0);

  std::string Table = opprof::renderOpProfileTable(Rows, 10, 900);
  EXPECT_NE(Table.find("add.f64"), std::string::npos);
  EXPECT_NE(Table.find("sqrt.f64"), std::string::npos);
  EXPECT_NE(Table.find("k.cpp:5 in hot"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The telemetry document
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, TelemetryDocRoundTripsByteIdentically) {
  metrics::counter("test.doc_counter").add(42);
  metrics::gauge("test.doc_gauge").set(-3);
  metrics::timer("test.doc_timer").record(1024);

  TelemetryDoc Doc;
  Doc.Metrics = metrics::snapshot();
  opprof::OpProfileRow Row;
  Row.Op = Opcode::AddF64;
  Row.Loc = SourceLoc("q.fpcore", 3, "quad");
  Row.Executions = 100;
  Row.Samples = 25;
  Row.Nanos = 12345;
  Row.LimbAllocs = 6;
  Row.LimbHits = 9;
  Doc.Profile.push_back(Row);
  Doc.ProfileTotalNanos = 12345;

  std::string Json = renderTelemetry(Doc, WireEncoding::Json);
  TelemetryDoc Back;
  std::string Err;
  ASSERT_TRUE(parseTelemetry(Json, Back, Err)) << Err;
  EXPECT_EQ(Back.Metrics.counterValue("test.doc_counter"), 42u);
  const metrics::GaugeSample *GS = Back.Metrics.findGauge("test.doc_gauge");
  ASSERT_NE(GS, nullptr);
  EXPECT_EQ(GS->Value, -3);
  const metrics::TimerSample *TS = Back.Metrics.findTimer("test.doc_timer");
  ASSERT_NE(TS, nullptr);
  EXPECT_EQ(TS->Count, 1u);
  EXPECT_EQ(TS->SumNanos, 1024u);
  EXPECT_EQ(TS->Buckets[10], 1u);
  ASSERT_EQ(Back.Profile.size(), 1u);
  EXPECT_EQ(Back.Profile[0].Op, Opcode::AddF64);
  EXPECT_EQ(Back.Profile[0].Loc.str(), "q.fpcore:3 in quad");
  EXPECT_EQ(Back.Profile[0].Samples, 25u);
  EXPECT_EQ(Back.ProfileTotalNanos, 12345u);

  // parse(render(x)) re-renders byte-identically.
  EXPECT_EQ(renderTelemetry(Back, WireEncoding::Json), Json);
}

TEST_F(TelemetryTest, TelemetryDocRejectsUnknownMajorAndGarbage) {
  TelemetryDoc Doc;
  Doc.Metrics = metrics::snapshot();
  std::string Json = renderTelemetry(Doc, WireEncoding::Json);

  std::string Needle = format("\"major\":%d", TelemetryFormatMajor);
  size_t At = Json.find(Needle);
  ASSERT_NE(At, std::string::npos);
  std::string Bumped = Json;
  Bumped.replace(At, Needle.size(),
                 format("\"major\":%d", TelemetryFormatMajor + 1));
  TelemetryDoc Out;
  std::string Err;
  EXPECT_FALSE(parseTelemetry(Bumped, Out, Err));
  EXPECT_NE(Err.find("major version"), std::string::npos) << Err;

  // A newer minor of the same major still parses.
  std::string MinorBump = Json;
  Needle = format("\"minor\":%d", TelemetryFormatMinor);
  At = MinorBump.find(Needle);
  ASSERT_NE(At, std::string::npos);
  MinorBump.replace(At, Needle.size(),
                    format("\"minor\":%d", TelemetryFormatMinor + 5));
  EXPECT_TRUE(parseTelemetry(MinorBump, Out, Err)) << Err;

  EXPECT_FALSE(parseTelemetry("not json", Out, Err));
  EXPECT_FALSE(parseTelemetry("[]", Out, Err));
  // A report document is not a telemetry document.
  EXPECT_FALSE(parseTelemetry(
      "{\"format\":\"herbgrind-batch\",\"version\":{\"major\":1,\"minor\":0}}",
      Out, Err));
}

//===----------------------------------------------------------------------===//
// ThreadPool counters
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, SingleWorkerPoolNeverSteals) {
  ThreadPool Pool(1);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 32; ++I)
    Pool.submit([&] { ++Ran; });
  Pool.waitAll();
  ThreadPool::PoolStats S = Pool.stats();
  EXPECT_EQ(Ran.load(), 32);
  EXPECT_EQ(S.Submitted, 32u);
  EXPECT_EQ(S.Executed, 32u);
  EXPECT_EQ(S.Steals, 0u);
  EXPECT_GE(S.MaxQueueDepth, 1u);
}

TEST_F(TelemetryTest, BlockedWorkerForcesStealsOntoTheFreeOne) {
  ThreadPool Pool(2);
  std::promise<void> Release;
  std::shared_future<void> Gate(Release.get_future());
  std::atomic<bool> BlockerRunning{false};
  std::atomic<int> Ran{0};

  // One worker parks on the blocker; with it held, the free worker must
  // drain BOTH queues, so at least the other queue's half of the tasks
  // (31 of 64, counting round-robin skew) are steals.
  Pool.submit([&, Gate] {
    BlockerRunning = true;
    Gate.wait();
  });
  while (!BlockerRunning)
    std::this_thread::yield();
  for (int I = 0; I < 64; ++I)
    Pool.submit([&] { ++Ran; });
  while (Ran.load() < 64)
    std::this_thread::yield();
  Release.set_value();
  Pool.waitAll();

  ThreadPool::PoolStats S = Pool.stats();
  EXPECT_EQ(S.Submitted, 65u);
  EXPECT_EQ(S.Executed, 65u);
  EXPECT_GE(S.Steals, 31u);
  EXPECT_GE(S.MaxQueueDepth, 1u);
}

//===----------------------------------------------------------------------===//
// The contract that matters: telemetry never touches report bytes
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, FullTelemetryLeavesEngineReportBytesIdentical) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 4;

  std::string Plain = Engine(Cfg).run(Cores).renderJson();
  metrics::resetAll(); // count only the instrumented sweep below

  trace::start();
  opprof::enable(1);
  BatchResult Instrumented = Engine(Cfg).run(Cores);
  opprof::disable();
  trace::stop();

  EXPECT_EQ(Instrumented.renderJson(), Plain);

  // The instrumented sweep actually produced telemetry: spans exist, the
  // engine counters moved, and the profiler attributed nonzero cost.
  EXPECT_FALSE(trace::collect().empty());
  metrics::Snapshot S = metrics::snapshot();
  EXPECT_GT(S.counterValue("engine.shards_done"), 0u);
  EXPECT_GT(S.counterValue("profile.shadow_ns"), 0u);

  std::vector<opprof::OpProfileRow> Rows;
  for (const BenchmarkResult &BR : Instrumented.Benchmarks)
    opprof::accumulateOpProfile(BR.Records.Ops, Rows);
  opprof::finalizeOpProfile(Rows);
  ASSERT_FALSE(Rows.empty());
  uint64_t RowNanos = 0;
  for (const opprof::OpProfileRow &R : Rows)
    RowNanos += R.Nanos;
  // Sample period 1: the rows account for every measured nanosecond of
  // the sweep (>= the acceptance bar of 90% by construction).
  EXPECT_EQ(RowNanos, S.counterValue("profile.shadow_ns"));
  // EngineStats mirrors the new counters.
  EXPECT_EQ(Instrumented.Stats.PoolTasks, S.counterValue("pool.tasks_executed"));
  EXPECT_EQ(Instrumented.Stats.PoolSteals, S.counterValue("pool.steals"));

  // A confirm sweep runs its tier-0 and full phases through one pool, and
  // the pool counters cover both phases, as EngineStats does.
  EngineConfig Confirm = Cfg;
  Confirm.Tier = TierMode::Confirm;
  metrics::resetAll();
  trace::start();
  BatchResult Tiered = Engine(Confirm).run(Cores);
  trace::stop();
  EXPECT_EQ(Tiered.renderJson(), Plain);
  metrics::Snapshot T = metrics::snapshot();
  EXPECT_GT(Tiered.Stats.PoolTasks, Tiered.Stats.Shards);
  EXPECT_EQ(Tiered.Stats.PoolTasks, T.counterValue("pool.tasks_executed"));
  EXPECT_EQ(Tiered.Stats.PoolSteals, T.counterValue("pool.steals"));
}

//===----------------------------------------------------------------------===//
// Mergeable telemetry: the snapshot fold algebra
//===----------------------------------------------------------------------===//

#include "engine/RunLedger.h"
#include "support/Events.h"

#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace {

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-telemetry-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

metrics::CounterSample makeCounter(const char *Name, uint64_t V) {
  metrics::CounterSample S;
  S.Name = Name;
  S.Value = V;
  return S;
}

metrics::TimerSample makeTimer(const char *Name, uint64_t Count, uint64_t Sum,
                               uint64_t Max, unsigned Bucket) {
  metrics::TimerSample S;
  S.Name = Name;
  S.Count = Count;
  S.SumNanos = Sum;
  S.MaxNanos = Max;
  S.Buckets[Bucket] = Count;
  return S;
}

metrics::GaugeSample makeGauge(const char *Name, int64_t V, int64_t Max) {
  metrics::GaugeSample S;
  S.Name = Name;
  S.Value = V;
  S.Max = Max;
  return S;
}

} // namespace

TEST_F(TelemetryTest, SnapshotMergeFoldsCountersTimersAndGauges) {
  metrics::Snapshot A;
  A.Counters = {makeCounter("a.only", 3), makeCounter("both", 10)};
  A.Timers = {makeTimer("t", 2, 100, 80, 6)};
  A.Gauges = {makeGauge("g", 4, 7)};

  metrics::Snapshot B;
  B.Counters = {makeCounter("b.only", 5), makeCounter("both", 32)};
  B.Timers = {makeTimer("t", 3, 50, 30, 4)};
  B.Gauges = {makeGauge("g", 6, 11)};

  A.mergeFrom(B);
  EXPECT_EQ(A.counterValue("a.only"), 3u);
  EXPECT_EQ(A.counterValue("b.only"), 5u);
  EXPECT_EQ(A.counterValue("both"), 42u);

  const metrics::TimerSample *T = A.findTimer("t");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Count, 5u);
  EXPECT_EQ(T->SumNanos, 150u);
  // Max folds as max, never as sum: two machines' slowest shard is the
  // slower of the two, not their total.
  EXPECT_EQ(T->MaxNanos, 80u);
  EXPECT_EQ(T->Buckets[6], 2u);
  EXPECT_EQ(T->Buckets[4], 3u);

  // Gauges are additive levels: per-slice totals (shard counts, worker
  // counts) recover the single-machine value when slices merge.
  const metrics::GaugeSample *G = A.findGauge("g");
  ASSERT_NE(G, nullptr);
  EXPECT_EQ(G->Value, 10);
  EXPECT_EQ(G->Max, 18);
}

TEST_F(TelemetryTest, SnapshotMergeIsCommutativeAssociativeWithEmptyIdentity) {
  auto Make = [](uint64_t C, uint64_t TSum, int64_t G) {
    metrics::Snapshot S;
    S.Counters = {makeCounter("c", C)};
    S.Timers = {makeTimer("t", 1, TSum, TSum, 3)};
    S.Gauges = {makeGauge("g", G, G)};
    return S;
  };
  auto Render = [](const metrics::Snapshot &S) {
    TelemetryDoc D;
    D.Metrics = S;
    return renderTelemetry(D, WireEncoding::Json);
  };
  metrics::Snapshot X = Make(1, 10, 100), Y = Make(2, 20, 200),
                    Z = Make(4, 40, 400);

  // Commutative: X+Y == Y+X (byte-compared through the renderer, which
  // also proves the merged sample lists stay name-sorted).
  metrics::Snapshot XY = X, YX = Y;
  XY.mergeFrom(Y);
  YX.mergeFrom(X);
  EXPECT_EQ(Render(XY), Render(YX));

  // Associative: (X+Y)+Z == X+(Y+Z).
  metrics::Snapshot L = XY, YZ = Y, R = X;
  L.mergeFrom(Z);
  YZ.mergeFrom(Z);
  R.mergeFrom(YZ);
  EXPECT_EQ(Render(L), Render(R));

  // The empty snapshot is the identity on both sides.
  metrics::Snapshot E, XE = X;
  XE.mergeFrom(E);
  EXPECT_EQ(Render(XE), Render(X));
  metrics::Snapshot EX;
  EX.mergeFrom(X);
  EXPECT_EQ(Render(EX), Render(X));
}

TEST_F(TelemetryTest, OpProfileRowsMergeBySiteAndOpcode) {
  auto Row = [](Opcode Op, const char *File, uint64_t Execs, uint64_t Nanos) {
    opprof::OpProfileRow R;
    R.Op = Op;
    R.Loc = SourceLoc(File, 1, "f");
    R.Executions = Execs;
    R.Samples = Execs;
    R.Nanos = Nanos;
    R.LimbAllocs = 1;
    R.LimbHits = 2;
    return R;
  };
  std::vector<opprof::OpProfileRow> Dst = {Row(Opcode::AddF64, "a", 10, 100),
                                           Row(Opcode::MulF64, "a", 5, 50)};
  std::vector<opprof::OpProfileRow> Src = {Row(Opcode::AddF64, "a", 7, 70),
                                           Row(Opcode::AddF64, "b", 3, 30)};
  opprof::mergeOpProfileRows(Dst, Src);
  ASSERT_EQ(Dst.size(), 3u);
  const opprof::OpProfileRow *Merged = nullptr, *New = nullptr;
  for (const opprof::OpProfileRow &R : Dst) {
    if (R.Op == Opcode::AddF64 && R.Loc.str() == "a:1 in f")
      Merged = &R;
    if (R.Loc.str() == "b:1 in f")
      New = &R;
  }
  ASSERT_NE(Merged, nullptr);
  EXPECT_EQ(Merged->Executions, 17u);
  EXPECT_EQ(Merged->Nanos, 170u);
  EXPECT_EQ(Merged->LimbAllocs, 2u);
  EXPECT_EQ(Merged->LimbHits, 4u);
  ASSERT_NE(New, nullptr);
  EXPECT_EQ(New->Executions, 3u);
  EXPECT_EQ(New->Nanos, 30u);
}

//===----------------------------------------------------------------------===//
// Telemetry document merging (cross-format) and the meta block
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, MergeTelemetryFoldsMixedFormatsOrderIndependently) {
  TelemetryDoc A;
  A.Metrics.Counters = {makeCounter("engine.runs", 8)};
  opprof::OpProfileRow RA;
  RA.Op = Opcode::AddF64;
  RA.Loc = SourceLoc("x.fpcore", 2, "x");
  RA.Executions = 8;
  RA.Samples = 8;
  RA.Nanos = 800;
  A.Profile.push_back(RA);
  A.ProfileTotalNanos = 800;
  A.HasMeta = true;
  A.Meta.Host = "machine-a";
  A.Meta.Timestamp = "2026-08-08T00:00:00Z";
  A.Meta.MergedDocs = 1;

  TelemetryDoc B = A;
  B.Meta.Host = "machine-b";
  B.Metrics.Counters = {makeCounter("engine.runs", 4)};
  B.Profile[0].Executions = 4;
  B.Profile[0].Nanos = 400;
  B.ProfileTotalNanos = 400;

  // One sidecar JSON, the other HGB: a merge must sniff per document.
  std::string JsonA = renderTelemetry(A, WireEncoding::Json);
  std::string BinB = renderTelemetry(B, WireEncoding::Binary);

  TelemetryDoc AB, BA;
  std::string Err;
  ASSERT_TRUE(mergeTelemetry({JsonA, BinB}, AB, Err)) << Err;
  ASSERT_TRUE(mergeTelemetry({BinB, JsonA}, BA, Err)) << Err;

  EXPECT_EQ(AB.Metrics.counterValue("engine.runs"), 12u);
  ASSERT_EQ(AB.Profile.size(), 1u);
  EXPECT_EQ(AB.Profile[0].Executions, 12u);
  EXPECT_EQ(AB.ProfileTotalNanos, 1200u);
  EXPECT_EQ(AB.Meta.MergedDocs, 2u);
  // Provenance is cleared (the merging machine stamps its own when it
  // writes), which is exactly what makes the merge byte-deterministic:
  EXPECT_EQ(AB.Meta.Host, "");
  EXPECT_EQ(AB.Meta.Timestamp, "");
  EXPECT_EQ(renderTelemetry(AB, WireEncoding::Json),
            renderTelemetry(BA, WireEncoding::Json));

  // An unparseable member fails the merge loudly, naming the document.
  TelemetryDoc Bad;
  EXPECT_FALSE(mergeTelemetry({JsonA, "not json"}, Bad, Err));
  EXPECT_NE(Err.find("document 1"), std::string::npos) << Err;
  EXPECT_FALSE(mergeTelemetry({}, Bad, Err));
}

TEST_F(TelemetryTest, TelemetryMetaRoundTripsAndMinor0DocsStillParse) {
  TelemetryDoc Doc;
  Doc.Metrics.Counters = {makeCounter("c", 1)};
  Doc.HasMeta = true;
  Doc.Meta.Host = "hostname-1";
  Doc.Meta.Timestamp = "2026-08-08T12:00:00Z";
  Doc.Meta.MergedDocs = 3;

  std::string Json = renderTelemetry(Doc, WireEncoding::Json);
  EXPECT_NE(Json.find("\"meta\":{\"host\":\"hostname-1\""), std::string::npos);
  TelemetryDoc Back;
  std::string Err;
  ASSERT_TRUE(parseTelemetry(Json, Back, Err)) << Err;
  EXPECT_TRUE(Back.HasMeta);
  EXPECT_EQ(Back.Meta.Host, "hostname-1");
  EXPECT_EQ(Back.Meta.MergedDocs, 3u);
  EXPECT_EQ(renderTelemetry(Back, WireEncoding::Json), Json);

  std::string Bin = renderTelemetry(Doc, WireEncoding::Binary);
  TelemetryDoc BinBack;
  ASSERT_TRUE(parseTelemetry(Bin, BinBack, Err)) << Err;
  EXPECT_EQ(renderTelemetry(BinBack, WireEncoding::Json), Json);

  // A pre-meta (minor 0) JSON document -- no meta field, version.minor 0
  // -- still parses; the reader treats meta as absent.
  TelemetryDoc Old;
  Old.Metrics.Counters = {makeCounter("c", 1)};
  std::string OldJson = renderTelemetry(Old, WireEncoding::Json);
  std::string Needle = format("\"minor\":%d", TelemetryFormatMinor);
  size_t At = OldJson.find(Needle);
  ASSERT_NE(At, std::string::npos);
  OldJson.replace(At, Needle.size(), "\"minor\":0");
  TelemetryDoc OldBack;
  ASSERT_TRUE(parseTelemetry(OldJson, OldBack, Err)) << Err;
  EXPECT_FALSE(OldBack.HasMeta);

  // The same compatibility in HGB: a minor-0 binary body has NO meta
  // presence byte at all. Craft one by patching the header's minor
  // varint and dropping the presence byte (the header is magic + three
  // single-byte varints + the codec byte; the tiny body stays raw).
  std::string OldBin = renderTelemetry(Old, WireEncoding::Binary);
  ASSERT_GT(OldBin.size(), 9u);
  ASSERT_EQ(static_cast<unsigned char>(OldBin[6]),
            static_cast<unsigned char>(TelemetryFormatMinor));
  ASSERT_EQ(OldBin[7], 0); // raw body codec
  ASSERT_EQ(OldBin[8], 0); // the meta presence byte being dropped
  OldBin[6] = 0;
  OldBin.erase(8, 1);
  TelemetryDoc OldBinBack;
  ASSERT_TRUE(parseTelemetry(OldBin, OldBinBack, Err)) << Err;
  EXPECT_FALSE(OldBinBack.HasMeta);
  EXPECT_EQ(OldBinBack.Metrics.counterValue("c"), 1u);
}

TEST_F(TelemetryTest, TwoSliceSweepTelemetryMergesToSingleRunCounters) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(3);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 4;

  // The single-machine reference sweep.
  Engine(Cfg).run(Cores);
  metrics::Snapshot Single = metrics::snapshot();
  ASSERT_GT(Single.counterValue("engine.runs"), 0u);

  // The same layout split across two shard-range slices, telemetry
  // captured per slice (as two distributed machines would).
  metrics::resetAll();
  EngineConfig SliceA = Cfg;
  SliceA.ShardBegin = 0;
  SliceA.ShardEnd = 1;
  Engine(SliceA).run(Cores);
  metrics::Snapshot A = metrics::snapshot();

  metrics::resetAll();
  EngineConfig SliceB = Cfg;
  SliceB.ShardBegin = 1;
  Engine(SliceB).run(Cores);
  metrics::Snapshot B = metrics::snapshot();

  A.mergeFrom(B);
  for (const char *Name :
       {"engine.runs", "engine.shards_done", "engine.shards_analyzed",
        "engine.shards_cached"})
    EXPECT_EQ(A.counterValue(Name), Single.counterValue(Name)) << Name;
  // Gauge levels are per-slice totals, so the merged sum recovers the
  // single-machine layout width.
  const metrics::GaugeSample *Merged = A.findGauge("engine.shards_total");
  const metrics::GaugeSample *Ref = Single.findGauge("engine.shards_total");
  ASSERT_NE(Merged, nullptr);
  ASSERT_NE(Ref, nullptr);
  EXPECT_EQ(Merged->Value, Ref->Value);
}

//===----------------------------------------------------------------------===//
// The run ledger
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, LedgerEntryRoundTripsByteIdenticallyInBothFormats) {
  LedgerEntry E;
  E.Host = "ci-host";
  E.Timestamp = "2026-08-08T12:34:56Z";
  E.TimestampNanos = 1700000000123456789ull;
  E.Label = "sweep";
  E.ConfigHash = "deadbeef";
  E.WireFormat = "json";
  E.Tier = "confirm";
  E.Jobs = 4;
  E.Samples = 64;
  E.ShardSize = 16;
  E.BatchLanes = 8;
  E.Benchmarks = 3;
  E.Shards = 12;
  E.Runs = 192;
  E.AnalyzedShards = 10;
  E.CachedShards = 2;
  E.ResultCacheHits = 2;
  E.ResultCacheMisses = 10;
  E.LimbHeapAllocs = 17;
  E.LimbCacheHits = 372;
  E.Tier0Runs = 192;
  E.EscalatedRuns = 64;
  E.PoolTasks = 24;
  E.PoolSteals = 3;
  E.WallSeconds = 1.25;
  E.Metrics.Counters = {makeCounter("engine.runs", 192)};

  std::string Json = renderLedgerEntry(E, WireEncoding::Json);
  LedgerEntry Back;
  std::string Err;
  ASSERT_TRUE(parseLedgerEntry(Json, Back, Err)) << Err;
  EXPECT_EQ(renderLedgerEntry(Back, WireEncoding::Json), Json);
  EXPECT_EQ(Back.Host, "ci-host");
  EXPECT_EQ(Back.TimestampNanos, 1700000000123456789ull);
  EXPECT_EQ(Back.EscalatedRuns, 64u);
  EXPECT_EQ(Back.WallSeconds, 1.25);
  EXPECT_EQ(Back.Metrics.counterValue("engine.runs"), 192u);

  std::string Bin = renderLedgerEntry(E, WireEncoding::Binary);
  LedgerEntry BinBack;
  ASSERT_TRUE(parseLedgerEntry(Bin, BinBack, Err)) << Err;
  EXPECT_EQ(renderLedgerEntry(BinBack, WireEncoding::Json), Json);
  EXPECT_EQ(renderLedgerEntry(BinBack, WireEncoding::Binary), Bin);

  // Unknown major versions are rejected in both encodings.
  std::string Needle = format("\"major\":%d", LedgerFormatMajor);
  size_t At = Json.find(Needle);
  ASSERT_NE(At, std::string::npos);
  std::string Bumped = Json;
  Bumped.replace(At, Needle.size(),
                 format("\"major\":%d", LedgerFormatMajor + 1));
  EXPECT_FALSE(parseLedgerEntry(Bumped, Back, Err));
}

TEST_F(TelemetryTest, LedgerAppendListsChronologicallyAndMixesFormats) {
  TempDir Dir("ledger");
  LedgerEntry E1;
  E1.TimestampNanos = 2000;
  E1.Timestamp = "2026-08-08T00:00:02Z";
  E1.Label = "later";
  LedgerEntry E2;
  E2.TimestampNanos = 1000;
  E2.Timestamp = "2026-08-08T00:00:01Z";
  E2.Label = "earlier";

  std::string Path, Err;
  ASSERT_TRUE(ledgerAppend(Dir.Path, E1, Path, Err)) << Err;
  EXPECT_EQ(std::filesystem::path(Path).extension(), ".json");
  // An HGB entry (from an older writer, or converted by json2hgb) lists
  // alongside the JSON ones.
  std::ofstream(Dir.Path + "/entry-1000-1.hgb", std::ios::binary)
      << renderLedgerEntry(E2, WireEncoding::Binary);

  std::vector<LedgerEntry> Entries;
  std::vector<std::string> Paths;
  ASSERT_TRUE(ledgerList(Dir.Path, Entries, Paths, Err)) << Err;
  ASSERT_EQ(Entries.size(), 2u);
  // Sorted by recorded wall-clock time, not by arrival: the binary entry
  // written second sorts first.
  EXPECT_EQ(Entries[0].Label, "earlier");
  EXPECT_EQ(Entries[1].Label, "later");

  // A corrupt entry fails the listing loudly instead of shortening it.
  std::ofstream(Dir.Path + "/entry-9999-1.json") << "{broken";
  EXPECT_FALSE(ledgerList(Dir.Path, Entries, Paths, Err));
}

TEST_F(TelemetryTest, LedgerCompareFlagsEachRegressionAxis) {
  LedgerEntry Base;
  Base.WallSeconds = 10.0;
  Base.ResultCacheHits = 90;
  Base.ResultCacheMisses = 10;
  Base.Runs = 100;
  Base.Tier0Runs = 100;
  Base.EscalatedRuns = 5;
  Base.LimbHeapAllocs = 10000;

  // Within thresholds: nothing flags.
  LedgerEntry Ok = Base;
  Ok.WallSeconds = 11.0;
  Ok.EscalatedRuns = 8;
  Ok.LimbHeapAllocs = 10500;
  EXPECT_TRUE(ledgerCompare(Base, Ok).empty());

  // Each axis breached individually.
  LedgerEntry Slow = Base;
  Slow.WallSeconds = 13.0;
  auto R = ledgerCompare(Base, Slow);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "wall_seconds");

  LedgerEntry ColdCache = Base;
  ColdCache.ResultCacheHits = 70;
  ColdCache.ResultCacheMisses = 30;
  R = ledgerCompare(Base, ColdCache);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "cache_hit_rate");

  LedgerEntry Escalating = Base;
  Escalating.EscalatedRuns = 20;
  R = ledgerCompare(Base, Escalating);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "escalation_fraction");

  LedgerEntry Leaky = Base;
  Leaky.LimbHeapAllocs = 12000;
  R = ledgerCompare(Base, Leaky);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "limb_heap_allocs");

  // The absolute heap slack shields zero-alloc baselines from noise.
  LedgerEntry ZeroBase = Base;
  ZeroBase.LimbHeapAllocs = 0;
  LedgerEntry Noise = ZeroBase;
  Noise.LimbHeapAllocs = 100;
  EXPECT_TRUE(ledgerCompare(ZeroBase, Noise).empty());

  // Untiered sweeps (no tier-0 runs) never judge escalation.
  LedgerEntry UntieredBase = Base;
  UntieredBase.Tier0Runs = 0;
  LedgerEntry UntieredCur = Escalating;
  UntieredCur.Tier0Runs = 0;
  EXPECT_TRUE(ledgerCompare(UntieredBase, UntieredCur).empty());
}

//===----------------------------------------------------------------------===//
// The structured event stream
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, EventStreamWritesParseableLifecycleNdjson) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(2);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 4;

  std::string Plain = Engine(Cfg).run(Cores).renderJson();

  TempDir Dir("events");
  std::string EventsPath = Dir.Path + "/events.ndjson";
  std::string Err;
  ASSERT_TRUE(events::start(EventsPath, Err)) << Err;
  ASSERT_TRUE(events::enabled());
  std::string Streamed = Engine(Cfg).run(Cores).renderJson();
  events::stop();
  EXPECT_FALSE(events::enabled());

  // The stream observes, never steers.
  EXPECT_EQ(Streamed, Plain);

  std::ifstream In(EventsPath);
  ASSERT_TRUE(In.good());
  std::vector<std::string> Types;
  uint64_t ExpectSeq = 0, AnalyzedOrCached = 0, Reduced = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    JsonParseResult R = parseJson(Line);
    ASSERT_TRUE(R.Ok) << Line;
    const JsonValue *Ev = R.Value.field("event");
    const JsonValue *Seq = R.Value.field("seq");
    const JsonValue *Ts = R.Value.field("ts");
    ASSERT_NE(Ev, nullptr);
    ASSERT_NE(Seq, nullptr);
    ASSERT_NE(Ts, nullptr);
    EXPECT_EQ(Seq->asU64(), ExpectSeq++);
    Types.push_back(Ev->Str);
    if (Ev->Str == "shard.analyzed" || Ev->Str == "shard.cache_hit")
      ++AnalyzedOrCached;
    if (Ev->Str == "shard.reduced")
      ++Reduced;
  }
  ASSERT_FALSE(Types.empty());
  EXPECT_EQ(Types.front(), "sweep.begin");
  EXPECT_EQ(Types.back(), "sweep.end");
  // Every shard surfaces its lifecycle: 4 shards queued, analyzed (or
  // cache-hit), and reduced.
  EXPECT_EQ(AnalyzedOrCached, 4u);
  EXPECT_EQ(Reduced, 4u);
  EXPECT_EQ(std::count(Types.begin(), Types.end(), "shard.queued"), 4);

  // stop() is idempotent and emit() after stop is a no-op.
  events::stop();
  events::emit("ignored");
}

TEST_F(TelemetryTest, EventStreamReportsLostWrites) {
  // /dev/full accepts the open and fails every flush: stop() must report
  // the lost events instead of closing as if they were written.
  std::string Err;
  ASSERT_TRUE(events::start("/dev/full", Err)) << Err;
  events::emit("sweep.begin", "\"bench\":0");
  events::emit("sweep.end");
  EXPECT_FALSE(events::stop());
  // The failure belongs to that stream: stopping again reports nothing,
  // and the next stream starts clean.
  EXPECT_TRUE(events::stop());
  TempDir Dir("events-after-full");
  ASSERT_TRUE(events::start(Dir.Path + "/events.ndjson", Err)) << Err;
  events::emit("sweep.begin");
  EXPECT_TRUE(events::stop());
}
