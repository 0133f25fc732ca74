//===- improve/BatchImprove.cpp - Corpus-wide repair pass -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "improve/BatchImprove.h"

#include "engine/ResultCache.h"
#include "engine/ThreadPool.h"
#include "inputs/InputSummary.h"
#include "support/Events.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <set>

using namespace herbgrind;
using namespace herbgrind::improve;

std::string improve::improveConfigHash(const ImproveConfig &Cfg) {
  // A canonical description of every knob that can change an outcome;
  // doubles print shortest-round-trip so distinct values never collapse.
  // It doubles as the validation string stored in improve documents, so
  // readability beats opacity.
  return format("improve-v1|samples=%d|prec=%zu|seed=%llu|minImp=%s|sig=%s|"
                "rounds=%d",
                Cfg.SampleCount, Cfg.PrecBits,
                static_cast<unsigned long long>(Cfg.Seed),
                formatDoubleShortest(Cfg.MinImprovementBits).c_str(),
                formatDoubleShortest(Cfg.SignificantErrorBits).c_str(),
                Cfg.MaxRounds);
}

std::string improve::specIdentity(const std::vector<SampleSpec> &Specs) {
  std::string Out;
  for (const SampleSpec &S : Specs) {
    if (!Out.empty())
      Out += ";";
    for (const auto &[Lo, Hi] : S.Intervals)
      Out += format("[%s,%s]", formatDoubleShortest(Lo).c_str(),
                    formatDoubleShortest(Hi).c_str());
  }
  return Out;
}

namespace {

/// One unit of parallel work: improve one root-cause record. Slot is the
/// record's position in its benchmark's (pc-ascending) result vector, so
/// completion order never matters.
struct RepairTask {
  size_t Bench = 0;
  uint32_t PC = 0;
  size_t Slot = 0;
};

} // namespace

BatchImproveStats improve::batchImprove(engine::BatchResult &Batch,
                                        const BatchImproveConfig &Cfg,
                                        engine::ResultCache *Cache) {
  auto Start = std::chrono::steady_clock::now();
  BatchImproveStats Stats;

  static metrics::Counter MAnalyzed =
      metrics::counter("improve.records_analyzed");
  static metrics::Counter MCached = metrics::counter("improve.records_cached");
  static metrics::Timer TRecord = metrics::timer("improve.record_ns");
  static metrics::Timer TBatch = metrics::timer("improve.batch_ns");
  trace::Span BatchSpan("improve.batch", "improve", TBatch);

  // Phase 1 (serial, cheap): enumerate the qualifying records -- every
  // distinct root cause the report presents whose merged OpRecord still
  // carries a symbolic expression -- in deterministic identity order
  // (benchmark order, ascending pc).
  std::vector<RepairTask> Tasks;
  std::vector<std::vector<ImproveRecord>> Results(Batch.Benchmarks.size());
  for (size_t B = 0; B < Batch.Benchmarks.size(); ++B) {
    const engine::BenchmarkResult &BR = Batch.Benchmarks[B];
    std::set<uint32_t> PCs;
    for (const RootCauseReport &RC : BR.Rep.allRootCauses()) {
      auto It = BR.Records.Ops.find(RC.PC);
      if (It != BR.Records.Ops.end() && It->second.Expr)
        PCs.insert(RC.PC);
    }
    Results[B].resize(PCs.size());
    size_t Slot = 0;
    for (uint32_t PC : PCs)
      Tasks.push_back({B, PC, Slot++});
    if (!PCs.empty())
      ++Stats.Benchmarks;
  }
  Stats.Candidates = Tasks.size();

  // Phase 2 (parallel): each record's improver run is independent and
  // fully determined by (expression, specs, improver config), so workers
  // just fill their task's slot; no reduction order to maintain.
  std::atomic<uint64_t> Analyzed{0}, Cached{0};
  const uint64_t StoreFail0 = Cache ? Cache->storeFailures() : 0;
  {
    unsigned Jobs = Cfg.Jobs;
    if (Jobs == 0) {
      Jobs = std::thread::hardware_concurrency();
      if (Jobs == 0)
        Jobs = 1;
    }
    Jobs = std::min(Jobs, 256u);
    std::string ImproveHash = improveConfigHash(Cfg.Improve);
    engine::ThreadPool Pool(Jobs);
    for (const RepairTask &T : Tasks) {
      Pool.submit([&Batch, &Results, &Cfg, &ImproveHash, &Analyzed, &Cached,
                   Cache, T] {
        const engine::BenchmarkResult &BR = Batch.Benchmarks[T.Bench];
        trace::Span RecordSpan(
            "improve.record", "improve", TRecord,
            trace::enabled()
                ? format("{\"bench\":%zu,\"pc\":%u}", T.Bench, T.PC)
                : std::string());
        const OpRecord &Rec = BR.Records.Ops.at(T.PC);
        fpcore::ExprPtr Frag = fromSymExpr(*Rec.Expr);
        uint32_t NumVars = Rec.Expr->numVars();
        // Sample from the problematic-input characteristics when the
        // analysis recorded any (Section 4.4): that focuses the improver
        // on the regime that actually misbehaves.
        const InputCharacteristics &Chars = Rec.ProblematicInputs.Vars.empty()
                                                ? Rec.TotalInputs
                                                : Rec.ProblematicInputs;
        std::vector<SampleSpec> Specs =
            specsFromCharacteristics(Chars, NumVars, BR.Records.Ranges);

        std::string Printed = Frag->print();
        ImproveRecord IR;
        engine::ResultCache::ImproveKey Key;
        if (Cache) {
          Key.ExprIdentity = Printed;
          Key.SpecIdentity = specIdentity(Specs);
          Key.ImproveHash = ImproveHash;
        }
        if (Cache && Cache->lookupImprove(Key, IR)) {
          ++Cached;
          MCached.add(1);
        } else {
          std::vector<std::string> Params;
          for (uint32_t V = 0; V < NumVars; ++V)
            Params.push_back(SymExpr::varName(V));
          ImproveResult Fix =
              improveExpr(*Frag, Params, Specs, Cfg.Improve);
          IR.Original = std::move(Printed);
          IR.Rewritten = Fix.Improved && Fix.Best ? Fix.Best->print() : "";
          IR.ErrorBefore = Fix.ErrorBefore;
          IR.ErrorAfter = Fix.ErrorAfter;
          IR.HadSignificantError = Fix.HadSignificantError;
          IR.Improved = Fix.Improved;
          ++Analyzed;
          MAnalyzed.add(1);
          if (Cache)
            Cache->storeImprove(Key, IR);
        }
        IR.PC = T.PC; // identity is the caller's, never the cache's
        if (events::enabled())
          events::emit("improve.record_done",
                       format("\"bench\":%zu,\"pc\":%u,\"improved\":%s",
                              T.Bench, T.PC, IR.Improved ? "true" : "false"));
        Results[T.Bench][T.Slot] = std::move(IR);
      });
    }
    Pool.waitAll();
    engine::ThreadPool::PoolStats PS = Pool.stats();
    metrics::counter("pool.tasks_submitted").add(PS.Submitted);
    metrics::counter("pool.tasks_executed").add(PS.Executed);
    metrics::counter("pool.steals").add(PS.Steals);
    metrics::gauge("pool.max_queue_depth")
        .set(static_cast<int64_t>(PS.MaxQueueDepth));
  }

  // Phase 3 (serial, cheap): attach the outcomes -- already in ascending
  // pc order by construction -- and collect statistics.
  for (size_t B = 0; B < Batch.Benchmarks.size(); ++B) {
    for (const ImproveRecord &IR : Results[B]) {
      Stats.Significant += IR.HadSignificantError ? 1 : 0;
      Stats.Improved += IR.Improved ? 1 : 0;
    }
    Batch.Benchmarks[B].Rep.Improvements = std::move(Results[B]);
  }
  Stats.AnalyzedRecords = Analyzed.load();
  Stats.CachedRecords = Cached.load();
  if (Cache) {
    Stats.StoreFailures = Cache->storeFailures() - StoreFail0;
    metrics::counter("rcache.store_failures").add(Stats.StoreFailures);
  }
  Stats.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Stats;
}
