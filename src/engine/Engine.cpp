//===- engine/Engine.cpp - Parallel batch analysis ------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "engine/ResultCache.h"
#include "engine/ThreadPool.h"
#include "fpcore/Corpus.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "support/Events.h"
#include "support/Format.h"
#include "support/LimbAlloc.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Deterministic input sampling
//===----------------------------------------------------------------------===//

/// SplitMix64 step: derives an independent per-benchmark seed so sampling
/// never depends on worker count or sharding.
static uint64_t deriveSeed(uint64_t Base, uint64_t Index) {
  uint64_t Z = Base + (Index + 1) * 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static std::vector<std::vector<double>>
sampleSourceInputs(const std::vector<std::pair<double, double>> &Ranges,
                   int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Sets;
  Sets.reserve(static_cast<size_t>(Count));
  for (int I = 0; I < Count; ++I) {
    std::vector<double> In;
    In.reserve(Ranges.size());
    for (const auto &[Lo, Hi] : Ranges)
      In.push_back(R.betweenOrdinals(Lo, Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

namespace {

/// One pass over a shard. Every tier is a fixed sequence of stages: Full
/// runs Full; Fast runs Escalate; Confirm runs Verdict over every shard,
/// then Full over the benchmarks the verdicts found suspect.
enum class Stage {
  Full,     ///< Every run under the full shadow.
  Verdict,  ///< Tier-0 runs until the first suspect one.
  Escalate, ///< Every run at tier 0; suspect runs replay in full.
};

/// What one stage observed over one shard.
struct ShardOutcome {
  AnalysisResult Records;     ///< Full-shadow records (none for Verdict).
  bool Suspect = false;       ///< Verdict: some tier-0 run was suspect.
  uint64_t Tier0Runs = 0;     ///< Runs whose tier-0 verdict was read.
  uint64_t Tier0Ops = 0;      ///< Shadow ops the tier-0 analyzer executed.
  uint64_t EscalatedRuns = 0; ///< Runs replayed under the full shadow.
};

/// One benchmark the generic sweep driver can run, whatever frontend it
/// executes under: everything the driver needs is a name, a cache
/// identity, sampling ranges, and a way to run a stage over a slice of
/// sampled inputs. The FPCore path wraps a compiled program in
/// worker-local Herbgrind instances; the native path wraps a registered
/// Kernel in worker-local native::Contexts.
struct SweepSource {
  std::string Name;
  std::vector<std::pair<double, double>> Ranges;
  /// Cache/wire identity; computed lazily (FPCore printing is not free)
  /// and only when a result cache or emit directory needs it.
  std::function<std::string()> MakeIdentity;
  /// Runs one stage over sampled inputs [Begin, End); must be callable
  /// concurrently with itself -- across sources AND across shards of one
  /// source (work stealing rebalances affine queues). The worker-local
  /// analyzer cache is the only mutable state it may keep.
  std::function<ShardOutcome(Stage St, uint64_t RunId,
                             const std::vector<std::vector<double>> &Inputs,
                             size_t Begin, size_t End)>
      Analyze;
};

} // namespace

//===----------------------------------------------------------------------===//
// The batch driver
//===----------------------------------------------------------------------===//

Engine::Engine(EngineConfig Config) : Cfg(Config) {
  if (Cfg.Jobs == 0) {
    Cfg.Jobs = std::thread::hardware_concurrency();
    if (Cfg.Jobs == 0)
      Cfg.Jobs = 1;
  }
  // Oversubscription is allowed (useful for testing the pool), but a
  // wild value must not translate into thousands of threads.
  Cfg.Jobs = std::min(Cfg.Jobs, 256u);
  if (Cfg.SamplesPerBenchmark < 1)
    Cfg.SamplesPerBenchmark = 1;
  if (Cfg.ShardSize < 1)
    Cfg.ShardSize = 1;
  if (Cfg.ShardEnd < Cfg.ShardBegin)
    Cfg.ShardEnd = Cfg.ShardBegin;
  if (!Cfg.CacheDir.empty()) {
    RC = std::make_unique<ResultCache>(Cfg.CacheDir, configHash(Cfg));
    // True LRU recency only matters when something will prune by it.
    RC->setTouchOnHit(Cfg.CacheMaxBytes > 0);
  }
  if (!Cfg.EmitShardDir.empty())
    Emit = std::make_unique<ResultCache>(Cfg.EmitShardDir, configHash(Cfg));
}

Engine::~Engine() = default;

namespace {

/// One unit of parallel work: a contiguous slice of one benchmark's
/// sampled inputs, analyzed by a worker-local Herbgrind instance.
struct Shard {
  size_t Bench = 0;
  size_t Index = 0; ///< Shard number within the benchmark (merge order).
  size_t Begin = 0;
  size_t End = 0;
};

/// One benchmark's reduction, the one that sweeps and merges share: shard
/// records fold into a BenchmarkResult in ascending shard order whatever
/// order they arrive in, so the reduction stays deterministic while it
/// overlaps analysis. A shard parks until every earlier shard has folded,
/// and its runs must begin where the previous shard's runs ended. A
/// sweep's own layout always keeps both rules; a merge's documents may
/// not, and the fold then fails naming the benchmark and the shard.
struct ShardFold {
  std::mutex M;
  size_t NextIndex = 0; ///< The shard the fold waits for.
  uint64_t NextRun = 0; ///< Where that shard's runs must begin.
  struct Parked {
    uint64_t RunBegin = 0, RunEnd = 0;
    AnalysisResult Records;
  };
  std::map<size_t, Parked> Pending; ///< Shards that arrived early.

  /// Parks shard \p Index of benchmark \p Bench, which covers runs
  /// [RunBegin, RunEnd), then folds into \p BR every shard that no longer
  /// waits. Fails on a shard that arrived before or whose runs do not
  /// begin where the previous shard's runs ended.
  bool add(BenchmarkResult &BR, size_t Bench, size_t Index, uint64_t RunBegin,
           uint64_t RunEnd, AnalysisResult Records, std::string &Err) {
    std::lock_guard<std::mutex> Lock(M);
    Parked Shard{RunBegin, RunEnd, std::move(Records)};
    if (Index < NextIndex ||
        !Pending.try_emplace(Index, std::move(Shard)).second) {
      Err = format("duplicate shard %zu for benchmark '%s'", Index,
                   BR.Name.c_str());
      return false;
    }
    for (auto It = Pending.find(NextIndex); It != Pending.end();
         It = Pending.find(NextIndex)) {
      Parked &P = It->second;
      if (P.RunBegin != NextRun) {
        Err = format("'%s': shard %zu begins at run %llu, but the runs "
                     "before it end at %llu",
                     BR.Name.c_str(), NextIndex,
                     static_cast<unsigned long long>(P.RunBegin),
                     static_cast<unsigned long long>(NextRun));
        return false;
      }
      if (BR.Shards == 0)
        BR.Records = std::move(P.Records);
      else
        BR.Records.mergeFrom(P.Records);
      ++BR.Shards;
      BR.Runs += P.RunEnd - P.RunBegin;
      NextRun = P.RunEnd;
      Pending.erase(It);
      if (events::enabled())
        events::emit("shard.reduced",
                     format("\"bench\":%zu,\"shard\":%zu", Bench, NextIndex));
      ++NextIndex;
    }
    return true;
  }

  /// After the last add: fails unless every shard folded and the runs
  /// reach \p RunTotal.
  bool complete(const BenchmarkResult &BR, uint64_t RunTotal,
                std::string &Err) const {
    if (Pending.empty() && NextRun == RunTotal)
      return true;
    if (Pending.empty() && NextRun > RunTotal)
      Err = format("'%s' has runs up to %llu, past its %llu runs",
                   BR.Name.c_str(), static_cast<unsigned long long>(NextRun),
                   static_cast<unsigned long long>(RunTotal));
    else
      Err = format("'%s' is missing shard %zu (runs %llu to %llu)",
                   BR.Name.c_str(), NextIndex,
                   static_cast<unsigned long long>(NextRun),
                   static_cast<unsigned long long>(
                       Pending.empty() ? RunTotal
                                       : Pending.begin()->second.RunBegin));
    return false;
  }
};

} // namespace

/// Builds every benchmark's report from its folded records and totals the
/// sweep's statistics: the last step of a sweep and of a merge alike.
static void buildReports(BatchResult &Out) {
  for (BenchmarkResult &BR : Out.Benchmarks) {
    BR.Rep = buildReport(BR.Records);
    Out.Stats.Shards += BR.Shards;
    Out.Stats.Runs += BR.Runs;
  }
  Out.Stats.Benchmarks = Out.Benchmarks.size();
}

/// Monotonic id per Engine::run call; guards the worker-local analyzer
/// cache against ever comparing a recycled Program address across runs.
static std::atomic<uint64_t> GlobalRunCounter{0};

/// The frontend-agnostic sweep driver: everything the engine promises --
/// deterministic sharding and sampling, result-cache satisfaction,
/// emit-shard documents, streaming in-order reduction, post-run cache GC
/// -- lives here once, shared by the FPCore and native entry points.
/// \p Emit, when non-null, is the emit directory's write-only cache.
static BatchResult runSweepImpl(const EngineConfig &Cfg, ResultCache *RC,
                                ResultCache *Emit,
                                const std::vector<SweepSource> &Sources) {
  auto Start = std::chrono::steady_clock::now();
  const uint64_t RunId = GlobalRunCounter.fetch_add(1) + 1;

  // Telemetry handles (registration is idempotent; see docs/TELEMETRY.md
  // for the metric taxonomy). All of it observes -- nothing below feeds
  // back into analysis or report content.
  static metrics::Counter MShardsDone = metrics::counter("engine.shards_done");
  static metrics::Counter MShardsAnalyzed =
      metrics::counter("engine.shards_analyzed");
  static metrics::Counter MShardsCached =
      metrics::counter("engine.shards_cached");
  static metrics::Counter MRuns = metrics::counter("engine.runs");
  static metrics::Counter MLimbHeap = metrics::counter("limb.heap_allocs");
  static metrics::Counter MLimbHits = metrics::counter("limb.cache_hits");
  static metrics::Counter MTier0Runs = metrics::counter("tier0.runs");
  static metrics::Counter MTier0Ops = metrics::counter("tier0.ops");
  static metrics::Counter MTierEscalations =
      metrics::counter("tier.escalations");
  static metrics::Counter MTierConfirmations =
      metrics::counter("tier.confirmations");
  static metrics::Timer TProbe = metrics::timer("engine.shard_cache_probe_ns");
  static metrics::Timer TAnalyze = metrics::timer("engine.shard_analyze_ns");
  static metrics::Timer TReduce = metrics::timer("engine.shard_reduce_ns");
  static metrics::Timer TRun = metrics::timer("engine.run_ns");
  trace::Span RunSpan("engine.run", "engine", TRun);

  // Phase 1 (serial, cheap): sample every benchmark's inputs up front and
  // lay out the shard list. Both depend only on the configuration: the
  // layout covers the full sample range even when only a shard-index
  // slice of it executes, so distributed slices stay merge-compatible.
  std::vector<std::vector<std::vector<double>>> Inputs(Sources.size());
  std::vector<uint64_t> Seeds(Sources.size());
  std::vector<std::string> Identities(Sources.size());
  std::vector<Shard> Shards;
  for (size_t B = 0; B < Sources.size(); ++B) {
    Seeds[B] = deriveSeed(Cfg.Seed, B);
    Inputs[B] = sampleSourceInputs(Sources[B].Ranges,
                                   Cfg.SamplesPerBenchmark, Seeds[B]);
    // Source identities (printed FPCores, kernel identity strings) feed
    // only result-cache keys.
    if (RC)
      Identities[B] = Sources[B].MakeIdentity();
    size_t N = Inputs[B].size();
    size_t Step = static_cast<size_t>(Cfg.ShardSize);
    for (size_t Lo = 0, Idx = 0; Lo < N; Lo += Step, ++Idx)
      if (Idx >= Cfg.ShardBegin && Idx < Cfg.ShardEnd)
        Shards.push_back({B, Idx, Lo, std::min(Lo + Step, N)});
  }

  metrics::gauge("engine.benchmarks").set(static_cast<int64_t>(Sources.size()));
  metrics::gauge("engine.shards_total").set(static_cast<int64_t>(Shards.size()));

  if (events::enabled()) {
    size_t SliceRuns = 0;
    for (const Shard &Sh : Shards)
      SliceRuns += Sh.End - Sh.Begin;
    events::emit(
        "sweep.begin",
        format("\"benchmarks\":%zu,\"shards\":%zu,\"runs\":%zu,\"jobs\":%u,"
               "\"tier\":\"%s\"",
               Sources.size(), Shards.size(), SliceRuns, Cfg.Jobs,
               tierModeName(Cfg.Tier)));
  }

  BatchResult Out;
  Out.Benchmarks.resize(Sources.size());
  std::vector<ShardFold> Folds(Sources.size());
  for (size_t B = 0; B < Sources.size(); ++B) {
    Out.Benchmarks[B].Name = Sources[B].Name;
    Out.Benchmarks[B].Records.Ranges = Cfg.Analysis.Ranges;
    Out.Benchmarks[B].Records.EquivDepth = Cfg.Analysis.EquivDepth;
    // Executed shard indices per benchmark are a contiguous slice, so the
    // streaming fold starts at the slice's first shard.
    Folds[B].NextIndex = Cfg.ShardBegin;
    Folds[B].NextRun = Cfg.ShardBegin * static_cast<uint64_t>(Cfg.ShardSize);
  }

  // Every stage's outcome reaches the sweep statistics, the metrics
  // counters and the event stream here, whichever tier produced it.
  std::atomic<uint64_t> Tier0Runs{0}, Tier0Ops{0}, EscalatedRuns{0};
  auto Account = [&](const ShardOutcome &O, const std::string &Fields) {
    Tier0Runs += O.Tier0Runs;
    Tier0Ops += O.Tier0Ops;
    EscalatedRuns += O.EscalatedRuns;
    MTier0Runs.add(O.Tier0Runs);
    MTier0Ops.add(O.Tier0Ops);
    MTierEscalations.add(O.EscalatedRuns);
    if (O.EscalatedRuns > 0 && events::enabled())
      events::emit("shard.escalated",
                   Fields + format(",\"escalated\":%llu",
                                   static_cast<unsigned long long>(
                                       O.EscalatedRuns)));
  };

  // Per benchmark: does it need the full shadow? Outside Confirm tier
  // every benchmark does; in Confirm tier phase 2a decides.
  std::vector<std::atomic<char>> Suspect(Sources.size());
  for (std::atomic<char> &S : Suspect)
    S.store(Cfg.Tier != TierMode::Confirm, std::memory_order_relaxed);
  std::atomic<uint64_t> Analyzed{0}, Cached{0};
  std::atomic<uint64_t> LimbHeap{0}, LimbHits{0};
  const uint64_t RcHits0 = RC ? RC->hits() : 0;
  const uint64_t RcMisses0 = RC ? RC->misses() : 0;
  const uint64_t RcStoreFail0 = RC ? RC->storeFailures() : 0;
  const uint64_t EmitFail0 = Emit ? Emit->storeFailures() : 0;
  {
    // One pool serves every phase of the sweep. Benchmark-affine
    // placement lands a benchmark's shards on one worker (stealing still
    // rebalances), so the worker-local analyzers behind Analyze actually
    // get reused across them at any jobs count. The pool is joined -- and
    // the worker-local analyzers die with its threads -- before the
    // reports are built.
    ThreadPool Pool(Cfg.Jobs);

    // Phase 2a (Confirm tier only): a Verdict stage over every shard
    // decides per benchmark whether the full shadow is needed at all.
    // Tier 0 is pure native-double arithmetic -- no BigFloat, no traces
    // -- so running it over the whole layout costs a small fraction of
    // one full shard. Predicate soundness (an erroneous full-mode spot
    // implies a suspect tier-0 run) is what lets a clean verdict skip
    // phase 2b's analysis for the benchmark without changing the report.
    // One task per benchmark with a shard in the slice walks the
    // benchmark's whole layout, not just the slice, so every slice of a
    // sliced sweep reaches the direct sweep's verdict. It walks the shards
    // in ascending order and stops after the first suspect one: the rest
    // are skipped, not run for show, and which ones ran -- hence the tier-0
    // counts -- does not depend on worker scheduling.
    if (Cfg.Tier == TierMode::Confirm) {
      trace::Span Tier0Span("engine.tier0", "engine");
      const size_t Step = static_cast<size_t>(Cfg.ShardSize);
      for (size_t S = 0; S < Shards.size(); ++S) {
        const size_t B = Shards[S].Bench;
        if (S > 0 && Shards[S - 1].Bench == B)
          continue;
        Pool.submitTo(B, [&, B] {
          for (size_t Lo = 0, N = Inputs[B].size(); Lo < N; Lo += Step) {
            ShardOutcome O = Sources[B].Analyze(Stage::Verdict, RunId,
                                                Inputs[B], Lo,
                                                std::min(Lo + Step, N));
            Account(O, std::string());
            if (O.Suspect) {
              Suspect[B].store(1, std::memory_order_relaxed);
              return;
            }
          }
        });
      }
      Pool.waitAll();
    }

    // Phase 2b: every shard is satisfied from the result cache or
    // analyzed by its source's frontend, then folded into its benchmark's
    // accumulator in ascending shard order. The fold happens on whichever
    // worker completes the gap shard, overlapping reduce with analyze;
    // only out-of-order completions buffer. In Confirm tier, benchmarks
    // cleared by phase 2a fold empty records -- their full-shadow report
    // is empty too, so the rendered output is unchanged -- and skip the
    // cache in both directions (an empty record set must never
    // masquerade as a full one under the shared hash).
    const Stage Main = Cfg.Tier == TierMode::Fast ? Stage::Escalate
                                                  : Stage::Full;
    for (size_t S = 0; S < Shards.size(); ++S) {
      // Rendered once: span args and every event of the shard share them.
      std::string Fields =
          trace::enabled() || events::enabled()
              ? format("\"bench\":%zu,\"shard\":%zu,\"runs\":%zu",
                       Shards[S].Bench, Shards[S].Index,
                       Shards[S].End - Shards[S].Begin)
              : std::string();
      if (events::enabled())
        events::emit("shard.queued", Fields);
      Pool.submitTo(Shards[S].Bench, [&, S, Fields = std::move(Fields)] {
        const Shard &Sh = Shards[S];
        const bool Cleared = !Suspect[Sh.Bench].load(std::memory_order_relaxed);
        const std::string SpanArgs =
            trace::enabled() ? "{" + Fields + "}" : std::string();
        ResultCache::ShardKey Key{
            RC && !Cleared ? Identities[Sh.Bench] : std::string(),
            Seeds[Sh.Bench], Sh.Bench, Sh.Index, Sh.Begin, Sh.End,
            Inputs[Sh.Bench].size()};

        // A cleared benchmark's shard gets no probe, no analysis and no
        // cache store: its records stay empty, so the layout's shard/run
        // accounting (and the emitted document set) stays complete.
        ShardOutcome O;
        bool FromCache = false;
        if (RC && !Cleared) {
          trace::Span ProbeSpan("shard.cache_probe", "engine", TProbe,
                                SpanArgs);
          FromCache = RC->lookup(Key, O.Records);
        }
        if (FromCache) {
          ++Cached;
          MShardsCached.add(1);
          if (events::enabled())
            events::emit("shard.cache_hit", Fields);
        } else if (!Cleared) {
          // Limb-traffic deltas bracket the analysis on this worker
          // thread (the counters are thread-local), so the sum over
          // shards is the sweep's total allocator activity.
          uint64_t Heap0 = limballoc::heapAllocs();
          uint64_t Hits0 = limballoc::cacheHits();
          {
            trace::Span AnalyzeSpan("shard.analyze", "engine", TAnalyze,
                                    SpanArgs);
            O = Sources[Sh.Bench].Analyze(Main, RunId, Inputs[Sh.Bench],
                                          Sh.Begin, Sh.End);
          }
          // Every run of a confirmed benchmark replays under the full
          // shadow: that is the Confirm tier's escalation cost.
          if (Cfg.Tier == TierMode::Confirm)
            O.EscalatedRuns = Sh.End - Sh.Begin;
          Account(O, Fields);
          uint64_t HeapD = limballoc::heapAllocs() - Heap0;
          uint64_t HitsD = limballoc::cacheHits() - Hits0;
          LimbHeap += HeapD;
          LimbHits += HitsD;
          MLimbHeap.add(HeapD);
          MLimbHits.add(HitsD);
          ++Analyzed;
          MShardsAnalyzed.add(1);
          if (events::enabled())
            events::emit("shard.analyzed", Fields);
          if (RC)
            RC->store(Key, Sources[Sh.Bench].Name, O.Records);
        }
        MShardsDone.add(1);
        MRuns.add(Sh.End - Sh.Begin);
        if (Emit) {
          // Emitted keys carry no identity (ResultCache.h).
          Key.CoreIdentity.clear();
          Emit->store(Key, Sources[Sh.Bench].Name, O.Records);
        }

        trace::Span ReduceSpan("shard.reduce", "engine", TReduce, SpanArgs);
        std::string Err;
        bool Folded = Folds[Sh.Bench].add(Out.Benchmarks[Sh.Bench], Sh.Bench,
                                          Sh.Index, Sh.Begin, Sh.End,
                                          std::move(O.Records), Err);
        assert(Folded && "a sweep's own layout has no gaps");
        (void)Folded;
      });
    }
    Pool.waitAll();
    ThreadPool::PoolStats PS = Pool.stats();
    Out.Stats.PoolTasks = PS.Executed;
    Out.Stats.PoolSteals = PS.Steals;
    Out.Stats.PoolMaxQueueDepth = PS.MaxQueueDepth;
    metrics::counter("pool.tasks_submitted").add(PS.Submitted);
    metrics::counter("pool.tasks_executed").add(PS.Executed);
    metrics::counter("pool.steals").add(PS.Steals);
    metrics::gauge("pool.max_queue_depth")
        .set(static_cast<int64_t>(PS.MaxQueueDepth));
    metrics::gauge("pool.workers").set(static_cast<int64_t>(Pool.workers()));
  }

  // Phase 3 (serial, cheap): build the per-benchmark reports from the
  // merged records and collect the statistics.
  buildReports(Out);
  Out.Stats.AnalyzedShards = Analyzed.load();
  Out.Stats.CachedShards = Cached.load();
  Out.Stats.LimbHeapAllocs = LimbHeap.load();
  Out.Stats.LimbCacheHits = LimbHits.load();
  Out.Stats.Tier0Runs = Tier0Runs.load();
  Out.Stats.Tier0Ops = Tier0Ops.load();
  Out.Stats.EscalatedRuns = EscalatedRuns.load();
  if (Cfg.Tier == TierMode::Confirm) {
    for (const std::atomic<char> &S : Suspect)
      Out.Stats.ConfirmedBenchmarks += S.load(std::memory_order_relaxed);
    MTierConfirmations.add(Out.Stats.ConfirmedBenchmarks);
  }
  if (RC) {
    // The sweep's stores become one segment, renamed into place before
    // the store failures are read and before any GC sees the directory.
    {
      trace::Span FlushSpan("engine.cache_flush", "engine");
      RC->flush();
    }
    Out.Stats.ResultCacheHits = RC->hits() - RcHits0;
    Out.Stats.ResultCacheMisses = RC->misses() - RcMisses0;
    Out.Stats.ResultCacheStoreFailures = RC->storeFailures() - RcStoreFail0;
    metrics::counter("rcache.hits").add(Out.Stats.ResultCacheHits);
    metrics::counter("rcache.misses").add(Out.Stats.ResultCacheMisses);
    metrics::counter("rcache.store_failures")
        .add(Out.Stats.ResultCacheStoreFailures);
  }
  if (Emit) {
    Emit->flush();
    Out.Stats.EmitFailures = Emit->storeFailures() - EmitFail0;
  }
  if (RC && Cfg.CacheMaxBytes > 0) {
    // Post-run LRU pruning keeps the result cache under its cap; a
    // failure never fails the sweep (the cache is an accelerator, not
    // load-bearing) but is reported so an unenforced cap is visible.
    CacheGcStats Gc;
    std::string GcErr;
    if (RC->gc(Cfg.CacheMaxBytes, Gc, GcErr)) {
      Out.Stats.CachePrunedEntries = Gc.PrunedEntries;
      Out.Stats.CachePrunedBytes = Gc.PrunedBytes;
    } else {
      Out.Stats.CacheGcError = std::move(GcErr);
    }
  }
  Out.Stats.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (events::enabled())
    events::emit(
        "sweep.end",
        format("\"benchmarks\":%llu,\"shards\":%llu,\"runs\":%llu,"
               "\"analyzed\":%llu,\"cached\":%llu,\"escalated\":%llu,"
               "\"wallSeconds\":%s",
               static_cast<unsigned long long>(Out.Stats.Benchmarks),
               static_cast<unsigned long long>(Out.Stats.Shards),
               static_cast<unsigned long long>(Out.Stats.Runs),
               static_cast<unsigned long long>(Out.Stats.AnalyzedShards),
               static_cast<unsigned long long>(Out.Stats.CachedShards),
               static_cast<unsigned long long>(Out.Stats.EscalatedRuns),
               formatDoubleShortest(Out.Stats.WallSeconds).c_str()));
  return Out;
}

//===----------------------------------------------------------------------===//
// The shard path
//===----------------------------------------------------------------------===//

/// \name Frontend adapters
/// How each frontend builds an analyzer for its subject (a compiled
/// program or a native kernel) and runs one input tuple through it.
/// @{
static std::unique_ptr<Herbgrind> makeAnalyzer(const Program &P,
                                               const AnalysisConfig &Cfg) {
  return std::make_unique<Herbgrind>(P, Cfg);
}
static std::unique_ptr<native::Context>
makeAnalyzer(const native::Kernel &, const AnalysisConfig &Cfg) {
  return std::make_unique<native::Context>(Cfg);
}
static void runOne(Herbgrind &HG, const Program &,
                   const std::vector<double> &In) {
  HG.runOnInput(In);
}
static void runOne(native::Context &C, const native::Kernel &K,
                   const std::vector<double> &In) {
  C.run(K, In);
}
/// @}

/// Runs stage \p St over sampled inputs [Begin, End) of \p Sub: the one
/// shard path of both frontends and every tier.
///
/// A worker-local cache holds a full and a tier-0 analyzer for the
/// (run, benchmark) the worker last served; each is built the first time
/// a stage needs it. Consecutive shards of the same benchmark on one
/// worker recycle them -- trace arena, shadow-value pool, interned
/// influence sets, and per-thread limb scratch all stay warm -- instead
/// of rebuilding the arenas per shard. reset() restores the exact
/// fresh-instance records contract, so reports stay byte-identical at any
/// worker count (the selftest checks this). The benchmark's address is
/// its identity, only meaningful within one run() (ProgramCache never
/// evicts during it, and caller-owned kernel vectors outlive it); the
/// RunId makes a recycled address harmless even if worker threads ever
/// outlive a run. There is one such cache per analyzer type.
///
/// One loop runs every stage, one input tuple per step. Tier 0, when the
/// stage has it, leads each step: Verdict stops at the first suspect run,
/// Escalate replays each suspect run under the full shadow.
template <typename Subject>
static ShardOutcome
analyzeStage(const Subject &Sub, const AnalysisConfig &Cfg, Stage St,
             uint64_t RunId,
             const std::vector<std::vector<double>> &Inputs, size_t Begin,
             size_t End) {
  using Frontend = typename decltype(makeAnalyzer(Sub, Cfg))::element_type;
  struct Worker {
    uint64_t Run = 0;
    const void *Key = nullptr;
    std::unique_ptr<Frontend> Full, Tier0;
  };
  thread_local Worker W;
  if (W.Run != RunId || W.Key != &Sub) {
    W.Full.reset();
    W.Tier0.reset();
    W.Run = RunId;
    W.Key = &Sub;
  }
  auto Ready = [&](std::unique_ptr<Frontend> &A, bool Predicate) -> Frontend & {
    if (A) {
      A->reset();
    } else {
      AnalysisConfig C = Cfg;
      C.PredicateOnly |= Predicate;
      A = makeAnalyzer(Sub, C);
    }
    return *A;
  };
  Frontend *Tier0 = St == Stage::Full ? nullptr : &Ready(W.Tier0, true);
  Frontend *Full = St == Stage::Verdict ? nullptr : &Ready(W.Full, false);
  Frontend &Lead = Tier0 ? *Tier0 : *Full;

  ShardOutcome Out;
  const uint64_t Ops0 = Tier0 ? Tier0->stats().ShadowOpsExecuted : 0;
  for (size_t I = Begin; I < End; ++I) {
    runOne(Lead, Sub, Inputs[I]);
    if (!Tier0)
      continue;
    ++Out.Tier0Runs;
    if (!Tier0->lastRunSuspect())
      continue;
    if (St == Stage::Verdict) {
      Out.Suspect = true; // One suspect run settles the shard's verdict.
      break;
    }
    runOne(*Full, Sub, Inputs[I]);
    ++Out.EscalatedRuns;
  }
  if (Tier0)
    Out.Tier0Ops = Tier0->stats().ShadowOpsExecuted - Ops0;
  if (Full)
    Out.Records = Full->snapshot();
  return Out;
}

/// Wraps one FPCore core as a sweep source: stages run worker-local
/// Herbgrind instances over the compiled program.
static SweepSource coreSource(const fpcore::Core &C,
                              fpcore::ProgramCache &Cache,
                              const AnalysisConfig &ACfg) {
  SweepSource Src;
  Src.Name = C.Name;
  for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
    Src.Ranges.push_back({VR.Lo, VR.Hi});
  Src.MakeIdentity = [&C] { return C.print(); };
  Src.Analyze = [&C, &Cache, &ACfg](
                    Stage St, uint64_t RunId,
                    const std::vector<std::vector<double>> &Inputs,
                    size_t Begin, size_t End) {
    return analyzeStage(Cache.get(C), ACfg, St, RunId, Inputs, Begin, End);
  };
  return Src;
}

/// Wraps one native kernel as a sweep source: stages run the kernel's
/// actual C++ code under worker-local native::Contexts. The contexts'
/// content-hashed op identities are what keep this mergeable and
/// cacheable exactly like the interpreter path.
static SweepSource kernelSource(const native::Kernel &K,
                                const AnalysisConfig &ACfg) {
  SweepSource Src;
  Src.Name = K.Name;
  for (const native::Kernel::InputRange &R : K.Inputs)
    Src.Ranges.push_back({R.Lo, R.Hi});
  Src.MakeIdentity = [&K] { return K.identity(); };
  Src.Analyze = [&K, &ACfg](
                    Stage St, uint64_t RunId,
                    const std::vector<std::vector<double>> &Inputs,
                    size_t Begin, size_t End) {
    return analyzeStage(K, ACfg, St, RunId, Inputs, Begin, End);
  };
  return Src;
}

BatchResult Engine::run(const std::vector<fpcore::Core> &Cores) {
  return run(Cores, {});
}

BatchResult Engine::run(const std::vector<native::Kernel> &Kernels) {
  return run({}, Kernels);
}

BatchResult Engine::run(const std::vector<fpcore::Core> &Cores,
                        const std::vector<native::Kernel> &Kernels) {
  size_t CacheHits0 = Cache.hits(), CacheMisses0 = Cache.misses();
  std::vector<SweepSource> Sources;
  Sources.reserve(Cores.size() + Kernels.size());
  for (const fpcore::Core &C : Cores)
    Sources.push_back(coreSource(C, Cache, Cfg.Analysis));
  for (const native::Kernel &K : Kernels)
    Sources.push_back(kernelSource(K, Cfg.Analysis));
  BatchResult Out = runSweepImpl(Cfg, RC.get(), Emit.get(), Sources);
  Out.Stats.CacheHits = Cache.hits() - CacheHits0;
  Out.Stats.CacheMisses = Cache.misses() - CacheMisses0;
  return Out;
}

BatchResult Engine::runCorpus() { return run(fpcore::compilableCorpus()); }

//===----------------------------------------------------------------------===//
// Batch output
//===----------------------------------------------------------------------===//

std::string BatchResult::renderJson() const {
  return renderWire(WireEncoding::Json);
}

std::string BatchResult::renderWire(WireEncoding Enc) const {
  std::vector<BatchReportEntryRef> Entries;
  Entries.reserve(Benchmarks.size());
  for (const BenchmarkResult &BR : Benchmarks)
    Entries.push_back({BR.Name, BR.Shards, BR.Runs, BR.Rep});
  return renderBatchReport(Entries, Enc);
}

//===----------------------------------------------------------------------===//
// Merging emitted shard documents (the distributed workflow)
//===----------------------------------------------------------------------===//

bool herbgrind::engine::mergeShards(std::vector<ShardDoc> Docs,
                                    BatchResult &Out, std::string &Err) {
  if (Docs.empty()) {
    Err = "no shard documents to merge";
    return false;
  }
  struct Bench {
    BenchmarkResult BR;
    ShardFold Fold;
    uint64_t RunTotal = 0;
  };
  std::map<uint64_t, Bench> Benches;
  for (ShardDoc &D : Docs) {
    if (D.ConfigHash != Docs.front().ConfigHash) {
      Err = format("config hash mismatch: shard %llu of '%s' has %s, "
                   "expected %s (shards from different sweep "
                   "configurations cannot merge)",
                   static_cast<unsigned long long>(D.ShardIndex),
                   D.Benchmark.c_str(), D.ConfigHash.c_str(),
                   Docs.front().ConfigHash.c_str());
      return false;
    }
    if (D.RunTotal == 0) {
      Err = format("shard %llu of '%s' has no run total (shard format "
                   "1.1); emit it again to merge it",
                   static_cast<unsigned long long>(D.ShardIndex),
                   D.Benchmark.c_str());
      return false;
    }
    auto [It, New] = Benches.try_emplace(D.BenchIndex);
    Bench &B = It->second;
    if (New) {
      B.BR.Name = D.Benchmark;
      B.RunTotal = D.RunTotal;
    } else if (D.Benchmark != B.BR.Name) {
      Err = format("benchmark index %llu names both '%s' and '%s'",
                   static_cast<unsigned long long>(D.BenchIndex),
                   B.BR.Name.c_str(), D.Benchmark.c_str());
      return false;
    }
    if (!B.Fold.add(B.BR, D.BenchIndex, D.ShardIndex, D.RunBegin, D.RunEnd,
                    std::move(D.Result), Err))
      return false;
  }
  for (auto &[Index, B] : Benches) {
    if (!B.Fold.complete(B.BR, B.RunTotal, Err))
      return false;
    Out.Benchmarks.push_back(std::move(B.BR));
  }
  buildReports(Out);
  return true;
}

bool herbgrind::engine::readSegmentShards(const std::vector<std::string> &Paths,
                                          std::vector<ShardDoc> &Docs,
                                          std::string &Err) {
  std::set<std::pair<uint64_t, std::string>> Taken;
  for (const std::string &Path : Paths) {
    std::vector<SegmentEntry> Entries;
    if (!readSegment(Path, Entries, Err))
      return false;
    for (SegmentEntry &E : Entries) {
      auto [It, New] = Taken.emplace(E.Key, std::move(E.Doc));
      if (!New)
        continue;
      ShardDoc Doc;
      if (!parseShard(It->second, Doc, Err)) {
        Err = Path + ": " + Err;
        return false;
      }
      Docs.push_back(std::move(Doc));
    }
  }
  return true;
}
