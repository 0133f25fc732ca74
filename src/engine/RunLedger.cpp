//===- engine/RunLedger.cpp - Persistent sweep run ledger -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "engine/RunLedger.h"

#include "engine/ResultCache.h"
#include "support/Format.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <system_error>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

using namespace herbgrind;
using namespace herbgrind::engine;

namespace fs = std::filesystem;

std::string herbgrind::engine::hostName() {
#if defined(_WIN32)
  const char *Env = std::getenv("COMPUTERNAME");
  return Env && *Env ? Env : "unknown";
#else
  char Buf[256] = {};
  if (gethostname(Buf, sizeof(Buf) - 1) == 0 && Buf[0])
    return Buf;
  return "unknown";
#endif
}

uint64_t herbgrind::engine::wallClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string herbgrind::engine::isoTimestampUtc(uint64_t UnixSeconds) {
  std::time_t T = static_cast<std::time_t>(UnixSeconds);
  std::tm Tm = {};
#if defined(_WIN32)
  gmtime_s(&Tm, &T);
#else
  gmtime_r(&T, &Tm);
#endif
  return format("%04d-%02d-%02dT%02d:%02d:%02dZ", Tm.tm_year + 1900,
                Tm.tm_mon + 1, Tm.tm_mday, Tm.tm_hour, Tm.tm_min, Tm.tm_sec);
}

LedgerEntry herbgrind::engine::makeLedgerEntry(const EngineConfig &Cfg,
                                               const EngineStats &Stats,
                                               const std::string &Label) {
  LedgerEntry E;
  E.Host = hostName();
  E.TimestampNanos = wallClockNanos();
  E.Timestamp = isoTimestampUtc(E.TimestampNanos / 1000000000ull);
  E.Label = Label;
  E.ConfigHash = configHash(Cfg);
  E.WireFormat = "binary"; // every shard document a sweep writes is HGB
  E.Tier = tierModeName(Cfg.Tier);
  E.Jobs = Cfg.Jobs;
  E.Samples = static_cast<uint64_t>(Cfg.SamplesPerBenchmark);
  E.ShardSize = static_cast<uint64_t>(Cfg.ShardSize);
  E.BatchLanes = Cfg.BatchLanes;
  E.Benchmarks = Stats.Benchmarks;
  E.Shards = Stats.Shards;
  E.Runs = Stats.Runs;
  E.AnalyzedShards = Stats.AnalyzedShards;
  E.CachedShards = Stats.CachedShards;
  E.ResultCacheHits = Stats.ResultCacheHits;
  E.ResultCacheMisses = Stats.ResultCacheMisses;
  E.LimbHeapAllocs = Stats.LimbHeapAllocs;
  E.LimbCacheHits = Stats.LimbCacheHits;
  E.Tier0Runs = Stats.Tier0Runs;
  E.EscalatedRuns = Stats.EscalatedRuns;
  E.PoolTasks = Stats.PoolTasks;
  E.PoolSteals = Stats.PoolSteals;
  E.WallSeconds = Stats.WallSeconds;
  E.Metrics = metrics::snapshot();
  return E;
}

bool herbgrind::engine::ledgerAppend(const std::string &Dir,
                                     const LedgerEntry &Entry,
                                     std::string &PathOut, std::string &Err) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Err = format("cannot create ledger directory '%s': %s", Dir.c_str(),
                 EC.message().c_str());
    return false;
  }
#if defined(_WIN32)
  unsigned long Pid = static_cast<unsigned long>(_getpid());
#else
  unsigned long Pid = static_cast<unsigned long>(getpid());
#endif
  // Wall-clock ns + pid keeps concurrent sweeps on a shared directory
  // from colliding without any locking.
  std::string Name =
      format("entry-%llu-%lu.json",
             static_cast<unsigned long long>(Entry.TimestampNanos), Pid);
  std::string Path = (fs::path(Dir) / Name).string();
  if (!writeFileAtomic(Path,
                       renderLedgerEntry(Entry, WireEncoding::Json) + "\n")) {
    Err = format("cannot write ledger entry '%s'", Path.c_str());
    return false;
  }
  PathOut = Path;
  return true;
}

bool herbgrind::engine::ledgerList(const std::string &Dir,
                                   std::vector<LedgerEntry> &Out,
                                   std::vector<std::string> &Paths,
                                   std::string &Err) {
  Out.clear();
  Paths.clear();
  std::error_code EC;
  if (!fs::is_directory(Dir, EC)) {
    Err = format("ledger directory '%s' does not exist", Dir.c_str());
    return false;
  }
  struct Loaded {
    LedgerEntry Entry;
    std::string Path;
    std::string Name;
  };
  std::vector<Loaded> All;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    std::string Name = It->path().filename().string();
    if (Name.rfind("entry-", 0) != 0)
      continue;
    std::string Ext = It->path().extension().string();
    if (Ext != ".json" && Ext != ".hgb")
      continue;
    std::string Text;
    if (!readFile(It->path().string(), Text)) {
      Err = format("cannot read ledger entry '%s'", It->path().string().c_str());
      return false;
    }
    Loaded L;
    if (!parseLedgerEntry(Text, L.Entry, Err)) {
      Err = format("%s: %s", It->path().string().c_str(), Err.c_str());
      return false;
    }
    L.Path = It->path().string();
    L.Name = std::move(Name);
    All.push_back(std::move(L));
  }
  if (EC) {
    Err = format("cannot scan ledger directory '%s': %s", Dir.c_str(),
                 EC.message().c_str());
    return false;
  }
  std::sort(All.begin(), All.end(), [](const Loaded &A, const Loaded &B) {
    if (A.Entry.TimestampNanos != B.Entry.TimestampNanos)
      return A.Entry.TimestampNanos < B.Entry.TimestampNanos;
    return A.Name < B.Name;
  });
  for (Loaded &L : All) {
    Out.push_back(std::move(L.Entry));
    Paths.push_back(std::move(L.Path));
  }
  return true;
}

std::vector<LedgerRegression>
herbgrind::engine::ledgerCompare(const LedgerEntry &Baseline,
                                 const LedgerEntry &Current,
                                 const LedgerThresholds &T) {
  std::vector<LedgerRegression> Regressions;
  auto Flag = [&](const char *Metric, double Base, double Cur, double Limit) {
    Regressions.push_back({Metric, Base, Cur, Limit});
  };

  // Wall time: relative growth over the baseline.
  {
    double Limit = Baseline.WallSeconds * (1.0 + T.WallFrac);
    if (Baseline.WallSeconds > 0.0 && Current.WallSeconds > Limit)
      Flag("wall_seconds", Baseline.WallSeconds, Current.WallSeconds, Limit);
  }

  // Result-cache hit rate: absolute drop, judged only when the baseline
  // actually did lookups (a cold baseline has no rate to regress from).
  {
    uint64_t BaseLookups = Baseline.ResultCacheHits + Baseline.ResultCacheMisses;
    uint64_t CurLookups = Current.ResultCacheHits + Current.ResultCacheMisses;
    if (BaseLookups > 0 && CurLookups > 0) {
      double BaseRate = double(Baseline.ResultCacheHits) / double(BaseLookups);
      double CurRate = double(Current.ResultCacheHits) / double(CurLookups);
      double Limit = BaseRate - T.CacheHitDrop;
      if (CurRate < Limit)
        Flag("cache_hit_rate", BaseRate, CurRate, Limit);
    }
  }

  // Escalation fraction: absolute rise, judged only when both sweeps ran
  // tiered (a full-shadow sweep has no escalations by construction).
  {
    if (Baseline.Tier0Runs > 0 && Current.Tier0Runs > 0 &&
        Baseline.Runs > 0 && Current.Runs > 0) {
      double BaseFrac = double(Baseline.EscalatedRuns) / double(Baseline.Runs);
      double CurFrac = double(Current.EscalatedRuns) / double(Current.Runs);
      double Limit = BaseFrac + T.EscalationRise;
      if (CurFrac > Limit)
        Flag("escalation_fraction", BaseFrac, CurFrac, Limit);
    }
  }

  // Limb heap allocations: relative growth plus absolute slack, so a
  // zero-alloc baseline tolerates noise.
  {
    double Limit =
        double(Baseline.LimbHeapAllocs) * (1.0 + T.HeapFrac) + double(T.HeapSlack);
    if (double(Current.LimbHeapAllocs) > Limit)
      Flag("limb_heap_allocs", double(Baseline.LimbHeapAllocs),
           double(Current.LimbHeapAllocs), Limit);
  }

  return Regressions;
}
