//===- engine/ResultCache.cpp - Persistent shard-result cache -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultCache.h"

#include "engine/Engine.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

static uint64_t fnv1a64(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string herbgrind::engine::configHash(const EngineConfig &Cfg) {
  const AnalysisConfig &A = Cfg.Analysis;
  // A canonical description of everything that can change a shard's
  // records. Doubles print shortest-round-trip, so distinct values never
  // collapse. Jobs / cache and emit directories / shard-range selection
  // are deliberately absent: they affect scheduling, not values.
  // BatchLanes is absent too: the engine ignores it.
  std::string Canon = format(
      "herbgrind-wire-v%d|samples=%d|shardSize=%d|seed=%llu|Tl=%s|Tm=%s|"
      "prec=%zu|maxDepth=%u|equivDepth=%u|wrapLibm=%d|comp=%d|ranges=%d|"
      "typeAnalysis=%d|sharedShadow=%d|pools=%d|maxSteps=%llu",
      WireFormatMajor, Cfg.SamplesPerBenchmark, Cfg.ShardSize,
      static_cast<unsigned long long>(Cfg.Seed),
      formatDoubleShortest(A.LocalErrorThreshold).c_str(),
      formatDoubleShortest(A.OutputErrorThreshold).c_str(), A.PrecisionBits,
      A.MaxExprDepth, A.EquivDepth, A.WrapLibraryCalls ? 1 : 0,
      A.DetectCompensation ? 1 : 0, static_cast<int>(A.Ranges),
      A.UseTypeAnalysis ? 1 : 0, A.SharedShadowValues ? 1 : 0,
      A.UsePools ? 1 : 0, static_cast<unsigned long long>(A.MaxSteps));
  // The fast tier's records cover escalated runs only, so they must
  // never alias a full sweep's. Confirm-tier records ARE full records
  // (suspect benchmarks replay under the full shadow; clean ones skip
  // the cache entirely), so Confirm deliberately shares Full's hash --
  // appending nothing also keeps every pre-tier cache entry valid.
  if (Cfg.Tier == TierMode::Fast)
    Canon += "|tier=fast";
  return format("%016llx",
                static_cast<unsigned long long>(fnv1a64(Canon)));
}

//===----------------------------------------------------------------------===//
// File IO
//===----------------------------------------------------------------------===//

bool herbgrind::engine::writeFileAtomic(const std::string &Path,
                                        const std::string &Data) {
  // The temp name only needs to be unique per writer; deterministic
  // content makes same-entry races benign either way.
  std::string Tmp =
      Path + format(".tmp.%llx",
                    static_cast<unsigned long long>(
                        std::hash<std::thread::id>{}(std::this_thread::get_id())));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << Data;
    if (!Out)
      return false;
  }
  std::error_code Ec;
  std::filesystem::rename(Tmp, Path, Ec);
  if (Ec) {
    std::filesystem::remove(Tmp, Ec);
    return false;
  }
  return true;
}

bool herbgrind::engine::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  if (In.bad())
    return false;
  Out = Buf.str();
  return true;
}

//===----------------------------------------------------------------------===//
// The cache
//===----------------------------------------------------------------------===//

ResultCache::ResultCache(std::string Directory, std::string ConfigHash)
    : Dir(std::move(Directory)), Hash(std::move(ConfigHash)) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  // A failed mkdir degrades to an always-miss, never-store cache; the
  // sweep still runs correctly.
}

std::string ResultCache::entryPath(const ShardKey &Key) const {
  uint64_t H = fnv1a64(Hash);
  H = fnv1a64(Key.CoreIdentity, H);
  H = fnv1a64(format("|seed=%llu|bench=%llu|shard=%llu|range=%llu:%llu",
                     static_cast<unsigned long long>(Key.DerivedSeed),
                     static_cast<unsigned long long>(Key.BenchIndex),
                     static_cast<unsigned long long>(Key.ShardIndex),
                     static_cast<unsigned long long>(Key.RunBegin),
                     static_cast<unsigned long long>(Key.RunEnd)),
              H);
  return Dir + "/" +
         format("%016llx.shard.hgb", static_cast<unsigned long long>(H));
}

bool ResultCache::lookup(const ShardKey &Key, AnalysisResult &Out) {
  const std::string Path = entryPath(Key);
  std::string Text;
  ShardDoc Doc;
  std::string Err;
  // A missing, corrupt or foreign entry is absent; a fresh store will
  // overwrite it.
  if (!readFile(Path, Text) || !parseShard(Text, Doc, Err) ||
      Doc.ConfigHash != Hash || Doc.ShardIndex != Key.ShardIndex ||
      Doc.RunBegin != Key.RunBegin || Doc.RunEnd != Key.RunEnd) {
    ++Misses;
    return false;
  }
  Out = std::move(Doc.Result);
  ++Hits;
  if (TouchOnHit) {
    // Refresh the entry so LRU-by-mtime pruning (gcCacheDir) keeps hot
    // shards.
    std::error_code Ec;
    std::filesystem::last_write_time(
        Path, std::filesystem::file_time_type::clock::now(), Ec);
  }
  return true;
}

void ResultCache::store(const ShardKey &Key, const std::string &BenchName,
                        const AnalysisResult &Result) {
  if (!writeFileAtomic(entryPath(Key),
                       renderShard(Hash, BenchName, Key.BenchIndex,
                                   Key.ShardIndex, Key.RunBegin, Key.RunEnd,
                                   Result, WireEncoding::Binary)))
    ++StoreFailures;
}

//===----------------------------------------------------------------------===//
// Improver outcomes
//===----------------------------------------------------------------------===//

std::string ResultCache::improveEntryPath(const ImproveKey &Key) const {
  uint64_t H = fnv1a64(Hash);
  H = fnv1a64(Key.ImproveHash, H);
  H = fnv1a64("|expr=", H);
  H = fnv1a64(Key.ExprIdentity, H);
  H = fnv1a64("|specs=", H);
  H = fnv1a64(Key.SpecIdentity, H);
  return Dir + "/" +
         format("%016llx.improve.hgb", static_cast<unsigned long long>(H));
}

bool ResultCache::lookupImprove(const ImproveKey &Key, ImproveRecord &Out) {
  const std::string Path = improveEntryPath(Key);
  std::string Text;
  ImproveDoc Doc;
  std::string Err;
  // Full identity validation, not just the filename hash: a colliding or
  // foreign entry must read as absent, never as a wrong outcome.
  if (!readFile(Path, Text) || !parseImproveDoc(Text, Doc, Err) ||
      Doc.ConfigHash != Hash || Doc.ImproveHash != Key.ImproveHash ||
      Doc.ExprIdentity != Key.ExprIdentity ||
      Doc.SpecIdentity != Key.SpecIdentity) {
    ++Misses;
    return false;
  }
  Out = std::move(Doc.Record);
  ++Hits;
  if (TouchOnHit) {
    std::error_code Ec;
    std::filesystem::last_write_time(
        Path, std::filesystem::file_time_type::clock::now(), Ec);
  }
  return true;
}

void ResultCache::storeImprove(const ImproveKey &Key,
                               const ImproveRecord &Rec) {
  ImproveDoc Doc;
  Doc.ConfigHash = Hash;
  Doc.ImproveHash = Key.ImproveHash;
  Doc.ExprIdentity = Key.ExprIdentity;
  Doc.SpecIdentity = Key.SpecIdentity;
  Doc.Record = Rec;
  if (!writeFileAtomic(improveEntryPath(Key),
                       renderImproveDoc(Doc, WireEncoding::Binary)))
    ++StoreFailures;
}

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

bool herbgrind::engine::gcCacheDir(const std::string &Dir, uint64_t MaxBytes,
                                   CacheGcStats &Stats, std::string &Err) {
  namespace fs = std::filesystem;
  struct Entry {
    fs::path Path;
    fs::file_time_type MTime;
    uint64_t Size;
  };
  std::vector<Entry> Entries;
  std::error_code Ec;
  fs::directory_iterator It(Dir, Ec), End;
  if (Ec) {
    Err = format("cannot read cache directory %s: %s", Dir.c_str(),
                 Ec.message().c_str());
    return false;
  }
  // Every entry kind the cache writes is subject to the cap. Lookups no
  // longer open the JSON entries older versions wrote, but they still
  // count and prune, so a capped directory of them drains.
  const std::string Suffixes[] = {".shard.json", ".shard.hgb",
                                  ".improve.json", ".improve.hgb"};
  auto IsEntry = [&](const std::string &Name) {
    for (const std::string &Suffix : Suffixes)
      if (Name.size() >= Suffix.size() &&
          Name.compare(Name.size() - Suffix.size(), Suffix.size(),
                       Suffix) == 0)
        return true;
    return false;
  };
  for (; !Ec && It != End; It.increment(Ec)) {
    const fs::path &P = It->path();
    std::string Name = P.filename().string();
    if (!IsEntry(Name))
      continue;
    std::error_code SizeEc, TimeEc;
    uint64_t Size = fs::file_size(P, SizeEc);
    fs::file_time_type MTime = fs::last_write_time(P, TimeEc);
    if (SizeEc || TimeEc)
      continue; // vanished under a concurrent writer: skip
    Entries.push_back({P, MTime, Size});
    ++Stats.Entries;
    Stats.Bytes += Size;
  }
  if (Ec) {
    Err = format("cannot read cache directory %s: %s", Dir.c_str(),
                 Ec.message().c_str());
    return false;
  }

  if (Stats.Bytes <= MaxBytes)
    return true;

  // Oldest first; prune until the survivors fit the cap.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.MTime < B.MTime; });
  uint64_t Remaining = Stats.Bytes;
  for (const Entry &E : Entries) {
    if (Remaining <= MaxBytes)
      break;
    std::error_code RmEc;
    if (!fs::remove(E.Path, RmEc) || RmEc)
      continue; // already gone or busy: fine either way
    Remaining -= E.Size;
    ++Stats.PrunedEntries;
    Stats.PrunedBytes += E.Size;
  }
  return true;
}
