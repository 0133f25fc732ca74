//===- engine/ResultCache.cpp - Persistent shard-result cache -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "engine/ResultCache.h"

#include "engine/Engine.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

static uint64_t fnv1a64(std::string_view S,
                        uint64_t H = 0xcbf29ce484222325ULL) {
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
// Segment files
//===----------------------------------------------------------------------===//
//
// A segment is the documents one sweep stored, back to back, then
//
//   index:  Count x { u64 key hash, u64 offset, u64 length, u64 doc hash }
//   footer: "HGSEG\r\n\x1a", u64 layout version, u64 Count,
//           u64 hash of the index and the footer's first 24 bytes
//
// all little-endian. The footer is read first, from the end of the file,
// so a segment cut short anywhere has no valid footer and holds nothing.

namespace {

constexpr char SegmentMagic[8] = {'H',  'G',  'S',  'E',
                                  'G',  '\r', '\n', '\x1a'};
constexpr uint64_t SegmentLayoutVersion = 1;
constexpr size_t FooterBytes = 32;
constexpr size_t IndexEntryBytes = 32;

struct IndexEntry {
  uint64_t Key, Offset, Length, Hash;
};

void putU64(std::string &S, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    S.push_back(static_cast<char>(V >> (8 * I)));
}

uint64_t getU64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = V << 8 | static_cast<unsigned char>(P[I]);
  return V;
}

void putEntry(std::string &Index, const IndexEntry &E) {
  putU64(Index, E.Key);
  putU64(Index, E.Offset);
  putU64(Index, E.Length);
  putU64(Index, E.Hash);
}

/// The footer that ends a segment whose index is \p Index.
std::string segmentFooter(const std::string &Index) {
  std::string Footer(SegmentMagic, sizeof(SegmentMagic));
  putU64(Footer, SegmentLayoutVersion);
  putU64(Footer, Index.size() / IndexEntryBytes);
  putU64(Footer, fnv1a64(Footer, fnv1a64(Index)));
  return Footer;
}

/// Moves all \p N bytes at \p Offset through \p IO (pread or pwrite);
/// false on an error or end of file.
template <class IO, class Byte>
bool allAt(IO Op, int Fd, Byte *Buf, size_t N, uint64_t Offset) {
  while (N > 0) {
    ssize_t Moved = Op(Fd, Buf, N, static_cast<off_t>(Offset));
    if (Moved < 0 && errno == EINTR)
      continue;
    if (Moved <= 0)
      return false;
    Buf += Moved;
    N -= static_cast<size_t>(Moved);
    Offset += static_cast<uint64_t>(Moved);
  }
  return true;
}

bool readAt(int Fd, char *Buf, size_t N, uint64_t Offset) {
  return allAt(::pread, Fd, Buf, N, Offset);
}

bool writeAt(int Fd, const char *Buf, size_t N, uint64_t Offset) {
  return allAt(::pwrite, Fd, Buf, N, Offset);
}

/// Reads and checks the index of the segment open as \p Fd: the footer's
/// magic and version, an index that fits the file and matches its hash,
/// and every entry inside the document area.
bool readIndex(int Fd, std::vector<IndexEntry> &Out, std::string &Err) {
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    Err = std::strerror(errno);
    return false;
  }
  const uint64_t Size = static_cast<uint64_t>(St.st_size);
  char Footer[FooterBytes];
  if (Size < FooterBytes ||
      !readAt(Fd, Footer, FooterBytes, Size - FooterBytes)) {
    Err = "too short for a segment footer";
    return false;
  }
  if (std::memcmp(Footer, SegmentMagic, sizeof(SegmentMagic)) != 0) {
    Err = "no segment footer";
    return false;
  }
  if (getU64(Footer + 8) != SegmentLayoutVersion) {
    Err = format("segment layout version %llu (this build reads %llu)",
                 static_cast<unsigned long long>(getU64(Footer + 8)),
                 static_cast<unsigned long long>(SegmentLayoutVersion));
    return false;
  }
  const uint64_t Count = getU64(Footer + 16);
  const uint64_t Body = Size - FooterBytes;
  if (Count > Body / IndexEntryBytes) {
    Err = "segment index larger than the file";
    return false;
  }
  const uint64_t IndexAt = Body - Count * IndexEntryBytes;
  std::string Index(Count * IndexEntryBytes, '\0');
  if (!readAt(Fd, Index.data(), Index.size(), IndexAt)) {
    Err = "cannot read the segment index";
    return false;
  }
  if (fnv1a64(std::string_view(Footer, 24), fnv1a64(Index)) !=
      getU64(Footer + 24)) {
    Err = "segment index fails its hash";
    return false;
  }
  Out.resize(Count);
  for (uint64_t I = 0; I < Count; ++I) {
    const char *P = Index.data() + I * IndexEntryBytes;
    IndexEntry &E = Out[I];
    E = {getU64(P), getU64(P + 8), getU64(P + 16), getU64(P + 24)};
    if (E.Offset > IndexAt || E.Length > IndexAt - E.Offset) {
      Err = format("segment entry %llu lies outside the document area",
                   static_cast<unsigned long long>(I));
      return false;
    }
  }
  return true;
}

int openForRead(const std::string &Path) {
  return ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
}

} // namespace

bool herbgrind::engine::readSegment(const std::string &Path,
                                    std::vector<SegmentEntry> &Out,
                                    std::string &Err) {
  int Fd = openForRead(Path);
  if (Fd < 0) {
    Err = format("cannot open %s: %s", Path.c_str(), std::strerror(errno));
    return false;
  }
  std::vector<IndexEntry> Index;
  bool Ok = readIndex(Fd, Index, Err);
  Out.clear();
  Out.reserve(Index.size());
  for (size_t I = 0; Ok && I < Index.size(); ++I) {
    const IndexEntry &E = Index[I];
    std::string Doc(E.Length, '\0');
    if (!readAt(Fd, Doc.data(), Doc.size(), E.Offset) ||
        fnv1a64(Doc) != E.Hash) {
      Err = format("segment entry %zu fails its hash", I);
      Ok = false;
      break;
    }
    Out.push_back({E.Key, std::move(Doc)});
  }
  ::close(Fd);
  if (!Ok) {
    Err = Path + ": " + Err;
    Out.clear();
  }
  return Ok;
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

ResultCache::~ResultCache() { flush(); }

uint64_t ResultCache::keyHash(const ShardKey &Key) const {
  uint64_t H = fnv1a64(Hash);
  H = fnv1a64(Key.CoreIdentity, H);
  return fnv1a64(format("|seed=%llu|bench=%llu|shard=%llu|range=%llu:%llu",
                        static_cast<unsigned long long>(Key.DerivedSeed),
                        static_cast<unsigned long long>(Key.BenchIndex),
                        static_cast<unsigned long long>(Key.ShardIndex),
                        static_cast<unsigned long long>(Key.RunBegin),
                        static_cast<unsigned long long>(Key.RunEnd)),
                 H);
}

void ResultCache::closeReader() {
  if (ReaderFd >= 0)
    ::close(ReaderFd);
  ReaderFd = -1;
  ReaderSeg = Pending;
}

void ResultCache::loadSegments() {
  Loaded = true;
  namespace fs = std::filesystem;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path &P = It->path();
    if (P.extension() != SegmentExtension)
      continue;
    int Fd = openForRead(P.string());
    if (Fd < 0)
      continue; // pruned under us
    std::vector<IndexEntry> Entries;
    std::string Err;
    if (!readIndex(Fd, Entries, Err)) {
      ::close(Fd); // a torn segment holds no entries
      continue;
    }
    const uint32_t Seg = static_cast<uint32_t>(Segments.size());
    Segments.push_back({P.string()});
    for (const IndexEntry &E : Entries)
      Index.emplace(E.Key, Slot{Seg, E.Offset, E.Length, E.Hash});
    // The last segment read stays open: with one segment in the
    // directory, every hit of the sweep is one pread.
    closeReader();
    ReaderFd = Fd;
    ReaderSeg = Seg;
  }
}

bool ResultCache::readSlot(const Slot &S, std::string &Out) {
  int Fd = TempFd;
  if (S.Seg != Pending) {
    if (ReaderSeg != S.Seg) {
      closeReader();
      ReaderFd = openForRead(Segments[S.Seg].Path);
      ReaderSeg = S.Seg;
    }
    Fd = ReaderFd;
  }
  Out.resize(S.Length);
  if (Fd < 0 || !readAt(Fd, Out.data(), Out.size(), S.Offset) ||
      fnv1a64(Out) != S.Hash)
    return false;
  if (TouchOnHit && S.Seg != Pending && !Segments[S.Seg].Touched) {
    // Refresh the segment so LRU-by-mtime pruning (gcCacheDir) keeps hot
    // shards; once per sweep is enough.
    ::futimens(Fd, nullptr);
    Segments[S.Seg].Touched = true;
  }
  return true;
}

bool ResultCache::lookup(const ShardKey &Key, AnalysisResult &Out) {
  const uint64_t K = keyHash(Key);
  std::string Text;
  bool Found = false;
  // An empty identity is an emitted document's key: never served.
  if (!Key.CoreIdentity.empty()) {
    std::lock_guard<std::mutex> Lock(M);
    if (!Loaded)
      loadSegments();
    auto [It, End] = Index.equal_range(K);
    for (; It != End && !Found; ++It)
      Found = readSlot(It->second, Text);
  }
  ShardDoc Doc;
  std::string Err;
  // No copy, or one that is corrupt or foreign, is absent; a fresh store
  // will supersede it.
  if (!Found || !parseShard(Text, Doc, Err) || Doc.ConfigHash != Hash ||
      Doc.ShardIndex != Key.ShardIndex || Doc.RunBegin != Key.RunBegin ||
      Doc.RunEnd != Key.RunEnd) {
    ++Misses;
    return false;
  }
  Out = std::move(Doc.Result);
  ++Hits;
  return true;
}

void ResultCache::store(const ShardKey &Key, const std::string &BenchName,
                        const AnalysisResult &Result) {
  const std::string Doc =
      renderShard(Hash, BenchName, Key.BenchIndex, Key.ShardIndex,
                  Key.RunBegin, Key.RunEnd, Key.RunTotal, Result,
                  WireEncoding::Binary);
  const uint64_t K = keyHash(Key);
  const uint64_t DocHash = fnv1a64(Doc);
  std::lock_guard<std::mutex> Lock(M);
  if (TempFd < 0) {
    // Unique per process and per flush; the clock keeps two hosts sharing
    // a directory apart too.
    static std::atomic<uint64_t> Opened{0};
    SegmentPath =
        Dir + format("/%llx-%lu-%llu%s",
                     static_cast<unsigned long long>(
                         std::chrono::system_clock::now()
                             .time_since_epoch()
                             .count()),
                     static_cast<unsigned long>(::getpid()),
                     static_cast<unsigned long long>(Opened.fetch_add(1)),
                     SegmentExtension);
    TempFd = ::open((SegmentPath + ".tmp").c_str(),
                    O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    TempSize = 0;
  }
  if (TempFd < 0 || !writeAt(TempFd, Doc.data(), Doc.size(), TempSize)) {
    ++StoreFailures;
    return;
  }
  putEntry(TempIndex, {K, TempSize, Doc.size(), DocHash});
  Index.emplace(K, Slot{Pending, TempSize, Doc.size(), DocHash});
  TempSize += Doc.size();
}

void ResultCache::flush() {
  std::lock_guard<std::mutex> Lock(M);
  // Whatever happens to the pending segment, the next lookup starts a new
  // sweep and reads the directory again.
  Loaded = false;
  Index.clear();
  Segments.clear();
  closeReader();
  if (TempFd < 0)
    return;
  const std::string Tail = TempIndex + segmentFooter(TempIndex);
  const uint64_t Entries = TempIndex.size() / IndexEntryBytes;
  bool Ok = Entries > 0 && writeAt(TempFd, Tail.data(), Tail.size(), TempSize);
  Ok = ::close(TempFd) == 0 && Ok;
  TempFd = -1;
  std::error_code Ec;
  if (Ok) {
    std::filesystem::rename(SegmentPath + ".tmp", SegmentPath, Ec);
    Ok = !Ec;
  }
  if (!Ok) {
    std::filesystem::remove(SegmentPath + ".tmp", Ec);
    StoreFailures += Entries;
  }
  TempIndex.clear();
  TempSize = 0;
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
  // Every file kind the cache writes is subject to the cap, and so are
  // the temporary segments a killed sweep leaves. Lookups no longer open
  // the per-entry shard files and JSON improver entries earlier versions
  // wrote, but they still count and prune, so a capped directory of them
  // drains.
  const std::string Suffixes[] = {".hgseg",        ".hgseg.tmp",
                                  ".improve.hgb",  ".shard.hgb",
                                  ".shard.json",   ".improve.json"};
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
