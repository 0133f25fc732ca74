//===- engine/ResultCache.h - Persistent shard-result cache -----*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent shard-result cache: per-(benchmark, seed, sample-range,
/// config) `AnalysisResult`s stored as HGB shard documents in segment
/// files (`<unique>.hgseg`) in a cache directory, so a repeated sweep
/// analyzes only new or invalidated shards and merges cached + fresh
/// results through the same in-order deterministic fold. Documents are
/// always HGB: only herbgrind reads them back, and `hgb2json` renders any
/// of them for a person. A directory of segments is also a set of
/// mergeable shard documents (`--merge-shards DIR`, through readSegment).
///
/// Emitted documents. An `--emit-shard` directory is one too, written by
/// a second cache that only stores, under keys with an empty core
/// identity. lookup() misses on those, so an emit directory used as a
/// cache directory serves nothing (a confirm sweep's empty records for
/// the benchmarks it cleared never stand in for analysis). Such a key
/// names no benchmark, so readSegmentShards (Engine.h) drops a repeated
/// key only when its bytes repeat too.
///
/// Keying mirrors `fpcore::ProgramCache`: a benchmark is identified by its
/// printed FPCore text (canonical for parsed cores), combined with the
/// shard's derived sampling seed, its sample range, and a hash of every
/// configuration knob that can change analysis output (including the wire
/// format's major version, so a format bump invalidates stale entries).
///
/// Writing. A segment holds the documents one sweep stored, back to back,
/// then an index (per document: the 64-bit key hash, offset, length and a
/// 64-bit hash of its bytes) and a fixed footer (magic, layout version,
/// entry count, a hash over the index). Every store() appends to the
/// sweep's one temporary segment (`<unique>.hgseg.tmp`); flush(), which
/// the engine calls once at the end of every sweep, writes the index and
/// footer and renames the file into place. Names are unique per process
/// and per flush, so concurrent sweeps sharing a directory need no locks.
/// The trade-off: a sweep killed before its flush stores nothing.
///
/// Reading. The constructor does no IO beyond creating the directory. A
/// sweep's first lookup lists the directory once and reads every
/// segment's index; each hit then reads one byte range, checks its hash,
/// parses the document and checks its identity. A torn segment (a bad or
/// short footer, an index failing its hash) holds no entries, an entry
/// whose bytes fail their hash is a miss, and a key held by several
/// segments (two sweeps that both missed it) is served from any valid
/// copy. Per-entry files of earlier versions (`*.shard.hgb`,
/// `*.shard.json`, `*.improve.json`) are never opened: they read as
/// misses, and GC still prunes them.
///
/// Improver outcomes stay one file each (`<key>.improve.hgb`, written
/// atomically: temp file + rename).
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ENGINE_RESULTCACHE_H
#define HERBGRIND_ENGINE_RESULTCACHE_H

#include "analysis/Serialize.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace herbgrind {
namespace engine {

struct EngineConfig;

/// Hashes every `EngineConfig` knob that influences analysis output
/// (thresholds, precision, depths, sampling seed and counts, the wire
/// format major version; NOT the worker count or shard-range selection,
/// which never change result values). Shards merge only when their
/// config hashes match.
std::string configHash(const EngineConfig &Cfg);

/// Writes a file atomically: the content lands under a temporary name in
/// the target directory and is renamed into place, so concurrent writers
/// of the same (deterministic) entry race benignly. Returns false on IO
/// failure.
bool writeFileAtomic(const std::string &Path, const std::string &Data);

/// Reads a whole file; returns false when it does not exist or cannot be
/// read.
bool readFile(const std::string &Path, std::string &Out);

/// The file extension of a finished segment.
inline constexpr const char SegmentExtension[] = ".hgseg";

/// One shard document read from a segment.
struct SegmentEntry {
  uint64_t Key = 0; ///< The cache key hash the document is stored under.
  std::string Doc;  ///< The HGB shard document; its bytes passed their hash.
};

/// Reads every document of a finished segment file, in index order. Fails,
/// setting \p Err, on an unreadable file, a torn or foreign footer, an
/// index that fails its hash or points outside the file, or a document
/// whose bytes fail their hash: it never returns bytes it has not checked.
/// The one reader of on-disk shard documents (see readSegmentShards).
bool readSegment(const std::string &Path, std::vector<SegmentEntry> &Out,
                 std::string &Err);

/// Outcome of a cache garbage collection pass.
struct CacheGcStats {
  uint64_t Entries = 0;       ///< Cache files found before pruning.
  uint64_t Bytes = 0;         ///< Their total size in bytes.
  uint64_t PrunedEntries = 0; ///< Files deleted by this pass.
  uint64_t PrunedBytes = 0;   ///< Bytes reclaimed by this pass.
};

/// Prunes a cache directory's files -- segments (`*.hgseg`), temporary
/// segments a killed sweep left (`*.hgseg.tmp`), improver outcomes
/// (`*.improve.hgb`) and the per-entry files of earlier versions
/// (`*.shard.hgb`, `*.shard.json`, `*.improve.json`) -- down to at most
/// \p MaxBytes, deleting the least recently used file first (mtime order;
/// caches with touch-on-hit enabled refresh a segment on its first hit in
/// a sweep, so hot segments survive). A segment goes whole. MaxBytes 0
/// empties the cache. Tolerates concurrent writers: files that vanish
/// mid-scan are skipped. Returns false only when the directory itself
/// cannot be read.
bool gcCacheDir(const std::string &Dir, uint64_t MaxBytes, CacheGcStats &Stats,
                std::string &Err);

/// The persistent cache. One instance serves all of an engine's workers
/// concurrently: the segment state sits behind one mutex, the counters
/// are atomic.
class ResultCache {
public:
  /// Opens (creating if needed) \p Dir for a sweep whose configuration
  /// hashes to \p ConfigHash. Every entry this cache touches is bound to
  /// that hash.
  ResultCache(std::string Dir, std::string ConfigHash);
  /// Flushes what is pending.
  ~ResultCache();
  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// Identity of one shard's work, sufficient to reproduce it.
  struct ShardKey {
    std::string CoreIdentity; ///< FPCore or kernel identity; "" if emitted.
    uint64_t DerivedSeed = 0; ///< Per-benchmark sampling seed.
    uint64_t BenchIndex = 0;  ///< Position in the sweep's core list.
    uint64_t ShardIndex = 0;  ///< Shard number within the benchmark.
    uint64_t RunBegin = 0;    ///< Sample range (inclusive begin).
    uint64_t RunEnd = 0;      ///< Sample range (exclusive end).
    uint64_t RunTotal = 0;    ///< The benchmark's sample count. Stored,
                              ///< not keyed: the config hash holds it.
  };

  /// Looks a shard up; on a hit fills \p Out with a result that folds
  /// byte-identically to a fresh analysis. An empty core identity (an
  /// emitted document's key) and any validation failure (no entry, bytes
  /// that fail their hash, parse error, version or config-hash mismatch,
  /// wrong sample range) are misses. Sees this
  /// instance's own unflushed stores. The first lookup after construction
  /// or a flush() reads the directory's segment indexes; later ones list
  /// nothing.
  bool lookup(const ShardKey &Key, AnalysisResult &Out);

  /// Persists a freshly analyzed shard: appends its document to this
  /// sweep's temporary segment. IO failures are counted but otherwise
  /// ignored -- the cache is an accelerator, never a correctness
  /// dependency.
  void store(const ShardKey &Key, const std::string &BenchName,
             const AnalysisResult &Result);

  /// Ends the sweep: writes the pending segment's index and footer and
  /// renames it into place (a failure counts every pending store as a
  /// store failure), and makes the next lookup read the directory again.
  /// With nothing pending it touches no file.
  void flush();

  /// Identity of one batch-improver outcome: the exact expression and
  /// sampling specs the improver ran on plus the improver-config hash
  /// (improve::improveConfigHash). The sweep config hash this cache was
  /// opened with is folded in implicitly, so entries never leak across
  /// sweep configurations.
  struct ImproveKey {
    std::string ExprIdentity; ///< Printed FPCore expression fragment.
    std::string SpecIdentity; ///< improve::specIdentity() of the specs.
    std::string ImproveHash;  ///< Canonical improver-config string.
  };

  /// Looks an improver outcome up; on a hit fills \p Out with the cached
  /// record (its PC field is meaningless -- callers re-stamp identity).
  /// Any validation failure (missing file, parse error, version or
  /// config/improve-hash mismatch, different expression or specs) is a
  /// miss.
  bool lookupImprove(const ImproveKey &Key, ImproveRecord &Out);

  /// Persists one improver outcome. IO failures are counted but
  /// otherwise ignored, like store().
  void storeImprove(const ImproveKey &Key, const ImproveRecord &Rec);

  /// The entry file for an improver outcome (deterministic; exposed for
  /// tests and debugging).
  std::string improveEntryPath(const ImproveKey &Key) const;

  /// Prunes this cache's directory to \p MaxBytes (LRU by mtime); see
  /// gcCacheDir.
  bool gc(uint64_t MaxBytes, CacheGcStats &Stats, std::string &Err) const {
    return gcCacheDir(Dir, MaxBytes, Stats, Err);
  }

  /// Enables refreshing a file's mtime on a hit so LRU pruning sees true
  /// recency (a segment at most once per sweep). Off by default: without
  /// a size cap the extra metadata write buys nothing and perturbs mtimes
  /// that rsync-shared caches compare. When left off, gcCacheDir's LRU
  /// order degrades to FIFO-by-store-time, which is still a correct
  /// pruning order.
  void setTouchOnHit(bool Enabled) { TouchOnHit = Enabled; }

  const std::string &directory() const { return Dir; }
  const std::string &configHash() const { return Hash; }
  uint64_t hits() const { return Hits.load(); }
  uint64_t misses() const { return Misses.load(); }
  uint64_t storeFailures() const { return StoreFailures.load(); }

private:
  /// Where one copy of a document lives.
  struct Slot {
    uint32_t Seg;    ///< Index into Segments, or Pending.
    uint64_t Offset; ///< Byte range in the segment.
    uint64_t Length;
    uint64_t Hash; ///< Hash of the document's bytes.
  };
  /// A finished segment this sweep read.
  struct Segment {
    std::string Path;
    bool Touched = false; ///< Its mtime was refreshed this sweep.
  };
  /// The Slot::Seg of this instance's temporary segment.
  static constexpr uint32_t Pending = UINT32_MAX;

  uint64_t keyHash(const ShardKey &Key) const;
  void loadSegments();
  bool readSlot(const Slot &S, std::string &Out);
  void closeReader();

  std::string Dir;
  std::string Hash;
  bool TouchOnHit = false;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> StoreFailures{0};

  std::mutex M; ///< Guards everything below.
  bool Loaded = false; ///< This sweep read the directory.
  std::vector<Segment> Segments;
  std::unordered_multimap<uint64_t, Slot> Index; ///< Key hash -> copies.
  int ReaderFd = -1; ///< The last segment read from, kept open.
  uint32_t ReaderSeg = Pending;
  /// This sweep's temporary segment (SegmentPath + ".tmp") once a store
  /// opened it; flush() renames it to SegmentPath.
  int TempFd = -1;
  std::string SegmentPath;
  uint64_t TempSize = 0; ///< Its document bytes so far.
  std::string TempIndex; ///< Its index so far, as the footer stores it.
};

} // namespace engine
} // namespace herbgrind

#endif // HERBGRIND_ENGINE_RESULTCACHE_H
