//===- shadow/InfluenceSet.h - Hash-consed influence (taint) sets -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Influence sets (Section 4.2): every shadowed float value carries the set
/// of instruction sites flagged as candidate root causes that influenced
/// it. Sets are immutable, interned (hash-consed), and unions are memoized,
/// which is what makes the taint propagation affordable: real programs pass
/// the same few sets through millions of operations.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SHADOW_INFLUENCESET_H
#define HERBGRIND_SHADOW_INFLUENCESET_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace herbgrind {

/// An immutable, interned, sorted set of instruction sites (pcs).
using InflSet = std::vector<uint32_t>;

/// The intern table and union cache for influence sets. One instance lives
/// per analysis run; pointers returned stay valid for its lifetime.
class InfluenceSets {
public:
  InfluenceSets();

  InfluenceSets(const InfluenceSets &) = delete;
  InfluenceSets &operator=(const InfluenceSets &) = delete;

  /// The empty set (shared).
  const InflSet *empty() const { return Empty; }

  const InflSet *singleton(uint32_t PC);

  /// Set union, memoized on the (pointer, pointer) pair.
  const InflSet *unionOf(const InflSet *A, const InflSet *B);

  /// A with PC added.
  const InflSet *insert(const InflSet *A, uint32_t PC);

  size_t internedSets() const { return Interned.size(); }
  size_t cachedUnions() const { return UnionCache.size(); }

private:
  const InflSet *intern(const InflSet &Set);

  struct VecHash {
    size_t operator()(const InflSet &V) const {
      size_t H = 0x9e3779b97f4a7c15ULL;
      for (uint32_t X : V)
        H = H * 1099511628211ULL ^ X;
      return H;
    }
  };
  struct PtrPairHash {
    size_t operator()(const std::pair<const InflSet *, const InflSet *> &P)
        const {
      return std::hash<const void *>()(P.first) * 31 ^
             std::hash<const void *>()(P.second);
    }
  };

  std::unordered_map<InflSet, std::unique_ptr<InflSet>, VecHash> Interned;
  std::unordered_map<std::pair<const InflSet *, const InflSet *>,
                     const InflSet *, PtrPairHash>
      UnionCache;
  const InflSet *Empty;
  InflSet Probe; ///< singleton()'s reused lookup key.
};

} // namespace herbgrind

#endif // HERBGRIND_SHADOW_INFLUENCESET_H
