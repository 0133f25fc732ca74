//===- shadow/InfluenceSet.cpp - Hash-consed influence (taint) sets -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "shadow/InfluenceSet.h"

#include <algorithm>
#include <cassert>

using namespace herbgrind;

InfluenceSets::InfluenceSets() { Empty = intern(InflSet()); }

const InflSet *InfluenceSets::intern(const InflSet &Set) {
  auto It = Interned.find(Set);
  if (It != Interned.end())
    return It->second.get();
  auto Owned = std::make_unique<InflSet>(Set);
  const InflSet *Ptr = Owned.get();
  Interned.emplace(Set, std::move(Owned));
  return Ptr;
}

const InflSet *InfluenceSets::singleton(uint32_t PC) {
  // A reused one-element key: looking up a set already interned (every
  // flagged op after its first) allocates nothing.
  Probe.assign(1, PC);
  return intern(Probe);
}

const InflSet *InfluenceSets::unionOf(const InflSet *A, const InflSet *B) {
  assert(A && B && "null influence set");
  if (A == B || B->empty())
    return A;
  if (A->empty())
    return B;
  // Canonicalize the cache key order.
  if (B < A)
    std::swap(A, B);
  auto Key = std::make_pair(A, B);
  auto It = UnionCache.find(Key);
  if (It != UnionCache.end())
    return It->second;
  InflSet Merged;
  Merged.reserve(A->size() + B->size());
  std::set_union(A->begin(), A->end(), B->begin(), B->end(),
                 std::back_inserter(Merged));
  const InflSet *Result = intern(Merged);
  UnionCache.emplace(Key, Result);
  return Result;
}

const InflSet *InfluenceSets::insert(const InflSet *A, uint32_t PC) {
  if (std::binary_search(A->begin(), A->end(), PC))
    return A;
  return unionOf(A, singleton(PC));
}
