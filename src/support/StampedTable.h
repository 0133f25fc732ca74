//===- support/StampedTable.h - Flat map emptied by a stamp -----*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing map from a pair of 64-bit keys to a 32-bit value,
/// emptied in O(1) by bumping a round stamp instead of touching its slots.
/// It is the scratch of work that runs at instruction rate and needs a
/// fresh table every time: anti-unification keeps two in its reused
/// scratch (the pair-to-variable table and the claimed-index set,
/// AntiUnifyScratch in trace/SymExpr.h), and so does the merge of two
/// accumulated expressions (MergeScratch), so a round or a merge reuses
/// their slots and reaches the heap only when it holds more entries than
/// any before it.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_STAMPEDTABLE_H
#define HERBGRIND_SUPPORT_STAMPEDTABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace herbgrind {

class StampedTable {
public:
  /// Forgets every entry; keeps the slots.
  void clear() {
    Count = 0;
    if (++Round == 0) {
      // The stamp wrapped: every slot might look live again.
      for (Slot &S : Slots)
        S.Stamp = 0;
      Round = 1;
    }
  }

  /// The value stored under (\p K1, \p K2), inserted (as 0) when absent;
  /// \p Inserted says which happened. The reference stays valid until the
  /// next call on this table.
  uint32_t &slot(uint64_t K1, uint64_t K2, bool &Inserted) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    Slot &S = slotAt(K1, K2);
    Inserted = S.Stamp != Round;
    if (Inserted) {
      S = {K1, K2, 0, Round};
      ++Count;
    }
    return S.Value;
  }

  /// Set-style use: inserts (\p K1, \p K2); false when it was present.
  bool insert(uint64_t K1, uint64_t K2) {
    bool Inserted;
    slot(K1, K2, Inserted);
    return Inserted;
  }

  /// The value stored under (\p K1, \p K2), or null when absent.
  const uint32_t *find(uint64_t K1, uint64_t K2) const {
    if (Count == 0)
      return nullptr;
    const Slot &S = Slots[probe(K1, K2)];
    return S.Stamp == Round ? &S.Value : nullptr;
  }

private:
  struct Slot {
    uint64_t K1 = 0, K2 = 0;
    uint32_t Value = 0;
    uint32_t Stamp = 0; ///< Live iff equal to the table's Round.
  };

  Slot &slotAt(uint64_t K1, uint64_t K2) { return Slots[probe(K1, K2)]; }

  /// The index of the live slot holding the key, or of the empty slot
  /// where it belongs.
  size_t probe(uint64_t K1, uint64_t K2) const {
    uint64_t H = K1 * 0x9e3779b97f4a7c15ULL ^ (K2 + 0x632be59bd9b4e019ULL);
    H ^= H >> 32;
    H *= 0xd6e8feb86659fd93ULL;
    H ^= H >> 32;
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Stamp != Round || (S.K1 == K1 && S.K2 == K2))
        return I;
    }
  }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    Slots.resize(Old.empty() ? 16 : 2 * Old.size());
    for (const Slot &S : Old)
      if (S.Stamp == Round)
        slotAt(S.K1, S.K2) = S;
  }

  std::vector<Slot> Slots; ///< Power-of-two size, at most half live.
  size_t Count = 0;
  uint32_t Round = 1;
};

} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_STAMPEDTABLE_H
