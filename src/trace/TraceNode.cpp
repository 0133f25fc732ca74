//===- trace/TraceNode.cpp - Concrete expression traces -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceNode.h"

#include "support/FloatBits.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace herbgrind;

std::string TraceNode::str(uint32_t Budget) const {
  if (Kind == TNKind::Leaf || Budget <= 1)
    return formatDoubleShortest(Value);
  std::string S = "(";
  const OpInfo &Info = opInfo(Op);
  S += Info.FPCoreName ? Info.FPCoreName : Info.Name;
  for (unsigned I = 0; I < NumKids; ++I) {
    S += ' ';
    S += Kids[I]->str(Budget - 1);
  }
  S += ')';
  return S;
}

TraceArena::TraceArena(uint32_t MaxDepth, uint32_t EquivDepth, bool UsePool)
    : NodePool(UsePool), MaxDepth(MaxDepth ? MaxDepth : 1),
      EquivDepth(EquivDepth) {
  // Computed in 64 bits and capped where Depth saturates. A MaxDepth too
  // large for 16 bits (the tests' unbounded reference arena) never meets a
  // kid deeper than MaxDepth - 1, so it never compacts.
  uint64_t At = CompactionFactor * this->MaxDepth;
  CompactAt = static_cast<uint32_t>(At < DepthCap ? At : DepthCap);
}

TraceNode *TraceArena::leaf(double Value) {
  TraceNode *N = NodePool.create();
  N->Kind = TraceNode::TNKind::Leaf;
  N->Value = Value;
  N->Depth = 1;
  N->RefCount = 1;
  return N;
}

TraceNode *TraceArena::node(Opcode Op, uint32_t Site, double Value,
                            TraceNode *const *Kids, unsigned NumKids) {
  assert(NumKids <= 3 && "too many children");
  if (MaxDepth <= 1) {
    // Depth 1: no structure at all beyond the producing op itself; the
    // paper's "effectively disables symbolic expression tracking" setting
    // keeps the op node but all children become value leaves.
    TraceNode *N = NodePool.create();
    N->Kind = TraceNode::TNKind::Op;
    N->Op = Op;
    N->Site = Site;
    N->Value = Value;
    N->NumKids = static_cast<uint8_t>(NumKids);
    N->Depth = NumKids ? 2 : 1;
    N->RefCount = 1;
    for (unsigned I = 0; I < NumKids; ++I) {
      N->Kids[I] = leaf(Kids[I]->Value);
    }
    return N;
  }

  TraceNode *N = NodePool.create();
  N->Kind = TraceNode::TNKind::Op;
  N->Op = Op;
  N->Site = Site;
  N->Value = Value;
  N->NumKids = static_cast<uint8_t>(NumKids);
  N->RefCount = 1;
  uint32_t KidDepth = 0;
  for (unsigned I = 0; I < NumKids; ++I) {
    retain(Kids[I]);
    N->Kids[I] = Kids[I];
    KidDepth = std::max<uint32_t>(KidDepth, Kids[I]->Depth);
  }
  if (KidDepth >= CompactAt)
    KidDepth = compactKids(N);
  N->Depth = static_cast<uint16_t>(std::min(KidDepth + 1, DepthCap));
  return N;
}

uint32_t TraceArena::compactKids(TraceNode *N) {
  uint32_t KidDepth = 0;
  for (unsigned I = 0; I < N->NumKids; ++I) {
    TraceNode *Kid = N->Kids[I];
    if (Kid->Depth > MaxDepth - 1) {
      // The copy is Kid's (x*x compacts once: its second kid finds the
      // first one's copy); N swaps its reference to Kid for one to the
      // copy, and the caller still holds Kid.
      N->Kids[I] = compact(Kid, MaxDepth - 1);
      retain(N->Kids[I]);
      release(Kid);
    }
    KidDepth = std::max<uint32_t>(KidDepth, N->Kids[I]->Depth);
  }
  return KidDepth;
}

TraceNode *TraceArena::compact(TraceNode *K, uint32_t Budget) {
  // Pass 1, breadth-first from K: a node's first visit is at the largest
  // budget any path gives it, which is the one its copy is cut for. A
  // node whose Depth fits that budget is its own copy, one whose kept copy
  // is wide enough shares it, and one at budget 1 becomes a value leaf;
  // only the rest need their kids' copies.
  CompactSeen.clear();
  CompactWork.clear();
  CompactWork.push_back({K, nullptr, Budget, {}});
  CompactSeen.insert(reinterpret_cast<uintptr_t>(K), 0);
  for (size_t I = 0; I < CompactWork.size(); ++I) {
    TraceNode *N = CompactWork[I].N;
    uint32_t B = CompactWork[I].Budget;
    if (N->Depth <= B) {
      CompactWork[I].Copy = N;
      continue;
    }
    if (N->Trimmed && N->TrimBudget >= B) {
      CompactWork[I].Copy = N->Trimmed;
      continue;
    }
    if (B == 1) {
      CompactWork[I].Copy = keepCopy(N, leaf(N->Value), 1);
      continue;
    }
    for (unsigned J = 0; J < N->NumKids; ++J) {
      bool Inserted = false;
      uint32_t &Item = CompactSeen.slot(
          reinterpret_cast<uintptr_t>(N->Kids[J]), 0, Inserted);
      if (Inserted) {
        Item = static_cast<uint32_t>(CompactWork.size());
        CompactWork.push_back({N->Kids[J], nullptr, B - 1, {}});
      }
      CompactWork[I].Kids[J] = Item;
    }
  }

  // Pass 2, post-order: one op copy per remaining node, over its kids'
  // copies. A kid may have been reached first along a shorter path, so
  // breadth-first order does not put kids first; the stack does.
  CompactStack.clear();
  CompactStack.push_back(0);
  while (!CompactStack.empty()) {
    CompactItem &It = CompactWork[CompactStack.back()];
    if (It.Copy) {
      CompactStack.pop_back();
      continue;
    }
    TraceNode *N = It.N;
    bool KidsReady = true;
    for (unsigned J = 0; J < N->NumKids; ++J)
      if (!CompactWork[It.Kids[J]].Copy) {
        CompactStack.push_back(It.Kids[J]);
        KidsReady = false;
      }
    if (!KidsReady)
      continue;
    CompactStack.pop_back();
    TraceNode *Copy = NodePool.create();
    Copy->Kind = TraceNode::TNKind::Op;
    Copy->Op = N->Op;
    Copy->Site = N->Site;
    Copy->Value = N->Value;
    Copy->NumKids = N->NumKids;
    Copy->RefCount = 1;
    uint32_t KidDepth = 0;
    for (unsigned J = 0; J < N->NumKids; ++J) {
      TraceNode *Kid = CompactWork[It.Kids[J]].Copy;
      retain(Kid);
      Copy->Kids[J] = Kid;
      KidDepth = std::max<uint32_t>(KidDepth, Kid->Depth);
    }
    // A kid's copy may serve a wider budget than this one reads it at;
    // Depth counts only the levels a reader of this copy can use.
    Copy->Depth = static_cast<uint16_t>(std::min(KidDepth + 1, It.Budget));
    It.Copy = keepCopy(N, Copy, It.Budget);
  }
  return CompactWork[0].Copy;
}

TraceNode *TraceArena::keepCopy(TraceNode *N, TraceNode *Copy,
                                uint32_t Budget) {
  // N keeps the copy's one reference (callers borrow) and drops it when
  // it dies. A narrower copy N kept before loses that reference, which
  // cannot free a node this compaction still uses: each node it visits is
  // held by the kid references along the path that reached it.
  TraceNode *Old = N->Trimmed;
  N->Trimmed = Copy;
  N->TrimBudget = static_cast<uint16_t>(Budget);
  if (Old)
    release(Old);
  return Copy;
}

void TraceArena::retain(TraceNode *N) {
  assert(N && N->RefCount > 0 && "retaining a dead node");
  ++N->RefCount;
}

void TraceArena::release(TraceNode *N) {
  assert(N && "releasing null");
  // Iterative release to keep deep chains off the C++ stack. The work
  // stack is the arena's, so a release allocates nothing once it has grown;
  // a release that only drops a reference pushes nothing.
  std::vector<TraceNode *> &Work = ReleaseWork;
  for (;;) {
    // A dead node's trimmed copy loses its owner reference next; follow it
    // here rather than pushing it.
    while (N) {
      assert(N->RefCount > 0 && "double release");
      if (--N->RefCount > 0)
        break;
      for (unsigned I = 0; I < N->NumKids; ++I)
        Work.push_back(N->Kids[I]);
      TraceNode *Trimmed = N->Trimmed;
      NodePool.destroy(N);
      N = Trimmed;
    }
    if (Work.empty())
      return;
    N = Work.back();
    Work.pop_back();
  }
}

//===----------------------------------------------------------------------===//
// Bounded-depth fingerprints and equivalence (Section 6.1)
//===----------------------------------------------------------------------===//

static uint64_t hashMix(uint64_t H, uint64_t X) {
  H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

uint64_t TraceArena::fingerprintRec(TraceNode *N, uint32_t DepthLeft,
                                    uint32_t Budget) {
  if (N->Kind == TraceNode::TNKind::Leaf || Budget <= 1)
    return hashMix(0x1eaf, bitsOfDouble(N->Value));
  uint64_t H = hashMix(0x0b5, static_cast<uint64_t>(N->Op));
  if (DepthLeft == 0) {
    // Below the bounded depth, only the carried value distinguishes.
    return hashMix(H, bitsOfDouble(N->Value));
  }
  for (unsigned I = 0; I < N->NumKids; ++I)
    H = hashMix(H, fingerprintRec(N->Kids[I], DepthLeft - 1, Budget - 1));
  return H;
}

uint64_t TraceArena::fingerprint(TraceNode *N, uint32_t Budget) {
  // The fingerprint reads EquivDepth + 1 levels. A budget of at least
  // EquivDepth + 2 cuts none of them, so the result is the node's own and
  // is cached on it; a smaller one is computed under the budget, because a
  // shared copy can hold more levels than the budget it is read at.
  if (Budget < uint64_t(EquivDepth) + 2)
    return fingerprintRec(N, EquivDepth, Budget);
  if (N->FPValid)
    return N->CachedFP;
  N->CachedFP = fingerprintRec(N, EquivDepth, Budget);
  N->FPValid = true;
  return N->CachedFP;
}

bool TraceArena::equivalentRec(TraceNode *A, TraceNode *B, uint32_t DepthLeft,
                               uint32_t Budget) {
  if (A == B)
    return true;
  bool LeafA = A->Kind == TraceNode::TNKind::Leaf || Budget <= 1;
  bool LeafB = B->Kind == TraceNode::TNKind::Leaf || Budget <= 1;
  if (LeafA != LeafB)
    return false;
  if (LeafA)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  if (A->Op != B->Op || A->NumKids != B->NumKids)
    return false;
  if (DepthLeft == 0)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  for (unsigned I = 0; I < A->NumKids; ++I)
    if (!equivalentRec(A->Kids[I], B->Kids[I], DepthLeft - 1, Budget - 1))
      return false;
  return true;
}

bool TraceArena::equivalent(TraceNode *A, TraceNode *B, uint32_t Budget) {
  if (fingerprint(A, Budget) != fingerprint(B, Budget))
    return false;
  return equivalentRec(A, B, EquivDepth, Budget);
}
