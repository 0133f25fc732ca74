//===- trace/TraceNode.cpp - Concrete expression traces -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceNode.h"

#include "support/FloatBits.h"
#include "support/Format.h"

#include <cassert>

using namespace herbgrind;

std::string TraceNode::str() const {
  if (Kind == TNKind::Leaf)
    return formatDoubleShortest(Value);
  std::string S = "(";
  const OpInfo &Info = opInfo(Op);
  S += Info.FPCoreName ? Info.FPCoreName : Info.Name;
  for (unsigned I = 0; I < NumKids; ++I) {
    S += ' ';
    S += Kids[I]->str();
  }
  S += ')';
  return S;
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
  uint32_t Depth = 1;
  for (unsigned I = 0; I < NumKids; ++I) {
    TraceNode *Kid = Kids[I];
    if (Kid->Depth > MaxDepth - 1)
      Kid = trim(Kid, MaxDepth - 1); // borrowed from Kid->Trimmed
    retain(Kid);
    N->Kids[I] = Kid;
    Depth = std::max(Depth, Kid->Depth + 1);
  }
  N->Depth = Depth;
  return N;
}

TraceNode *TraceArena::trim(TraceNode *N, uint32_t ToDepth) {
  assert(ToDepth >= 1 && "cannot trim below depth 1");
  if (N->Depth <= ToDepth)
    return N;
  // node() caps every node at MaxDepth and asks for MaxDepth - 1, and a
  // node one level too deep has kids at most ToDepth deep: so every trim
  // that does work cuts exactly one level, which is the one N memoizes.
  assert(N->Depth == ToDepth + 1 && "trim must cut exactly one level");
  if (N->Trimmed)
    return N->Trimmed;

  TraceNode *Result;
  if (ToDepth == 1) {
    Result = leaf(N->Value);
  } else {
    Result = NodePool.create();
    Result->Kind = TraceNode::TNKind::Op;
    Result->Op = N->Op;
    Result->Site = N->Site;
    Result->Value = N->Value;
    Result->NumKids = N->NumKids;
    Result->RefCount = 1;
    uint32_t Depth = 1;
    for (unsigned I = 0; I < N->NumKids; ++I) {
      TraceNode *Kid = trim(N->Kids[I], ToDepth - 1);
      retain(Kid);
      Result->Kids[I] = Kid;
      Depth = std::max(Depth, Kid->Depth + 1);
    }
    Result->Depth = Depth;
  }
  // N keeps the single reference created above (callers borrow) and drops
  // it when it dies. Only live nodes are asked for trims, so a dead node's
  // copy is never needed again.
  N->Trimmed = Result;
  return Result;
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

uint64_t TraceArena::fingerprintRec(TraceNode *N, uint32_t DepthLeft) {
  uint64_t H = N->Kind == TraceNode::TNKind::Leaf
                   ? hashMix(0x1eaf, bitsOfDouble(N->Value))
                   : hashMix(0x0b5, static_cast<uint64_t>(N->Op));
  if (N->Kind == TraceNode::TNKind::Op) {
    if (DepthLeft == 0) {
      // Below the bounded depth, only the carried value distinguishes.
      H = hashMix(H, bitsOfDouble(N->Value));
      return H;
    }
    for (unsigned I = 0; I < N->NumKids; ++I)
      H = hashMix(H, fingerprintRec(N->Kids[I], DepthLeft - 1));
  }
  return H;
}

uint64_t TraceArena::fingerprint(TraceNode *N) {
  if (N->FPValid)
    return N->CachedFP;
  N->CachedFP = fingerprintRec(N, EquivDepth);
  N->FPValid = true;
  return N->CachedFP;
}

bool TraceArena::equivalentRec(TraceNode *A, TraceNode *B,
                               uint32_t DepthLeft) {
  if (A == B)
    return true;
  if (A->Kind != B->Kind)
    return false;
  if (A->Kind == TraceNode::TNKind::Leaf)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  if (A->Op != B->Op || A->NumKids != B->NumKids)
    return false;
  if (DepthLeft == 0)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  for (unsigned I = 0; I < A->NumKids; ++I)
    if (!equivalentRec(A->Kids[I], B->Kids[I], DepthLeft - 1))
      return false;
  return true;
}

bool TraceArena::equivalent(TraceNode *A, TraceNode *B) {
  if (fingerprint(A) != fingerprint(B))
    return false;
  return equivalentRec(A, B, EquivDepth);
}
