//===- tests/test_trace.cpp - Trace and anti-unification tests ------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "inputs/InputSummary.h"
#include "support/FloatBits.h"
#include "trace/SymExpr.h"
#include "trace/TraceNode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <random>
#include <unordered_map>
#include <unordered_set>

using namespace herbgrind;

//===----------------------------------------------------------------------===//
// TraceArena basics
//===----------------------------------------------------------------------===//

TEST(TraceArena, LeafAndNodeLifecycle) {
  TraceArena A;
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *L2 = A.leaf(2.0);
  TraceNode *Kids[2] = {L1, L2};
  TraceNode *N = A.node(Opcode::AddF64, 3, 3.0, Kids, 2);
  EXPECT_EQ(N->Depth, 2u);
  EXPECT_EQ(N->Value, 3.0);
  EXPECT_EQ(A.liveNodes(), 3u);
  // Node holds its own refs; releasing ours keeps kids alive through N.
  A.release(L1);
  A.release(L2);
  EXPECT_EQ(A.liveNodes(), 3u);
  A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
}

TEST(TraceArena, SharingKeepsOneCopy) {
  TraceArena A;
  TraceNode *L = A.leaf(5.0);
  TraceNode *Kids[2] = {L, L};
  TraceNode *N = A.node(Opcode::MulF64, 1, 25.0, Kids, 2);
  // x*x shares the kid node.
  EXPECT_EQ(N->Kids[0], N->Kids[1]);
  EXPECT_EQ(A.liveNodes(), 2u);
  A.release(L);
  A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
}

namespace {
/// The levels a reader starting at \p Budget sees below \p N.
uint32_t readDepth(const TraceNode *N, uint32_t Budget) {
  if (N->Kind == TraceNode::TNKind::Leaf || Budget <= 1)
    return 1;
  uint32_t Deepest = 0;
  for (unsigned I = 0; I < N->NumKids; ++I)
    Deepest = std::max(Deepest, readDepth(N->Kids[I], Budget - 1));
  return 1 + Deepest;
}
} // namespace

TEST(TraceArena, DepthBoundTrimsDeepChains) {
  // Readers see at most MaxDepth levels; nodes hold at most
  // CompactionFactor x MaxDepth.
  TraceArena A(/*MaxDepth=*/4);
  TraceNode *Cur = A.leaf(0.0);
  for (int I = 1; I <= 40; ++I) {
    TraceNode *Kids[1] = {Cur};
    TraceNode *Next = A.node(Opcode::SqrtF64, 1, double(I), Kids, 1);
    A.release(Cur);
    Cur = Next;
    EXPECT_LE(readDepth(Cur, A.rootBudget()), 4u);
    EXPECT_LE(Cur->Depth, TraceArena::CompactionFactor * 4);
  }
  A.release(Cur);
}

TEST(TraceArena, DepthOneKeepsOnlyTheOperation) {
  TraceArena A(/*MaxDepth=*/1);
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *Kids1[1] = {L1};
  TraceNode *Inner = A.node(Opcode::ExpF64, 1, 2.7, Kids1, 1);
  TraceNode *Kids2[1] = {Inner};
  TraceNode *Outer = A.node(Opcode::LogF64, 2, 1.0, Kids2, 1);
  // Outer's child must be a leaf carrying Inner's value, not Inner itself.
  EXPECT_EQ(Outer->Kids[0]->Kind, TraceNode::TNKind::Leaf);
  EXPECT_EQ(Outer->Kids[0]->Value, 2.7);
  A.release(L1);
  A.release(Inner);
  A.release(Outer);
}

namespace {
/// Loop-carried values as a shadowed loop builds them: a chain
/// (acc = acc + c), a shared kid (x = x*x + c), a Fibonacci DAG
/// (a, b = b, a+b) and a cross-linked update (m = m + ((5 - m)*k + c)),
/// where m feeds the next iteration along paths of length 1 and 4, as
/// the pid benchmark's m2 does.
enum class Shape { Chain, SharedKid, Fibonacci, CrossLinked };

/// Steps one shape through an arena, releasing each value the loop
/// overwrites, as the shadow interpreter does.
class LoopCarried {
public:
  LoopCarried(TraceArena &A, Shape S)
      : A(A), S(S), Prev(S == Shape::Fibonacci ? A.leaf(0.0) : nullptr),
        Cur(A.leaf(0.5)) {}
  ~LoopCarried() {
    if (Prev)
      A.release(Prev);
    A.release(Cur);
  }
  LoopCarried(const LoopCarried &) = delete;
  LoopCarried &operator=(const LoopCarried &) = delete;

  /// The loop-carried value (b for Fibonacci).
  const TraceNode *value() const { return Cur; }

  void step(int I) {
    TraceNode *Next;
    if (S == Shape::Fibonacci) {
      TraceNode *Kids[2] = {Prev, Cur};
      Next = A.node(Opcode::AddF64, 1, Prev->Value + Cur->Value, Kids, 2);
      A.release(Prev);
      Prev = Cur;
      Cur = Next;
      return;
    }
    if (S == Shape::CrossLinked) {
      TraceNode *Five = A.leaf(5.0);
      TraceNode *K = A.leaf(0.25);
      TraceNode *C = A.leaf(0.1 * (I % 3 - 1));
      TraceNode *SubKids[2] = {Five, Cur};
      TraceNode *Sub = A.node(Opcode::SubF64, 3, 5.0 - Cur->Value, SubKids, 2);
      TraceNode *MulKids[2] = {Sub, K};
      TraceNode *Mul = A.node(Opcode::MulF64, 4, Sub->Value * 0.25, MulKids, 2);
      TraceNode *AddKids[2] = {Mul, C};
      TraceNode *Add =
          A.node(Opcode::AddF64, 5, Mul->Value + C->Value, AddKids, 2);
      TraceNode *NextKids[2] = {Cur, Add};
      Next = A.node(Opcode::AddF64, 6, Cur->Value + Add->Value, NextKids, 2);
      for (TraceNode *N : {Five, K, C, Sub, Mul, Add, Cur})
        A.release(N);
      Cur = Next;
      return;
    }
    TraceNode *Acc = Cur;
    if (S == Shape::SharedKid) {
      TraceNode *Sq[2] = {Cur, Cur};
      Acc = A.node(Opcode::MulF64, 2, Cur->Value * Cur->Value, Sq, 2);
    }
    // c stays in [-0.2, 0.2], so x*x + c stays bounded.
    double C = 0.1 * (I % 5 - 2);
    TraceNode *L = A.leaf(C);
    TraceNode *Kids[2] = {Acc, L};
    Next = A.node(Opcode::AddF64, 1, Acc->Value + C, Kids, 2);
    A.release(L);
    if (Acc != Cur)
      A.release(Acc);
    A.release(Cur);
    Cur = Next;
  }

private:
  TraceArena &A;
  Shape S;
  TraceNode *Prev;
  TraceNode *Cur;
};

const char *shapeName(Shape S) {
  switch (S) {
  case Shape::Chain:
    return "chain";
  case Shape::SharedKid:
    return "shared kid";
  case Shape::Fibonacci:
    return "fibonacci";
  case Shape::CrossLinked:
    return "cross-linked";
  }
  return "?";
}

/// Reference trimming: the top \p D levels of the untrimmed trace \p N,
/// with the nodes at the cut replaced by leaves carrying their values.
/// Nodes live in \p Store; the DAG is expanded into a tree.
TraceNode *referenceCut(const TraceNode *N, uint32_t D,
                        std::deque<TraceNode> &Store) {
  TraceNode &Cut = Store.emplace_back();
  Cut.Value = N->Value;
  if (D == 1 || N->Kind == TraceNode::TNKind::Leaf)
    return &Cut;
  Cut.Kind = N->Kind;
  Cut.Op = N->Op;
  Cut.NumKids = N->NumKids;
  for (unsigned I = 0; I < N->NumKids; ++I)
    Cut.Kids[I] = referenceCut(N->Kids[I], D - 1, Store);
  return &Cut;
}
} // namespace

TEST(TraceArena, LoopCarriedTracesHoldNoHistory) {
  // The depth bound must also bound memory: a value released by the loop
  // frees its compacted copies, so live nodes stop growing once traces
  // reach the compaction depth, and nothing outlives the last value.
  for (uint32_t D : {4u, 24u}) {
    for (Shape S : {Shape::Chain, Shape::SharedKid, Shape::Fibonacci}) {
      SCOPED_TRACE(std::string(shapeName(S)) + " at depth " +
                   std::to_string(D));
      TraceArena A(D);
      size_t PeakFirst1000 = 0, Peak = 0;
      {
        LoopCarried Loop(A, S);
        for (int I = 1; I <= 5000; ++I) {
          Loop.step(I);
          Peak = std::max(Peak, A.liveNodes());
          if (I == 1000)
            PeakFirst1000 = Peak;
        }
      }
      EXPECT_LE(Peak, PeakFirst1000);
      EXPECT_EQ(A.liveNodes(), 0u);
      // One copy per window node per compaction: 10001 loop nodes, plus
      // 23 copies at each of the 101 compactions. Step 72 meets a kid of
      // depth 72 and builds a node of depth 24, which the next 48 steps
      // deepen to 72 again, so compactions come every 49 steps.
      if (D == 24 && S == Shape::Chain) {
        EXPECT_EQ(A.totalAllocated(), 12324u);
      }
    }
  }
}

TEST(TraceArena, TrimmingMatchesReferenceCut) {
  // A bounded trace must read exactly as the top MaxDepth levels of the
  // same trace built without a bound.
  for (Shape S : {Shape::Chain, Shape::SharedKid, Shape::Fibonacci}) {
    for (uint32_t D : {2u, 3u, 5u, 8u, 24u}) {
      if (D == 24 && S != Shape::Chain)
        continue; // the reference expands the DAG into 2^24 nodes
      SCOPED_TRACE(std::string(shapeName(S)) + " at depth " +
                   std::to_string(D));
      TraceArena Bounded(D);
      TraceArena Full(std::numeric_limits<uint32_t>::max());
      LoopCarried B(Bounded, S), F(Full, S);
      for (int I = 1; I <= 200; ++I) {
        B.step(I);
        F.step(I);
        std::deque<TraceNode> Store;
        ASSERT_EQ(B.value()->str(Bounded.rootBudget()),
                  referenceCut(F.value(), D, Store)->str(D))
            << "iteration " << I;
        // x*x keeps one node for its two trimmed kids.
        const TraceNode *Sq = B.value()->Kids[0];
        if (S == Shape::SharedKid && Sq->Kind == TraceNode::TNKind::Op) {
          ASSERT_EQ(Sq->Kids[0], Sq->Kids[1]) << "iteration " << I;
        }
      }
    }
  }
}

TEST(TraceArena, CrossLinkedTracesReadAsTheReferenceCut) {
  // A value that feeds the next iteration along paths of two lengths puts
  // one node in the window at several budgets. Every reader must still see
  // the reference cut, and compaction must not pile up copies.
  for (uint32_t D : {2u, 3u, 5u, 8u, 24u}) {
    SCOPED_TRACE("depth " + std::to_string(D));
    TraceArena Bounded(D);
    TraceArena Full(std::numeric_limits<uint32_t>::max());
    size_t PeakFirst1000 = 0, Peak = 0;
    {
      LoopCarried B(Bounded, Shape::CrossLinked);
      LoopCarried F(Full, Shape::CrossLinked);
      std::unique_ptr<SymExpr> EB, EF;
      uint32_t NextB = 0, NextF = 0;
      AntiUnifyScratch RoundB, RoundF;
      for (int I = 1; I <= 3000; ++I) {
        B.step(I);
        Peak = std::max(Peak, Bounded.liveNodes());
        if (I == 1000)
          PeakFirst1000 = Peak;
        if (I > 200)
          continue;
        F.step(I);
        std::deque<TraceNode> Store;
        TraceNode *Ref = referenceCut(F.value(), D, Store);
        TraceNode *Got = const_cast<TraceNode *>(B.value());
        ASSERT_EQ(Got->str(Bounded.rootBudget()), Ref->str(D))
            << "iteration " << I;
        ASSERT_EQ(symbolize(Bounded, Got)->fpcoreBody(),
                  symbolize(Full, Ref)->fpcoreBody())
            << "iteration " << I;
        // Generalizing every iteration's trace reads fingerprints at every
        // budget of the window.
        if (!EB) {
          EB = symbolize(Bounded, Got);
          EF = symbolize(Full, Ref);
          continue;
        }
        antiUnify(Bounded, *EB, Got, NextB, RoundB);
        antiUnify(Full, *EF, Ref, NextF, RoundF);
        ASSERT_EQ(EB->fpcoreBody(), EF->fpcoreBody()) << "iteration " << I;
        ASSERT_EQ(RoundB.Bindings.size(), RoundF.Bindings.size());
        for (size_t V = 0; V < RoundB.Bindings.size(); ++V) {
          EXPECT_EQ(RoundB.Bindings[V].Idx, RoundF.Bindings[V].Idx);
          EXPECT_EQ(bitsOfDouble(RoundB.Bindings[V].Value),
                    bitsOfDouble(RoundF.Bindings[V].Value));
        }
      }
    }
    EXPECT_LE(Peak, PeakFirst1000);
    EXPECT_EQ(Bounded.liveNodes(), 0u);
  }
}

namespace {
/// Every node of the window of \p Got, read from \p Budget, must
/// fingerprint as the matching node of \p Want, its reference cut.
void expectSameFingerprints(TraceArena &Bounded, TraceNode *Got,
                            uint32_t Budget, TraceArena &Full,
                            TraceNode *Want) {
  ASSERT_EQ(Bounded.fingerprint(Got, Budget),
            Full.fingerprint(Want, Full.rootBudget()));
  if (Want->Kind == TraceNode::TNKind::Leaf)
    return;
  for (unsigned I = 0; I < Want->NumKids; ++I)
    expectSameFingerprints(Bounded, Got->Kids[I], Budget - 1, Full,
                           Want->Kids[I]);
}
} // namespace

TEST(TraceArena, RandomLoopDagsReadAsTheReferenceCut) {
  // Loops of random shape: each iteration builds a few ops over the loop
  // state, fresh leaves and each other, and the next state picks among
  // them, so nodes reach the window along paths of many lengths. The same
  // program runs on a bounded and an unbounded arena.
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    std::mt19937_64 R(Seed);
    const uint32_t D = 2 + R() % 6;
    const unsigned NState = 1 + R() % 4;
    SCOPED_TRACE("seed " + std::to_string(Seed) + ", depth " +
                 std::to_string(D));
    TraceArena Bounded(D);
    TraceArena Full(std::numeric_limits<uint32_t>::max());
    TraceArena *Arenas[2] = {&Bounded, &Full};
    std::vector<TraceNode *> State[2];
    for (unsigned I = 0; I < NState; ++I)
      for (int A = 0; A < 2; ++A)
        State[A].push_back(Arenas[A]->leaf(double(I)));
    for (int It = 0; It < 80; ++It) {
      // Operands: the state, then every node built this iteration.
      std::vector<TraceNode *> Pool[2] = {State[0], State[1]};
      std::vector<TraceNode *> Built[2];
      for (unsigned Step = 0, Steps = 1 + R() % 5; Step < Steps; ++Step) {
        unsigned Arity = 1 + R() % 2;
        Opcode Op = Arity == 1 ? Opcode::SqrtF64
                               : R() % 2 ? Opcode::AddF64 : Opcode::MulF64;
        size_t Pick[2] = {R() % Pool[0].size(), R() % Pool[0].size()};
        for (int A = 0; A < 2; ++A) {
          TraceNode *Kids[2] = {Pool[A][Pick[0]], Pool[A][Pick[1]]};
          double V = Kids[0]->Value + (Arity == 2 ? Kids[1]->Value : 0.5);
          Built[A].push_back(Arenas[A]->node(Op, Step, V, Kids, Arity));
          Pool[A].push_back(Built[A].back());
        }
      }
      std::vector<size_t> Next;
      for (unsigned I = 0; I < NState; ++I)
        Next.push_back(R() % 2 ? Pool[0].size() - 1 : R() % Pool[0].size());
      for (int A = 0; A < 2; ++A) {
        std::vector<TraceNode *> NewState;
        for (size_t P : Next) {
          Arenas[A]->retain(Pool[A][P]);
          NewState.push_back(Pool[A][P]);
        }
        for (TraceNode *N : Built[A])
          Arenas[A]->release(N);
        for (TraceNode *N : State[A])
          Arenas[A]->release(N);
        State[A] = NewState;
      }
      for (unsigned I = 0; I < NState; ++I) {
        std::deque<TraceNode> Store;
        TraceNode *Ref = referenceCut(State[1][I], D, Store);
        ASSERT_EQ(State[0][I]->str(Bounded.rootBudget()), Ref->str(D))
            << "iteration " << It;
        ASSERT_EQ(symbolize(Bounded, State[0][I])->fpcoreBody(),
                  symbolize(Full, Ref)->fpcoreBody())
            << "iteration " << It;
        expectSameFingerprints(Bounded, State[0][I], Bounded.rootBudget(),
                               Full, Ref);
        if (HasFatalFailure())
          return;
      }
    }
    for (int A = 0; A < 2; ++A)
      for (TraceNode *N : State[A])
        Arenas[A]->release(N);
    EXPECT_GT(Bounded.totalAllocated(), Full.totalAllocated())
        << "the bounded arena never compacted";
    EXPECT_EQ(Bounded.liveNodes(), 0u);
  }
}

TEST(TraceArena, EquivalenceRespectsValuesAndStructure) {
  TraceArena A;
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *L2 = A.leaf(1.0);
  TraceNode *L3 = A.leaf(2.0);
  const uint32_t Budget = A.rootBudget();
  EXPECT_TRUE(A.equivalent(L1, L2, Budget));
  EXPECT_FALSE(A.equivalent(L1, L3, Budget));
  TraceNode *KidsA[2] = {L1, L3};
  TraceNode *KidsB[2] = {L2, L3};
  TraceNode *NA = A.node(Opcode::AddF64, 1, 3.0, KidsA, 2);
  TraceNode *NB = A.node(Opcode::AddF64, 9, 3.0, KidsB, 2);
  TraceNode *NC = A.node(Opcode::SubF64, 9, 3.0, KidsB, 2);
  EXPECT_TRUE(A.equivalent(NA, NB, Budget)); // site does not matter
  EXPECT_FALSE(A.equivalent(NA, NC, Budget));
  for (TraceNode *N : {L1, L2, L3, NA, NB, NC})
    A.release(N);
}

//===----------------------------------------------------------------------===//
// Symbolize and anti-unify
//===----------------------------------------------------------------------===//

namespace {
struct AUFixture : ::testing::Test {
  TraceArena A{64, 5};
  uint32_t NextVar = 0;
  AntiUnifyScratch Round;
  std::vector<VarBinding> &Bindings = Round.Bindings;

  /// trace of (x + 1) for a given x value.
  TraceNode *addOne(double X) {
    TraceNode *L = A.leaf(X);
    TraceNode *One = A.leaf(1.0);
    TraceNode *Kids[2] = {L, One};
    TraceNode *N = A.node(Opcode::AddF64, 11, X + 1, Kids, 2);
    A.release(L);
    A.release(One);
    return N;
  }
};
} // namespace

TEST_F(AUFixture, FirstTraceBecomesConstants) {
  TraceNode *T = addOne(2.0);
  auto E = symbolize(A, T);
  EXPECT_EQ(E->fpcoreBody(), "(+ 2 1)");
  EXPECT_EQ(E->numVars(), 0u);
  A.release(T);
}

TEST_F(AUFixture, VaryingLeafBecomesVariableConstantStays) {
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = addOne(3.0);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Idx, 0u);
  EXPECT_EQ(Bindings[0].Value, 3.0);
  // Third round: variable stays stable.
  TraceNode *T3 = addOne(5.0);
  antiUnify(A, *E, T3, NextVar, Round);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Value, 5.0);
  A.release(T1);
  A.release(T2);
  A.release(T3);
}

TEST_F(AUFixture, EquivalentSubtreesShareOneVariable) {
  // x*x: both kids are the same value each round => one variable.
  auto Square = [&](double X) {
    TraceNode *L = A.leaf(X);
    TraceNode *Kids[2] = {L, L};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * X, Kids, 2);
    A.release(L);
    return N;
  };
  TraceNode *T1 = Square(2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Square(3.0);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->fpcoreBody(), "(* x x)");
  EXPECT_EQ(E->numVars(), 1u);
  A.release(T1);
  A.release(T2);
}

TEST_F(AUFixture, IndependentLeavesGetDistinctVariables) {
  auto Mul = [&](double X, double Y) {
    TraceNode *L1 = A.leaf(X);
    TraceNode *L2 = A.leaf(Y);
    TraceNode *Kids[2] = {L1, L2};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * Y, Kids, 2);
    A.release(L1);
    A.release(L2);
    return N;
  };
  TraceNode *T1 = Mul(2.0, 7.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Mul(3.0, 8.0);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->fpcoreBody(), "(* x y)");
  EXPECT_EQ(E->numVars(), 2u);
  A.release(T1);
  A.release(T2);
}

TEST_F(AUFixture, StructuralMismatchGeneralizesToVariable) {
  // (x + 1) vs (sqrt(y) + 1): first kid generalizes to a variable.
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *L = A.leaf(9.0);
  TraceNode *SqrtKids[1] = {L};
  TraceNode *Sq = A.node(Opcode::SqrtF64, 5, 3.0, SqrtKids, 1);
  TraceNode *One = A.leaf(1.0);
  TraceNode *AddKids[2] = {Sq, One};
  TraceNode *T2 = A.node(Opcode::AddF64, 11, 4.0, AddKids, 2);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  // The variable bound the sqrt subtree's VALUE this round.
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Value, 3.0);
  for (TraceNode *N : {T1, L, Sq, One, T2})
    A.release(N);
}

TEST_F(AUFixture, DifferentOpsCollapseToVariable) {
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *L1 = A.leaf(2.0);
  TraceNode *L2 = A.leaf(1.0);
  TraceNode *Kids[2] = {L1, L2};
  TraceNode *T2 = A.node(Opcode::SubF64, 11, 1.0, Kids, 2);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->Kind, SymExpr::SEKind::Var);
  for (TraceNode *N : {T1, L1, L2, T2})
    A.release(N);
}

TEST_F(AUFixture, SplitVariablesWhenValuesDiverge) {
  // Rounds 1-2 make (* x x); round 3 has different kid values, so the
  // variable must split.
  auto Mul = [&](double X, double Y) {
    TraceNode *L1 = A.leaf(X);
    TraceNode *L2 = A.leaf(Y);
    TraceNode *Kids[2] = {L1, L2};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * Y, Kids, 2);
    A.release(L1);
    A.release(L2);
    return N;
  };
  TraceNode *T1 = Mul(2.0, 2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Mul(3.0, 3.0);
  antiUnify(A, *E, T2, NextVar, Round);
  EXPECT_EQ(E->numVars(), 1u);
  TraceNode *T3 = Mul(4.0, 5.0);
  antiUnify(A, *E, T3, NextVar, Round);
  EXPECT_EQ(E->numVars(), 2u);
  EXPECT_EQ(E->Kids[0]->Kind, SymExpr::SEKind::Var);
  EXPECT_EQ(E->Kids[1]->Kind, SymExpr::SEKind::Var);
  EXPECT_NE(E->Kids[0]->VarIdx, E->Kids[1]->VarIdx);
  for (TraceNode *N : {T1, T2, T3})
    A.release(N);
}

TEST_F(AUFixture, GeneralizationIsIdempotentOnRepeatedTraces) {
  TraceNode *T1 = addOne(2.0);
  auto E1 = symbolize(A, T1);
  TraceNode *T2 = addOne(3.0);
  antiUnify(A, *E1, T2, NextVar, Round);
  std::string Stable = E1->fpcoreBody();
  for (int I = 0; I < 5; ++I) {
    TraceNode *T = addOne(3.0);
    antiUnify(A, *E1, T, NextVar, Round);
    EXPECT_EQ(E1->fpcoreBody(), Stable);
    A.release(T);
  }
  A.release(T1);
  A.release(T2);
}

//===----------------------------------------------------------------------===//
// In-place generalization against the rebuilding oracle
//===----------------------------------------------------------------------===//

namespace {

/// The rebuilding anti-unification that antiUnify replaced, kept verbatim
/// as the oracle: each round builds a fresh expression from the old one
/// and the trace, with per-round hash maps. The rebuilding merge that
/// antiUnifyMerge replaced follows it.
namespace oracle {

uint64_t symFingerprint(const SymExpr *E, uint32_t DepthLeft) {
  auto Mix = [](uint64_t H, uint64_t X) {
    H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    return H;
  };
  switch (E->Kind) {
  case SymExpr::SEKind::Var:
    return Mix(0x7a1, E->VarIdx);
  case SymExpr::SEKind::Const:
    return Mix(0xc0, bitsOfDouble(E->ConstVal));
  case SymExpr::SEKind::Op: {
    uint64_t H = Mix(0x09, static_cast<uint64_t>(E->Op));
    if (DepthLeft == 0)
      return H;
    for (const auto &Kid : E->Kids)
      H = Mix(H, symFingerprint(Kid.get(), DepthLeft - 1));
    return H;
  }
  }
  return 0;
}

struct PairKey {
  uint64_t SymFP, ConcFP;
  bool operator==(const PairKey &O) const {
    return SymFP == O.SymFP && ConcFP == O.ConcFP;
  }
};
struct PairKeyHash {
  size_t operator()(const PairKey &K) const {
    return K.SymFP * 0x9e3779b97f4a7c15ULL ^ K.ConcFP;
  }
};

struct Generalizer {
  TraceArena &Arena;
  uint32_t &NextVarIdx;
  std::vector<VarBinding> &Bindings;
  std::vector<Promotion> *Promotions;
  std::unordered_map<PairKey, uint32_t, PairKeyHash> VarForPair;
  std::unordered_set<uint32_t> ReusedThisRound;

  std::unique_ptr<SymExpr> makeVariable(const SymExpr *S, TraceNode *T,
                                        uint32_t Budget) {
    PairKey Key{symFingerprint(S, Arena.equivDepth()),
                Arena.fingerprint(T, Budget)};
    auto It = VarForPair.find(Key);
    uint32_t Idx;
    if (It != VarForPair.end()) {
      Idx = It->second;
    } else {
      if (S->Kind == SymExpr::SEKind::Var &&
          !ReusedThisRound.count(S->VarIdx)) {
        Idx = S->VarIdx;
      } else {
        Idx = NextVarIdx++;
      }
      ReusedThisRound.insert(Idx);
      VarForPair.emplace(Key, Idx);
      Bindings.push_back({Idx, T->Value});
      if (Promotions && S->Kind == SymExpr::SEKind::Const)
        Promotions->push_back({Idx, S->ConstVal});
    }
    return SymExpr::makeVar(Idx);
  }

  /// \p T is read at \p Budget: at budget 1 it is a leaf.
  std::unique_ptr<SymExpr> gen(const SymExpr *S, TraceNode *T,
                               uint32_t Budget) {
    bool TOp = T->Kind == TraceNode::TNKind::Op && Budget > 1;
    if (S->Kind == SymExpr::SEKind::Op && TOp && S->Op == T->Op &&
        S->Kids.size() == T->NumKids) {
      auto E = SymExpr::makeOp(S->Op, T->Site);
      for (unsigned I = 0; I < T->NumKids; ++I)
        E->Kids.push_back(gen(S->Kids[I].get(), T->Kids[I], Budget - 1));
      return E;
    }
    if (S->Kind == SymExpr::SEKind::Const && !TOp &&
        bitsOfDouble(S->ConstVal) == bitsOfDouble(T->Value))
      return SymExpr::makeConst(S->ConstVal);
    return makeVariable(S, T, Budget);
  }
};

std::unique_ptr<SymExpr> antiUnify(TraceArena &Arena, const SymExpr *Expr,
                                   TraceNode *Trace, uint32_t &NextVarIdx,
                                   std::vector<VarBinding> &Bindings,
                                   std::vector<Promotion> *Promotions) {
  Bindings.clear();
  if (Promotions)
    Promotions->clear();
  Generalizer G{Arena, NextVarIdx, Bindings, Promotions, {}, {}};
  return G.gen(Expr, Trace, Arena.rootBudget());
}


/// The rebuilding merge of two accumulated expressions that
/// antiUnifyMerge replaced, kept verbatim as its oracle: it collects the
/// sites, numbers them, and builds a fresh merged expression.
/// One generalization site of the A/B alignment: a unique (A-subtree,
/// B-subtree) equivalence-class pair that becomes one merged variable.
struct MergeSite {
  PairKey Key;
  const SymExpr *SA;
  const SymExpr *SB;
  uint32_t AssignedIdx = 0;
  bool Assigned = false;
  bool BTime = false; ///< Created when B generalized (vs on B's 1st round).
};

/// Shared state of one expression-vs-expression merge.
struct ExprMerger {
  uint32_t EquivDepth;
  const std::vector<std::pair<bool, double>> &BFirstValues;
  std::vector<MergeSite> Sites; ///< In first-visit traversal order.
  std::unordered_map<PairKey, size_t, PairKeyHash> SiteForPair;

  bool aligned(const SymExpr *SA, const SymExpr *SB) const {
    if (SA->Kind == SymExpr::SEKind::Op && SB->Kind == SymExpr::SEKind::Op)
      return SA->Op == SB->Op && SA->Kids.size() == SB->Kids.size();
    if (SA->Kind == SymExpr::SEKind::Const &&
        SB->Kind == SymExpr::SEKind::Const)
      return bitsOfDouble(SA->ConstVal) == bitsOfDouble(SB->ConstVal);
    return false;
  }

  void collect(const SymExpr *SA, const SymExpr *SB) {
    if (aligned(SA, SB) && SA->Kind == SymExpr::SEKind::Op) {
      for (size_t I = 0; I < SA->Kids.size(); ++I)
        collect(SA->Kids[I].get(), SB->Kids[I].get());
      return;
    }
    if (aligned(SA, SB))
      return; // equal constants stay concrete
    PairKey Key{symFingerprint(SA, EquivDepth), symFingerprint(SB, EquivDepth)};
    if (SiteForPair.count(Key))
      return;
    SiteForPair.emplace(Key, Sites.size());
    Sites.push_back({Key, SA, SB, 0, false, false});
  }

  /// Would sequential processing have generalized this site on B's very
  /// first round (making its index precede every variable B itself
  /// created), or only when B generalized it?
  bool isBTime(const MergeSite &S) const {
    if (S.SB->Kind != SymExpr::SEKind::Var)
      return false; // B ended concrete: the sides simply disagree -> round 1
    if (S.SA->Kind == SymExpr::SEKind::Const) {
      uint32_t J = S.SB->VarIdx;
      if (J < BFirstValues.size() && BFirstValues[J].first &&
          bitsOfDouble(BFirstValues[J].second) !=
              bitsOfDouble(S.SA->ConstVal))
        return false; // disagreed already on B's first observation
      return true;
    }
    if (S.SA->Kind == SymExpr::SEKind::Op)
      return false; // structural mismatch surfaces immediately
    return true;    // A variable splitting against a B variable
  }

  void assignIndices(uint32_t &NextVarIdx, std::vector<MergedVar> &Vars) {
    // Pass 1: A-side variables keep their index (first claim wins, exactly
    // like ReusedThisRound on the incremental path).
    std::unordered_set<uint32_t> ClaimedA;
    for (MergeSite &S : Sites)
      if (S.SA->Kind == SymExpr::SEKind::Var &&
          ClaimedA.insert(S.SA->VarIdx).second) {
        S.AssignedIdx = S.SA->VarIdx;
        S.Assigned = true;
      }
    // Pass 2: new variables. Sites that sequential processing would have
    // generalized on B's first round come first in traversal order; sites
    // created only when B generalized follow in B's creation order (B's
    // variable indices are monotone in creation time).
    std::vector<size_t> Fresh;
    for (size_t I = 0; I < Sites.size(); ++I)
      if (!Sites[I].Assigned) {
        Sites[I].BTime = isBTime(Sites[I]);
        Fresh.push_back(I);
      }
    std::stable_sort(Fresh.begin(), Fresh.end(), [&](size_t X, size_t Y) {
      const MergeSite &SX = Sites[X], &SY = Sites[Y];
      if (SX.BTime != SY.BTime)
        return !SX.BTime; // first-round sites precede B-created sites
      if (SX.BTime && SX.SB->VarIdx != SY.SB->VarIdx)
        return SX.SB->VarIdx < SY.SB->VarIdx;
      return false; // stable: traversal order breaks ties
    });
    for (size_t I : Fresh) {
      Sites[I].AssignedIdx = NextVarIdx++;
      Sites[I].Assigned = true;
    }
    // Report provenance.
    for (const MergeSite &S : Sites) {
      MergedVar V;
      V.Idx = S.AssignedIdx;
      auto Classify = [](const SymExpr *E, MergedVar::Source &Src,
                         uint32_t &Var, double &Const) {
        switch (E->Kind) {
        case SymExpr::SEKind::Var:
          Src = MergedVar::Source::Var;
          Var = E->VarIdx;
          break;
        case SymExpr::SEKind::Const:
          Src = MergedVar::Source::Const;
          Const = E->ConstVal;
          break;
        case SymExpr::SEKind::Op:
          Src = MergedVar::Source::Subtree;
          break;
        }
      };
      Classify(S.SA, V.A, V.AVar, V.AConst);
      Classify(S.SB, V.B, V.BVar, V.BConst);
      V.KeptA = V.A == MergedVar::Source::Var && V.Idx == V.AVar;
      Vars.push_back(V);
    }
  }

  std::unique_ptr<SymExpr> rebuild(const SymExpr *SA, const SymExpr *SB) {
    if (aligned(SA, SB) && SA->Kind == SymExpr::SEKind::Op) {
      auto E = SymExpr::makeOp(SA->Op, SA->Site);
      E->Kids.reserve(SA->Kids.size());
      for (size_t I = 0; I < SA->Kids.size(); ++I)
        E->Kids.push_back(rebuild(SA->Kids[I].get(), SB->Kids[I].get()));
      return E;
    }
    if (aligned(SA, SB))
      return SymExpr::makeConst(SA->ConstVal);
    PairKey Key{symFingerprint(SA, EquivDepth), symFingerprint(SB, EquivDepth)};
    return SymExpr::makeVar(Sites[SiteForPair.at(Key)].AssignedIdx);
  }
};

std::unique_ptr<SymExpr> antiUnifyExprs(
    const SymExpr *A, const SymExpr *B, uint32_t EquivDepth,
    const std::vector<std::pair<bool, double>> &BFirstValues,
    uint32_t &NextVarIdx, std::vector<MergedVar> &Vars) {
  Vars.clear();
  ExprMerger M{EquivDepth, BFirstValues, {}, {}};
  M.collect(A, B);
  M.assignIndices(NextVarIdx, Vars);
  return M.rebuild(A, B);
}

} // namespace oracle

/// Random traces for one operation site. The shape seed fixes the
/// structure (and the leaves that stay constant), so rounds that reuse it
/// agree structurally; the value generator draws the other leaves and the
/// op sites from a small pool, so leaf values and whole subtrees repeat.
/// A quarter of binary ops share one kid (x*x).
class RandomTraces {
public:
  RandomTraces(TraceArena &A, uint64_t ValueSeed) : A(A), Vals(ValueSeed) {}

  TraceNode *make(uint64_t ShapeSeed) {
    std::mt19937_64 Shape(ShapeSeed);
    return build(Shape, 6);
  }

private:
  double pick(uint64_t R) {
    static const double Pool[] = {0.5, 1.0, 2.0, 3.0, -0.0,
                                  std::numeric_limits<double>::quiet_NaN()};
    return Pool[R % (sizeof(Pool) / sizeof(Pool[0]))];
  }

  TraceNode *build(std::mt19937_64 &Shape, int Depth) {
    if (Depth == 0 || Shape() % 4 == 0)
      return A.leaf(Shape() % 2 ? pick(Shape()) : pick(Vals()));
    static const Opcode Binary[] = {Opcode::AddF64, Opcode::SubF64,
                                    Opcode::MulF64, Opcode::DivF64};
    unsigned Arity = 1 + Shape() % 2;
    Opcode Op = Arity == 1 ? (Shape() % 2 ? Opcode::SqrtF64 : Opcode::NegF64)
                           : Binary[Shape() % 4];
    TraceNode *Kids[2];
    Kids[0] = build(Shape, Depth - 1);
    if (Arity == 2) {
      if (Shape() % 4 == 0) {
        Kids[1] = Kids[0];
        A.retain(Kids[1]);
      } else {
        Kids[1] = build(Shape, Depth - 1);
      }
    }
    double Value = 2 * Kids[0]->Value + (Arity == 2 ? Kids[1]->Value : 0.0);
    uint32_t Site = 100 + static_cast<uint32_t>(Vals() % 3);
    TraceNode *N = A.node(Op, Site, Value, Kids, Arity);
    for (unsigned I = 0; I < Arity; ++I)
      A.release(Kids[I]);
    return N;
  }

  TraceArena &A;
  std::mt19937_64 Vals;
};

/// Node-by-node equality, sites included.
void expectSameTree(const SymExpr &Got, const SymExpr &Want) {
  ASSERT_EQ(Got.Kind, Want.Kind);
  EXPECT_EQ(Got.Site, Want.Site);
  switch (Got.Kind) {
  case SymExpr::SEKind::Var:
    EXPECT_EQ(Got.VarIdx, Want.VarIdx);
    break;
  case SymExpr::SEKind::Const:
    EXPECT_EQ(bitsOfDouble(Got.ConstVal), bitsOfDouble(Want.ConstVal));
    break;
  case SymExpr::SEKind::Op:
    EXPECT_EQ(Got.Op, Want.Op);
    break;
  }
  ASSERT_EQ(Got.Kids.size(), Want.Kids.size());
  for (size_t I = 0; I < Got.Kids.size(); ++I)
    expectSameTree(*Got.Kids[I], *Want.Kids[I]);
}

void collectNodes(const SymExpr &E, std::vector<const SymExpr *> &Out) {
  Out.push_back(&E);
  for (const auto &Kid : E.Kids)
    collectNodes(*Kid, Out);
}

} // namespace

TEST(AntiUnifyInPlace, MatchesRebuildingOracleOnRandomTraces) {
  for (uint32_t MaxDepth : {4u, 24u}) {
    TraceArena A(MaxDepth, 5);
    RandomTraces Gen(A, 0x5eed0000 + MaxDepth);
    std::mt19937_64 Pick(0xd1ff + MaxDepth);
    // One scratch serves every site, as one analyzer's does.
    AntiUnifyScratch InPlaceRound;
    const std::vector<VarBinding> &BindInPlace = InPlaceRound.Bindings;
    const std::vector<Promotion> &PromInPlace = InPlaceRound.Promotions;
    for (int Site = 0; Site < 150; ++Site) {
      SCOPED_TRACE("max depth " + std::to_string(MaxDepth) + ", site " +
                   std::to_string(Site));
      // Most rounds reuse the site's shape; the rest draw from three
      // others, so structural mismatches recur too.
      uint64_t Base = Pick();
      auto NextShape = [&] {
        return Pick() % 8 < 6 ? Base : Base + 1 + Pick() % 3;
      };
      TraceNode *T0 = Gen.make(NextShape());
      std::unique_ptr<SymExpr> InPlace = symbolize(A, T0);
      std::unique_ptr<SymExpr> Oracle = symbolize(A, T0);
      A.release(T0);
      uint32_t NextInPlace = 0, NextOracle = 0;
      std::vector<VarBinding> BindOracle;
      std::vector<Promotion> PromOracle;
      for (int Round = 1; Round < 30; ++Round) {
        TraceNode *T = Gen.make(NextShape());
        antiUnify(A, *InPlace, T, NextInPlace, InPlaceRound);
        Oracle = oracle::antiUnify(A, Oracle.get(), T, NextOracle, BindOracle,
                                   &PromOracle);
        A.release(T);
        ASSERT_EQ(InPlace->fpcoreBody(), Oracle->fpcoreBody())
            << "round " << Round;
        expectSameTree(*InPlace, *Oracle);
        ASSERT_EQ(NextInPlace, NextOracle) << "round " << Round;
        ASSERT_EQ(BindInPlace.size(), BindOracle.size()) << "round " << Round;
        for (size_t I = 0; I < BindInPlace.size(); ++I) {
          EXPECT_EQ(BindInPlace[I].Idx, BindOracle[I].Idx);
          EXPECT_EQ(bitsOfDouble(BindInPlace[I].Value),
                    bitsOfDouble(BindOracle[I].Value));
        }
        ASSERT_EQ(PromInPlace.size(), PromOracle.size()) << "round " << Round;
        for (size_t I = 0; I < PromInPlace.size(); ++I) {
          EXPECT_EQ(PromInPlace[I].Idx, PromOracle[I].Idx);
          EXPECT_EQ(bitsOfDouble(PromInPlace[I].OldValue),
                    bitsOfDouble(PromOracle[I].OldValue));
        }
        if (HasFatalFailure())
          return;
      }
    }
    EXPECT_EQ(A.liveNodes(), 0u);
  }
}

namespace {

/// One side of a merge as an analysis accumulates it: the expression of a
/// few rounds of random traces, its next variable index, and each
/// variable's {known, first value} read off the record's summaries the
/// way OpRecord::mergeFrom reads them.
struct MergeSide {
  std::unique_ptr<SymExpr> Expr;
  uint32_t Next = 0;
  std::vector<std::pair<bool, double>> First;
};

template <typename ShapeFn>
MergeSide accumulate(TraceArena &A, RandomTraces &Gen, AntiUnifyScratch &Round,
                     ShapeFn NextShape, int Rounds) {
  MergeSide S;
  InputCharacteristics Total;
  for (int R = 0; R < Rounds; ++R) {
    TraceNode *T = Gen.make(NextShape());
    if (!S.Expr) {
      S.Expr = symbolize(A, T);
    } else {
      antiUnify(A, *S.Expr, T, S.Next, Round);
      for (const Promotion &Pr : Round.Promotions)
        Total.addRepeated(Pr.Idx, Pr.OldValue, R);
      Total.record(Round.Bindings);
    }
    A.release(T);
  }
  for (const VarSummary &VS : Total.Vars)
    S.First.push_back({VS.Count > 0 && !VS.SawNaN, VS.Example});
  return S;
}

/// Gives each variable leaf of \p E an index drawn below \p Bound: where
/// the expression repeats a variable, the copies mostly part ways.
void renameVars(SymExpr &E, std::mt19937_64 &Pick, uint32_t Bound) {
  if (E.Kind == SymExpr::SEKind::Var)
    E.VarIdx = static_cast<uint32_t>(Pick() % Bound);
  for (auto &Kid : E.Kids)
    renameVars(*Kid, Pick, Bound);
}

} // namespace

TEST(AntiUnifyMerge, MatchesRebuildingOracleOnRandomPairs) {
  using Src = MergedVar::Source;
  size_t Equal = 0, ConstConst = 0, ConstVar = 0, OpVar = 0, Splits = 0;
  for (uint32_t MaxDepth : {4u, 24u}) {
    TraceArena A(MaxDepth, 5);
    RandomTraces Gen(A, 0xfa110000 + MaxDepth);
    std::mt19937_64 Pick(0x3e49e + MaxDepth);
    AntiUnifyScratch Round;
    // One scratch serves every merge, as one thread's does.
    MergeScratch Merge;
    for (int Pair = 0; Pair < 300; ++Pair) {
      SCOPED_TRACE("max depth " + std::to_string(MaxDepth) + ", pair " +
                   std::to_string(Pair));
      // Both sides draw mostly from one shape, so they agree structurally
      // except where a side drew one of three others.
      uint64_t Base = Pick();
      auto NextShape = [&] {
        return Pick() % 8 < 6 ? Base : Base + 1 + Pick() % 3;
      };
      MergeSide SA = accumulate(A, Gen, Round, NextShape, 1 + Pick() % 5);
      // A fifth of the pairs are equal, a fifth are A with its variables
      // renamed (which splits the variables A repeats), and the rest are
      // drawn independently.
      MergeSide SB;
      unsigned Kind = Pick() % 5;
      bool EqualPair = Kind == 0;
      if (Kind < 2) {
        SB.Expr = SA.Expr->clone();
        SB.Next = SA.Next;
        SB.First = SA.First;
        Equal += EqualPair;
        if (!EqualPair && SA.Next > 0) {
          SB.Next = SA.Next + 2;
          renameVars(*SB.Expr, Pick, SB.Next);
          SB.First.resize(SB.Next, {true, 0.5});
        }
      } else {
        SB = accumulate(A, Gen, Round, NextShape, 1 + Pick() % 5);
      }

      uint32_t NextOracle = SA.Next, NextInPlace = SA.Next;
      std::vector<MergedVar> VarsOracle;
      std::unique_ptr<SymExpr> Oracle =
          oracle::antiUnifyExprs(SA.Expr.get(), SB.Expr.get(), A.equivDepth(),
                                 SB.First, NextOracle, VarsOracle);
      std::unique_ptr<SymExpr> Before = SA.Expr->clone();
      std::vector<const SymExpr *> NodesBefore;
      collectNodes(*SA.Expr, NodesBefore);
      Merge.BFirstValues = SB.First;
      antiUnifyMerge(*SA.Expr, *SB.Expr, A.equivDepth(), NextInPlace, Merge);

      ASSERT_EQ(SA.Expr->fpcoreBody(), Oracle->fpcoreBody());
      expectSameTree(*SA.Expr, *Oracle);
      EXPECT_EQ(NextInPlace, NextOracle);
      ASSERT_EQ(Merge.Vars.size(), VarsOracle.size());
      for (size_t I = 0; I < VarsOracle.size(); ++I) {
        const MergedVar &Got = Merge.Vars[I], &Want = VarsOracle[I];
        SCOPED_TRACE("merged variable " + std::to_string(I));
        EXPECT_EQ(Got.Idx, Want.Idx);
        EXPECT_EQ(Got.A, Want.A);
        EXPECT_EQ(Got.B, Want.B);
        EXPECT_EQ(Got.AVar, Want.AVar);
        EXPECT_EQ(Got.BVar, Want.BVar);
        EXPECT_EQ(bitsOfDouble(Got.AConst), bitsOfDouble(Want.AConst));
        EXPECT_EQ(bitsOfDouble(Got.BConst), bitsOfDouble(Want.BConst));
        EXPECT_EQ(Got.KeptA, Want.KeptA);
        if (Want.A == Src::Var) {
          EXPECT_TRUE(Merge.KeptA.find(Want.AVar, 0));
        }
        ConstConst += Want.A == Src::Const && Want.B == Src::Const;
        ConstVar += (Want.A == Src::Const && Want.B == Src::Var) ||
                    (Want.A == Src::Var && Want.B == Src::Const);
        OpVar += (Want.A == Src::Subtree && Want.B == Src::Var) ||
                 (Want.A == Src::Var && Want.B == Src::Subtree);
        Splits += Want.A == Src::Var && !Want.KeptA;
      }
      if (EqualPair) {
        // Equal sides: nothing generalizes and no node is replaced.
        std::vector<const SymExpr *> NodesAfter;
        collectNodes(*SA.Expr, NodesAfter);
        EXPECT_EQ(NodesAfter, NodesBefore);
        expectSameTree(*SA.Expr, *Before);
        EXPECT_EQ(NextInPlace, SA.Next);
      }
      if (HasFatalFailure())
        return;
    }
    EXPECT_EQ(A.liveNodes(), 0u);
  }
  // Every kind of position the merge generalizes came up.
  EXPECT_GT(Equal, 0u);
  EXPECT_GT(ConstConst, 0u);
  EXPECT_GT(ConstVar, 0u);
  EXPECT_GT(OpVar, 0u);
  EXPECT_GT(Splits, 0u);
  std::printf("merge pairs: %zu equal; merged variables: %zu const/const, "
              "%zu const/var, %zu op/var, %zu splits\n",
              Equal, ConstConst, ConstVar, OpVar, Splits);
}

TEST_F(AUFixture, ConvergedRoundKeepsEveryNode) {
  // (x + 1) * sqrt(x): after the first disagreement the expression has
  // converged, and a later round must update it without replacing any
  // node.
  auto Make = [&](double X) {
    TraceNode *L = A.leaf(X);
    TraceNode *One = A.leaf(1.0);
    TraceNode *AddKids[2] = {L, One};
    TraceNode *Add = A.node(Opcode::AddF64, 1, X + 1, AddKids, 2);
    TraceNode *SqKids[1] = {L};
    TraceNode *Sq = A.node(Opcode::SqrtF64, 2, std::sqrt(X), SqKids, 1);
    TraceNode *MulKids[2] = {Add, Sq};
    TraceNode *Mul =
        A.node(Opcode::MulF64, 3, (X + 1) * std::sqrt(X), MulKids, 2);
    for (TraceNode *N : {L, One, Add, Sq})
      A.release(N);
    return Mul;
  };
  TraceNode *T1 = Make(2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Make(3.0);
  antiUnify(A, *E, T2, NextVar, Round);
  ASSERT_EQ(E->fpcoreBody(), "(* (+ x 1) (sqrt x))");
  std::vector<const SymExpr *> Before;
  collectNodes(*E, Before);
  for (double X : {5.0, 7.0, 11.0}) {
    TraceNode *T = Make(X);
    antiUnify(A, *E, T, NextVar, Round);
    A.release(T);
    std::vector<const SymExpr *> After;
    collectNodes(*E, After);
    EXPECT_EQ(After, Before);
    EXPECT_EQ(E->fpcoreBody(), "(* (+ x 1) (sqrt x))");
    ASSERT_EQ(Bindings.size(), 1u);
    EXPECT_EQ(Bindings[0].Value, X);
    EXPECT_EQ(NextVar, 1u);
  }
  A.release(T1);
  A.release(T2);
}

TEST(SymExpr, OpCountAndPrinting) {
  // (- (sqrt (+ (* x x) (* y y))) x): the paper's plotter root cause.
  auto X = SymExpr::makeVar(0);
  auto Y = SymExpr::makeVar(1);
  auto Sq1 = SymExpr::makeOp(Opcode::MulF64, 1);
  Sq1->Kids.push_back(X->clone());
  Sq1->Kids.push_back(X->clone());
  auto Sq2 = SymExpr::makeOp(Opcode::MulF64, 2);
  Sq2->Kids.push_back(Y->clone());
  Sq2->Kids.push_back(Y->clone());
  auto Add = SymExpr::makeOp(Opcode::AddF64, 3);
  Add->Kids.push_back(std::move(Sq1));
  Add->Kids.push_back(std::move(Sq2));
  auto Sqrt = SymExpr::makeOp(Opcode::SqrtF64, 4);
  Sqrt->Kids.push_back(std::move(Add));
  auto Sub = SymExpr::makeOp(Opcode::SubF64, 5);
  Sub->Kids.push_back(std::move(Sqrt));
  Sub->Kids.push_back(X->clone());
  EXPECT_EQ(Sub->fpcoreBody(), "(- (sqrt (+ (* x x) (* y y))) x)");
  EXPECT_EQ(Sub->opCount(), 5u);
  EXPECT_EQ(Sub->numVars(), 2u);
}
