//===- tests/test_trace.cpp - Trace and anti-unification tests ------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/SymExpr.h"
#include "trace/TraceNode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>

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

TEST(TraceArena, DepthBoundTrimsDeepChains) {
  TraceArena A(/*MaxDepth=*/4);
  TraceNode *Cur = A.leaf(0.0);
  for (int I = 1; I <= 20; ++I) {
    TraceNode *Kids[1] = {Cur};
    TraceNode *Next = A.node(Opcode::SqrtF64, 1, double(I), Kids, 1);
    A.release(Cur);
    Cur = Next;
    EXPECT_LE(Cur->Depth, 4u);
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
/// (acc = acc + c), a shared kid (x = x*x + c) and a Fibonacci DAG
/// (a, b = b, a+b).
enum class Shape { Chain, SharedKid, Fibonacci };

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
  // frees its trimmed copy, so live nodes stop growing once traces reach
  // the bound, and nothing outlives the last value.
  for (uint32_t D : {4u, 24u}) {
    for (Shape S : {Shape::Chain, Shape::SharedKid, Shape::Fibonacci}) {
      SCOPED_TRACE(std::string(shapeName(S)) + " at depth " +
                   std::to_string(D));
      TraceArena A(D);
      size_t PeakFirst100 = 0, Peak = 0;
      {
        LoopCarried Loop(A, S);
        for (int I = 1; I <= 5000; ++I) {
          Loop.step(I);
          Peak = std::max(Peak, A.liveNodes());
          if (I == 100)
            PeakFirst100 = Peak;
        }
      }
      EXPECT_LE(Peak, PeakFirst100);
      EXPECT_EQ(A.liveNodes(), 0u);
      // One trim per node that reaches the bound, as with a cache keyed by
      // (node, depth): 10001 loop nodes plus 4977 trims of 23 nodes.
      if (D == 24 && S == Shape::Chain) {
        EXPECT_EQ(A.totalAllocated(), 124472u);
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
        ASSERT_EQ(B.value()->str(), referenceCut(F.value(), D, Store)->str())
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

TEST(TraceArena, EquivalenceRespectsValuesAndStructure) {
  TraceArena A;
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *L2 = A.leaf(1.0);
  TraceNode *L3 = A.leaf(2.0);
  EXPECT_TRUE(A.equivalent(L1, L2));
  EXPECT_FALSE(A.equivalent(L1, L3));
  TraceNode *KidsA[2] = {L1, L3};
  TraceNode *KidsB[2] = {L2, L3};
  TraceNode *NA = A.node(Opcode::AddF64, 1, 3.0, KidsA, 2);
  TraceNode *NB = A.node(Opcode::AddF64, 9, 3.0, KidsB, 2);
  TraceNode *NC = A.node(Opcode::SubF64, 9, 3.0, KidsB, 2);
  EXPECT_TRUE(A.equivalent(NA, NB)); // site does not matter
  EXPECT_FALSE(A.equivalent(NA, NC));
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
  std::vector<VarBinding> Bindings;

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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Idx, 0u);
  EXPECT_EQ(Bindings[0].Value, 3.0);
  // Third round: variable stays stable.
  TraceNode *T3 = addOne(5.0);
  E = antiUnify(A, E.get(), T3, NextVar, Bindings);
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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
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
  E = antiUnify(A, E.get(), T2, NextVar, Bindings);
  EXPECT_EQ(E->numVars(), 1u);
  TraceNode *T3 = Mul(4.0, 5.0);
  E = antiUnify(A, E.get(), T3, NextVar, Bindings);
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
  auto E2 = antiUnify(A, E1.get(), T2, NextVar, Bindings);
  std::string Stable = E2->fpcoreBody();
  for (int I = 0; I < 5; ++I) {
    TraceNode *T = addOne(3.0);
    E2 = antiUnify(A, E2.get(), T, NextVar, Bindings);
    EXPECT_EQ(E2->fpcoreBody(), Stable);
    A.release(T);
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
