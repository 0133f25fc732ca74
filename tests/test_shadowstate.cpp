//===- tests/test_shadowstate.cpp - Shadow storage unit tests -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "shadow/ShadowState.h"

#include <gtest/gtest.h>

using namespace herbgrind;

namespace {

struct ShadowFixture : ::testing::Test {
  TraceArena Arena{24, 5};
  InfluenceSets Sets;
  ShadowState State{Arena, /*NumTemps=*/8};

  ShadowValue *mk(double V) {
    return State.create(BigFloat::fromDouble(V), Arena.leaf(V), Sets.empty(),
                        ValueType::F64);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Influence sets
//===----------------------------------------------------------------------===//

TEST(InfluenceSets, EmptyIsShared) {
  InfluenceSets S;
  EXPECT_EQ(S.empty(), S.empty());
  EXPECT_TRUE(S.empty()->empty());
}

TEST(InfluenceSets, SingletonsIntern) {
  InfluenceSets S;
  EXPECT_EQ(S.singleton(5), S.singleton(5));
  EXPECT_NE(S.singleton(5), S.singleton(6));
}

TEST(InfluenceSets, UnionIsSortedAndDeduplicated) {
  InfluenceSets S;
  const InflSet *A = S.insert(S.singleton(5), 9);
  const InflSet *B = S.insert(S.singleton(9), 2);
  const InflSet *U = S.unionOf(A, B);
  EXPECT_EQ(*U, (InflSet{2, 5, 9}));
}

TEST(InfluenceSets, UnionIsMemoizedAndInterned) {
  InfluenceSets S;
  const InflSet *A = S.singleton(1);
  const InflSet *B = S.singleton(2);
  const InflSet *U1 = S.unionOf(A, B);
  const InflSet *U2 = S.unionOf(B, A); // canonicalized order
  EXPECT_EQ(U1, U2);
  // Same content built another way interns to the same set.
  EXPECT_EQ(S.insert(S.singleton(1), 2), U1);
}

TEST(InfluenceSets, UnionWithSelfAndEmpty) {
  InfluenceSets S;
  const InflSet *A = S.singleton(3);
  EXPECT_EQ(S.unionOf(A, A), A);
  EXPECT_EQ(S.unionOf(A, S.empty()), A);
  EXPECT_EQ(S.unionOf(S.empty(), A), A);
}

TEST(InfluenceSets, InsertExistingIsIdentity) {
  InfluenceSets S;
  const InflSet *A = S.insert(S.singleton(1), 2);
  EXPECT_EQ(S.insert(A, 1), A);
  EXPECT_EQ(S.insert(A, 2), A);
}

//===----------------------------------------------------------------------===//
// Shadow temps
//===----------------------------------------------------------------------===//

TEST_F(ShadowFixture, TempLanesIndependent) {
  ShadowValue *A = mk(1.0);
  ShadowValue *B = mk(2.0);
  State.setTempLane(0, 0, A);
  State.setTempLane(0, 1, B);
  EXPECT_EQ(State.tempLane(0, 0), A);
  EXPECT_EQ(State.tempLane(0, 1), B);
  EXPECT_EQ(State.tempLane(1, 0), nullptr);
  State.clearTemp(0);
  EXPECT_EQ(State.tempLane(0, 0), nullptr);
  EXPECT_EQ(State.liveValues(), 0u);
}

TEST_F(ShadowFixture, SetLaneReleasesOldValue) {
  State.setTempLane(0, 0, mk(1.0));
  State.setTempLane(0, 0, mk(2.0));
  EXPECT_EQ(State.liveValues(), 1u);
  State.clearTemp(0);
  EXPECT_EQ(State.liveValues(), 0u);
}

TEST_F(ShadowFixture, SharingBumpsRefcount) {
  ShadowValue *A = mk(1.0);
  State.setTempLane(0, 0, A);
  State.setTempLane(1, 0, State.share(A));
  EXPECT_EQ(State.liveValues(), 1u); // one object, two references
  State.clearTemp(0);
  EXPECT_EQ(State.tempLane(1, 0), A);
  State.clearTemp(1);
  EXPECT_EQ(State.liveValues(), 0u);
}

//===----------------------------------------------------------------------===//
// Thread-state shadow: byte overlap semantics (Section 5.2)
//===----------------------------------------------------------------------===//

TEST_F(ShadowFixture, ThreadStateExactMatch) {
  State.putThreadState(16, 8, mk(1.5));
  ASSERT_NE(State.getThreadState(16, 8), nullptr);
  EXPECT_EQ(State.getThreadState(16, 8)->Real.toDouble(), 1.5);
}

TEST_F(ShadowFixture, ThreadStateMisalignedReadSeesNothing) {
  State.putThreadState(16, 8, mk(1.5));
  EXPECT_EQ(State.getThreadState(20, 8), nullptr);
  EXPECT_EQ(State.getThreadState(16, 4), nullptr); // size mismatch too
}

TEST_F(ShadowFixture, OverlappingWriteInvalidates) {
  State.putThreadState(16, 8, mk(1.5));
  State.putThreadState(20, 8, mk(2.5)); // overlaps bytes 20-23
  EXPECT_EQ(State.getThreadState(16, 8), nullptr);
  ASSERT_NE(State.getThreadState(20, 8), nullptr);
}

TEST_F(ShadowFixture, AdjacentWritesDoNotInvalidate) {
  State.putThreadState(16, 8, mk(1.5));
  State.putThreadState(24, 8, mk(2.5));
  ASSERT_NE(State.getThreadState(16, 8), nullptr);
  ASSERT_NE(State.getThreadState(24, 8), nullptr);
}

TEST_F(ShadowFixture, NullPutJustInvalidates) {
  State.putThreadState(16, 8, mk(1.5));
  State.putThreadState(16, 8, nullptr);
  EXPECT_EQ(State.getThreadState(16, 8), nullptr);
  EXPECT_EQ(State.liveValues(), 0u);
}

//===----------------------------------------------------------------------===//
// Memory shadow (the lazy hash table of Section 5.2)
//===----------------------------------------------------------------------===//

TEST_F(ShadowFixture, MemoryRoundTrip) {
  State.putMemory(0x1000, 8, mk(3.25));
  ASSERT_NE(State.getMemory(0x1000, 8), nullptr);
  EXPECT_EQ(State.getMemory(0x1000, 8)->Real.toDouble(), 3.25);
  EXPECT_EQ(State.shadowedMemoryCells(), 1u);
}

TEST_F(ShadowFixture, MemoryOverlapInvalidation) {
  State.putMemory(0x1000, 8, mk(1.0));
  State.putMemory(0x1004, 8, mk(2.0)); // straddles the first cell
  EXPECT_EQ(State.getMemory(0x1000, 8), nullptr);
  ASSERT_NE(State.getMemory(0x1004, 8), nullptr);
}

TEST_F(ShadowFixture, MemoryPartialOverwriteKillsWholeCell) {
  State.putMemory(0x1000, 8, mk(1.0));
  State.invalidateMemory(0x1006, 2); // last two bytes
  EXPECT_EQ(State.getMemory(0x1000, 8), nullptr);
}

TEST_F(ShadowFixture, SimdLaneCellsReadableAtOffset) {
  // A 16-byte vector stored as two 8-byte lane cells (how the analysis
  // stores V2F64), then a scalar read of the second lane.
  State.putMemory(0x2000, 8, mk(1.0));
  State.putMemory(0x2008, 8, mk(2.0));
  ASSERT_NE(State.getMemory(0x2008, 8), nullptr);
  EXPECT_EQ(State.getMemory(0x2008, 8)->Real.toDouble(), 2.0);
}

TEST_F(ShadowFixture, F32CellsUseSize4) {
  ShadowValue *F = State.create(BigFloat::fromFloat(1.5f), Arena.leaf(1.5),
                                Sets.empty(), ValueType::F32);
  State.putMemory(0x3000, 4, F);
  ASSERT_NE(State.getMemory(0x3000, 4), nullptr);
  EXPECT_EQ(State.getMemory(0x3000, 8), nullptr);
}

//===----------------------------------------------------------------------===//
// Trace ownership through shadow values
//===----------------------------------------------------------------------===//

TEST_F(ShadowFixture, ReleasingShadowReleasesTrace) {
  size_t Before = Arena.liveNodes();
  ShadowValue *A = mk(4.0);
  EXPECT_EQ(Arena.liveNodes(), Before + 1);
  State.release(A);
  EXPECT_EQ(Arena.liveNodes(), Before);
}
