//===- bench/bench_microbench.cpp - google-benchmark primitives -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Microbenchmarks of the analysis primitives whose costs the paper's
// Section 6 engineering targets: shadow-real arithmetic at several
// precisions, trace-node construction with sharing, depth-bounded
// loop-carried traces, anti-unification, and the instrumented-vs-native
// execution gap on a small kernel.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "real/RealMath.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace herbgrind;

static void BM_BigFloatAdd(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::add(A, B));
}
BENCHMARK(BM_BigFloatAdd)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

static void BM_BigFloatMul(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::mul(A, B));
}
BENCHMARK(BM_BigFloatMul)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

static void BM_BigFloatDiv(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::div(A, B));
}
BENCHMARK(BM_BigFloatDiv)->Arg(256)->Arg(1024);

static void BM_BigFloatSqrt(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  // A full-width mantissa, like the shadow values sqrt sees in practice.
  BigFloat X = BigFloat::div(BigFloat::fromDouble(2.0, Prec),
                             BigFloat::fromDouble(3.0, Prec));
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::sqrt(X));
}
BENCHMARK(BM_BigFloatSqrt)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

static void BM_RealExp(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(1.5, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::exp(X));
}
BENCHMARK(BM_RealExp);

// The kernels the shadow sweeps lean on, at the default 256-bit shadow
// precision and on arguments of the size the corpus samples.
static void BM_RealLog(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(3.7, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::log(X));
}
BENCHMARK(BM_RealLog);

static void BM_RealCbrt(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(2.5, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::cbrt(X));
}
BENCHMARK(BM_RealCbrt);

static void BM_RealPow(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(2.5, 256);
  BigFloat Y = BigFloat::fromDouble(1.7, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::pow(X, Y));
}
BENCHMARK(BM_RealPow);

static void BM_RealCos(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(1.2, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::cos(X));
}
BENCHMARK(BM_RealCos);

static void BM_RealTanh(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(0.8, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::tanh(X));
}
BENCHMARK(BM_RealTanh);

static void BM_RealSinLargeArg(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(1e300, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::sin(X));
}
BENCHMARK(BM_RealSinLargeArg);

static void BM_RealAtan(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(0.75, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::atan(X));
}
BENCHMARK(BM_RealAtan);

static void BM_RealHypot(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(3.1, 256);
  BigFloat Y = BigFloat::fromDouble(-4.7, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::hypot(X, Y));
}
BENCHMARK(BM_RealHypot);

static void BM_ToDouble(benchmark::State &State) {
  BigFloat X = realmath::pi(256);
  for (auto _ : State)
    benchmark::DoNotOptimize(X.toDouble());
}
BENCHMARK(BM_ToDouble);

static void BM_TraceNodeChurn(benchmark::State &State) {
  TraceArena Arena(24, 5, State.range(0));
  for (auto _ : State) {
    TraceNode *A = Arena.leaf(1.0);
    TraceNode *B = Arena.leaf(2.0);
    TraceNode *Kids[2] = {A, B};
    TraceNode *N = Arena.node(Opcode::AddF64, 1, 3.0, Kids, 2);
    Arena.release(A);
    Arena.release(B);
    Arena.release(N);
  }
}
BENCHMARK(BM_TraceNodeChurn)->Arg(1)->Arg(0); // pools on / off

static void BM_TraceLoopCarried(benchmark::State &State) {
  // acc = acc + c at the default depth bound: acc is compacted to 23
  // levels each time it reaches 72, so this is the per-iteration trace
  // cost of a long loop, compaction amortized.
  TraceArena Arena(24, 5, true);
  TraceNode *Acc = Arena.leaf(0.0);
  const double C = 0.1;
  for (auto _ : State) {
    TraceNode *L = Arena.leaf(C);
    TraceNode *Kids[2] = {Acc, L};
    TraceNode *Next = Arena.node(Opcode::AddF64, 1, Acc->Value + C, Kids, 2);
    benchmark::DoNotOptimize(Next);
    Arena.release(L);
    Arena.release(Acc);
    Acc = Next;
  }
  Arena.release(Acc);
}
BENCHMARK(BM_TraceLoopCarried);

static void BM_TraceCrossLinked(benchmark::State &State) {
  // m = m + ((5 - m) * k + c) at the default depth bound: m feeds the next
  // iteration along paths of length 1 and 4, as the pid benchmark's m2
  // does, so compaction reaches window nodes at several budgets. One
  // iteration is four ops.
  TraceArena Arena(24, 5, true);
  TraceNode *M = Arena.leaf(0.0);
  for (auto _ : State) {
    TraceNode *Five = Arena.leaf(5.0);
    TraceNode *K = Arena.leaf(0.25);
    TraceNode *C = Arena.leaf(0.1);
    TraceNode *SubKids[2] = {Five, M};
    TraceNode *Sub = Arena.node(Opcode::SubF64, 1, 5.0 - M->Value, SubKids, 2);
    TraceNode *MulKids[2] = {Sub, K};
    TraceNode *Mul =
        Arena.node(Opcode::MulF64, 2, Sub->Value * 0.25, MulKids, 2);
    TraceNode *AddKids[2] = {Mul, C};
    TraceNode *Add =
        Arena.node(Opcode::AddF64, 3, Mul->Value + 0.1, AddKids, 2);
    TraceNode *NextKids[2] = {M, Add};
    TraceNode *Next =
        Arena.node(Opcode::AddF64, 4, M->Value + Add->Value, NextKids, 2);
    benchmark::DoNotOptimize(Next);
    for (TraceNode *N : {Five, K, C, Sub, Mul, Add, M})
      Arena.release(N);
    M = Next;
  }
  Arena.release(M);
}
BENCHMARK(BM_TraceCrossLinked);

static void BM_AntiUnify(benchmark::State &State) {
  TraceArena Arena(24, 5, true);
  // (x + 1) * sqrt(x): a representative small trace.
  auto MakeTrace = [&](double X) {
    TraceNode *L = Arena.leaf(X);
    TraceNode *One = Arena.leaf(1.0);
    TraceNode *AddKids[2] = {L, One};
    TraceNode *Add = Arena.node(Opcode::AddF64, 1, X + 1, AddKids, 2);
    TraceNode *SqKids[1] = {L};
    TraceNode *Sq = Arena.node(Opcode::SqrtF64, 2, std::sqrt(X), SqKids, 1);
    TraceNode *MulKids[2] = {Add, Sq};
    TraceNode *Mul =
        Arena.node(Opcode::MulF64, 3, (X + 1) * std::sqrt(X), MulKids, 2);
    Arena.release(L);
    Arena.release(One);
    Arena.release(Add);
    Arena.release(Sq);
    return Mul;
  };
  TraceNode *T0 = MakeTrace(2.0);
  auto Expr = symbolize(Arena, T0);
  uint32_t NextVar = 0;
  AntiUnifyScratch Round;
  double X = 3.0;
  std::vector<TraceNode *> Traces;
  for (auto _ : State) {
    TraceNode *T = MakeTrace(X);
    X += 1.0;
    antiUnify(Arena, *Expr, T, NextVar, Round);
    benchmark::DoNotOptimize(Round.Bindings.data());
    benchmark::ClobberMemory();
    Traces.push_back(T);
  }
  for (TraceNode *T : Traces)
    Arena.release(T);
  Arena.release(T0);
}
BENCHMARK(BM_AntiUnify);

static void BM_NativeInterp(benchmark::State &State) {
  const fpcore::Core &C = fpcore::corpus()[0];
  Program P = fpcore::compile(C);
  for (auto _ : State)
    benchmark::DoNotOptimize(interpret(P, {1e8}));
}
BENCHMARK(BM_NativeInterp);

static void BM_InstrumentedRun(benchmark::State &State) {
  const fpcore::Core &C = fpcore::corpus()[0];
  Program P = fpcore::compile(C);
  Herbgrind HG(P);
  for (auto _ : State) {
    HG.runOnInput({1e8});
    benchmark::DoNotOptimize(HG.lastOutputs());
  }
}
BENCHMARK(BM_InstrumentedRun);

BENCHMARK_MAIN();
