//===- perfbench/src/Layers.cpp - Per-layer measurement --------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Everything here calls the library's public entry points directly, one
// module at a time, so a module's cost can be read off without relying on
// timers inside the program. Spans (a no-op outside the traced run) wrap
// each call or each loop of calls into one module.
//
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "analysis/RealOps.h"
#include "engine/ResultCache.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>

using namespace perfbench;

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

std::vector<uint64_t> Tracer::selfTimes() const {
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Record &S : Spans)
    if (S.Parent >= 0) {
      uint64_t D = S.End - S.Start;
      uint64_t &P = Self[static_cast<size_t>(S.Parent)];
      P = P > D ? P - D : 0;
    }
  return Self;
}

Span::Span(Tracer &T, const char *Name) : T(T) {
  if (!T.On)
    return;
  Id = static_cast<int>(T.Spans.size());
  int Parent = T.Stack.empty() ? -1 : T.Stack.back();
  Lib.emplace(Name, "perfbench",
              format("{\"id\":%d,\"parent\":%d,\"run\":\"%s\"}", Id, Parent,
                     T.RunId.c_str()));
  T.Spans.push_back({Name, metrics::nowNanos(), 0, Parent});
  T.Stack.push_back(Id);
}

Span::~Span() {
  if (Id < 0)
    return;
  T.Spans[static_cast<size_t>(Id)].End = metrics::nowNanos();
  T.Stack.pop_back();
}

//===----------------------------------------------------------------------===//
// Serial replay
//===----------------------------------------------------------------------===//

namespace {

/// Span names of one frontend's analyzer calls.
struct AnalyzerNames {
  const char *Construct, *Reset, *Run, *Snapshot;
};
constexpr AnalyzerNames HerbgrindNames{"analysis.construct", "analysis.reset",
                                       "analysis.runOnInput",
                                       "analysis.snapshot"};
constexpr AnalyzerNames ContextNames{"native.construct", "native.reset",
                                     "native.run", "native.snapshot"};

/// reset() zeroes the op count but not the allocation counters, which are
/// lifetime totals of the analyzer.
template <typename Stats>
void addStats(ReplayResult &R, const Stats &S, bool Final) {
  R.Ops += S.ShadowOpsExecuted;
  if (!Final)
    return;
  R.TraceNodes += S.TraceNodesAllocated;
  R.ShadowValues += S.ShadowValuesAllocated;
  R.InfluenceSets += S.InfluenceSetsInterned;
}

/// Replays one benchmark's shards the way the engine's worker does:
/// construct once, reset between shards, snapshot each shard, fold the
/// snapshots in shard order, build the report.
template <typename Analyzer, typename MakeFn, typename RunFn>
void replayBenchmark(const Workload &W, size_t B, Tracer &T,
                     const AnalyzerNames &Names, MakeFn Make, RunFn Run,
                     ReplayResult &R) {
  std::vector<std::vector<double>> In = W.inputs(B);
  std::unique_ptr<Analyzer> A;
  AnalysisResult Acc;
  const std::vector<std::pair<size_t, size_t>> Layout = W.shards();
  for (size_t S = 0; S < Layout.size(); ++S) {
    const auto [Lo, Hi] = Layout[S];
    double T0 = nowSeconds();
    if (!A) {
      Span Sp(T, Names.Construct);
      A = Make();
    } else {
      addStats(R, A->stats(), /*Final=*/false);
      Span Sp(T, Names.Reset);
      A->reset();
    }
    double T1 = nowSeconds();
    {
      Span Sp(T, Names.Run);
      for (size_t I = Lo; I < Hi; ++I)
        Run(*A, In[I]);
    }
    double T2 = nowSeconds();
    ShardDoc Doc;
    {
      Span Sp(T, Names.Snapshot);
      Doc.Result = A->snapshot();
    }
    double T3 = nowSeconds();
    if (S == 0) {
      Span Sp(T, "analysis.clone");
      Acc = Doc.Result.clone();
    } else {
      Span Sp(T, "analysis.mergeFrom");
      Acc.mergeFrom(Doc.Result);
      ++R.Merges;
    }
    double T4 = nowSeconds();
    R.AnalysisSeconds += T2 - T1;
    R.ShardSeconds += (T1 - T0) + (T3 - T2);
    R.MergeSeconds += S == 0 ? 0.0 : T4 - T3;
    R.Runs += Hi - Lo;
    ++R.Shards;
    Doc.Benchmark = W.benchName(B);
    Doc.BenchIndex = B;
    Doc.ShardIndex = S;
    Doc.RunBegin = Lo;
    Doc.RunEnd = Hi;
    R.ShardDocs.push_back(std::move(Doc));
  }
  addStats(R, A->stats(), /*Final=*/true);
  double T0 = nowSeconds();
  Report Rep;
  {
    Span Sp(T, "analysis.buildReport");
    Rep = buildReport(Acc);
  }
  R.ReportSeconds += nowSeconds() - T0;
  {
    Span Sp(T, "analysis.renderJson");
    R.Reports.push_back(Rep.renderJson());
  }
  for (const auto &[PC, Rec] : Acc.Ops)
    R.Executions[Rec.Op] += Rec.Executions;
  // Freeing a shard's trace arena is part of the analysis layer's cost
  // (the engine pays it when a worker drops its analyzer).
  Span Sp(T, "analysis.destroy");
  A.reset();
  Acc = AnalysisResult();
}

} // namespace

ReplayResult perfbench::replaySerial(const Workload &W, Tracer &T,
                                     Checks *Check, uint32_t MaxExprDepth) {
  ReplayResult R;
  AnalysisConfig ACfg;
  ACfg.MaxExprDepth = MaxExprDepth;
  // Concrete outputs, gathered inside the replay and checked after it so
  // the checking stays outside the timed spans.
  std::vector<std::vector<double>> Outputs(W.numBenchmarks());
  const std::string Hash = engine::configHash(W.Serial->config());
  {
    Span Root(T, "bench.replay");
    for (size_t B = 0; B < W.numBenchmarks(); ++B) {
      if (W.isNative()) {
        const native::Kernel &K = W.Kernels[B];
        replayBenchmark<native::Context>(
            W, B, T, ContextNames,
            [&] { return std::make_unique<native::Context>(ACfg); },
            [&K](native::Context &C, const std::vector<double> &In) {
              C.run(K, In);
            },
            R);
      } else {
        const Program &P = W.Programs[B];
        std::vector<double> &Out = Outputs[B];
        replayBenchmark<Herbgrind>(
            W, B, T, HerbgrindNames,
            [&] { return std::make_unique<Herbgrind>(P, ACfg); },
            [&Out](Herbgrind &HG, const std::vector<double> &In) {
              HG.runOnInput(In);
              Out.push_back(HG.lastOutputs().empty()
                                ? std::nan("")
                                : HG.lastOutputs()[0].asF64());
            },
            R);
      }
    }
  }
  for (ShardDoc &D : R.ShardDocs)
    D.ConfigHash = Hash;
  if (!Check)
    return R;

  // Concrete outputs against an independent evaluation: fpcore::evalDouble
  // for FPCore programs, the plain-double transcription for native kernels.
  for (size_t B = 0; B < W.numBenchmarks(); ++B) {
    std::vector<std::vector<double>> In = W.inputs(B);
    if (W.isNative()) {
      native::Context C(ACfg);
      for (const std::vector<double> &X : In) {
        double Shadowed = nativeKernelShadowed(C, W.Kernels[B].Name, X.data());
        double Plain = nativeKernelDouble(W.Kernels[B].Name, X.data());
        Check->expect(sameDouble(Shadowed, Plain),
                      "native output of " + W.Kernels[B].Name);
      }
      continue;
    }
    const fpcore::Core &C = W.Cores[B];
    for (size_t I = 0; I < In.size(); ++I) {
      fpcore::DoubleEnv Env;
      for (size_t V = 0; V < C.Params.size(); ++V)
        Env[C.Params[V]] = In[I][V];
      Check->expect(sameDouble(Outputs[B][I], fpcore::evalDouble(*C.Body, Env)),
                    "concrete output of " + C.Name);
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Tier 0, batching, uninstrumented runs
//===----------------------------------------------------------------------===//

namespace {

/// Times \p Body (which processes \p Items items per call) until at least
/// \p MinSeconds have passed; returns seconds per item.
template <typename Fn>
double perItem(Fn Body, double Items, double MinSeconds) {
  double T0 = nowSeconds(), Elapsed = 0;
  uint64_t Calls = 0;
  do {
    Body();
    ++Calls;
    Elapsed = nowSeconds() - T0;
  } while (Elapsed < MinSeconds);
  return Elapsed / (static_cast<double>(Calls) * Items);
}

volatile double Sink;

} // namespace

void perfbench::measureAnalysisVariants(const Workload &W, Tracer &T,
                                        LayerValues &L) {
  AnalysisConfig Full;
  AnalysisConfig Tier0;
  Tier0.PredicateOnly = true;
  const std::vector<std::pair<size_t, size_t>> Layout = W.shards();
  double T0Seconds = 0, BatchSeconds = 0, BaseSeconds = 0;
  uint64_t T0Ops = 0, BatchOps = 0, Runs = 0;
  for (size_t B = 0; B < W.numBenchmarks(); ++B) {
    std::vector<std::vector<double>> In = W.inputs(B);
    Runs += In.size();
    if (W.isNative()) {
      const native::Kernel &K = W.Kernels[B];
      {
        native::Context C(Tier0);
        Span Sp(T, "native.run_tier0");
        double S0 = nowSeconds();
        for (const std::vector<double> &X : In)
          C.run(K, X);
        T0Seconds += nowSeconds() - S0;
        T0Ops += C.stats().ShadowOpsExecuted;
      }
      {
        native::Context C(Full);
        Span Sp(T, "native.runBatch");
        double S0 = nowSeconds();
        for (const auto &[Lo, Hi] : Layout)
          for (size_t I = Lo; I < Hi; I += BatchLanes)
            C.runBatch(K, &In[I], std::min<size_t>(BatchLanes, Hi - I));
        BatchSeconds += nowSeconds() - S0;
        BatchOps += C.stats().ShadowOpsExecuted;
      }
      Span Sp(T, "bench.plain_double");
      const std::string &Name = K.Name;
      BaseSeconds += perItem(
          [&] {
            for (const std::vector<double> &X : In)
              Sink = nativeKernelDouble(Name, X.data());
          },
          1.0, 0.01);
      continue;
    }
    const Program &P = W.Programs[B];
    {
      Herbgrind HG(P, Tier0);
      Span Sp(T, "analysis.runOnInput_tier0");
      double S0 = nowSeconds();
      for (const std::vector<double> &X : In)
        HG.runOnInput(X);
      T0Seconds += nowSeconds() - S0;
      T0Ops += HG.stats().ShadowOpsExecuted;
    }
    {
      Herbgrind HG(P, Full);
      Span Sp(T, "analysis.runOnBatch");
      double S0 = nowSeconds();
      for (const auto &[Lo, Hi] : Layout)
        for (size_t I = Lo; I < Hi; I += BatchLanes)
          HG.runOnBatch(&In[I], std::min<size_t>(BatchLanes, Hi - I));
      BatchSeconds += nowSeconds() - S0;
      BatchOps += HG.stats().ShadowOpsExecuted;
    }
    Span Sp(T, "ir.interpret");
    BaseSeconds += perItem(
        [&] {
          for (const std::vector<double> &X : In)
            Sink = interpret(P, X).Steps;
        },
        1.0, 0.01);
  }
  L["tier0.op_ns"] = T0Ops ? T0Seconds * 1e9 / static_cast<double>(T0Ops) : 0;
  L["analysis.batch_op_ns"] =
      BatchOps ? BatchSeconds * 1e9 / static_cast<double>(BatchOps) : 0;
  // BaseSeconds sums per-benchmark seconds per pass over all its inputs.
  L["ir.run_ns"] = BaseSeconds * 1e9 / static_cast<double>(Runs);
}

//===----------------------------------------------------------------------===//
// Result cache and wire codecs
//===----------------------------------------------------------------------===//

void perfbench::measureCacheAndWire(const Workload &W, const ReplayResult &R,
                                    Tracer &T, Checks &Check, LayerValues &L) {
  const double Docs = static_cast<double>(R.ShardDocs.size());
  std::vector<engine::ResultCache::ShardKey> Keys;
  for (const ShardDoc &D : R.ShardDocs) {
    engine::ResultCache::ShardKey K;
    K.CoreIdentity = W.isNative() ? W.Kernels[D.BenchIndex].identity()
                                  : W.Cores[D.BenchIndex].print();
    K.DerivedSeed = deriveSeed(W.EngineSeed, D.BenchIndex);
    K.BenchIndex = D.BenchIndex;
    K.ShardIndex = D.ShardIndex;
    K.RunBegin = D.RunBegin;
    K.RunEnd = D.RunEnd;
    Keys.push_back(std::move(K));
  }
  {
    Span Root(T, "bench.replay_cache");
    engine::ResultCache Cache(W.CacheDir + "/replay",
                              engine::configHash(W.Cached->config()));
    double S0 = nowSeconds();
    for (size_t I = 0; I < Keys.size(); ++I) {
      Span Sp(T, "rcache.store");
      Cache.store(Keys[I], R.ShardDocs[I].Benchmark, R.ShardDocs[I].Result);
    }
    double S1 = nowSeconds();
    size_t Hits = 0;
    for (const engine::ResultCache::ShardKey &K : Keys) {
      AnalysisResult Got;
      Span Sp(T, "rcache.lookup");
      Hits += Cache.lookup(K, Got) ? 1 : 0;
    }
    double S2 = nowSeconds();
    Check.expect(Hits == Keys.size() && Cache.storeFailures() == 0,
                 "replayed cache round trip");
    L["rcache.store_us"] = (S1 - S0) * 1e6 / Docs;
    L["rcache.lookup_us"] = (S2 - S1) * 1e6 / Docs;
  }

  // Both encodings of every shard document, rendered and parsed back.
  const std::pair<WireEncoding, const char *> Encodings[] = {
      {WireEncoding::Json, "json"}, {WireEncoding::Binary, "hgb"}};
  for (const auto &[Enc, Tag] : Encodings) {
    Span Root(T, "bench.replay_wire");
    std::vector<std::string> Texts;
    double S0 = nowSeconds();
    for (const ShardDoc &D : R.ShardDocs) {
      Span Sp(T, "wire.renderShard");
      Texts.push_back(renderShard(D, Enc));
    }
    double S1 = nowSeconds();
    size_t Parsed = 0;
    for (const std::string &Text : Texts) {
      ShardDoc Back;
      std::string Err;
      Span Sp(T, "wire.parseShard");
      Parsed += parseShard(Text, Back, Err) ? 1 : 0;
    }
    double S2 = nowSeconds();
    double Bytes = 0;
    for (const std::string &Text : Texts)
      Bytes += static_cast<double>(Text.size());
    Check.expect(Parsed == Texts.size(),
                 std::string("wire round trip, ") + Tag);
    L[std::string("wire.") + Tag + "_render_us"] = (S1 - S0) * 1e6 / Docs;
    L[std::string("wire.") + Tag + "_parse_us"] = (S2 - S1) * 1e6 / Docs;
    L[std::string("wire.") + Tag + "_bytes"] = Bytes;
  }
}

//===----------------------------------------------------------------------===//
// Real arithmetic probes
//===----------------------------------------------------------------------===//

const std::vector<Opcode> &perfbench::probedOpcodes() {
  static const std::vector<Opcode> Ops = {
      Opcode::AddF64,  Opcode::SubF64,  Opcode::MulF64,   Opcode::DivF64,
      Opcode::NegF64,  Opcode::SqrtF64, Opcode::CbrtF64,  Opcode::ExpF64,
      Opcode::LogF64,  Opcode::PowF64,  Opcode::SinF64,   Opcode::CosF64,
      Opcode::TanF64,  Opcode::AtanF64, Opcode::Atan2F64, Opcode::CoshF64,
      Opcode::TanhF64};
  return Ops;
}

std::string perfbench::probeName(Opcode Op) {
  std::string Name = opInfo(Op).Name; // "add.f64"
  return Name.substr(0, Name.find('.'));
}

namespace {

/// The IEEE (basic ops, sqrt) or libm result of a probed opcode.
double referenceResult(Opcode Op, const double *X) {
  switch (Op) {
  case Opcode::AddF64: return X[0] + X[1];
  case Opcode::SubF64: return X[0] - X[1];
  case Opcode::MulF64: return X[0] * X[1];
  case Opcode::DivF64: return X[0] / X[1];
  case Opcode::NegF64: return -X[0];
  case Opcode::SqrtF64: return std::sqrt(X[0]);
  case Opcode::CbrtF64: return std::cbrt(X[0]);
  case Opcode::ExpF64: return std::exp(X[0]);
  case Opcode::LogF64: return std::log(X[0]);
  case Opcode::PowF64: return std::pow(X[0], X[1]);
  case Opcode::SinF64: return std::sin(X[0]);
  case Opcode::CosF64: return std::cos(X[0]);
  case Opcode::TanF64: return std::tan(X[0]);
  case Opcode::AtanF64: return std::atan(X[0]);
  case Opcode::Atan2F64: return std::atan2(X[0], X[1]);
  case Opcode::CoshF64: return std::cosh(X[0]);
  case Opcode::TanhF64: return std::tanh(X[0]);
  default: return std::nan("");
  }
}

/// Allowed distance from the reference: none for the IEEE basic ops and
/// sqrt, one ulp from libm otherwise -- except glibc's cbrt and tanh,
/// which sit up to 3 and 2 ulps from the correctly rounded result (the
/// real results agree with 60-digit decimal evaluations where they differ).
uint64_t allowedUlps(Opcode Op) {
  switch (Op) {
  case Opcode::AddF64:
  case Opcode::SubF64:
  case Opcode::MulF64:
  case Opcode::DivF64:
  case Opcode::NegF64:
  case Opcode::SqrtF64:
    return 0;
  case Opcode::CbrtF64:
    return 3;
  case Opcode::TanhF64:
    return 2;
  default:
    return 1;
  }
}

/// Distance in representable doubles, saturating; 0 for equal values and
/// for two NaNs, a large value when only one side is NaN.
uint64_t ulpDistance(double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return std::isnan(A) && std::isnan(B) ? 0 : UINT64_MAX;
  if (A == B)
    return 0;
  auto Ordinal = [](double D) {
    int64_t I;
    std::memcpy(&I, &D, sizeof I);
    return I < 0 ? INT64_MIN - I : I;
  };
  int64_t OA = Ordinal(A), OB = Ordinal(B);
  return OA > OB ? static_cast<uint64_t>(OA) - static_cast<uint64_t>(OB)
                 : static_cast<uint64_t>(OB) - static_cast<uint64_t>(OA);
}

/// Folds a sampled input value into an operand the opcode is defined on
/// and cheap to judge: positive arguments for sqrt, log and pow's base,
/// moderate arguments for the exponential family and pow's exponent.
double foldOperand(Opcode Op, unsigned Arg, double X) {
  switch (Op) {
  case Opcode::SqrtF64:
  case Opcode::LogF64:
    return X == 0.0 ? 1.0 : std::fabs(X);
  case Opcode::ExpF64:
  case Opcode::CoshF64:
  case Opcode::TanhF64:
    return std::fmod(X, 32.0);
  case Opcode::PowF64:
    return Arg == 0 ? (X == 0.0 ? 1.0 : std::fabs(X)) : std::fmod(X, 16.0);
  default:
    return X;
  }
}

} // namespace

void perfbench::probeRealOps(const Workload &W, uint64_t Seed, Tracer &T,
                             Checks &Check, bool Timed, LayerValues &L) {
  constexpr int Tuples = 32;
  std::vector<double> Pool;
  for (size_t B = 0; B < W.numBenchmarks(); ++B)
    for (const std::vector<double> &In : W.inputs(B))
      Pool.insert(Pool.end(), In.begin(), In.end());
  Rng R(Seed ^ 0x9e3779b97f4a7c15ULL);
  for (Opcode Op : probedOpcodes()) {
    const unsigned Arity = opInfo(Op).Arity;
    std::vector<BigFloat> Args;
    std::vector<double> Conc;
    for (int I = 0; I < Tuples; ++I)
      for (unsigned A = 0; A < Arity; ++A) {
        double X = foldOperand(Op, A, Pool[R.nextBelow(Pool.size())]);
        Conc.push_back(X);
        Args.push_back(BigFloat::fromDouble(X));
      }
    std::vector<BigFloat> Dst(Tuples);
    auto EvalAll = [&] {
      for (int I = 0; I < Tuples; ++I)
        evalRealOpInto(Dst[static_cast<size_t>(I)], Op, &Args[I * Arity],
                       Arity);
    };
    if (Timed) {
      Span Sp(T, "real.evalRealOpInto");
      L["real." + probeName(Op) + "_ns"] = perItem(EvalAll, Tuples, 0.005) * 1e9;
    } else {
      EvalAll();
    }
    for (int I = 0; I < Tuples; ++I) {
      double Got = Dst[static_cast<size_t>(I)].toDouble();
      double Want = referenceResult(Op, &Conc[I * Arity]);
      Check.expect(ulpDistance(Got, Want) <= allowedUlps(Op),
                   format("real %s probe: %s vs %s", probeName(Op).c_str(),
                          formatDoubleShortest(Got).c_str(),
                          formatDoubleShortest(Want).c_str()));
    }
  }
}

//===----------------------------------------------------------------------===//
// fpcore::evalReal
//===----------------------------------------------------------------------===//

void perfbench::measureEvalReal(const Workload &W,
                                const engine::BatchResult &Swept,
                                uint64_t Seed, Tracer &T, LayerValues &L) {
  struct Job {
    fpcore::ExprPtr E;
    std::vector<fpcore::RealEnv> Points;
  };
  std::vector<Job> Jobs;
  auto toReal = [](const fpcore::DoubleEnv &D) {
    fpcore::RealEnv Env;
    for (const auto &[Name, V] : D)
      Env[Name] = BigFloat::fromDouble(V);
    return Env;
  };
  // The improver's candidates, selected and sampled as batchImprove does.
  Rng R(Seed);
  for (const engine::BenchmarkResult &BR : Swept.Benchmarks)
    for (const RootCauseReport &RC : BR.Rep.allRootCauses()) {
      auto It = BR.Records.Ops.find(RC.PC);
      if (It == BR.Records.Ops.end() || !It->second.Expr)
        continue;
      const OpRecord &Rec = It->second;
      uint32_t NumVars = Rec.Expr->numVars();
      const InputCharacteristics &Chars = Rec.ProblematicInputs.Vars.empty()
                                              ? Rec.TotalInputs
                                              : Rec.ProblematicInputs;
      std::vector<std::string> Params;
      for (uint32_t V = 0; V < NumVars; ++V)
        Params.push_back(SymExpr::varName(V));
      Job J;
      J.E = improve::fromSymExpr(*Rec.Expr);
      for (const fpcore::DoubleEnv &P : improve::samplePoints(
               Params,
               improve::specsFromCharacteristics(Chars, NumVars,
                                                 BR.Records.Ranges),
               8, R))
        J.Points.push_back(toReal(P));
      Jobs.push_back(std::move(J));
    }
  if (Jobs.empty()) {
    // No candidates (loops): the workload's own programs instead.
    for (size_t B = 0; B < W.Cores.size(); ++B) {
      Job J;
      J.E = W.Cores[B].Body->clone();
      std::vector<std::vector<double>> In = W.inputs(B);
      for (size_t I = 0; I < std::min<size_t>(2, In.size()); ++I) {
        fpcore::DoubleEnv D;
        for (size_t V = 0; V < W.Cores[B].Params.size(); ++V)
          D[W.Cores[B].Params[V]] = In[I][V];
        J.Points.push_back(toReal(D));
      }
      Jobs.push_back(std::move(J));
    }
  }
  double Seconds = 0, Points = 0;
  for (const Job &J : Jobs)
    for (const fpcore::RealEnv &Env : J.Points) {
      Span Sp(T, "fpcore.evalReal");
      double S0 = nowSeconds();
      BigFloat V = fpcore::evalReal(*J.E, Env, 256);
      Seconds += nowSeconds() - S0;
      Points += 1;
      Sink = V.toDouble();
    }
  L["fpcore.eval_real_us"] = Points ? Seconds * 1e6 / Points : 0;
}
