//===- perfbench/src/Workload.cpp - Workload definitions -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Perfbench.h"

#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

using namespace perfbench;

double perfbench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (FirstFailures.size() < 10)
      FirstFailures.push_back(What);
  }
}

bool perfbench::sameDouble(double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return std::isnan(A) && std::isnan(B);
  uint64_t BA, BB;
  std::memcpy(&BA, &A, sizeof BA);
  std::memcpy(&BB, &B, sizeof BB);
  return BA == BB;
}

uint64_t perfbench::deriveSeed(uint64_t Base, uint64_t Index) {
  uint64_t Z = Base + (Index + 1) * 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Shape and set-up
//===----------------------------------------------------------------------===//

bool perfbench::sizeWorkload(Workload &W, const std::string &Name,
                             bool Tiny) {
  W.Name = Name;
  // Sizes put every end-to-end region at 0.1 s or more on a 4-thread
  // host while leaving room for several rounds per run (README.md).
  if (Name == "expr") {
    W.Samples = Tiny ? 4 : 128;
    W.ShardSize = Tiny ? 2 : 16;
  } else if (Name == "loops") {
    // One shard per program: the jobs-1 peak memory is then one program's
    // traces, which the balanced inputs keep steady.
    W.Samples = Tiny ? 2 : 8;
    W.ShardSize = Tiny ? 1 : 8;
  } else if (Name == "native") {
    W.Samples = Tiny ? 64 : 8192;
    W.ShardSize = 16;
  } else {
    return false;
  }
  return true;
}

static bool hasWhile(const fpcore::Expr &E) {
  if (E.K == fpcore::Expr::Kind::While)
    return true;
  for (const fpcore::ExprPtr &A : E.Args)
    if (hasWhile(*A))
      return true;
  for (const fpcore::ExprPtr &A : E.Inits)
    if (hasWhile(*A))
      return true;
  return false;
}

std::unique_ptr<engine::Engine>
perfbench::makeEngine(const Workload &W, unsigned Jobs, engine::TierMode Tier,
                      unsigned Lanes, const std::string &CacheDir) {
  engine::EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = W.Samples;
  Cfg.ShardSize = W.ShardSize;
  Cfg.Seed = W.EngineSeed;
  Cfg.Tier = Tier;
  Cfg.BatchLanes = Lanes;
  Cfg.CacheDir = CacheDir;
  return std::make_unique<engine::Engine>(Cfg);
}

void perfbench::setUp(Workload &W) {
  double T0 = nowSeconds();
  W.Cores.clear();
  W.Programs.clear();
  W.Kernels.clear();
  if (W.Name == "native") {
    // The straight-line demo kernels. The step-loop kernel is left out:
    // its cost is the trace mechanism `loops` already measures.
    for (const native::Kernel &K : native::demoKernels())
      if (K.Name == "native cancellation" || K.Name == "native quadratic root")
        W.Kernels.push_back(K);
  } else {
    const bool Loops = W.Name == "loops";
    for (const std::string &Src : fpcore::corpusSources()) {
      fpcore::ParseResult P = fpcore::parse(Src);
      if (!P.Ok || !fpcore::isCompilable(P.Value) ||
          hasWhile(*P.Value.Body) != Loops)
        continue;
      W.Programs.push_back(fpcore::compile(P.Value));
      W.Cores.push_back(std::move(P.Value));
    }
  }
  W.CompileSeconds = nowSeconds() - T0;
  using engine::TierMode;
  W.Serial = makeEngine(W, 1, TierMode::Full, 1, "");
  W.Parallel = makeEngine(W, ParallelJobs, TierMode::Full, 1, "");
  W.Confirm = makeEngine(W, 1, TierMode::Confirm, 1, "");
  W.Batched = makeEngine(W, 1, TierMode::Full, BatchLanes, "");
  W.Cached = makeEngine(W, 1, TierMode::Full, 1, W.CacheDir + "/setup");
}

std::vector<std::pair<double, double>> Workload::ranges(size_t B) const {
  std::vector<std::pair<double, double>> Out;
  if (isNative()) {
    for (const native::Kernel::InputRange &R : Kernels[B].Inputs)
      Out.push_back({R.Lo, R.Hi});
  } else {
    for (const fpcore::VarRange &R : fpcore::sampleRanges(Cores[B]))
      Out.push_back({R.Lo, R.Hi});
  }
  return Out;
}

std::vector<std::vector<double>> Workload::inputs(size_t B) const {
  return inputs(B, EngineSeed, Samples);
}

std::vector<std::vector<double>>
Workload::inputs(size_t B, uint64_t Seed, int Count) const {
  Rng R(deriveSeed(Seed, B));
  std::vector<std::pair<double, double>> Rs = ranges(B);
  std::vector<std::vector<double>> Sets(static_cast<size_t>(Count));
  for (std::vector<double> &In : Sets)
    for (const auto &[Lo, Hi] : Rs)
      In.push_back(R.betweenOrdinals(Lo, Hi));
  return Sets;
}

std::vector<std::pair<size_t, size_t>> Workload::shards() const {
  std::vector<std::pair<size_t, size_t>> Out;
  size_t N = static_cast<size_t>(Samples), Step = static_cast<size_t>(ShardSize);
  for (size_t Lo = 0; Lo < N; Lo += Step)
    Out.push_back({Lo, std::min(Lo + Step, N)});
  return Out;
}

engine::BatchResult Workload::sweep(engine::Engine &E) const {
  return isNative() ? E.run(Kernels) : E.run(Cores);
}

//===----------------------------------------------------------------------===//
// Balanced loop inputs
//===----------------------------------------------------------------------===//
// A loop program's trip count follows its `n` argument, which its :pre range
// samples about log-uniformly (n in [10, 2000] and the like), so at the 8
// samples a run affords, the sweep's cost moves by tens of percent from
// seed to seed. So on loops the seed selects the first engine seed derived
// from it (the seed itself first) whose sampled `n` values sum, in every
// program that has one, to within Tolerance of their expected sum. Only the
// sampled values are looked at and no program runs, so the choice depends on
// the seed and the :pre ranges alone: no change to the analysis can change
// which inputs a seed gives.

uint64_t perfbench::chooseEngineSeed(const Workload &W, uint64_t Seed) {
  if (W.Name != "loops")
    return Seed;
  constexpr double Tolerance = 0.1;
  constexpr int Candidates = 100000;
  constexpr int ReferenceDraws = 4096;
  struct TripArg {
    size_t Program, Param;
    double Expected; ///< Mean over ReferenceDraws, times W.Samples.
  };
  auto SumOf = [&](const TripArg &A, uint64_t EngineSeed, int Count) {
    double Sum = 0;
    for (const std::vector<double> &In : W.inputs(A.Program, EngineSeed, Count))
      Sum += In[A.Param];
    return Sum;
  };
  std::vector<TripArg> Args;
  for (size_t B = 0; B < W.Cores.size(); ++B)
    for (size_t P = 0; P < W.Cores[B].Params.size(); ++P)
      if (W.Cores[B].Params[P] == "n") {
        TripArg A{B, P, 0.0};
        A.Expected = SumOf(A, 0x5eedba1a, ReferenceDraws) / ReferenceDraws *
                     W.Samples;
        Args.push_back(A);
      }
  for (int K = 0; K < Candidates; ++K) {
    uint64_t Cand = K == 0 ? Seed : deriveSeed(Seed, static_cast<uint64_t>(K));
    bool Ok = true;
    for (size_t I = 0; I < Args.size() && Ok; ++I)
      Ok = std::fabs(SumOf(Args[I], Cand, W.Samples) / Args[I].Expected - 1) <=
           Tolerance;
    if (Ok)
      return Cand;
  }
  return Seed;
}

//===----------------------------------------------------------------------===//
// Native kernels, transcribed
//===----------------------------------------------------------------------===//
// The math of native/Kernel.cpp's two straight-line demo kernels, written
// once over T so the same source runs on plain doubles and on
// native::Real. The two results must agree bit for bit: shadowing never
// changes a concrete value.

template <typename T> static T cancelMath(const T &X) { return (X + 1.0) - X; }

template <typename T>
static T quadraticMath(const T &A, const T &B, const T &C) {
  using std::sqrt;
  T Disc = B * B - 4.0 * A * C;
  return (-B + sqrt(Disc)) / (2.0 * A);
}

double perfbench::nativeKernelDouble(const std::string &Name, const double *In) {
  if (Name == "native cancellation")
    return cancelMath(In[0]);
  return quadraticMath(In[0], In[1], In[2]);
}

double perfbench::nativeKernelShadowed(native::Context &C,
                                       const std::string &Name,
                                       const double *In) {
  if (Name == "native cancellation") {
    native::Real X = C.input(0, In[0]);
    return C.output(cancelMath(X));
  }
  native::Real A = C.input(0, In[0]), B = C.input(1, In[1]),
               Cc = C.input(2, In[2]);
  return C.output(quadraticMath(A, B, Cc));
}
