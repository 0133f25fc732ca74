//===- perfbench/src/Perfbench.h - Benchmark driver shared types -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver: the workload definition (which
/// programs, how many samples, which engine seed), the check ledger behind
/// `failed`/`attempted`, the span recorder of the traced run, and the
/// per-layer measurements made by replaying a sweep through the library's
/// public entry points. Main.cpp owns the end-to-end measurement loop.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "fpcore/Eval.h"
#include "herbgrind/Herbgrind.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using namespace herbgrind;

/// Wall-clock seconds on the steady clock.
double nowSeconds();

/// Tally of output checks: every comparison the benchmark makes counts as
/// one attempt; `failed_frac` is Failed / Attempted.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FirstFailures; ///< Up to ten, for the log.

  /// Records one check.
  void expect(bool Ok, const std::string &What);
};

/// True when two doubles are the same value (bit-equal, or both NaN).
bool sameDouble(double A, double B);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: the programs a sweep analyzes and the sweep's shape. The
/// programs are built by setUp(), which is what `setup_s` times.
struct Workload {
  std::string Name;
  int Samples = 0;   ///< Sampled inputs per benchmark.
  int ShardSize = 0; ///< Inputs per shard.
  uint64_t EngineSeed = 0; ///< chooseEngineSeed() of the --seed.
  std::string CacheDir; ///< Parent of the result-cache directories.

  std::vector<fpcore::Core> Cores;     ///< expr, loops.
  std::vector<Program> Programs;       ///< Cores compiled, same order.
  std::vector<native::Kernel> Kernels; ///< native.

  /// Engines, one per sweep configuration (an engine's config is fixed
  /// at construction).
  std::unique_ptr<engine::Engine> Serial, Parallel, Confirm, Batched, Cached;

  double CompileSeconds = 0.0; ///< parse + compile share of the last setUp.

  bool isNative() const { return Cores.empty(); }
  size_t numBenchmarks() const {
    return isNative() ? Kernels.size() : Cores.size();
  }
  std::string benchName(size_t B) const {
    return isNative() ? Kernels[B].Name : Cores[B].Name;
  }
  /// Per-input sampling ranges of benchmark \p B.
  std::vector<std::pair<double, double>> ranges(size_t B) const;
  /// The inputs the engine samples for benchmark \p B (same derivation).
  std::vector<std::vector<double>> inputs(size_t B) const;
  /// The first \p Count inputs an engine seeded with \p Seed samples.
  std::vector<std::vector<double>> inputs(size_t B, uint64_t Seed,
                                          int Count) const;
  /// Shard boundaries of benchmark \p B's sample range.
  std::vector<std::pair<size_t, size_t>> shards() const;

  /// One sweep through \p E.
  engine::BatchResult sweep(engine::Engine &E) const;
};

/// Worker threads of the parallel sweep.
constexpr unsigned ParallelJobs = 4;
/// Lanes of the batched sweep.
constexpr unsigned BatchLanes = 32;

/// Sizes a workload (samples, shard size); false for an unknown name.
bool sizeWorkload(Workload &W, const std::string &Name, bool Tiny);

/// Parses and compiles the workload's programs and constructs its engines
/// and result cache (the region `setup_s` times).
void setUp(Workload &W);

/// An engine for the workload's sweep shape; an empty \p CacheDir means no
/// result cache.
std::unique_ptr<engine::Engine> makeEngine(const Workload &W, unsigned Jobs,
                                           engine::TierMode Tier,
                                           unsigned Lanes,
                                           const std::string &CacheDir);

/// The engine seed for a benchmark seed: the seed itself for expr and
/// native; for loops the first seed derived from it whose sampled `n`
/// arguments sum to about their expected value (Workload.cpp, "Balanced
/// loop inputs"). Reads only sampled input values; needs setUp's programs.
uint64_t chooseEngineSeed(const Workload &W, uint64_t Seed);

/// The engine's per-benchmark seed derivation (engine/Engine.cpp). The
/// replay's report-equality check fails if the two ever drift apart.
uint64_t deriveSeed(uint64_t Base, uint64_t Index);

/// Plain-double transcription of the named native demo kernel, and the
/// same math run through native::Context; both return the kernel's output.
double nativeKernelDouble(const std::string &Name, const double *In);
double nativeKernelShadowed(native::Context &C, const std::string &Name,
                            const double *In);

//===----------------------------------------------------------------------===//
// Spans (traced run)
//===----------------------------------------------------------------------===//

/// In-memory span recorder of the traced run. Each span records name,
/// start, end and parent; every span also goes to the library's trace
/// recorder (support/Trace) so the engine's own spans nest inside the
/// benchmark's in the written Chrome trace.
class Tracer {
public:
  struct Record {
    std::string Name;
    uint64_t Start = 0, End = 0;
    int Parent = -1;
  };
  bool On = false;
  std::string RunId; ///< Shared by every span of one workload run.
  std::vector<Record> Spans;
  std::vector<int> Stack;

  /// Self time of each span: its duration minus its children's.
  std::vector<uint64_t> selfTimes() const;
};

/// RAII span; a no-op while the tracer is off.
class Span {
public:
  Span(Tracer &T, const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer &T;
  int Id = -1;
  std::optional<trace::Span> Lib;
};

//===----------------------------------------------------------------------===//
// Per-layer measurement
//===----------------------------------------------------------------------===//

/// Named per-layer values of one workload run.
using LayerValues = std::map<std::string, double>;

/// The serial sweep replayed as direct calls into the analysis layer
/// (construct/reset, runOnInput per input, snapshot, mergeFrom,
/// buildReport), checking concrete outputs and report bytes on the way.
struct ReplayResult {
  std::vector<std::string> Reports; ///< Per benchmark, renderJson().
  std::vector<ShardDoc> ShardDocs;  ///< Every shard's snapshot.
  std::map<Opcode, uint64_t> Executions; ///< Per opcode, merged records.
  uint64_t Ops = 0, TraceNodes = 0, ShadowValues = 0, InfluenceSets = 0;
  uint64_t Runs = 0, Shards = 0, Merges = 0;
  double AnalysisSeconds = 0; ///< In runOnInput / Context::run.
  double ShardSeconds = 0;    ///< construct or reset, plus snapshot.
  double MergeSeconds = 0, ReportSeconds = 0;
};

/// Replays the serial sweep. \p MaxExprDepth overrides the analysis depth
/// (the trace.share ablation); checks are made only when \p Check is set.
ReplayResult replaySerial(const Workload &W, Tracer &T, Checks *Check,
                          uint32_t MaxExprDepth = 24);

/// Analysis-layer costs outside the serial replay: the tier-0 predicate
/// pass, the batched pass, uninstrumented runs. Fills tier0.op_ns,
/// analysis.batch_op_ns, ir.run_ns.
void measureAnalysisVariants(const Workload &W, Tracer &T, LayerValues &L);

/// Replays the cache round trip and both wire codecs over the replay's
/// shard documents. Fills rcache.store_us, rcache.lookup_us and wire.*.
void measureCacheAndWire(const Workload &W, const ReplayResult &R, Tracer &T,
                         Checks &Check, LayerValues &L);

/// The 17 opcodes probed by real.<op>_ns.
const std::vector<Opcode> &probedOpcodes();
/// Short metric name of a probed opcode ("add", "atan2", ...).
std::string probeName(Opcode Op);

/// Times evalRealOpInto at 256 bits per probed opcode on operands drawn
/// from the workload's sampled inputs, and checks each result against
/// IEEE (basic ops, sqrt) or libm (within 1 ulp). Fills real.<op>_ns.
void probeRealOps(const Workload &W, uint64_t Seed, Tracer &T, Checks &Check,
                  bool Timed, LayerValues &L);

/// fpcore::evalReal at 256 bits per point on the improver's candidate
/// expressions (on loops, which has none, on the workload's own cores).
/// Fills fpcore.eval_real_us.
void measureEvalReal(const Workload &W, const engine::BatchResult &Swept,
                     uint64_t Seed, Tracer &T, LayerValues &L);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
