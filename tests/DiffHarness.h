//===- tests/DiffHarness.h - Random programs for tiered diffing -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random benchmark generation for the tiered-shadowing
/// differential tests: random FPCore cores and random native kernels
/// whose entire shape derives from a seed, so any failing comparison
/// reproduces from the seed alone. The generated programs deliberately
/// mix benign arithmetic with cancellation-, pole-, and domain-edge-prone
/// shapes, since the byte-identity contract is only interesting when some
/// benchmarks are erroneous and some are clean.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TESTS_DIFFHARNESS_H
#define HERBGRIND_TESTS_DIFFHARNESS_H

#include "engine/Engine.h"
#include "fpcore/Compile.h"
#include "fpcore/FPCore.h"
#include "ir/Program.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "native/Real.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <cassert>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace herbgrind {
namespace diffharness {

//===----------------------------------------------------------------------===//
// Random FPCore cores
//===----------------------------------------------------------------------===//

/// A random expression over variables v0..vNumVars-1 in FPCore syntax.
/// Leaves favor variables so most draws actually exercise the inputs;
/// binary subtraction and division are weighted up because they are where
/// cancellation and poles (the things tier 0 must not miss) come from.
inline std::string randomFPCoreExpr(Rng &R, unsigned NumVars,
                                    unsigned Depth) {
  if (Depth == 0 || R.chance(1, 5)) {
    if (R.chance(3, 4))
      return format("v%llu",
                    static_cast<unsigned long long>(R.nextBelow(NumVars)));
    return formatDoubleShortest(R.uniformReal(-8.0, 8.0));
  }
  static const char *const Binary[] = {"+", "-", "-", "*", "/"};
  static const char *const Unary[] = {"sqrt", "sin", "cos", "exp",
                                      "log",  "fabs", "cbrt", "atan"};
  if (R.chance(2, 3)) {
    const char *Op = Binary[R.nextBelow(sizeof(Binary) / sizeof(*Binary))];
    std::string A = randomFPCoreExpr(R, NumVars, Depth - 1);
    std::string B = randomFPCoreExpr(R, NumVars, Depth - 1);
    return format("(%s %s %s)", Op, A.c_str(), B.c_str());
  }
  const char *Op = Unary[R.nextBelow(sizeof(Unary) / sizeof(*Unary))];
  return format("(%s %s)", Op,
                randomFPCoreExpr(R, NumVars, Depth - 1).c_str());
}

/// One random compilable core. The salt loop regenerates on the (rare)
/// draw the compiler rejects, so callers always get a benchmark back.
inline fpcore::Core randomCore(uint64_t Seed, unsigned Index) {
  for (uint64_t Salt = 0;; ++Salt) {
    Rng R(Seed ^ (0x9e3779b97f4a7c15ULL * (Index + 1)) ^ (Salt << 32));
    unsigned NumVars = 1 + static_cast<unsigned>(R.nextBelow(3));
    unsigned Depth = 2 + static_cast<unsigned>(R.nextBelow(3));
    std::string Params, Pre;
    for (unsigned V = 0; V < NumVars; ++V) {
      if (V) {
        Params += " ";
        Pre += " ";
      }
      Params += format("v%u", V);
      // Half the variables sample a huge range (cancellation fodder for
      // shapes like (x+1)-x), half a small one (libm domains).
      double Hi = R.chance(1, 2) ? 1e12 : 10.0;
      Pre += format("(<= %s v%u %s)",
                    formatDoubleShortest(-Hi / 100.0).c_str(), V,
                    formatDoubleShortest(Hi).c_str());
    }
    std::string Text = format(
        "(FPCore (%s) :name \"diff-rand-%u\" :pre (and %s) %s)",
        Params.c_str(), Index, Pre.c_str(),
        randomFPCoreExpr(R, NumVars, Depth).c_str());
    fpcore::ParseResult P = fpcore::parse(Text);
    if (P.Ok && fpcore::isCompilable(P.Value))
      return std::move(P.Value);
    assert(Salt < 64 && "random core generation failed to converge");
  }
}

inline std::vector<fpcore::Core> randomCores(uint64_t Seed, size_t Count) {
  std::vector<fpcore::Core> Cores;
  for (size_t I = 0; I < Count; ++I)
    Cores.push_back(randomCore(Seed, static_cast<unsigned>(I)));
  return Cores;
}

//===----------------------------------------------------------------------===//
// Random native kernels
//===----------------------------------------------------------------------===//

/// One step of a random straight-line native program: slot Dst = Op over
/// earlier slots A (and B). The program is data, interpreted over
/// native::Real inside the kernel's Fn, so the kernel's math -- and its
/// cache identity string -- derive entirely from the seed.
struct RandNativeOp {
  enum Kind { Add, Sub, Mul, Div, Sqrt, Sin, Cos, Exp, NumKinds };
  Kind K = Add;
  unsigned A = 0;
  unsigned B = 0;
};

inline std::vector<RandNativeOp> randomNativeProgram(Rng &R, unsigned Arity,
                                                     unsigned NumOps) {
  std::vector<RandNativeOp> Ops;
  for (unsigned I = 0; I < NumOps; ++I) {
    RandNativeOp Op;
    Op.K = static_cast<RandNativeOp::Kind>(
        R.nextBelow(RandNativeOp::NumKinds));
    unsigned Live = Arity + I;
    Op.A = static_cast<unsigned>(R.nextBelow(Live));
    Op.B = static_cast<unsigned>(R.nextBelow(Live));
    Ops.push_back(Op);
  }
  return Ops;
}

/// A kernel body that runs \p Ops over native::Real: inputs fill the
/// first \p Arity slots, each op appends one, and the last is the output.
inline std::function<void(native::Context &, const double *, size_t)>
nativeProgramFn(unsigned Arity, std::vector<RandNativeOp> Ops) {
  return [Arity, Ops](native::Context &C, const double *, size_t N) {
    std::vector<native::Real> Slots;
    for (size_t I = 0; I < N && I < Arity; ++I)
      Slots.push_back(C.input(I));
    for (const RandNativeOp &Op : Ops) {
      const native::Real &A = Slots[Op.A % Slots.size()];
      const native::Real &B = Slots[Op.B % Slots.size()];
      switch (Op.K) {
      case RandNativeOp::Add:
        Slots.push_back(A + B);
        break;
      case RandNativeOp::Sub:
        Slots.push_back(A - B);
        break;
      case RandNativeOp::Mul:
        Slots.push_back(A * B);
        break;
      case RandNativeOp::Div:
        Slots.push_back(A / B);
        break;
      case RandNativeOp::Sqrt:
        Slots.push_back(native::sqrt(native::fabs(A)));
        break;
      case RandNativeOp::Sin:
        Slots.push_back(native::sin(A));
        break;
      case RandNativeOp::Cos:
        Slots.push_back(native::cos(A));
        break;
      default:
        Slots.push_back(native::exp(A));
        break;
      }
    }
    C.output(Slots.back());
  };
}

/// The same program as interpreter IR, op for op, so both frontends can
/// run one piece of math.
inline Program irProgram(unsigned Arity, const std::vector<RandNativeOp> &Ops) {
  ProgramBuilder B;
  std::vector<ProgramBuilder::Temp> Slots;
  for (unsigned I = 0; I < Arity; ++I)
    Slots.push_back(B.input(I));
  for (const RandNativeOp &Op : Ops) {
    ProgramBuilder::Temp A = Slots[Op.A % Slots.size()];
    ProgramBuilder::Temp C = Slots[Op.B % Slots.size()];
    switch (Op.K) {
    case RandNativeOp::Add:
      Slots.push_back(B.op(Opcode::AddF64, A, C));
      break;
    case RandNativeOp::Sub:
      Slots.push_back(B.op(Opcode::SubF64, A, C));
      break;
    case RandNativeOp::Mul:
      Slots.push_back(B.op(Opcode::MulF64, A, C));
      break;
    case RandNativeOp::Div:
      Slots.push_back(B.op(Opcode::DivF64, A, C));
      break;
    case RandNativeOp::Sqrt:
      Slots.push_back(B.op(Opcode::SqrtF64, B.op(Opcode::AbsF64, A)));
      break;
    case RandNativeOp::Sin:
      Slots.push_back(B.op(Opcode::SinF64, A));
      break;
    case RandNativeOp::Cos:
      Slots.push_back(B.op(Opcode::CosF64, A));
      break;
    default:
      Slots.push_back(B.op(Opcode::ExpF64, A));
      break;
    }
  }
  B.out(Slots.back());
  B.halt();
  return B.finish();
}

/// One random native kernel of 1-3 inputs and 3-8 ops. The identity
/// string spells out the full program, honoring Kernel::Identity's "must
/// change when the math changes" contract for free.
inline native::Kernel randomKernel(uint64_t Seed, unsigned Index) {
  Rng R(Seed ^ (0xbf58476d1ce4e5b9ULL * (Index + 1)));
  native::Kernel K;
  unsigned Arity = 1 + static_cast<unsigned>(R.nextBelow(3));
  unsigned NumOps = 3 + static_cast<unsigned>(R.nextBelow(6));
  std::vector<RandNativeOp> Ops = randomNativeProgram(R, Arity, NumOps);

  K.Name = format("diff-rand-native-%u", Index);
  K.Identity = format("diffharness|v1|arity=%u", Arity);
  for (const RandNativeOp &Op : Ops)
    K.Identity += format("|%d:%u:%u", static_cast<int>(Op.K), Op.A, Op.B);
  for (unsigned V = 0; V < Arity; ++V) {
    native::Kernel::InputRange IR;
    IR.Lo = R.chance(1, 2) ? -10.0 : 1.0;
    IR.Hi = R.chance(1, 2) ? 10.0 : 1e12;
    if (IR.Hi < IR.Lo)
      IR.Hi = IR.Lo + 1.0;
    K.Inputs.push_back(IR);
  }
  K.Fn = nativeProgramFn(Arity, std::move(Ops));
  return K;
}

inline std::vector<native::Kernel> randomKernels(uint64_t Seed,
                                                 size_t Count) {
  std::vector<native::Kernel> Kernels;
  for (size_t I = 0; I < Count; ++I)
    Kernels.push_back(randomKernel(Seed, static_cast<unsigned>(I)));
  return Kernels;
}

//===----------------------------------------------------------------------===//
// Differential drivers
//===----------------------------------------------------------------------===//

/// One sweep's rendered report under \p Cfg (the byte string the
/// tiered-vs-full comparisons are over).
inline std::string sweepJson(const std::vector<fpcore::Core> &Cores,
                             const std::vector<native::Kernel> &Kernels,
                             engine::EngineConfig Cfg) {
  return engine::Engine(Cfg).run(Cores, Kernels).renderJson();
}

/// The (spot pc, root-cause pc) pairs a batch result reports, per
/// benchmark name: the contract surface of `--tier fast` (a subset of
/// full's) and of the corpus gate.
inline std::set<std::pair<std::string, std::pair<uint32_t, uint32_t>>>
rootCauseSet(const engine::BatchResult &R) {
  std::set<std::pair<std::string, std::pair<uint32_t, uint32_t>>> Out;
  for (const engine::BenchmarkResult &BR : R.Benchmarks)
    for (const SpotReport &S : BR.Rep.Spots)
      for (const RootCauseReport &RC : S.RootCauses)
        Out.insert({BR.Name, {S.PC, RC.PC}});
  return Out;
}

} // namespace diffharness
} // namespace herbgrind

#endif // HERBGRIND_TESTS_DIFFHARNESS_H
