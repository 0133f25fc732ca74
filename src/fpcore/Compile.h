//===- fpcore/Compile.h - FPCore -> abstract machine compiler ---*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles FPCore cores to abstract-machine programs (the role the
/// FPCore-to-C compiler plus gcc play in the paper's methodology,
/// Section 8.1). Parameters become program inputs, the body's value is
/// emitted through an Out statement, and while loops lower to branches
/// over mutable temps. Each emitted operation gets a source location of
/// the form "<benchmark>.fpcore:<n>" so reports stay readable.
///
/// The opcode table (ir/Opcode.cpp) is the FPCore vocabulary: the
/// compiler, its checker and evalReal (Eval.h) find every operator
/// through fpcoreOpcode, so naming a new operator there teaches all
/// three. Only evalDouble keeps a table of its own, because it is the
/// oracle compiled programs are tested against.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_FPCORE_COMPILE_H
#define HERBGRIND_FPCORE_COMPILE_H

#include "fpcore/FPCore.h"
#include "ir/Program.h"

#include <map>
#include <memory>
#include <mutex>

namespace herbgrind {
namespace fpcore {

/// Looks up the FPCore operator \p Name applied to \p Arity arguments
/// in the opcode table. On success \p Op is the scalar f64 opcode with
/// that FPCoreName: the one of arity \p Arity, or, past arity 2, the
/// binary opcode of a variadic operator (+, - and * fold left,
/// comparisons chain). Comparisons (opInfo(Op).IsComparison) belong in
/// test positions, every other opcode in value positions.
bool fpcoreOpcode(const std::string &Name, unsigned Arity, Opcode &Op);

/// Compiles a core; the result is validated. Callers check isCompilable
/// first, so this asserts on compilable input only.
Program compile(const Core &C);

/// True if compile() accepts the core: every operator is known at its
/// arity and in its position (value or test), and every variable is
/// bound. Otherwise \p WhyNot names the first offender.
bool isCompilable(const Core &C, std::string *WhyNot = nullptr);

/// A thread-safe compiled-program cache keyed by FPCore identity (the
/// printed core, which is canonical for parsed cores). Batch-engine
/// workers analyzing many shards of the same benchmark compile it once
/// and share the result; compiled programs are immutable, so concurrent
/// readers need no further synchronization. Cached references stay valid
/// for the cache's lifetime.
class ProgramCache {
public:
  const Program &get(const Core &C);

  size_t hits() const;
  size_t misses() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Program>> Programs;
  size_t Hits = 0;
  size_t Misses = 0;
};

} // namespace fpcore
} // namespace herbgrind

#endif // HERBGRIND_FPCORE_COMPILE_H
