//===- ir/Interpreter.h - Uninstrumented reference interpreter --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uninstrumented executor for abstract-machine programs. It defines
/// the concrete (client) semantics that the analysis layer shadows, serves
/// as the "native execution" baseline for the Table 1 overhead bench, and
/// is differential-tested against the instrumented executor.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_IR_INTERPRETER_H
#define HERBGRIND_IR_INTERPRETER_H

#include "ir/Memory.h"
#include "ir/Program.h"

#include <algorithm>
#include <vector>

namespace herbgrind {

/// The concrete state of a running abstract machine.
struct MachineState {
  std::vector<Value> Temps;
  std::vector<uint8_t> ThreadState;
  ByteMemory Memory;
  std::vector<uint32_t> CallStack;
  std::vector<double> Inputs;
  std::vector<Value> Outputs;
  uint32_t PC = 0;
  uint64_t Steps = 0;

  explicit MachineState(const Program &P, std::vector<double> ProgramInputs,
                        size_t ThreadStateBytes = 1024)
      : Temps(P.numTemps()), ThreadState(ThreadStateBytes, 0),
        Inputs(std::move(ProgramInputs)) {}

  /// Returns the state to the start of a run on \p ProgramInputs, as if
  /// freshly constructed, keeping the vectors' capacity so a state reused
  /// run over run does not allocate them again.
  void restart(const std::vector<double> &ProgramInputs) {
    std::fill(Temps.begin(), Temps.end(), Value());
    std::fill(ThreadState.begin(), ThreadState.end(), 0);
    Memory.clear();
    CallStack.clear();
    Inputs.assign(ProgramInputs.begin(), ProgramInputs.end());
    Outputs.clear();
    PC = 0;
    Steps = 0;
  }
};

/// Executes a single statement's concrete semantics, updating PC. Returns
/// false when the machine halts. Shared between the reference interpreter
/// and the instrumented analysis executor so their concrete semantics can
/// never diverge.
bool stepConcrete(const Program &P, MachineState &State);

/// Concrete evaluation of any Op statement, including SIMD and lane ops.
Value evalOpConcrete(Opcode Op, const Value *Args, unsigned NumArgs);

/// Runs a program to completion (or the step limit).
struct RunResult {
  std::vector<Value> Outputs;
  uint64_t Steps = 0;
  bool HitStepLimit = false;
};

RunResult interpret(const Program &P, const std::vector<double> &Inputs,
                    uint64_t MaxSteps = 100'000'000);

} // namespace herbgrind

#endif // HERBGRIND_IR_INTERPRETER_H
