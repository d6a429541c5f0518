//===- cpu/Check.h - ISA/RTL correspondence and RTL runners -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterparts of the processor correctness theorems:
///
///  - checkIsaRtl: theorem (9) — every instruction cycle of the ISA is
///    simulated by some number of clock cycles of the implementation.
///    Runs the core (circuit or Verilog level) against the lab
///    environment and the ISA interpreter in lock-step, comparing the
///    full architectural state (the ag32_eq_* relation family) at every
///    retire pulse, and the memories at the end.
///
///  - CoreRunner: executes a memory image on the core and reports the
///    observable behaviour (the hardware half of theorem (8)).  It is
///    resumable (stack::Executor pauses, steps and budgets through it)
///    and holds one session's simulator state, lab environment and
///    counters; the design itself is shared (cpu::coreDesign()).  Its
///    advance() is the one cycle loop: checkIsaRtl drives it retire by
///    retire.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CPU_CHECK_H
#define SILVER_CPU_CHECK_H

#include "cpu/LabEnv.h"
#include "cpu/Sim.h"
#include "isa/Interp.h"

namespace silver {
namespace cpu {

struct RunOptions {
  SimLevel Level = SimLevel::Circuit;
  LabEnvOptions Env;
  uint64_t MaxCycles = 100'000'000ull;
  /// Receives retire / FFI / memory / cycle events; null runs silent.
  /// Not owned.
  obs::Observer *Obs = nullptr;
  /// Wedge watchdog: a core that goes this many cycles without retiring
  /// a single instruction is stuck in the memory/interrupt protocol (a
  /// healthy transaction completes in a handful of cycles), and the
  /// runner stops with CoreStop::NoRetireProgress instead of burning
  /// the whole cycle budget.
  uint64_t WedgeCycles = 4096;
};

struct CoreRunResult {
  bool Halted = false;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  std::string StdoutData;
  std::string StderrData;
  sys::ExitStatus Exit;
};

/// Why an advance() call returned.
enum class CoreStop : uint8_t {
  Halted,            ///< the halt self-loop retired; the run is over
  InstructionBudget, ///< this call's instruction quota was used up
  CycleBudget,       ///< this call's cycle quota was used up
  NoRetireProgress,  ///< wedge watchdog fired (see RunOptions)
};

/// A resumable core execution: create once from a bootable image, then
/// advance() any number of times with per-call instruction/cycle quotas.
/// This is what lets stack::Executor pause, step, and enforce budgets at
/// the hardware levels.
///
/// Event streams (when RunOptions::Obs is set): onCycle ticks come from
/// the simulator itself, onRetire carries the retire_pc and the decoded
/// opcode of the instruction word at that address, onMem reports the
/// core's DRAM transactions, and onFfi brackets time spent in the
/// installed syscall code (entry = retire at SyscallCodeBase, exit =
/// first retire outside the syscall-code region).
class CoreRunner {
public:
  /// Instantiates a simulator of the shared design at Options.Level and
  /// wires it to the lab environment and the observer.  The image's
  /// memory becomes the lab DRAM (moved in, not copied, when \p Image is
  /// an rvalue).
  static Result<CoreRunner> create(sys::MemoryImage Image,
                                   const RunOptions &Options);

  /// Runs until the halt self-loop retires, \p MaxInstructions more
  /// instructions retire, \p MaxCycles more cycles elapse, or the wedge
  /// watchdog fires.  Quotas are per-call, not cumulative; pass
  /// UINT64_MAX for "no limit".  Errors are environment protocol
  /// violations or simulator failures.
  Result<CoreStop> advance(uint64_t MaxInstructions, uint64_t MaxCycles);

  /// Overwrites the core's architectural state with \p Ms's (checkIsaRtl
  /// starts from arbitrary machine states).  Call before advance().
  void primeArchState(const isa::MachineState &Ms) {
    Sim->primeArchState(Ms);
  }

  bool halted() const { return Halted; }
  uint64_t cycles() const { return Cycles; }
  uint64_t instructions() const { return Instructions; }

  /// The core's current architectural registers (PC, flags, register
  /// file).  Used by the cross-level state digests (stack::Executor).
  ArchState archState() const;
  /// The lab DRAM contents (same address space as the ISA state's
  /// memory, so final memories are directly comparable across levels).
  const isa::GuestMemory &memory() const;

  /// Snapshots the observable behaviour so far (stdout, stderr, exit
  /// status); the final memory stays readable through memory().
  CoreRunResult result() const;

private:
  CoreRunner(std::unique_ptr<CoreSim> Sim, sys::MemoryImage Image,
             const RunOptions &Options);

  std::unique_ptr<CoreSim> Sim;
  LabEnv Env;
  sys::MemoryLayout Layout;
  RunOptions Opt;
  bool Halted = false;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t CyclesSinceRetire = 0;
  bool InFfi = false;
  unsigned FfiIndex = 0;
  CoreInputs Inputs;
  CoreOutputs Outputs;
};

/// Lock-step ISA/implementation check from an arbitrary initial machine
/// state.  \p Layout enables the interrupt-observables comparison (pass
/// the image layout for compiled programs; nullptr for random-program
/// tests that avoid Interrupt).  Stops at the ISA halt, after
/// \p MaxInstructions, or at the first disagreement (returned as an
/// error naming the instruction index and the differing component).
/// Options.MaxCycles bounds the whole check, and running out of it, or a
/// wedged core (Options.WedgeCycles), is an error too.
Result<uint64_t> checkIsaRtl(const isa::MachineState &Initial,
                             uint64_t MaxInstructions,
                             const RunOptions &Options,
                             const sys::MemoryLayout *Layout);

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_CHECK_H
