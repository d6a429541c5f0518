//===- isa/Interp.h - The Silver ISA next-state function -------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Silver ISA operational semantics: a fetch-decode-execute next-state
/// function (the paper's `Next`, §4.1), plus the ALU shared between this
/// interpreter, the machine-sem layer, and the RTL core checker.
///
/// Two kinds of entry point: the reference semantics (step, isHalted and
/// the run loop built from them), which the checks and the boot sequence
/// compare against, and one predecoded run(..., DecodeCache&) that every
/// execution backend (isa/ExecBackend.h) steps with.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_INTERP_H
#define SILVER_ISA_INTERP_H

#include "isa/Encoding.h"
#include "isa/MachineState.h"
#include "obs/Observer.h"
#include "support/Result.h"

#include <optional>

namespace silver {
namespace isa {

/// The processor-external world as seen by the ISA: the Interrupt
/// notification interface and the In/Out data ports (paper §4.2's
/// is_interrupt_interface, reduced to its ISA-visible effect).
class IsaEnv {
public:
  virtual ~IsaEnv();

  /// Invoked when an Interrupt instruction executes.  The returned bytes
  /// are recorded in the IO-event trace as the observable part of memory
  /// (see IoEvent).  The default returns no bytes.
  virtual std::vector<uint8_t> onInterrupt(MachineState &State);

  /// Value delivered by the In instruction; default 0.
  virtual Word inputWord(MachineState &State);

  /// Invoked when an Out instruction executes; default: no effect beyond
  /// the DataOut register and the trace entry the interpreter records.
  virtual void onOutput(MachineState &State, Word Value);
};

/// A no-op environment (useful for pure-computation tests).
IsaEnv &nullEnv();

/// ALU result: value plus the updated flags.
struct AluResult {
  Word Value = 0;
  bool Carry = false;
  bool Overflow = false;
  bool FlagsUpdated = false;
};

/// The Silver ALU (paper §4.1.1).  \p CarryIn/\p OverflowIn are the
/// current flag values (consumed by AddCarry/Carry/Overflow).
AluResult evalAlu(Func F, Word A, Word B, bool CarryIn, bool OverflowIn);

/// Test-only fault injection for the fuzzing self-check (DESIGN.md §9).
/// With the SILVER_FAULT_INJECTION build option (default ON), setting
/// InvertAddCarry flips the carry flag Add computes at the ISA and
/// machine-sem levels; the RTL core's ALU is an independent circuit and
/// is unaffected, so the differential oracle must surface the mutation
/// as a cross-level divergence.  When the option is OFF the flag is a
/// compile-time false and the check folds away.
namespace fault {
#if SILVER_FAULT_INJECTION
extern bool InvertAddCarry;
#else
inline constexpr bool InvertAddCarry = false;
#endif
} // namespace fault

/// Shift unit.
Word evalShift(ShiftKind K, Word A, Word B);

/// Why a step could not be taken.  These correspond to the Fail behaviour
/// of the paper's machine semantics; compiled programs never trigger them.
enum class StepFault : uint8_t {
  None,
  PcOutOfRange,
  PcMisaligned,
  IllegalInstruction,
  MemOutOfRange,
  MemMisaligned,
};

/// Outcome of one Next step.
struct StepResult {
  StepFault Fault = StepFault::None;
  bool ok() const { return Fault == StepFault::None; }
};

class DecodeCache;

/// One step of the ISA semantics: fetch the word at PC, decode, execute.
StepResult step(MachineState &State, IsaEnv &Env);

/// Instrumented step: additionally emits the memory accesses and the
/// retirement (with \p RetireIndex) of this instruction to \p Obs.  Both
/// overloads are compiled from the same template; the uninstrumented one
/// pays nothing for the hooks.
StepResult step(MachineState &State, IsaEnv &Env, obs::Observer &Obs,
                uint64_t RetireIndex);

/// Outcome of a run: at most one of AtStopPc / Halted is set, or Fault is
/// non-None; none of them means the step budget ran out.
struct RunResult {
  uint64_t Steps = 0;    ///< instructions executed
  bool AtStopPc = false; ///< stopped with PC == the stop PC, before executing
  bool Halted = false;   ///< the halt self-jump was reached
  StepFault Fault = StepFault::None;
};

/// The reference run loop: isHalted + step until the machine halts
/// (reaches the self-jump fixpoint), a fault occurs, or \p MaxSteps
/// instructions execute.
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps);

/// Observation hooks for an instrumented run.  All fields are optional;
/// a null Obs makes run() behave exactly like an unobserved run.
struct ObsHooks {
  obs::Observer *Obs = nullptr;
  /// Retirement index of the first instruction this run executes (lets a
  /// resumed run continue the event stream where it paused).
  uint64_t RetireIndexBase = 0;
  /// FFI-span detection: entering \p FfiEntryPc opens a span for the call
  /// index in register abi::FfiIndexReg; leaving [FfiRegionBegin,
  /// FfiRegionEnd) closes it.  All-zero disables detection.
  Word FfiEntryPc = 0;
  Word FfiRegionBegin = 0;
  Word FfiRegionEnd = 0;
  /// True when an FFI span is open (carried across paused runs).
  bool InFfi = false;
  unsigned FfiIndex = 0;
};

/// The predecoded run loop (isa/DecodeCache.h), the one execution entry
/// point every backend builds on.  Runs like the reference run() —
/// identical steps, faults, halts and final state — with one cache
/// lookup per instruction in place of the fetch-decode pair, and stores
/// dropping the decoded slots they overwrite.  It additionally stops,
/// before executing, whenever PC equals \p StopPc (machine::MachineSem
/// points it at the FFI trampoline).  With \p Hooks carrying an observer
/// it emits retire/memory/FFI events and advances the hooks so a
/// subsequent call resumes the event stream.  The stop and observer
/// choices select one of four compiled loops once per call.
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
              std::optional<Word> StopPc, ObsHooks *Hooks,
              DecodeCache &Cache);

/// The paper's is_halted predicate: the instruction at PC is an
/// unconditional self-jump, so every further step leaves the ISA-visible
/// state unchanged (after the link register stabilises).
bool isHalted(const MachineState &State);

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_INTERP_H
