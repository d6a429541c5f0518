//===- cpu/Sim.h - Core simulators (circuit and Verilog) --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A common cycle-stepping interface over the two implementation levels
/// of Figure 1: the circuit IR interpreter (layer 3) and the Verilog
/// semantics running the generated module (layer 4).  The runners and
/// the ISA correspondence checker are written against this interface, so
/// every experiment can execute at either level.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CPU_SIM_H
#define SILVER_CPU_SIM_H

#include "cpu/Core.h"
#include "hdl/Semantics.h"
#include "isa/MachineState.h"
#include "obs/Observer.h"
#include "rtl/ToVerilog.h"

#include <memory>

namespace silver {
namespace cpu {

/// Architectural snapshot used by the ISA correspondence checker.
struct ArchState {
  Word Pc = 0;
  bool Carry = false;
  bool Overflow = false;
  std::array<Word, isa::NumRegs> Regs{};
  Word DataOut = 0;
};

/// Dense input frame for one core cycle: one field per input port of the
/// Silver core.  The cycle loops (CoreRunner, checkIsaRtl) exchange
/// these instead of string-keyed maps, so the per-cycle path does no
/// name lookups and no allocation.
struct CoreInputs {
  uint64_t MemRdata = 0;
  uint64_t DataIn = 0;
  bool MemReady = false;
  bool MemStartReady = false;
  bool InterruptAck = false;
};

/// Dense output frame: one field per output port of the Silver core.
struct CoreOutputs {
  uint64_t MemAddr = 0;
  uint64_t MemWdata = 0;
  uint64_t RetirePc = 0;
  uint64_t DataOut = 0;
  uint64_t DbgState = 0;
  bool MemRen = false;
  bool MemWen = false;
  bool MemWbyte = false;
  bool InterruptReq = false;
  bool Retire = false;
};

class CoreSim {
public:
  virtual ~CoreSim();

  /// One clock cycle over the dense frames (the hot path; port-to-field
  /// bindings are resolved once when the simulator is built).
  virtual Result<void> stepDense(const CoreInputs &In, CoreOutputs &Out) = 0;

  /// The architectural PC alone.  The cycle loop reads this every cycle
  /// (the retired instruction sits at the pre-cycle PC), and archState()
  /// rebuilds the whole register file per call.
  virtual Word archPc() const = 0;

  /// Ticks obs::Observer::onCycle once per step (the circuit level emits
  /// directly; the Verilog level forwards to hdl::FastSim).  Null
  /// detaches; not owned.
  virtual void attachCycleObserver(obs::Observer *O) = 0;

  /// Reads the current architectural state.
  virtual ArchState archState() const = 0;

  /// Primes the architectural state (used by the randomised ISA/RTL
  /// equivalence tests to start from arbitrary register contents).
  virtual void primeArchState(const isa::MachineState &Ms) = 0;
};

/// Layer-3 simulator: the circuit interpreter.
std::unique_ptr<CoreSim> makeCircuitSim(const SilverCore &Core);

/// Backend selection for the Verilog-level simulator.
struct VerilogSimOptions {
  /// Step the generated module with the ahead-of-time compiled backend
  /// (hdl/compile) instead of the AST interpreter.  Falls back to the
  /// interpreter — transparently, with a note in *FallbackDiag — when
  /// no usable host compiler exists or the build fails.
  bool Compiled = false;
  /// Receives a one-line diagnostic when the compiled backend was
  /// requested but the run fell back to the interpreter.  Not owned;
  /// may be null.
  std::string *FallbackDiag = nullptr;
};

/// Layer-4 simulator: verilog_sem on the generated module, stepped by
/// the backend \p Opts selects.  Fails if the generated module does not
/// type-check.
Result<std::unique_ptr<CoreSim>> makeVerilogSim(const SilverCore &Core,
                                                const VerilogSimOptions &Opts);

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_SIM_H
