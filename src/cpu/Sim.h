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
/// semantics running the generated module (layer 4).  The cycle loop
/// (CoreRunner) is written against this interface, so every experiment
/// can execute at either level.
///
/// The design behind the simulators is one artefact, as in the paper:
/// one circuit and the one module generated from it.  CoreDesign builds
/// it once per process and shares it; a simulator instance holds only
/// its own cycle state.
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
#include <mutex>
#include <optional>

namespace silver {
namespace hdl {
class CompiledModule;
class FastProgram;
} // namespace hdl

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
/// Silver core (single-bit ports hold 0 or 1).  The cycle loop
/// (CoreRunner) exchanges these instead of string-keyed maps, so the
/// per-cycle path does no name lookups and no allocation.
struct CoreInputs {
  uint64_t MemRdata = 0;
  uint64_t DataIn = 0;
  uint64_t MemReady = 0;
  uint64_t MemStartReady = 0;
  uint64_t InterruptAck = 0;
};

/// Dense output frame: one field per output port of the Silver core.
struct CoreOutputs {
  uint64_t MemAddr = 0;
  uint64_t MemWdata = 0;
  uint64_t RetirePc = 0;
  uint64_t DataOut = 0;
  uint64_t DbgState = 0;
  uint64_t MemRen = 0;
  uint64_t MemWen = 0;
  uint64_t MemWbyte = 0;
  uint64_t InterruptReq = 0;
  uint64_t Retire = 0;
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
  /// directly; the Verilog level forwards to its hdl::ModuleSim).  Null
  /// detaches; not owned.
  virtual void attachCycleObserver(obs::Observer *O) = 0;

  /// Reads the current architectural state.
  virtual ArchState archState() const = 0;

  /// Primes the architectural state (used by checkIsaRtl to start from
  /// an arbitrary machine state).
  virtual void primeArchState(const isa::MachineState &Ms) = 0;
};

/// Which implementation level to run: the circuit, or the generated
/// Verilog stepped by the AST interpreter or by the compiled backend
/// (hdl/compile; falls back to the interpreter when the host cannot
/// build it).
enum class SimLevel : uint8_t { Circuit, Verilog, VerilogCompiled };

/// The Silver core design: the validated circuit, the Verilog module
/// generated from it, that module elaborated for the FastSim
/// interpreter, and the module compiled and loaded for the compiled
/// backend.  Each part is built on first use and never changes after,
/// so every session on every thread shares the one design of the
/// process (coreDesign()): an rtl-only process never generates Verilog,
/// and only the first verilog-compiled session calls the host compiler.
class CoreDesign {
public:
  /// The circuit (layer 3), validated.
  const Result<SilverCore> &core() const;
  /// The Verilog module generated from core() (layer 4), type-checked.
  const Result<hdl::VModule> &module() const;
  /// module() elaborated for the FastSim interpreter.
  const Result<std::shared_ptr<const hdl::FastProgram>> &fastProgram() const;
  /// module() built (or its cached artifact reused; SILVER_HDL_CACHE is
  /// read then) and loaded; null when the host cannot build it.
  const std::shared_ptr<const hdl::CompiledModule> &compiled() const;

  /// A fresh simulator at \p L over the shared parts.  VerilogCompiled
  /// steps compiled(), or the interpreter when that is null.
  Result<std::unique_ptr<CoreSim>> instantiate(SimLevel L) const;

private:
  /// A value built by the first get() and shared by all later ones.
  template <typename T> class Lazy {
  public:
    template <typename F> const T &get(F Build) const {
      std::call_once(Once, [&] { Value.emplace(Build()); });
      return *Value;
    }

  private:
    mutable std::once_flag Once;
    mutable std::optional<T> Value;
  };

  Lazy<Result<SilverCore>> Core;
  Lazy<Result<hdl::VModule>> Module;
  Lazy<Result<std::shared_ptr<const hdl::FastProgram>>> Fast;
  Lazy<std::shared_ptr<const hdl::CompiledModule>> Compiled;
};

/// The design of this process.
const CoreDesign &coreDesign();

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_SIM_H
