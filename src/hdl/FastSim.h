//===- hdl/FastSim.h - Compiled simulator for the subset --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled simulator for the Verilog subset: elaborates a type-checked
/// module once (variables become slot indices, expressions become
/// annotated trees) and then steps cycles without any name lookups —
/// the Verilator to Semantics.h's event-driven reference.  Tests check it
/// cycle-for-cycle against hdl::stepCycle; everything fast (the Verilog
/// execution level of the stack, the layer benchmarks) runs on it.
///
/// Semantics preserved from the reference: per cycle, every process reads
/// the cycle-start state plus its own blocking writes (implemented with
/// an undo log so later processes never see them), and all non-blocking
/// writes commit at the end of the cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_FASTSIM_H
#define SILVER_HDL_FASTSIM_H

#include "hdl/ModuleSim.h"
#include "hdl/Semantics.h"
#include "obs/Observer.h"

#include <memory>

namespace silver {
namespace hdl {

class FastSim final : public ModuleSim {
public:
  /// Elaborates \p M; fails when typeCheck fails.  The module must stay
  /// alive for the lifetime of the simulator.
  static Result<std::unique_ptr<FastSim>> compile(const VModule &M);
  ~FastSim() override;

  /// One clock cycle; \p Inputs holds one value per input port in port
  /// declaration order (see numInputs / inputName).  This is the hot
  /// path: no name lookups, no per-cycle allocation.
  Result<void> stepDense(const uint64_t *Inputs, size_t Count) override;

  /// Number of input ports (the stepDense frame size).
  size_t numInputs() const override;
  /// Name of input port \p Ordinal (stepDense frame order).
  const std::string &inputName(size_t Ordinal) const override;

  /// Slot handle of a scalar (bool/vec) variable, or -1 when unknown.
  /// Slots are stable for the lifetime of the simulator; resolve once,
  /// then use the indexed accessors below on hot paths.
  int slotOf(const std::string &Name) const override;
  /// Memory handle of a memory variable, or -1 when unknown.
  int memSlotOf(const std::string &Name) const override;
  /// Indexed accessors (hot-path counterparts of the named ones).
  uint64_t valueOf(int Slot) const override;
  void setValue(int Slot, uint64_t Bits) override;
  const std::vector<uint64_t> &memOf(int MemSlot) const override;
  std::vector<uint64_t> &memOf(int MemSlot) override;

  /// Ticks obs::Observer::onCycle once per step (the Verilog level's
  /// clock source for the unified trace/counter subsystem).  Null
  /// detaches; not owned.
  void setCycleObserver(obs::Observer *O) override;

  /// Current value of a scalar (bool/vec) variable's bits.
  uint64_t valueOf(const std::string &Name) const override;
  /// Current contents of a memory variable.
  const std::vector<uint64_t> &memOf(const std::string &Name) const override;
  /// Writes a scalar variable (for priming architectural state).
  void setValue(const std::string &Name, uint64_t Bits) override;
  /// Mutable memory access (for priming).
  std::vector<uint64_t> &memOf(const std::string &Name) override;

  /// Exports the state in reference-simulator form (for the agreement
  /// tests against hdl::stepCycle).
  SimState exportState(const VModule &M) const override;

  struct Impl;

private:
  FastSim();
  std::unique_ptr<Impl> I;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_FASTSIM_H
