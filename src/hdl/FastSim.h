//===- hdl/FastSim.h - Compiled simulator for the subset --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled simulator for the Verilog subset: elaborates a type-checked
/// module once (FastProgram: variables become slot indices, expressions
/// become annotated trees) and then steps cycles without any name
/// lookups (FastSim, one per instance) — the Verilator to Semantics.h's
/// event-driven reference.  Tests check it cycle-for-cycle against
/// hdl::stepCycle; everything fast (the Verilog execution level of the
/// stack, the layer benchmarks) runs on it.
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

/// A module elaborated once: variables become slot indices and the
/// process bodies become annotated trees.  Immutable after
/// elaboration, so one program backs any number of FastSim instances on
/// any number of threads (the counterpart of CompiledModule).
class FastProgram {
public:
  /// Elaborates \p M; fails when typeCheck fails.  The program keeps no
  /// reference to \p M.
  static Result<std::shared_ptr<const FastProgram>>
  elaborate(const VModule &M);
  ~FastProgram();

  /// Number of input ports (the stepDense frame size).
  size_t numInputs() const;
  /// Name of input port \p Ordinal (stepDense frame order).
  const std::string &inputName(size_t Ordinal) const;
  /// Slot handle of a scalar (bool/vec) variable, or -1 when unknown.
  int slotOf(const std::string &Name) const;
  /// Memory handle of a memory variable, or -1 when unknown.
  int memSlotOf(const std::string &Name) const;

  struct Impl;

private:
  friend class FastSim;
  FastProgram();
  std::unique_ptr<Impl> I;
};

/// One simulator instance: the per-cycle state over a shared program.
class FastSim final : public ModuleSim {
public:
  /// Convenience: FastProgram::elaborate + instantiate.
  static Result<std::unique_ptr<FastSim>> compile(const VModule &M);
  /// One instance over an already-elaborated program.
  explicit FastSim(std::shared_ptr<const FastProgram> P);
  ~FastSim() override;

  /// One clock cycle; \p Inputs holds one value per input port in port
  /// declaration order (see numInputs / inputName).  This is the hot
  /// path: no name lookups, no per-cycle allocation.
  Result<void> stepDense(const uint64_t *Inputs, size_t Count) override;

  size_t numInputs() const override;
  const std::string &inputName(size_t Ordinal) const override;
  int slotOf(const std::string &Name) const override;
  int memSlotOf(const std::string &Name) const override;
  uint64_t valueOf(int Slot) const override;
  void setValue(int Slot, uint64_t Bits) override;
  const std::vector<uint64_t> &memOf(int MemSlot) const override;
  std::vector<uint64_t> &memOf(int MemSlot) override;

  /// Ticks obs::Observer::onCycle once per step (the Verilog level's
  /// clock source for the unified trace/counter subsystem).  Null
  /// detaches; not owned.
  void setCycleObserver(obs::Observer *O) override;

  SimState exportState(const VModule &M) const override;

  struct Impl;

private:
  std::unique_ptr<Impl> I;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_FASTSIM_H
