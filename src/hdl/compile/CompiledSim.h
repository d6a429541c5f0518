//===- hdl/compile/CompiledSim.h - Compiled simulator backend ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ahead-of-time compiled counterpart of FastSim: generate C++ for
/// the module (Codegen.h), build and dlopen it (Build.h), and step
/// cycles through the loaded entry point.  Exposes the same ModuleSim
/// surface — slot handles, dense input frames, cycle observer — so the
/// Verilog execution level swaps backends without touching its binding
/// code.  CompiledBatch steps N independent instances per call over a
/// struct-of-arrays state (lane l of slot s at Values[s*N+l]), which
/// amortizes the call overhead for fuzz campaigns and silverd.
///
/// The compiled backend is generated code executing the verified design,
/// so it is only admissible alongside its differential harness: the
/// interpreter remains the reference, and compiled-vs-interpreted
/// agreement is a first-class fuzz level (DESIGN.md §14).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_COMPILE_COMPILEDSIM_H
#define SILVER_HDL_COMPILE_COMPILEDSIM_H

#include "hdl/ModuleSim.h"
#include "hdl/compile/Build.h"

#include <memory>

namespace silver {
namespace hdl {

/// One module compiled to a shared object.  Cheap to share: instances
/// (single or batched) hold their own state and reference the loaded
/// code.
class CompiledModule {
public:
  /// Generates, builds (or reuses the cached artifact), and loads the
  /// simulator for \p M.  Fails when no host compiler is usable — use
  /// compiledSimAvailable() to fall back instead of erroring.
  static Result<std::shared_ptr<CompiledModule>>
  create(const VModule &M, const BuildOptions &O = {});

  const CompiledLayout &layout() const { return Layout; }
  uint64_t designHash() const { return Code->designHash(); }
  /// Path of the cached shared object (CI caches key on this).
  const std::string &artifactPath() const { return Code->path(); }

private:
  friend class CompiledSim;
  friend class CompiledBatch;
  CompiledModule(CompiledLayout L, std::shared_ptr<LoadedModule> C)
      : Layout(std::move(L)), Code(std::move(C)) {}

  CompiledLayout Layout;
  std::shared_ptr<LoadedModule> Code;
};

/// A single compiled instance behind the common ModuleSim surface.
class CompiledSim final : public ModuleSim {
public:
  /// Convenience: CompiledModule::create + instantiate.
  static Result<std::unique_ptr<CompiledSim>>
  compile(const VModule &M, const BuildOptions &O = {});
  /// One instance over an already-loaded module.
  explicit CompiledSim(std::shared_ptr<const CompiledModule> M);
  ~CompiledSim() override;

  Result<void> stepDense(const uint64_t *Inputs, size_t Count) override;
  size_t numInputs() const override;
  const std::string &inputName(size_t Ordinal) const override;
  int slotOf(const std::string &Name) const override;
  int memSlotOf(const std::string &Name) const override;
  uint64_t valueOf(int Slot) const override;
  void setValue(int Slot, uint64_t Bits) override;
  const std::vector<uint64_t> &memOf(int MemSlot) const override;
  std::vector<uint64_t> &memOf(int MemSlot) override;
  void setCycleObserver(obs::Observer *O) override;
  SimState exportState(const VModule &M) const override;

  uint64_t designHash() const { return Module->designHash(); }

private:
  std::shared_ptr<const CompiledModule> Module;
  std::vector<uint64_t> Values;
  std::vector<std::vector<uint64_t>> Mems;
  std::vector<uint64_t *> MemPtrs;
  obs::Observer *CycleObs = nullptr;
  uint64_t Cycle = 0;
};

/// N independent instances stepped together (struct-of-arrays lanes).
/// The input frame of stepDense is likewise lane-major per port:
/// Inputs[port * lanes() + lane].
class CompiledBatch {
public:
  CompiledBatch(std::shared_ptr<const CompiledModule> M, size_t Lanes);

  size_t lanes() const { return NumLanes; }
  size_t numInputs() const;
  int slotOf(const std::string &Name) const;
  int memSlotOf(const std::string &Name) const;

  /// One clock cycle for every lane; \p Inputs holds numInputs()*lanes()
  /// values, port-major.
  Result<void> stepDense(const uint64_t *Inputs);

  uint64_t valueOf(size_t Lane, int Slot) const;
  void setValue(size_t Lane, int Slot, uint64_t Bits);
  uint64_t memAt(size_t Lane, int MemSlot, size_t Index) const;
  void setMemAt(size_t Lane, int MemSlot, size_t Index, uint64_t Bits);

private:
  std::shared_ptr<const CompiledModule> Module;
  size_t NumLanes;
  std::vector<uint64_t> Values; ///< slot-major SoA: [slot*NumLanes+lane]
  std::vector<std::vector<uint64_t>> Mems; ///< [mem][elem*NumLanes+lane]
  std::vector<uint64_t *> MemPtrs;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_COMPILEDSIM_H
