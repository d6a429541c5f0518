//===- hdl/compile/CompiledSim.cpp - Compiled simulator backend --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/CompiledSim.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

namespace {

uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

} // namespace

Result<std::shared_ptr<CompiledModule>>
CompiledModule::create(const VModule &M, const BuildOptions &O) {
  Result<GeneratedModule> G = generateCpp(M);
  if (!G)
    return G.error();
  Result<std::shared_ptr<LoadedModule>> Code = buildAndLoad(*G, O);
  if (!Code)
    return Code.error();
  return std::shared_ptr<CompiledModule>(
      new CompiledModule(std::move(G->Layout), Code.take()));
}

//===----------------------------------------------------------------------===//
// CompiledSim (single instance)
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<CompiledSim>>
CompiledSim::compile(const VModule &M, const BuildOptions &O) {
  Result<std::shared_ptr<CompiledModule>> Mod = CompiledModule::create(M, O);
  if (!Mod)
    return Mod.error();
  return std::make_unique<CompiledSim>(Mod.take());
}

CompiledSim::CompiledSim(std::shared_ptr<CompiledModule> M)
    : Module(std::move(M)) {
  const CompiledLayout &L = Module->Layout;
  Values.assign(L.SlotWidths.size(), 0);
  Mems.resize(L.MemDepths.size());
  for (size_t I = 0; I != L.MemDepths.size(); ++I)
    Mems[I].assign(L.MemDepths[I], 0);
  MemPtrs.resize(Mems.size());
  for (size_t I = 0; I != Mems.size(); ++I)
    MemPtrs[I] = Mems[I].data();
}

CompiledSim::~CompiledSim() = default;

Result<void> CompiledSim::stepDense(const uint64_t *Inputs, size_t Count) {
  const CompiledLayout &L = Module->Layout;
  if (Count != L.InputSlots.size())
    return Error("compiled sim: dense input frame has " +
                 std::to_string(Count) + " values, module has " +
                 std::to_string(L.InputSlots.size()) + " input ports");
  for (size_t K = 0; K != Count; ++K) {
    int Slot = L.InputSlots[K].second;
    unsigned W = L.SlotWidths[Slot];
    Values[Slot] = maskTo(W == 0 ? 1 : W, Inputs[K]);
  }
  if (Module->Code->cycle()(Values.data(), MemPtrs.data()) != 0)
    return Error("compiled sim: memory write out of range");
  if (CycleObs != nullptr)
    CycleObs->onCycle(Cycle);
  ++Cycle;
  return {};
}

size_t CompiledSim::numInputs() const {
  return Module->Layout.InputSlots.size();
}

const std::string &CompiledSim::inputName(size_t Ordinal) const {
  assert(Ordinal < Module->Layout.InputSlots.size() &&
         "input ordinal out of range");
  return Module->Layout.InputSlots[Ordinal].first;
}

int CompiledSim::slotOf(const std::string &Name) const {
  const auto &S = Module->Layout.ScalarSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

int CompiledSim::memSlotOf(const std::string &Name) const {
  const auto &S = Module->Layout.MemSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

uint64_t CompiledSim::valueOf(int Slot) const {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Values.size());
  return Values[Slot];
}

void CompiledSim::setValue(int Slot, uint64_t Bits) {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Values.size());
  unsigned W = Module->Layout.SlotWidths[Slot];
  Values[Slot] = maskTo(W == 0 ? 1 : W, Bits);
}

const std::vector<uint64_t> &CompiledSim::memOf(int MemSlot) const {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

std::vector<uint64_t> &CompiledSim::memOf(int MemSlot) {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

void CompiledSim::setCycleObserver(obs::Observer *O) { CycleObs = O; }

uint64_t CompiledSim::valueOf(const std::string &Name) const {
  int Slot = slotOf(Name);
  assert(Slot >= 0 && "unknown variable");
  return Values[Slot];
}

void CompiledSim::setValue(const std::string &Name, uint64_t Bits) {
  int Slot = slotOf(Name);
  assert(Slot >= 0 && "unknown variable");
  setValue(Slot, Bits);
}

const std::vector<uint64_t> &CompiledSim::memOf(const std::string &Name) const {
  int Slot = memSlotOf(Name);
  assert(Slot >= 0 && "unknown memory");
  return Mems[Slot];
}

std::vector<uint64_t> &CompiledSim::memOf(const std::string &Name) {
  int Slot = memSlotOf(Name);
  assert(Slot >= 0 && "unknown memory");
  return Mems[Slot];
}

SimState CompiledSim::exportState(const VModule &M) const {
  SimState S = SimState::init(M);
  const CompiledLayout &L = Module->Layout;
  for (auto &[Name, Value] : S.Vars) {
    if (Value.K == VValue::Kind::Mem) {
      Value.Elems = memOf(Name);
      continue;
    }
    auto It = L.ScalarSlots.find(Name);
    if (It == L.ScalarSlots.end())
      continue;
    if (Value.K == VValue::Kind::Bool)
      Value.B = Values[It->second] != 0;
    else
      Value.Bits = maskTo(Value.Width, Values[It->second]);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// CompiledBatch (struct-of-arrays lanes)
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<CompiledBatch>>
CompiledBatch::compile(const VModule &M, size_t Lanes,
                       const BuildOptions &O) {
  Result<std::shared_ptr<CompiledModule>> Mod = CompiledModule::create(M, O);
  if (!Mod)
    return Mod.error();
  return std::make_unique<CompiledBatch>(Mod.take(), Lanes);
}

CompiledBatch::CompiledBatch(std::shared_ptr<CompiledModule> M, size_t Lanes)
    : Module(std::move(M)), NumLanes(Lanes == 0 ? 1 : Lanes) {
  const CompiledLayout &L = Module->Layout;
  Values.assign(L.SlotWidths.size() * NumLanes, 0);
  Mems.resize(L.MemDepths.size());
  for (size_t I = 0; I != L.MemDepths.size(); ++I)
    Mems[I].assign(L.MemDepths[I] * NumLanes, 0);
  MemPtrs.resize(Mems.size());
  for (size_t I = 0; I != Mems.size(); ++I)
    MemPtrs[I] = Mems[I].data();
}

size_t CompiledBatch::numInputs() const {
  return Module->Layout.InputSlots.size();
}

int CompiledBatch::slotOf(const std::string &Name) const {
  const auto &S = Module->Layout.ScalarSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

int CompiledBatch::memSlotOf(const std::string &Name) const {
  const auto &S = Module->Layout.MemSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

Result<void> CompiledBatch::stepDense(const uint64_t *Inputs) {
  const CompiledLayout &L = Module->Layout;
  for (size_t K = 0; K != L.InputSlots.size(); ++K) {
    int Slot = L.InputSlots[K].second;
    unsigned W = L.SlotWidths[Slot];
    for (size_t Lane = 0; Lane != NumLanes; ++Lane)
      Values[static_cast<size_t>(Slot) * NumLanes + Lane] =
          maskTo(W == 0 ? 1 : W, Inputs[K * NumLanes + Lane]);
  }
  if (Module->Code->cycleBatch()(Values.data(), MemPtrs.data(),
                                 NumLanes) != 0)
    return Error("compiled sim: memory write out of range");
  return {};
}

uint64_t CompiledBatch::valueOf(size_t Lane, int Slot) const {
  assert(Slot >= 0 && Lane < NumLanes);
  return Values[static_cast<size_t>(Slot) * NumLanes + Lane];
}

void CompiledBatch::setValue(size_t Lane, int Slot, uint64_t Bits) {
  assert(Slot >= 0 && Lane < NumLanes);
  unsigned W = Module->Layout.SlotWidths[Slot];
  Values[static_cast<size_t>(Slot) * NumLanes + Lane] =
      maskTo(W == 0 ? 1 : W, Bits);
}

uint64_t CompiledBatch::memAt(size_t Lane, int MemSlot, size_t Index) const {
  assert(MemSlot >= 0 && Lane < NumLanes);
  return Mems[MemSlot][Index * NumLanes + Lane];
}

void CompiledBatch::setMemAt(size_t Lane, int MemSlot, size_t Index,
                             uint64_t Bits) {
  assert(MemSlot >= 0 && Lane < NumLanes);
  Mems[MemSlot][Index * NumLanes + Lane] = Bits;
}
