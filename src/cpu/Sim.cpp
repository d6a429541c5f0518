//===- cpu/Sim.cpp - Core simulators (circuit and Verilog) -------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cpu/Sim.h"

#include "hdl/FastSim.h"
#include "hdl/compile/CompiledSim.h"

using namespace silver;
using namespace silver::cpu;

CoreSim::~CoreSim() = default;

namespace {

// Port-name to dense-frame-field bindings.  Resolved once per simulator
// at construction; the per-cycle loops never touch port names.

using InField = uint64_t CoreInputs::*;
using OutField = uint64_t CoreOutputs::*;

/// The frame field of input port \p Name, or null when there is none.
InField inField(const std::string &Name) {
  static const std::pair<const char *, InField> Fields[] = {
      {"mem_rdata", &CoreInputs::MemRdata},
      {"mem_ready", &CoreInputs::MemReady},
      {"mem_start_ready", &CoreInputs::MemStartReady},
      {"interrupt_ack", &CoreInputs::InterruptAck},
      {"data_in", &CoreInputs::DataIn},
  };
  for (const auto &[N, F] : Fields)
    if (Name == N)
      return F;
  return nullptr;
}

/// The frame field of output port \p Name, or null when there is none.
OutField outField(const std::string &Name) {
  static const std::pair<const char *, OutField> Fields[] = {
      {"mem_addr", &CoreOutputs::MemAddr},
      {"mem_wdata", &CoreOutputs::MemWdata},
      {"mem_ren", &CoreOutputs::MemRen},
      {"mem_wen", &CoreOutputs::MemWen},
      {"mem_wbyte", &CoreOutputs::MemWbyte},
      {"interrupt_req", &CoreOutputs::InterruptReq},
      {"retire", &CoreOutputs::Retire},
      {"retire_pc", &CoreOutputs::RetirePc},
      {"dbg_state", &CoreOutputs::DbgState},
      {"data_out", &CoreOutputs::DataOut},
  };
  for (const auto &[N, F] : Fields)
    if (Name == N)
      return F;
  return nullptr;
}

class CircuitSim : public CoreSim {
public:
  explicit CircuitSim(const SilverCore &Core)
      : Core(Core), Runner(Core.Circuit),
        State(rtl::CircuitState::init(Core.Circuit)) {
    const rtl::Circuit &C = Core.Circuit;
    for (const rtl::InputDef &In : C.Inputs)
      InBind.push_back(inField(In.Name));
    for (size_t K = 0; K != C.Outputs.size(); ++K)
      if (OutField F = outField(C.Outputs[K].Name))
        OutBind.emplace_back(K, F);
    InBuf.resize(C.Inputs.size());
    OutBuf.resize(C.Outputs.size());
  }

  Result<void> stepDense(const CoreInputs &In, CoreOutputs &Out) override {
    const rtl::Circuit &C = Core.Circuit;
    for (size_t K = 0; K != InBind.size(); ++K) {
      if (!InBind[K])
        return Error("circuit input '" + C.Inputs[K].Name +
                     "' has no dense-frame binding");
      InBuf[K] = In.*InBind[K];
    }
    if (Result<void> R = Runner.step(State, InBuf.data(), OutBuf.data()); !R)
      return R;
    for (const auto &[K, F] : OutBind)
      Out.*F = OutBuf[K];
    tickObserver();
    return {};
  }

  void attachCycleObserver(obs::Observer *O) override { Obs = O; }

  Word archPc() const override {
    return static_cast<Word>(State.Regs[Core.PcReg]);
  }

  ArchState archState() const override {
    ArchState A;
    A.Pc = static_cast<Word>(State.Regs[Core.PcReg]);
    A.Carry = State.Regs[Core.CarryReg] != 0;
    A.Overflow = State.Regs[Core.OverflowReg] != 0;
    A.DataOut = static_cast<Word>(State.Regs[Core.DataOutReg]);
    const auto &Rf = State.Mems[Core.RegFileMem];
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      A.Regs[I] = static_cast<Word>(Rf[I]);
    return A;
  }

  void primeArchState(const isa::MachineState &Ms) override {
    State.Regs[Core.PcReg] = Ms.PC;
    State.Regs[Core.CarryReg] = Ms.CarryFlag ? 1 : 0;
    State.Regs[Core.OverflowReg] = Ms.OverflowFlag ? 1 : 0;
    State.Regs[Core.DataOutReg] = Ms.DataOut;
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      State.Mems[Core.RegFileMem][I] = Ms.Regs[I];
  }

private:
  void tickObserver() {
    if (Obs) {
      Obs->onCycle(Cycle);
      ++Cycle;
    }
  }

  const SilverCore &Core;
  rtl::CircuitRunner Runner;
  rtl::CircuitState State;
  std::vector<InField> InBind; // per InputDef ordinal
  std::vector<std::pair<size_t, OutField>> OutBind; // by OutputDef ordinal
  std::vector<uint64_t> InBuf;
  std::vector<uint64_t> OutBuf;
  obs::Observer *Obs = nullptr;
  uint64_t Cycle = 0;
};

class VerilogSim : public CoreSim {
public:
  VerilogSim(const SilverCore &Core, std::unique_ptr<hdl::ModuleSim> SimIn)
      : Core(Core), Sim(std::move(SimIn)) {
    for (size_t K = 0; K != Sim->numInputs(); ++K)
      InBind.push_back(inField(Sim->inputName(K)));
    for (const rtl::OutputDef &O : Core.Circuit.Outputs)
      if (int Slot = Sim->slotOf(O.Name); Slot >= 0)
        if (OutField F = outField(O.Name))
          OutSlots.emplace_back(Slot, F);
    InBuf.resize(Sim->numInputs());
    PcSlot = regSlot(Core.PcReg);
    CarrySlot = regSlot(Core.CarryReg);
    OverflowSlot = regSlot(Core.OverflowReg);
    DataOutSlot = regSlot(Core.DataOutReg);
    RegFileSlot =
        Sim->memSlotOf(rtl::memVarName(Core.Circuit, Core.RegFileMem));
  }

  Result<void> stepDense(const CoreInputs &In, CoreOutputs &Out) override {
    for (size_t K = 0; K != InBind.size(); ++K) {
      if (!InBind[K])
        return Error("module input '" + Sim->inputName(K) +
                     "' has no dense-frame binding");
      InBuf[K] = In.*InBind[K];
    }
    if (Result<void> R = Sim->stepDense(InBuf.data(), InBuf.size()); !R)
      return R;
    for (const auto &[Slot, F] : OutSlots)
      Out.*F = Sim->valueOf(Slot);
    return {};
  }

  void attachCycleObserver(obs::Observer *O) override {
    Sim->setCycleObserver(O);
  }

  Word archPc() const override {
    return static_cast<Word>(Sim->valueOf(PcSlot));
  }

  ArchState archState() const override {
    ArchState A;
    A.Pc = static_cast<Word>(Sim->valueOf(PcSlot));
    A.Carry = Sim->valueOf(CarrySlot) != 0;
    A.Overflow = Sim->valueOf(OverflowSlot) != 0;
    A.DataOut = static_cast<Word>(Sim->valueOf(DataOutSlot));
    const auto &Rf = Sim->memOf(RegFileSlot);
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      A.Regs[I] = static_cast<Word>(Rf[I]);
    return A;
  }

  void primeArchState(const isa::MachineState &Ms) override {
    Sim->setValue(PcSlot, Ms.PC);
    Sim->setValue(CarrySlot, Ms.CarryFlag ? 1 : 0);
    Sim->setValue(OverflowSlot, Ms.OverflowFlag ? 1 : 0);
    Sim->setValue(DataOutSlot, Ms.DataOut);
    auto &Rf = Sim->memOf(RegFileSlot);
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      Rf[I] = Ms.Regs[I];
  }

private:
  int regSlot(unsigned Reg) const {
    return Sim->slotOf(rtl::regVarName(Core.Circuit, Reg));
  }

  const SilverCore &Core;
  std::unique_ptr<hdl::ModuleSim> Sim;
  std::vector<InField> InBind; // per module input ordinal
  std::vector<std::pair<int, OutField>> OutSlots;
  std::vector<uint64_t> InBuf;
  int PcSlot = -1;
  int CarrySlot = -1;
  int OverflowSlot = -1;
  int DataOutSlot = -1;
  int RegFileSlot = -1;
};

} // namespace

const Result<SilverCore> &CoreDesign::core() const {
  return Core.get([]() -> Result<SilverCore> {
    SilverCore C = buildSilverCore();
    if (Result<void> V = C.Circuit.validate(); !V)
      return V.error();
    return C;
  });
}

const Result<hdl::VModule> &CoreDesign::module() const {
  return Module.get([this]() -> Result<hdl::VModule> {
    if (!core())
      return core().error();
    Result<hdl::VModule> M = rtl::toVerilog(core()->Circuit);
    if (!M)
      return M;
    if (Result<void> T = hdl::typeCheck(*M); !T)
      return Error("generated Silver module fails type checking: " +
                   T.error().str());
    return M;
  });
}

const Result<std::shared_ptr<const hdl::FastProgram>> &
CoreDesign::fastProgram() const {
  return Fast.get(
      [this]() -> Result<std::shared_ptr<const hdl::FastProgram>> {
        if (!module())
          return module().error();
        return hdl::FastProgram::elaborate(*module());
      });
}

const std::shared_ptr<const hdl::CompiledModule> &
CoreDesign::compiled() const {
  return Compiled.get([this]() -> std::shared_ptr<const hdl::CompiledModule> {
    if (!module() || !hdl::compiledSimAvailable())
      return nullptr;
    Result<std::shared_ptr<hdl::CompiledModule>> C =
        hdl::CompiledModule::create(*module());
    return C ? C.take() : nullptr;
  });
}

Result<std::unique_ptr<CoreSim>> CoreDesign::instantiate(SimLevel L) const {
  if (!core())
    return core().error();
  std::unique_ptr<CoreSim> Sim;
  if (L == SimLevel::Circuit) {
    Sim = std::make_unique<CircuitSim>(*core());
    return Sim;
  }
  // The compiled backend degrades to the interpreter, never to an error,
  // so a host without a compiler still runs every Verilog-level workload.
  std::unique_ptr<hdl::ModuleSim> ModSim;
  if (L == SimLevel::VerilogCompiled && compiled()) {
    ModSim = std::make_unique<hdl::CompiledSim>(compiled());
  } else {
    if (!fastProgram())
      return fastProgram().error();
    ModSim = std::make_unique<hdl::FastSim>(*fastProgram());
  }
  Sim = std::make_unique<VerilogSim>(*core(), std::move(ModSim));
  return Sim;
}

const CoreDesign &silver::cpu::coreDesign() {
  static const CoreDesign Design;
  return Design;
}
