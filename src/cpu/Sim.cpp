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

enum class InPort : uint8_t {
  MemRdata,
  MemReady,
  MemStartReady,
  InterruptAck,
  DataIn,
  Unknown,
};

InPort inPortFor(const std::string &Name) {
  if (Name == "mem_rdata")
    return InPort::MemRdata;
  if (Name == "mem_ready")
    return InPort::MemReady;
  if (Name == "mem_start_ready")
    return InPort::MemStartReady;
  if (Name == "interrupt_ack")
    return InPort::InterruptAck;
  if (Name == "data_in")
    return InPort::DataIn;
  return InPort::Unknown;
}

uint64_t inValue(const CoreInputs &In, InPort P) {
  switch (P) {
  case InPort::MemRdata:
    return In.MemRdata;
  case InPort::MemReady:
    return In.MemReady ? 1 : 0;
  case InPort::MemStartReady:
    return In.MemStartReady ? 1 : 0;
  case InPort::InterruptAck:
    return In.InterruptAck ? 1 : 0;
  case InPort::DataIn:
    return In.DataIn;
  case InPort::Unknown:
    break;
  }
  return 0;
}

enum class OutPort : uint8_t {
  MemAddr,
  MemWdata,
  MemRen,
  MemWen,
  MemWbyte,
  InterruptReq,
  Retire,
  RetirePc,
  DbgState,
  DataOut,
  Unknown,
};

OutPort outPortFor(const std::string &Name) {
  if (Name == "mem_addr")
    return OutPort::MemAddr;
  if (Name == "mem_wdata")
    return OutPort::MemWdata;
  if (Name == "mem_ren")
    return OutPort::MemRen;
  if (Name == "mem_wen")
    return OutPort::MemWen;
  if (Name == "mem_wbyte")
    return OutPort::MemWbyte;
  if (Name == "interrupt_req")
    return OutPort::InterruptReq;
  if (Name == "retire")
    return OutPort::Retire;
  if (Name == "retire_pc")
    return OutPort::RetirePc;
  if (Name == "dbg_state")
    return OutPort::DbgState;
  if (Name == "data_out")
    return OutPort::DataOut;
  return OutPort::Unknown;
}

void setOut(CoreOutputs &Out, OutPort P, uint64_t V) {
  switch (P) {
  case OutPort::MemAddr:
    Out.MemAddr = V;
    break;
  case OutPort::MemWdata:
    Out.MemWdata = V;
    break;
  case OutPort::MemRen:
    Out.MemRen = V != 0;
    break;
  case OutPort::MemWen:
    Out.MemWen = V != 0;
    break;
  case OutPort::MemWbyte:
    Out.MemWbyte = V != 0;
    break;
  case OutPort::InterruptReq:
    Out.InterruptReq = V != 0;
    break;
  case OutPort::Retire:
    Out.Retire = V != 0;
    break;
  case OutPort::RetirePc:
    Out.RetirePc = V;
    break;
  case OutPort::DbgState:
    Out.DbgState = V;
    break;
  case OutPort::DataOut:
    Out.DataOut = V;
    break;
  case OutPort::Unknown:
    break;
  }
}

class CircuitSim : public CoreSim {
public:
  explicit CircuitSim(const SilverCore &Core)
      : Core(Core), Runner(Core.Circuit),
        State(rtl::CircuitState::init(Core.Circuit)) {
    const rtl::Circuit &C = Core.Circuit;
    for (const rtl::InputDef &In : C.Inputs)
      InBind.push_back(inPortFor(In.Name));
    for (const rtl::OutputDef &O : C.Outputs)
      OutBind.push_back(outPortFor(O.Name));
    InBuf.resize(C.Inputs.size());
    OutBuf.resize(C.Outputs.size());
  }

  Result<void> stepDense(const CoreInputs &In, CoreOutputs &Out) override {
    const rtl::Circuit &C = Core.Circuit;
    for (size_t K = 0; K != InBind.size(); ++K) {
      if (InBind[K] == InPort::Unknown)
        return Error("circuit input '" + C.Inputs[K].Name +
                     "' has no dense-frame binding");
      InBuf[K] = inValue(In, InBind[K]);
    }
    if (Result<void> R = Runner.step(State, InBuf.data(), OutBuf.data()); !R)
      return R;
    for (size_t K = 0; K != OutBind.size(); ++K)
      setOut(Out, OutBind[K], OutBuf[K]);
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
  std::vector<InPort> InBind;   // per InputDef ordinal
  std::vector<OutPort> OutBind; // per OutputDef ordinal
  std::vector<uint64_t> InBuf;
  std::vector<uint64_t> OutBuf;
  obs::Observer *Obs = nullptr;
  uint64_t Cycle = 0;
};

class VerilogSim : public CoreSim {
public:
  VerilogSim(const SilverCore &Core, hdl::VModule ModuleIn,
             std::unique_ptr<hdl::ModuleSim> SimIn)
      : Core(Core), Module(std::move(ModuleIn)), Sim(std::move(SimIn)) {
    for (size_t K = 0; K != Sim->numInputs(); ++K)
      InBind.push_back(inPortFor(Sim->inputName(K)));
    for (const rtl::OutputDef &O : Core.Circuit.Outputs)
      OutSlots.emplace_back(Sim->slotOf(O.Name), outPortFor(O.Name));
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
      if (InBind[K] == InPort::Unknown)
        return Error("module input '" + Sim->inputName(K) +
                     "' has no dense-frame binding");
      InBuf[K] = inValue(In, InBind[K]);
    }
    if (Result<void> R = Sim->stepDense(InBuf.data(), InBuf.size()); !R)
      return R;
    for (const auto &[Slot, Port] : OutSlots)
      if (Slot >= 0)
        setOut(Out, Port, Sim->valueOf(Slot));
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
  hdl::VModule Module;
  std::unique_ptr<hdl::ModuleSim> Sim;
  std::vector<InPort> InBind; // per FastSim input ordinal
  std::vector<std::pair<int, OutPort>> OutSlots;
  std::vector<uint64_t> InBuf;
  int PcSlot = -1;
  int CarrySlot = -1;
  int OverflowSlot = -1;
  int DataOutSlot = -1;
  int RegFileSlot = -1;
};

} // namespace

std::unique_ptr<CoreSim> silver::cpu::makeCircuitSim(const SilverCore &Core) {
  return std::make_unique<CircuitSim>(Core);
}

Result<std::unique_ptr<CoreSim>>
silver::cpu::makeVerilogSim(const SilverCore &Core) {
  return makeVerilogSim(Core, {});
}

Result<std::unique_ptr<CoreSim>>
silver::cpu::makeVerilogSim(const SilverCore &Core,
                            const VerilogSimOptions &Opts) {
  Result<hdl::VModule> Module = rtl::toVerilog(Core.Circuit);
  if (!Module)
    return Module.error();
  if (Result<void> T = hdl::typeCheck(*Module); !T)
    return Error("generated Silver module fails type checking: " +
                 T.error().str());
  hdl::VModule Mod = Module.take();

  // Backend selection: the compiled backend degrades to the interpreter
  // (with a diagnostic, never an error) so a host without a compiler
  // still runs every Verilog-level workload.
  std::unique_ptr<hdl::ModuleSim> ModSim;
  if (Opts.Compiled) {
    if (!hdl::compiledSimAvailable()) {
      if (Opts.FallbackDiag != nullptr)
        *Opts.FallbackDiag = "compiled simulator unavailable (no usable "
                             "host C++ compiler); using the interpreter";
    } else {
      Result<std::unique_ptr<hdl::CompiledSim>> C =
          hdl::CompiledSim::compile(Mod);
      if (C)
        ModSim = C.take();
      else if (Opts.FallbackDiag != nullptr)
        *Opts.FallbackDiag = "compiled simulator failed (" +
                             C.error().str() + "); using the interpreter";
    }
  }
  if (!ModSim) {
    Result<std::unique_ptr<hdl::FastSim>> Fast = hdl::FastSim::compile(Mod);
    if (!Fast)
      return Fast.error();
    ModSim = Fast.take();
  }
  std::unique_ptr<CoreSim> Sim =
      std::make_unique<VerilogSim>(Core, std::move(Mod), std::move(ModSim));
  return Sim;
}
