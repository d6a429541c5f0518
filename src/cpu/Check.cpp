//===- cpu/Check.cpp - ISA/RTL correspondence and RTL runners ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cpu/Check.h"

#include "isa/Abi.h"
#include "isa/Encoding.h"
#include "isa/Interp.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace silver;
using namespace silver::cpu;

//===----------------------------------------------------------------------===//
// CoreRunner
//===----------------------------------------------------------------------===//

CoreRunner::CoreRunner(std::unique_ptr<CoreSim> SimIn, sys::MemoryImage Image,
                       const RunOptions &Options)
    : Sim(std::move(SimIn)),
      Env(std::move(Image.Memory), Image.Layout, Options.Env),
      Layout(Image.Layout), Opt(Options) {
  if (Options.Obs)
    Sim->attachCycleObserver(Options.Obs);
}

Result<CoreRunner> CoreRunner::create(sys::MemoryImage Image,
                                      const RunOptions &Options) {
  Result<std::unique_ptr<CoreSim>> Sim =
      coreDesign().instantiate(Options.Level);
  if (!Sim)
    return Sim.error();
  return CoreRunner(Sim.take(), std::move(Image), Options);
}

Result<CoreStop> CoreRunner::advance(uint64_t MaxInstructions,
                                     uint64_t MaxCycles) {
  if (Halted)
    return CoreStop::Halted;
  obs::Observer *Obs = Opt.Obs;
  uint64_t InstrDone = 0;
  uint64_t CycDone = 0;
  while (true) {
    if (InstrDone >= MaxInstructions)
      return CoreStop::InstructionBudget;
    if (CycDone >= MaxCycles)
      return CoreStop::CycleBudget;
    if (CyclesSinceRetire >= Opt.WedgeCycles)
      return CoreStop::NoRetireProgress;

    Word PcBefore = Sim->archPc();
    Env.inputsForCycle(Inputs);
    if (Result<void> S = Sim->stepDense(Inputs, Outputs); !S)
      return S.error();
    if (Result<void> O = Env.observeOutputs(Outputs); !O)
      return O.error();
    ++Cycles;
    ++CycDone;
    ++CyclesSinceRetire;

    if (Obs) {
      if (Outputs.MemRen) {
        // The fetch of the in-flight instruction reads at the arch pc;
        // MemEvent covers data accesses only, so filter it out to keep
        // the region-traffic buckets comparable with the ISA level.
        Word Addr = static_cast<Word>(Outputs.MemAddr);
        if (Addr != PcBefore) {
          obs::MemEvent Ev;
          Ev.Addr = Addr;
          Ev.Size = 4;
          Ev.IsWrite = false;
          Obs->onMem(Ev);
        }
      } else if (Outputs.MemWen) {
        obs::MemEvent Ev;
        Ev.Addr = static_cast<Word>(Outputs.MemAddr);
        Ev.Size = Outputs.MemWbyte ? 1 : 4;
        Ev.IsWrite = true;
        Obs->onMem(Ev);
      }
    }

    if (!Outputs.Retire)
      continue;
    CyclesSinceRetire = 0;
    // The core's retire_pc output is the *next* pc; the retired
    // instruction itself sits at the arch pc captured before the cycle
    // (the arch pc only advances on retire).
    Word NextPc = static_cast<Word>(Outputs.RetirePc);
    Word RetirePc = PcBefore;

    if (Obs) {
      obs::RetireEvent Ev;
      Ev.Pc = RetirePc;
      Ev.Index = Instructions;
      const isa::GuestMemory &M = Env.memory();
      if (RetirePc + 4 <= M.size()) {
        Word W = static_cast<Word>(M[RetirePc]) |
                 static_cast<Word>(M[RetirePc + 1]) << 8 |
                 static_cast<Word>(M[RetirePc + 2]) << 16 |
                 static_cast<Word>(M[RetirePc + 3]) << 24;
        if (Result<isa::Instruction> I = isa::decode(W)) {
          Ev.Opcode = static_cast<uint8_t>(I->Op);
          Ev.Mnemonic = isa::opcodeName(I->Op);
        }
      }
      Obs->onRetire(Ev);

      // FFI spans: the installed syscall code occupies
      // [SyscallCodeBase, HeapBase); entry is a retire at its first
      // instruction, exit the first retire back outside it.
      if (Layout.SyscallCodeBase != 0) {
        if (!InFfi && RetirePc == Layout.SyscallCodeBase) {
          InFfi = true;
          FfiIndex = static_cast<unsigned>(
              Sim->archState().Regs[abi::FfiIndexReg]);
          Obs->onFfi({FfiIndex, true});
        } else if (InFfi && (RetirePc < Layout.SyscallCodeBase ||
                             RetirePc >= Layout.HeapBase)) {
          InFfi = false;
          Obs->onFfi({FfiIndex, false});
        }
      }
    }

    ++Instructions;
    ++InstrDone;
    if (NextPc == PcBefore) {
      // The halt self-loop: the machine will stay here forever.
      Halted = true;
      return CoreStop::Halted;
    }
  }
}

ArchState CoreRunner::archState() const { return Sim->archState(); }

const isa::GuestMemory &CoreRunner::memory() const {
  return Env.memory();
}

CoreRunResult CoreRunner::result() const {
  CoreRunResult R;
  R.Halted = Halted;
  R.Cycles = Cycles;
  R.Instructions = Instructions;
  R.StdoutData = Env.collectedStdout();
  R.StderrData = Env.collectedStderr();
  R.Exit = sys::readExitStatus(Env.memory(), Layout);
  return R;
}

Result<uint64_t> silver::cpu::checkIsaRtl(const isa::MachineState &Initial,
                                          uint64_t MaxInstructions,
                                          const RunOptions &Options,
                                          const sys::MemoryLayout *Layout) {
  sys::MemoryImage Image;
  Image.Memory = Initial.Memory;
  if (Layout)
    Image.Layout = *Layout;
  Result<CoreRunner> RunnerOr = CoreRunner::create(std::move(Image), Options);
  if (!RunnerOr)
    return RunnerOr.error();
  CoreRunner &Runner = *RunnerOr;
  Runner.primeArchState(Initial);

  // The ISA side: its own copy of the machine state and environment,
  // stepped retire by retire with the reference Next function itself
  // (isHalted + step), so the core is compared against the semantics,
  // not against a predecoded copy of it.
  isa::MachineState Isa = Initial;
  std::unique_ptr<sys::SysEnv> SysEnv;
  if (Layout)
    SysEnv = std::make_unique<sys::SysEnv>(*Layout);
  isa::IsaEnv &IsaEnv = SysEnv ? *SysEnv : isa::nullEnv();

  auto CompareArch = [&](uint64_t At) -> Result<void> {
    ArchState A = Runner.archState();
    if (A.Pc != Isa.PC)
      return Error("instruction " + std::to_string(At) + ": PC " +
                   toHex(A.Pc) + " vs ISA " + toHex(Isa.PC));
    if (A.Carry != Isa.CarryFlag || A.Overflow != Isa.OverflowFlag)
      return Error("instruction " + std::to_string(At) + ": flags differ");
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      if (A.Regs[I] != Isa.Regs[I])
        return Error("instruction " + std::to_string(At) + ": r" +
                     std::to_string(I) + " = " + toHex(A.Regs[I]) +
                     " vs ISA " + toHex(Isa.Regs[I]));
    if (A.DataOut != Isa.DataOut)
      return Error("instruction " + std::to_string(At) +
                   ": data_out differs");
    return {};
  };

  uint64_t Instructions = 0;
  // The core's halt self-loop ends the check as the ISA halt does.
  while (Instructions < MaxInstructions && !isa::isHalted(Isa) &&
         !Runner.halted()) {
    // One implementation retire corresponds to one ISA Next step.
    uint64_t CyclesLeft = Options.MaxCycles - std::min(Options.MaxCycles,
                                                       Runner.cycles());
    Result<CoreStop> Stop = Runner.advance(1, CyclesLeft);
    if (!Stop)
      return Stop.error();
    if (*Stop == CoreStop::CycleBudget)
      return Error("cycle budget exhausted before instruction " +
                   std::to_string(Instructions));
    if (*Stop == CoreStop::NoRetireProgress)
      return Error("no retire in " + std::to_string(Options.WedgeCycles) +
                   " cycles before instruction " +
                   std::to_string(Instructions));

    isa::StepResult S = isa::step(Isa, IsaEnv);
    if (!S.ok())
      return Error("ISA faulted at instruction " +
                   std::to_string(Instructions) +
                   " (the check covers fault-free programs)");
    ++Instructions;
    if (Result<void> C = CompareArch(Instructions); !C)
      return C.error();
  }

  // Memories must agree at the end (ag32_eq_* includes memory equality).
  const isa::GuestMemory &M = Runner.memory();
  if (M != Isa.Memory) {
    for (size_t I = 0; I != M.size(); ++I)
      if (M[I] != Isa.Memory[I])
        return Error("memory differs at " + toHex(static_cast<Word>(I)) +
                     " after " + std::to_string(Instructions) +
                     " instructions");
  }
  if (SysEnv) {
    CoreRunResult R = Runner.result();
    if (R.StdoutData != SysEnv->collectedStdout())
      return Error("collected stdout differs between levels");
    if (R.StderrData != SysEnv->collectedStderr())
      return Error("collected stderr differs between levels");
  }
  return Instructions;
}
