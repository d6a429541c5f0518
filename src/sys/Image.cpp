//===- sys/Image.cpp - Memory images and the lab environment ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "sys/Image.h"

#include "isa/Abi.h"
#include "support/StringUtils.h"

using namespace silver;
using namespace silver::sys;

/// Joins command-line arguments with NUL separators (the in-memory
/// command-line device format).
static std::string joinCommandLine(const std::vector<std::string> &Args) {
  std::string Joined;
  for (size_t I = 0, E = Args.size(); I != E; ++I) {
    if (I != 0)
      Joined.push_back('\0');
    Joined += Args[I];
  }
  return Joined;
}

static void writeWordTo(isa::GuestMemory &Mem, Word Addr, Word Value) {
  Mem[Addr] = static_cast<uint8_t>(Value);
  Mem[Addr + 1] = static_cast<uint8_t>(Value >> 8);
  Mem[Addr + 2] = static_cast<uint8_t>(Value >> 16);
  Mem[Addr + 3] = static_cast<uint8_t>(Value >> 24);
}

static Word readWordFrom(const isa::GuestMemory &Mem, Word Addr) {
  return static_cast<Word>(Mem[Addr]) |
         (static_cast<Word>(Mem[Addr + 1]) << 8) |
         (static_cast<Word>(Mem[Addr + 2]) << 16) |
         (static_cast<Word>(Mem[Addr + 3]) << 24);
}

Result<MemoryImage> silver::sys::buildImage(const ImageSpec &Spec) {
  if (Result<void> Cl = checkClOk(Spec.CommandLine, Spec.Params); !Cl)
    return Cl.error();
  if (Spec.StdinData.size() > Spec.Params.StdinCap)
    return Error("stdin data exceeds the stdin region capacity");

  Result<MemoryLayout> LayoutOr = MemoryLayout::compute(
      Spec.Params, static_cast<Word>(Spec.Program.size()));
  if (!LayoutOr)
    return LayoutOr.error();
  MemoryLayout L = *LayoutOr;

  Result<assembler::Assembled> Startup = buildStartupProgram(L);
  if (!Startup)
    return Startup.error();
  Result<assembler::Assembled> Syscalls = buildSyscallProgram(L);
  if (!Syscalls)
    return Syscalls.error();

  MemoryImage Image;
  Image.Layout = L;
  Image.Memory = isa::GuestMemory(Spec.Params.MemSize);

  // Startup code.
  std::copy(Startup->Bytes.begin(), Startup->Bytes.end(),
            Image.Memory.begin() + L.StartupBase);

  // Descriptor table: region addresses for tools and tests.
  const Word Desc[8] = {L.CmdlineBase,  L.StdinBase,       L.OutBufBase,
                        L.ExitFlagAddr, L.ExitCodeAddr,    L.SyscallIdAddr,
                        L.SyscallCodeBase, L.HeapBase};
  for (unsigned I = 0; I != 8; ++I)
    writeWordTo(Image.Memory, L.DescriptorBase + 4 * I, Desc[I]);

  // Command line: [length | contents].
  std::string Joined = joinCommandLine(Spec.CommandLine);
  writeWordTo(Image.Memory, L.CmdlineBase,
              static_cast<Word>(Joined.size()));
  std::copy(Joined.begin(), Joined.end(),
            Image.Memory.begin() + L.CmdlineBase + 4);

  // Standard input: [length | offset | contents].
  writeWordTo(Image.Memory, L.StdinBase,
              static_cast<Word>(Spec.StdinData.size()));
  writeWordTo(Image.Memory, L.StdinBase + 4, 0);
  std::copy(Spec.StdinData.begin(), Spec.StdinData.end(),
            Image.Memory.begin() + L.StdinBase + 8);

  // System calls: [called id | code].
  writeWordTo(Image.Memory, L.SyscallIdAddr, 0);
  std::copy(Syscalls->Bytes.begin(), Syscalls->Bytes.end(),
            Image.Memory.begin() + L.SyscallCodeBase);

  // Program code+data at the top of memory.
  std::copy(Spec.Program.begin(), Spec.Program.end(),
            Image.Memory.begin() + L.CodeBase);

  return Image;
}

isa::MachineState silver::sys::initialState(MemoryImage Image) {
  isa::MachineState State(0);
  State.Memory = std::move(Image.Memory);
  State.PC = Image.Layout.StartupBase;
  return State;
}

ExitStatus silver::sys::readExitStatus(const isa::GuestMemory &Memory,
                                       const MemoryLayout &Layout) {
  ExitStatus S;
  S.Exited = readWordFrom(Memory, Layout.ExitFlagAddr) != 0;
  S.Code = static_cast<uint8_t>(readWordFrom(Memory, Layout.ExitCodeAddr));
  return S;
}

std::vector<uint8_t>
silver::sys::interruptObservable(const isa::GuestMemory &Memory,
                                 const MemoryLayout &Layout,
                                 std::string &StdoutData,
                                 std::string &StderrData) {
  // An exit interrupt carries the exit code as its observable byte.
  if (readWordFrom(Memory, Layout.ExitFlagAddr) != 0)
    return {static_cast<uint8_t>(readWordFrom(Memory, Layout.ExitCodeAddr))};

  Word Id = readWordFrom(Memory, Layout.OutBufBase);
  Word Len = readWordFrom(Memory, Layout.OutBufBase + 4);
  if (Len > Layout.Params.OutBufCap)
    Len = Layout.Params.OutBufCap;
  std::vector<uint8_t> Bytes(Memory.begin() + Layout.OutBufBase + 8,
                             Memory.begin() + Layout.OutBufBase + 8 + Len);
  if (Id == 1)
    StdoutData.append(Bytes.begin(), Bytes.end());
  else if (Id == 2)
    StderrData.append(Bytes.begin(), Bytes.end());
  return Bytes;
}

std::vector<uint8_t> SysEnv::onInterrupt(isa::MachineState &State) {
  return interruptObservable(State.Memory, Layout, Stdout, Stderr);
}

Result<void> silver::sys::validateInstalled(const isa::MachineState &State,
                                            const MemoryLayout &L,
                                            const ImageSpec &Spec) {
  // (i) Registers 1-4 provide accurate memory information.
  if (State.Regs[abi::MemStartReg] != L.HeapBase)
    return Error("installed: r1 does not hold the usable-memory start");
  if (State.Regs[abi::MemEndReg] != L.HeapEnd)
    return Error("installed: r2 does not hold the usable-memory end");
  if (State.Regs[abi::FfiTableReg] != L.SyscallCodeBase)
    return Error("installed: r3 does not hold the FFI entry point");
  if (State.Regs[abi::LayoutReg] != L.DescriptorBase)
    return Error("installed: r4 does not hold the layout descriptor");

  // (ii)+(iii) Code and data of the program are in memory and the PC
  // points at the first instruction.
  if (!State.inRange(L.CodeBase, static_cast<Word>(Spec.Program.size())))
    return Error("installed: program does not fit in memory");
  for (size_t I = 0, E = Spec.Program.size(); I != E; ++I)
    if (State.Memory[L.CodeBase + I] != Spec.Program[I])
      return Error("installed: program bytes corrupted at offset " +
                   std::to_string(I));
  if (State.PC != L.CodeBase)
    return Error("installed: PC does not point at the program entry");

  // (iv) Alignment and non-overlap.  This is the assumption the paper
  // found to be inconsistent before fixing (§6.1); here every pointer is
  // checked against the same alignment rule.
  for (Word Addr : {L.CmdlineBase, L.StdinBase, L.OutBufBase,
                    L.SyscallCodeBase, L.HeapBase, L.HeapEnd, L.CodeBase})
    if (!isAligned(Addr, 4))
      return Error("installed: region base " + toHex(Addr) +
                   " is not word-aligned");
  if (L.HeapBase >= L.HeapEnd)
    return Error("installed: empty usable-memory region");
  if (L.HeapEnd > L.CodeBase)
    return Error("installed: usable memory overlaps the code section");

  // Command-line and stdin devices are well-formed.
  if (Result<void> Cl = checkClOk(Spec.CommandLine, L.Params); !Cl)
    return Cl.error();
  Word ClLen = readWordFrom(State.Memory, L.CmdlineBase);
  if (ClLen > L.Params.CmdlineCap)
    return Error("installed: command-line region length out of range");
  Word StdinLen = readWordFrom(State.Memory, L.StdinBase);
  Word StdinOff = readWordFrom(State.Memory, L.StdinBase + 4);
  if (StdinLen > L.Params.StdinCap)
    return Error("installed: stdin region length out of range");
  if (StdinOff != 0)
    return Error("installed: stdin offset must start at zero");
  return {};
}

Result<BootResult> silver::sys::boot(const ImageSpec &Spec) {
  return boot(Spec, nullptr);
}

Result<BootResult> silver::sys::boot(const ImageSpec &Spec,
                                     obs::Observer *Obs) {
  Result<MemoryImage> Image = buildImage(Spec);
  if (!Image)
    return Image.error();

  BootResult Out;
  Out.Layout = Image->Layout;
  Out.State = initialState(Image.take());

  // Run the startup prefix: Next^k until the PC reaches the program.
  const uint64_t StartupBudget = 64;
  while (Out.State.PC != Out.Layout.CodeBase) {
    if (Out.StartupSteps >= StartupBudget)
      return Error("startup code did not reach the program entry");
    isa::StepResult S =
        Obs ? isa::step(Out.State, isa::nullEnv(), *Obs, Out.StartupSteps)
            : isa::step(Out.State, isa::nullEnv());
    if (!S.ok())
      return Error("startup code faulted");
    ++Out.StartupSteps;
  }

  if (Result<void> V = validateInstalled(Out.State, Out.Layout, Spec); !V)
    return V.error();
  return Out;
}
