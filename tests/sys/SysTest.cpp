//===- tests/sys/SysTest.cpp - layout, image, boot, installed tests ------------===//

#include "sys/Image.h"

#include "isa/Abi.h"
#include "stack/Apps.h"
#include "stack/Stack.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::sys;

TEST(Layout, ComputesOrderedRegions) {
  LayoutParams P;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L) << L.error().str();
  // Figure 2 order: startup, cmdline, stdin, outbuf, syscalls, usable,
  // code.
  EXPECT_LT(L->StartupBase, L->CmdlineBase);
  EXPECT_LT(L->CmdlineBase, L->StdinBase);
  EXPECT_LT(L->StdinBase, L->OutBufBase);
  EXPECT_LT(L->OutBufBase, L->SyscallCodeBase);
  EXPECT_LT(L->SyscallCodeBase, L->HeapBase);
  EXPECT_LT(L->HeapBase, L->HeapEnd);
  EXPECT_EQ(L->HeapEnd, L->CodeBase);
  EXPECT_EQ(L->CodeBase % 4096, 0u);
}

TEST(Layout, RejectsOversizedProgram) {
  LayoutParams P;
  P.MemSize = 1 << 20;
  EXPECT_FALSE(MemoryLayout::compute(P, 1 << 20));
  EXPECT_FALSE(MemoryLayout::compute(P, (1 << 20) - 4096));
}

TEST(Layout, PaperStdinSizeFits) {
  LayoutParams P;
  P.MemSize = 16u << 20;
  P.StdinCap = PaperStdinSize;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 64 << 10);
  ASSERT_TRUE(L);
  EXPECT_GE(L->usableSize(), 1u << 20);
}

TEST(Layout, UsableMemoryFloorIsExact) {
  // The smallest accepted image leaves exactly 16 KiB of usable memory.
  LayoutParams P;
  Result<MemoryLayout> Probe = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(Probe);
  // The front regions do not depend on MemSize, so HeapBase is stable.
  P.MemSize = Probe->HeapBase + 16 * 1024 + 4096;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L) << L.error().str();
  EXPECT_EQ(L->usableSize(), 16u * 1024);
  P.MemSize -= 4096;
  EXPECT_FALSE(MemoryLayout::compute(P, 4096));
}

TEST(ClOk, JoinedSizeBoundaryIsExact) {
  LayoutParams P;
  // A single argument of exactly CmdlineCap bytes joins to CmdlineCap.
  EXPECT_TRUE(checkClOk({std::string(P.CmdlineCap, 'x')}, P));
  EXPECT_FALSE(checkClOk({std::string(P.CmdlineCap + 1, 'x')}, P));
  // Two arguments pay one separator byte.
  EXPECT_TRUE(checkClOk(
      {std::string(P.CmdlineCap - 2, 'x'), "y"}, P));
  EXPECT_FALSE(checkClOk(
      {std::string(P.CmdlineCap - 1, 'x'), "y"}, P));
}

TEST(ClOk, ArgumentCountLimitIs16Bit) {
  LayoutParams P;
  P.CmdlineCap = 200000; // so the joined size is not the binding limit
  std::vector<std::string> Args(0xffff, "a");
  EXPECT_TRUE(checkClOk(Args, P));
  Args.push_back("a");
  EXPECT_FALSE(checkClOk(Args, P));
}

TEST(Image, EmptyCommandLineBuilds) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Spec.CommandLine = {};
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot) << Boot.error().str();
  // The command-line region holds a zero length word.
  EXPECT_EQ(Boot->State.readWord(Boot->Layout.CmdlineBase), 0u);
}

TEST(ClOk, AcceptsAndRejects) {
  LayoutParams P;
  EXPECT_TRUE(checkClOk({"wc"}, P));
  EXPECT_TRUE(checkClOk({}, P));
  EXPECT_FALSE(checkClOk({""}, P));
  EXPECT_FALSE(checkClOk({std::string("a\0b", 3)}, P));
  EXPECT_FALSE(checkClOk({std::string(10000, 'x')}, P));
}

TEST(Image, BuildsAndBoots) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);

  ImageSpec Spec;
  Spec.CommandLine = {"prog", "arg"};
  Spec.StdinData = "input";
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot) << Boot.error().str();

  const MemoryLayout &L = Boot->Layout;
  const isa::MachineState &S = Boot->State;
  // Startup set the info registers (installed (i)).
  EXPECT_EQ(S.Regs[silver::abi::MemStartReg], L.HeapBase);
  EXPECT_EQ(S.Regs[silver::abi::MemEndReg], L.HeapEnd);
  EXPECT_EQ(S.Regs[silver::abi::FfiTableReg], L.SyscallCodeBase);
  EXPECT_EQ(S.PC, L.CodeBase);
  // Command line is NUL-joined with its length.
  EXPECT_EQ(S.readWord(L.CmdlineBase), 8u); // "prog\0arg"
  EXPECT_EQ(S.readByte(L.CmdlineBase + 4), 'p');
  EXPECT_EQ(S.readByte(L.CmdlineBase + 8), 0);
  // Stdin region: length then offset 0 then data.
  EXPECT_EQ(S.readWord(L.StdinBase), 5u);
  EXPECT_EQ(S.readWord(L.StdinBase + 4), 0u);
  EXPECT_EQ(S.readByte(L.StdinBase + 8), 'i');
}

TEST(Image, RejectsOversizedStdin) {
  ImageSpec Spec;
  Spec.Program = {0, 0, 0, 0};
  Spec.StdinData.assign(Spec.Params.StdinCap + 1, 'x');
  EXPECT_FALSE(buildImage(Spec));
}

TEST(Image, RejectsBadCommandLine) {
  ImageSpec Spec;
  Spec.Program = {0, 0, 0, 0};
  Spec.CommandLine = {""};
  EXPECT_FALSE(buildImage(Spec));
}

TEST(Installed, DetectsCorruptedProgram) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);

  // Tamper with the program bytes in memory.
  isa::MachineState Bad = Boot->State;
  Bad.Memory[Boot->Layout.CodeBase] ^= 0xff;
  Result<void> V = validateInstalled(Bad, Boot->Layout, Spec);
  ASSERT_FALSE(V);
  EXPECT_NE(V.error().message().find("corrupted"), std::string::npos);
}

TEST(Installed, DetectsWrongRegisters) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  isa::MachineState Bad = Boot->State;
  Bad.Regs[silver::abi::MemStartReg] += 4;
  EXPECT_FALSE(validateInstalled(Bad, Boot->Layout, Spec));
  Bad = Boot->State;
  Bad.PC += 4;
  EXPECT_FALSE(validateInstalled(Bad, Boot->Layout, Spec));
}

TEST(ExitStatusCells, ReadBack) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  ExitStatus S0 = readExitStatus(Boot->State.Memory, Boot->Layout);
  EXPECT_FALSE(S0.Exited);
  Boot->State.writeWord(Boot->Layout.ExitFlagAddr, 1);
  Boot->State.writeWord(Boot->Layout.ExitCodeAddr, 7);
  ExitStatus S1 = readExitStatus(Boot->State.Memory, Boot->Layout);
  EXPECT_TRUE(S1.Exited);
  EXPECT_EQ(S1.Code, 7);
}

TEST(SysEnv, CollectsTerminalOutputOnInterrupt) {
  assembler::Assembler A;
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ImageSpec Spec;
  Spec.Program = Prog->Bytes;
  Result<BootResult> Boot = sys::boot(Spec);
  ASSERT_TRUE(Boot);
  const MemoryLayout &L = Boot->Layout;

  SysEnv Env(L);
  // Simulate a write syscall having filled the output buffer for stdout.
  Boot->State.writeWord(L.OutBufBase, 1);
  Boot->State.writeWord(L.OutBufBase + 4, 2);
  Boot->State.writeByte(L.OutBufBase + 8, 'h');
  Boot->State.writeByte(L.OutBufBase + 9, 'i');
  std::vector<uint8_t> Obs = Env.onInterrupt(Boot->State);
  EXPECT_EQ(Env.collectedStdout(), "hi");
  EXPECT_EQ(Obs.size(), 2u);
  // Stderr via id 2.
  Boot->State.writeWord(L.OutBufBase, 2);
  Env.onInterrupt(Boot->State);
  EXPECT_EQ(Env.collectedStderr(), "hi");
  // After exit was recorded, the observable is the exit code.
  Boot->State.writeWord(L.ExitFlagAddr, 1);
  Boot->State.writeWord(L.ExitCodeAddr, 3);
  Obs = Env.onInterrupt(Boot->State);
  ASSERT_EQ(Obs.size(), 1u);
  EXPECT_EQ(Obs[0], 3);
}

TEST(Syscalls, ProgramsFitTheirRegions) {
  LayoutParams P;
  Result<MemoryLayout> L = MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L);
  Result<assembler::Assembled> Sys = buildSyscallProgram(*L);
  ASSERT_TRUE(Sys) << Sys.error().str();
  EXPECT_LE(Sys->Bytes.size(), P.SyscallCodeCap);
  EXPECT_EQ(Sys->addressOf("ffi_dispatch"), L->SyscallCodeBase);
  Result<assembler::Assembled> Start = buildStartupProgram(*L);
  ASSERT_TRUE(Start) << Start.error().str();
  EXPECT_LE(Start->Bytes.size(), P.StartupCap);
}

TEST(BootEquivalence, InPlaceBootMatchesCopyingPathOnAllApps) {
  // sys::boot installs the built image in place (the memory is moved,
  // never copied); the copying path installs a copy of the image and
  // steps the startup prefix with the reference Next function.  Both
  // must reach the same ISA-visible state, byte for byte.
  struct App {
    const char *Name;
    const char *Source;
    std::string Stdin;
  };
  const App Apps[] = {
      {"hello", stack::helloSource(), ""},
      {"cat", stack::catSource(), "cat me\n"},
      {"wc", stack::wcSource(), "one two\nthree\n"},
      {"sort", stack::sortSource(), "b\na\nc\n"},
      {"proof", stack::proofCheckerSource(), stack::sampleValidProof()},
      {"tin", stack::tinCompilerSource(), stack::sampleTinProgram(3)},
  };
  for (const App &A : Apps) {
    SCOPED_TRACE(A.Name);
    stack::RunSpec Spec;
    Spec.Source = A.Source;
    Spec.StdinData = A.Stdin;
    Result<stack::Prepared> P = stack::prepare(Spec);
    ASSERT_TRUE(P) << P.error().str();

    Result<BootResult> Boot = sys::boot(P->Image);
    ASSERT_TRUE(Boot) << Boot.error().str();

    Result<MemoryImage> Image = buildImage(P->Image);
    ASSERT_TRUE(Image) << Image.error().str();
    isa::MachineState Copy = initialState(*Image);
    EXPECT_NE(Copy.Memory.data(), Image->Memory.data());
    uint64_t Steps = 0;
    while (Copy.PC != Image->Layout.CodeBase && Steps != 64) {
      ASSERT_TRUE(isa::step(Copy, isa::nullEnv()).ok()) << "step " << Steps;
      ++Steps;
    }

    EXPECT_EQ(Boot->StartupSteps, Steps);
    EXPECT_EQ(Boot->Layout.CodeBase, Image->Layout.CodeBase);
    EXPECT_EQ(Boot->Layout.HeapBase, Image->Layout.HeapBase);
    EXPECT_EQ(Boot->State.memSize(), P->Image.Params.MemSize);
    EXPECT_TRUE(Boot->State.isaVisibleEquals(Copy));
    EXPECT_EQ(Boot->State.DataOut, Copy.DataOut);
    EXPECT_EQ(Boot->State.IoEvents.size(), Copy.IoEvents.size());
    EXPECT_TRUE(validateInstalled(Copy, Image->Layout, P->Image));
  }
}
