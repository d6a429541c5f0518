//===- tests/cpu/CpuTest.cpp - Silver core vs ISA (theorem (9)) ----------------===//

#include "cpu/Check.h"

#include "asm/Assembler.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::cpu;
using isa::Func;
using isa::Instruction;
using isa::Operand;

namespace {

/// Builds an initial machine state with the given instructions at 0 and
/// randomised register contents.
isa::MachineState makeState(const std::vector<Instruction> &Program,
                            Rng *R = nullptr, size_t MemBytes = 1 << 16) {
  isa::MachineState S(MemBytes);
  for (size_t I = 0; I != Program.size(); ++I)
    S.writeWord(static_cast<Word>(4 * I), encode(Program[I]));
  if (R)
    for (unsigned I = 1; I != isa::NumRegs; ++I)
      S.Regs[I] = R->next32();
  return S;
}

/// Random fault-free instruction sequence: ALU, shifts, constants,
/// scratch-region memory traffic, and short forward skips.
std::vector<Instruction> randomProgram(Rng &R, unsigned Length) {
  std::vector<Instruction> P;
  // r1 points at a scratch region well past the code.
  P.push_back(Instruction::loadConstant(1, false, 0x8000));
  auto Operand6 = [&R]() {
    return R.chance(1, 2) ? Operand::reg(R.below(isa::NumRegs))
                          : Operand::imm(R.range(-32, 31));
  };
  while (P.size() < Length) {
    switch (R.below(10)) {
    case 0:
    case 1:
    case 2: {
      Func F = static_cast<Func>(R.below(isa::NumFuncs));
      unsigned W = 2 + R.below(50);
      P.push_back(Instruction::normal(F, W, Operand6(), Operand6()));
      break;
    }
    case 3:
      P.push_back(Instruction::shift(
          static_cast<isa::ShiftKind>(R.below(4)), 2 + R.below(50),
          Operand6(), Operand6()));
      break;
    case 4:
      P.push_back(Instruction::loadConstant(2 + R.below(50), R.chance(1, 2),
                                            R.next32() & 0x1fffff));
      break;
    case 5:
      P.push_back(Instruction::loadUpperConstant(2 + R.below(50),
                                                 R.next32() & 0x7ff));
      break;
    case 6: {
      // Aligned store+load through r1.
      unsigned Off = 4 * R.below(8);
      P.push_back(Instruction::normal(Func::Add, 3, Operand::reg(1),
                                      Operand::imm(Off)));
      P.push_back(Instruction::storeMem(Operand::reg(2 + R.below(50)),
                                        Operand::reg(3)));
      P.push_back(Instruction::loadMem(2 + R.below(50), Operand::reg(3)));
      break;
    }
    case 7: {
      // Byte store+load at any offset.
      P.push_back(Instruction::normal(Func::Add, 3, Operand::reg(1),
                                      Operand::imm(R.range(0, 31))));
      P.push_back(Instruction::storeMemByte(Operand::reg(2 + R.below(50)),
                                            Operand::reg(3)));
      P.push_back(
          Instruction::loadMemByte(2 + R.below(50), Operand::reg(3)));
      break;
    }
    case 8:
      // Conditional skip of the next instruction (always well-formed:
      // both paths rejoin).
      P.push_back(Instruction::jumpIfZero(
          static_cast<Func>(R.below(isa::NumFuncs)), Operand6(), Operand6(),
          2));
      P.push_back(Instruction::normal(Func::Add, 2 + R.below(50),
                                      Operand6(), Operand6()));
      break;
    default:
      P.push_back(Instruction::out(Operand6()));
      break;
    }
  }
  P.push_back(Instruction::halt());
  return P;
}

} // namespace

TEST(Core, BuildsAndValidates) {
  SilverCore Core = buildSilverCore();
  Result<void> V = Core.Circuit.validate();
  EXPECT_TRUE(V) << V.error().str();
  EXPECT_GT(Core.Circuit.Nodes.size(), 100u);
}

TEST(Core, WaitsForMemStartInterface) {
  // Before mem_start_ready the core must stay in Init and issue nothing.
  SilverCore Core = buildSilverCore();
  auto Sim = makeCircuitSim(Core);
  CoreInputs In;
  CoreOutputs Out;
  for (int I = 0; I != 10; ++I) {
    ASSERT_TRUE(Sim->stepDense(In, Out));
    EXPECT_FALSE(Out.MemRen);
    EXPECT_FALSE(Out.MemWen);
    EXPECT_FALSE(Out.Retire);
  }
  In.MemStartReady = true;
  ASSERT_TRUE(Sim->stepDense(In, Out));
  ASSERT_TRUE(Sim->stepDense(In, Out));
  EXPECT_TRUE(Out.MemRen); // fetch request for address 0
  EXPECT_EQ(Out.MemAddr, 0u);
}

class IsaRtlRandom
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(IsaRtlRandom, LockStepAgrees) {
  auto [Seed, Latency] = GetParam();
  Rng R(Seed * 101 + 17);
  std::vector<Instruction> Program = randomProgram(R, 60);
  isa::MachineState Init = makeState(Program, &R);

  RunOptions Options;
  Options.Env.MemLatency = Latency;
  Options.MaxCycles = 1'000'000;
  Result<uint64_t> N = checkIsaRtl(Init, 200, Options, nullptr);
  ASSERT_TRUE(N) << "seed " << Seed << " latency " << Latency << ": "
                 << N.error().str();
  EXPECT_GT(*N, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IsaRtlRandom,
    ::testing::Combine(::testing::Range(0u, 12u),
                       ::testing::Values(0u, 1u, 3u)));

TEST(IsaRtl, VerilogLevelAgreesOnRandomProgram) {
  Rng R(777);
  std::vector<Instruction> Program = randomProgram(R, 40);
  isa::MachineState Init = makeState(Program, &R);
  RunOptions Options;
  Options.Level = SimLevel::Verilog;
  Options.MaxCycles = 1'000'000;
  Result<uint64_t> N = checkIsaRtl(Init, 150, Options, nullptr);
  EXPECT_TRUE(N) << N.error().str();
}

TEST(IsaRtl, FlagInstructionSequences) {
  // Carry/overflow chains: AddCarry consuming Sub-set carries, the
  // Carry/Overflow read functions, and flag-setting branches.
  std::vector<Instruction> P = {
      Instruction::loadConstant(2, true, 1), // r2 = 0xffffffff
      Instruction::normal(Func::Add, 3, Operand::reg(2), Operand::reg(2)),
      Instruction::normal(Func::AddCarry, 4, Operand::imm(0),
                          Operand::imm(0)),
      Instruction::normal(Func::Carry, 5, Operand::imm(0), Operand::imm(0)),
      Instruction::normal(Func::Sub, 6, Operand::imm(1), Operand::imm(2)),
      Instruction::normal(Func::Overflow, 7, Operand::imm(0),
                          Operand::imm(0)),
      Instruction::jumpIfZero(Func::Sub, Operand::reg(4), Operand::reg(4),
                              2),
      Instruction::normal(Func::Snd, 8, Operand::imm(0), Operand::imm(9)),
      Instruction::normal(Func::AddCarry, 9, Operand::imm(1),
                          Operand::imm(1)),
      Instruction::halt(),
  };
  isa::MachineState Init = makeState(P);
  RunOptions Options;
  Result<uint64_t> N = checkIsaRtl(Init, 100, Options, nullptr);
  EXPECT_TRUE(N) << N.error().str();
}

TEST(IsaRtl, JumpAndLinkSequences) {
  assembler::Assembler A;
  A.emitCall("sub");
  A.emitLi(4, 44);
  A.emitHalt();
  A.label("sub");
  A.emitLi(5, 55);
  A.emitRet();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);
  isa::MachineState Init(1 << 16);
  for (size_t I = 0; I != Prog->Bytes.size(); ++I)
    Init.Memory[I] = Prog->Bytes[I];
  RunOptions Options;
  Result<uint64_t> N = checkIsaRtl(Init, 50, Options, nullptr);
  EXPECT_TRUE(N) << N.error().str();
}

TEST(LabEnvModel, MemoryLatencyIsHonoured) {
  sys::MemoryLayout Layout{};
  LabEnvOptions Opt;
  Opt.MemLatency = 2;
  LabEnv Env(std::vector<uint8_t>(64, 0), Layout, Opt);

  CoreOutputs Out;
  Out.MemAddr = 8;
  Out.MemRen = true;
  CoreOutputs Idle = Out;
  Idle.MemRen = false;

  CoreInputs In;
  Env.inputsForCycle(In);
  ASSERT_TRUE(Env.observeOutputs(Out)); // request at cycle 0
  Env.inputsForCycle(In);
  EXPECT_FALSE(In.MemReady);
  ASSERT_TRUE(Env.observeOutputs(Idle));
  Env.inputsForCycle(In);
  EXPECT_FALSE(In.MemReady);
  ASSERT_TRUE(Env.observeOutputs(Idle));
  Env.inputsForCycle(In);
  EXPECT_TRUE(In.MemReady); // after 1+2 cycles
}

TEST(LabEnvModel, RejectsProtocolViolations) {
  sys::MemoryLayout Layout{};
  LabEnv Env(std::vector<uint8_t>(64, 0), Layout, {});
  CoreOutputs Req;
  Req.MemAddr = 2;
  Req.MemRen = true;
  CoreInputs In;
  Env.inputsForCycle(In);
  EXPECT_FALSE(Env.observeOutputs(Req)); // misaligned word read

  Req.MemAddr = 4;
  ASSERT_TRUE(Env.observeOutputs(Req));
  EXPECT_FALSE(Env.observeOutputs(Req)); // request while busy

  Req.MemAddr = 1024;
  LabEnv Env2(std::vector<uint8_t>(64, 0), Layout, {});
  Env2.inputsForCycle(In);
  EXPECT_FALSE(Env2.observeOutputs(Req)); // out of range
}

TEST(LabEnvModel, ByteWritesTouchOneByte) {
  sys::MemoryLayout Layout{};
  LabEnvOptions Opt;
  Opt.MemLatency = 0;
  LabEnv Env(std::vector<uint8_t>(64, 0xff), Layout, Opt);
  CoreOutputs Req;
  Req.MemAddr = 5;
  Req.MemWen = true;
  Req.MemWbyte = true;
  Req.MemWdata = 0xaabbccdd;
  CoreInputs In;
  Env.inputsForCycle(In);
  ASSERT_TRUE(Env.observeOutputs(Req));
  Env.inputsForCycle(In); // completes the write
  EXPECT_EQ(Env.memory()[5], 0xdd);
  EXPECT_EQ(Env.memory()[4], 0xff);
  EXPECT_EQ(Env.memory()[6], 0xff);
}

TEST(RunCore, CyclesPerInstructionGrowWithLatency) {
  // The paper's wait states: more memory latency, more clock cycles per
  // instruction cycle.
  assembler::Assembler A;
  for (int I = 0; I != 50; ++I)
    A.emit(Instruction::normal(Func::Add, 2, Operand::reg(2),
                               Operand::imm(1)));
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  ASSERT_TRUE(Prog);

  double PrevCpi = 0;
  for (unsigned Latency : {0u, 2u, 6u}) {
    isa::MachineState Init(1 << 16);
    for (size_t I = 0; I != Prog->Bytes.size(); ++I)
      Init.Memory[I] = Prog->Bytes[I];
    RunOptions Options;
    Options.Env.MemLatency = Latency;
    // Run via the checker to also get agreement for free.
    Result<uint64_t> N = checkIsaRtl(Init, 60, Options, nullptr);
    ASSERT_TRUE(N) << N.error().str();
    // CPI = (3 + latency+1) per simple instruction; monotone in latency.
    double Cpi = 3.0 + Latency + 1;
    EXPECT_GT(Cpi, PrevCpi);
    PrevCpi = Cpi;
  }
}
