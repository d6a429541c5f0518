//===- bench/bench_cpi.cpp - E4: wait states and cycles per instruction --------===//
//
// The paper (§4.2) distinguishes instruction cycles from clock cycles:
// the implementation has wait states for memory, so one instruction takes
// several clock cycles, more with slower memory.  This bench measures
// true CPI on the cycle-accurate core for (a) an ALU-only loop, (b) a
// memory-heavy loop, and (c) the hello application, across a memory
// latency sweep — reproducing the fetch(2+L) + execute(1) + mem(2+L)
// model stated in cpu/Core.h.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "cpu/Check.h"
#include "stack/Apps.h"
#include "stack/Stack.h"

#include <benchmark/benchmark.h>

using namespace silver;
using isa::Func;
using isa::Instruction;
using isa::Operand;

namespace {

/// Runs \p Image on the core until it halts; returns cycles per
/// instruction.
Result<double> runCpi(const sys::MemoryImage &Image,
                      const cpu::RunOptions &Options) {
  Result<cpu::CoreRunner> R = cpu::CoreRunner::create(Image, Options);
  if (!R)
    return R.error();
  Result<cpu::CoreStop> Stop = R->advance(UINT64_MAX, Options.MaxCycles);
  if (!Stop)
    return Stop.error();
  if (*Stop != cpu::CoreStop::Halted)
    return Error("core run did not halt");
  return static_cast<double>(R->cycles()) / R->instructions();
}

/// Runs raw instructions on the circuit-level core and reports CPI.
void measureCpi(benchmark::State &State,
                const std::vector<Instruction> &Body, unsigned Latency) {
  assembler::Assembler A;
  A.emitLi(1, 0x8000); // scratch base
  A.label("loop");
  for (int Rep = 0; Rep != 4; ++Rep)
    for (const Instruction &I : Body)
      A.emit(I);
  A.emit(Instruction::normal(Func::Inc, 10, Operand::reg(10),
                             Operand::imm(0)));
  A.emitBranch(false, Func::Lower, Operand::reg(10), Operand::imm(25),
               "loop");
  A.emitHalt();
  Result<assembler::Assembled> Prog = A.assemble(0);
  if (!Prog) {
    State.SkipWithError("assembly failed");
    return;
  }

  sys::MemoryImage Image;
  Image.Layout.Params.MemSize = 1 << 16;
  Image.Memory = isa::GuestMemory(1 << 16);
  std::copy(Prog->Bytes.begin(), Prog->Bytes.end(), Image.Memory.begin());

  cpu::RunOptions Options;
  Options.Env.MemLatency = Latency;
  Options.MaxCycles = 10'000'000;

  Result<double> Cpi = 0.0;
  for (auto _ : State)
    if (!(Cpi = runCpi(Image, Options))) {
      State.SkipWithError(Cpi.error().str().c_str());
      return;
    }
  State.counters["CPI"] = *Cpi;
  State.counters["MemLatency"] = Latency;
}

void BM_CpiAlu(benchmark::State &State) {
  measureCpi(State,
             {Instruction::normal(Func::Add, 2, Operand::reg(2),
                                  Operand::imm(1)),
              Instruction::shift(isa::ShiftKind::RotateRight, 3,
                                 Operand::reg(2), Operand::imm(5))},
             static_cast<unsigned>(State.range(0)));
}
BENCHMARK(BM_CpiAlu)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CpiMemory(benchmark::State &State) {
  measureCpi(State,
             {Instruction::storeMem(Operand::reg(2), Operand::reg(1)),
              Instruction::loadMem(3, Operand::reg(1))},
             static_cast<unsigned>(State.range(0)));
}
BENCHMARK(BM_CpiMemory)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CpiHello(benchmark::State &State) {
  using namespace silver::stack;
  RunSpec Spec;
  Spec.Source = helloSource();
  Spec.Exec.MaxSteps = 100'000'000;
  Result<Prepared> P = prepare(Spec);
  if (!P) {
    State.SkipWithError("compile failed");
    return;
  }
  Result<sys::MemoryImage> Image = sys::buildImage(P->Image);
  if (!Image) {
    State.SkipWithError("image failed");
    return;
  }
  cpu::RunOptions Options;
  Options.Env.MemLatency = static_cast<unsigned>(State.range(0));
  Options.MaxCycles = 100'000'000;
  Result<double> Cpi = 0.0;
  for (auto _ : State)
    if (!(Cpi = runCpi(*Image, Options))) {
      State.SkipWithError(Cpi.error().str().c_str());
      return;
    }
  State.counters["CPI"] = *Cpi;
  State.counters["MemLatency"] = State.range(0);
}
BENCHMARK(BM_CpiHello)->Arg(0)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
