//===- fuzz/Oracle.cpp - Cross-level differential oracle --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "machine/MachineSem.h"
#include "obs/TraceSink.h"
#include "support/StringUtils.h"
#include "sys/Syscalls.h"

#include <algorithm>
#include <chrono>

using namespace silver;
using namespace silver::fuzz;
using stack::Agreement;
using stack::Engine;
using stack::Level;

const char *silver::fuzz::diffKindName(DiffKind K) {
  switch (K) {
  case DiffKind::None:
    return "none";
  case DiffKind::Inconclusive:
    return "inconclusive";
  case DiffKind::Status:
    return "status";
  case DiffKind::Behaviour:
    return "behaviour";
  case DiffKind::Retire:
    return "retire";
  case DiffKind::State:
    return "state";
  }
  return "?";
}

std::string Divergence::fingerprint() const {
  return std::string(diffKindName(Kind)) + ":" + stack::engineName(Ref) +
         ":" + stack::engineName(Other);
}

Result<stack::Prepared> silver::fuzz::prepareCase(const CaseSpec &C) {
  assembler::Assembler A;
  emitProgram(C, A);
  const std::map<std::string, Word> Externs = {
      {"ffi_dispatch", fuzzLayout().SyscallCodeBase}};

  // Two-pass assembly: the program size decides CodeBase, and CodeBase
  // decides the relaxation of symbolic branches.  Item sizes depend on
  // label distances, not on the base address, so one re-assembly
  // converges; the loop guards the invariant rather than assuming it.
  Result<assembler::Assembled> First = A.assemble(0, Externs);
  if (!First)
    return First.error();
  Word Size = static_cast<Word>(First->Bytes.size());
  for (int Attempt = 0; Attempt != 4; ++Attempt) {
    Result<sys::MemoryLayout> L =
        sys::MemoryLayout::compute(fuzzLayoutParams(), Size);
    if (!L)
      return L.error();
    Result<assembler::Assembled> Out = A.assemble(L->CodeBase, Externs);
    if (!Out)
      return Out.error();
    if (Out->Bytes.size() == Size) {
      stack::Prepared P;
      P.Program.Program = Out->Bytes;
      P.Program.CodeBase = L->CodeBase;
      P.Image.CommandLine = C.CommandLine;
      P.Image.StdinData = C.StdinData;
      P.Image.Program = std::move(Out->Bytes);
      P.Image.Params = fuzzLayoutParams();
      return P;
    }
    Size = static_cast<Word>(Out->Bytes.size());
  }
  return Error("fuzz program size did not converge across re-assembly");
}

namespace {

LevelRun execute(const stack::Prepared &P, const CaseSpec &C, Engine E,
                 uint64_t MaxSteps) {
  const stack::EngineRow &Row = stack::engineRow(E);
  LevelRun R;
  R.E = E;
  R.Ran = true;
  R.Traced = Row.Backend != stack::BackendKind::Jit;

  stack::RunSpec Spec;
  Spec.CommandLine = C.CommandLine;
  Spec.StdinData = C.StdinData;
  Spec.Exec.MaxSteps = MaxSteps;
  Spec.Exec.Backend = Row.Backend;
  Spec.Exec.Hdl = Row.Hdl;
  Spec.Exec.JitHotThreshold = 1; // cases are short; compile everything

  stack::Executor Exec = stack::Executor::fromPrepared(Spec, P);
  obs::TraceSink Sink;
  Sink.setFfiNames(stack::Executor::ffiNames());
  if (R.Traced)
    Exec.attach(&Sink);

  if (Result<void> B = Exec.begin(Row.L); !B) {
    R.Errored = true;
    R.ErrorMessage = B.error().message();
    return R;
  }
  Result<stack::RunStatus> St = Exec.step(UINT64_MAX);
  if (!St) {
    R.Errored = true;
    R.ErrorMessage = St.error().message();
    return R;
  }
  R.Status = *St;
  if (Result<stack::StateDigest> D = Exec.sessionState())
    R.Digest = *D;
  Result<stack::Outcome> Out = Exec.finish();
  if (!Out) {
    R.Errored = true;
    R.ErrorMessage = Out.error().message();
    return R;
  }
  R.Behaviour = Out->Behaviour;
  R.Retires = Sink.retireStream();
  return R;
}

/// execute(), timed into LevelRun::Seconds.
LevelRun runOne(const stack::Prepared &P, const CaseSpec &C, Engine E,
                uint64_t MaxSteps) {
  const auto Start = std::chrono::steady_clock::now();
  LevelRun R = execute(P, C, E, MaxSteps);
  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  return R;
}

/// The engine that runs \p L with the interpreting backends.
Engine interpEngine(Level L) {
  for (size_t I = 0; I != stack::NumEngines; ++I) {
    const stack::EngineRow &Row = stack::EngineTable[I];
    if (Row.L == L && Row.Backend == stack::BackendKind::Interp &&
        Row.Hdl == stack::HdlBackendKind::Interp)
      return static_cast<Engine>(I);
  }
  return Engine::Isa; // unreachable: every level but Spec has a row
}

} // namespace

Divergence silver::fuzz::compareRuns(const LevelRun &Ref, const LevelRun &R,
                                     bool HasFfi) {
  const Agreement Rule = stack::engineRow(R.E).Rule;
  auto Diverge = [&](DiffKind K, std::string Detail) {
    Divergence D;
    D.Kind = K;
    D.Ref = Ref.E;
    D.Other = R.E;
    D.Detail = std::move(Detail);
    return D;
  };

  if (Ref.Errored || R.Errored) {
    // Both sides failing is agreement (the generator aims never to get
    // here); one side failing while the other completes is the kind of
    // asymmetry the fuzzer exists to find.
    if (Ref.Errored == R.Errored)
      return {};
    if (!Ref.Errored && Rule == Agreement::FfiOracle &&
        R.ErrorMessage == machine::OracleRejectedMessage) {
      // ffi_interfer is specified only for well-formed FFI call states;
      // the real syscall code the other levels run has no such domain
      // restriction.  A generated case that wanders out of the domain
      // (e.g. a looped get_arg that turns its own result bytes into an
      // out-of-range index) is outside the theorem, not a divergence.
      Divergence D;
      D.Kind = DiffKind::Inconclusive;
      D.Detail = "FFI call left the interference oracle's well-formed "
                 "domain";
      return D;
    }
    const LevelRun &Bad = Ref.Errored ? Ref : R;
    return Diverge(DiffKind::Status, std::string(stack::engineName(Bad.E)) +
                                         " errored: " + Bad.ErrorMessage);
  }
  if (Ref.Status != R.Status)
    return Diverge(DiffKind::Status,
                   std::string(stack::runStatusName(Ref.Status)) + " vs " +
                       stack::runStatusName(R.Status));

  const stack::Observed &A = Ref.Behaviour;
  const stack::Observed &B = R.Behaviour;
  if (A.StdoutData != B.StdoutData)
    return Diverge(DiffKind::Behaviour, "stdout differs");
  if (A.StderrData != B.StderrData)
    return Diverge(DiffKind::Behaviour, "stderr differs");
  if (A.Terminated != B.Terminated || A.ExitCode != B.ExitCode)
    return Diverge(DiffKind::Behaviour,
                   "exit " + std::to_string(A.Terminated) + "/" +
                       std::to_string(A.ExitCode) + " vs " +
                       std::to_string(B.Terminated) + "/" +
                       std::to_string(B.ExitCode));
  if (Rule == Agreement::Exact &&
      (A.Instructions != B.Instructions || A.Cycles != B.Cycles))
    return Diverge(DiffKind::Behaviour,
                   "counters " + std::to_string(A.Instructions) + "i/" +
                       std::to_string(A.Cycles) + "c vs " +
                       std::to_string(B.Instructions) + "i/" +
                       std::to_string(B.Cycles) + "c");

  // Retire streams: never under FfiOracle (the machine level compresses
  // each FFI call into one oracle step), and only between traced runs.
  if (Rule != Agreement::FfiOracle && Ref.Traced && R.Traced) {
    std::vector<std::pair<Word, uint8_t>> Other = R.Retires;
    if (Rule == Agreement::HaltRetire &&
        Other.size() == Ref.Retires.size() + 1 &&
        Other.back().first == Ref.Digest.Pc)
      Other.pop_back(); // the hardware's extra halt-self-jump retire
    if (Other != Ref.Retires) {
      size_t N = std::min(Other.size(), Ref.Retires.size());
      size_t At = N;
      for (size_t I = 0; I != N; ++I)
        if (Other[I] != Ref.Retires[I]) {
          At = I;
          break;
        }
      Divergence D = Diverge(
          DiffKind::Retire,
          At < N ? "first mismatch at retire " + std::to_string(At) +
                       ": pc " + toHex(Ref.Retires[At].first) + " vs " +
                       toHex(Other[At].first)
                 : "stream lengths " + std::to_string(Ref.Retires.size()) +
                       " vs " + std::to_string(Other.size()));
      D.RetireAt = At;
      return D;
    }
  }

  const stack::StateDigest &DA = Ref.Digest;
  stack::StateDigest DB = R.Digest;
  if (Rule == Agreement::HaltRetire) {
    // The retired halt self-jump wrote PC+4 to the link register and
    // ran the ALU once more.
    DB.Regs[isa::NumRegs - 1] = DA.Regs[isa::NumRegs - 1];
    DB.Carry = DA.Carry;
    DB.Overflow = DA.Overflow;
  }
  if (Rule == Agreement::FfiOracle && HasFfi) {
    // The interference oracle zeroes the clobber set instead of running
    // the syscall code (which leaves junk in those registers).
    for (unsigned Reg : sys::syscallClobberedRegs())
      DB.Regs[Reg] = DA.Regs[Reg];
  }
  if (DA.Pc != DB.Pc)
    return Diverge(DiffKind::State,
                   "pc " + toHex(DA.Pc) + " vs " + toHex(DB.Pc));
  if (DA.Carry != DB.Carry || DA.Overflow != DB.Overflow)
    return Diverge(DiffKind::State, "flags differ");
  for (unsigned I = 0; I != isa::NumRegs; ++I)
    if (DA.Regs[I] != DB.Regs[I])
      return Diverge(DiffKind::State,
                     "r" + std::to_string(I) + " = " + toHex(DA.Regs[I]) +
                         " vs " + toHex(DB.Regs[I]));
  if (DA.MemoryBytes != DB.MemoryBytes || DA.MemoryHash != DB.MemoryHash)
    return Diverge(DiffKind::State, "final memory differs");
  return {};
}

Result<OracleResult> silver::fuzz::runCase(const CaseSpec &C,
                                           const OracleOptions &O) {
  for (Level L : O.Levels)
    if (L == Level::Spec)
      return Error("the fuzz oracle has no Spec level: generated cases "
                   "are machine code with no source program");

  Result<stack::Prepared> POr = prepareCase(C);
  if (!POr)
    return POr.error();

  OracleResult Res;
  LevelRun Isa = runOne(*POr, C, Engine::Isa, O.MaxSteps);
  Res.IsaInstructions = Isa.Behaviour.Instructions;
  if (!Isa.Errored && Isa.Status != stack::RunStatus::Completed) {
    // Nothing to compare against; also keeps runaway loops away from
    // the cycle-accurate levels.
    Res.Diff.Kind = DiffKind::Inconclusive;
    Res.Diff.Detail = "reference level did not complete within budget";
    Res.Runs.push_back(std::move(Isa));
    return Res;
  }

  // A diverging engine that runs off into a loop should be cut short
  // cheaply: everything after the reference gets a budget just above
  // the ISA instruction count (the slack covers the startup prefix and
  // the extra halt retire).
  uint64_t Budget =
      Isa.Errored ? O.MaxSteps : Isa.Behaviour.Instructions + 256;
  Res.Runs.push_back(std::move(Isa));

  // Each engine runs once, after its reference engine.
  std::vector<Engine> Engines = {Engine::Isa};
  auto Want = [&](Engine E) {
    if (std::find(Engines.begin(), Engines.end(), E) == Engines.end())
      Engines.push_back(E);
  };
  if (O.CompareJit)
    Want(Engine::Jit);
  for (Level L : O.Levels)
    Want(interpEngine(L));
  if (O.CompareCompiled) {
    Want(Engine::Verilog);
    Want(Engine::VerilogCompiled);
  }

  for (size_t I = 1; I != Engines.size(); ++I) {
    LevelRun R = runOne(*POr, C, Engines[I], Budget);
    Engine RefE = stack::engineRow(R.E).Reference;
    const LevelRun &Ref = *std::find_if(
        Res.Runs.begin(), Res.Runs.end(),
        [&](const LevelRun &Run) { return Run.E == RefE; });
    Divergence D = compareRuns(Ref, R, C.hasFfi());
    Res.Runs.push_back(std::move(R));
    if (D.found() && !Res.Diff.found())
      Res.Diff = D;
    else if (D.Kind == DiffKind::Inconclusive &&
             Res.Diff.Kind == DiffKind::None)
      Res.Diff = D; // counted, but a later real divergence still wins
  }
  return Res;
}
