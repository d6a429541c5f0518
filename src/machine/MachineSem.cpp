//===- machine/MachineSem.cpp - CakeML's target machine semantics ----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "machine/MachineSem.h"

#include "isa/Abi.h"

using namespace silver;
using namespace silver::machine;
using silver::isa::MachineState;

void silver::machine::applyFfiInterfer(MachineState &State,
                                       const sys::MemoryLayout &Layout,
                                       unsigned Index,
                                       const std::vector<uint8_t> &ResultBytes,
                                       const ffi::BasisFfi &FfiAfter,
                                       isa::ExecBackend *Backend) {
  Word BytesPtr = State.Regs[abi::FfiBytesReg];
  Word ConfPtr = State.Regs[abi::FfiConfReg];
  Word ConfLen = State.Regs[abi::FfiConfLenReg];

  // Book-keeping memory used by the external call (outside CakeML's
  // memory domain md): the called-id cell, the stdin offset, and for
  // writes the output buffer.
  State.writeWord(Layout.SyscallIdAddr, Index);
  if (Backend)
    Backend->invalidate(Layout.SyscallIdAddr, 4);
  State.writeWord(Layout.StdinBase + 4,
                  static_cast<Word>(FfiAfter.Fs.StdinOffset));
  if (Backend)
    Backend->invalidate(Layout.StdinBase + 4, 4);
  if (Index == unsigned(sys::FfiIndex::Write) && !ResultBytes.empty() &&
      ResultBytes[0] == 0) {
    uint64_t Fd = ffi::bytesToU64(State.readBytes(ConfPtr, ConfLen));
    Word Count = ffi::bytesToU16(ResultBytes.data() + 1);
    const std::string &Stream =
        Fd == ffi::StderrFd ? FfiAfter.Fs.StderrData : FfiAfter.Fs.StdoutData;
    State.writeWord(Layout.OutBufBase, static_cast<Word>(Fd));
    State.writeWord(Layout.OutBufBase + 4, Count);
    for (Word I = 0; I != Count; ++I)
      State.writeByte(Layout.OutBufBase + 8 + I,
                      static_cast<uint8_t>(
                          Stream[Stream.size() - Count + I]));
    if (Backend)
      Backend->invalidate(Layout.OutBufBase, 8 + Count);
  }

  // The shared byte array receives the oracle's result.
  State.writeBytes(BytesPtr, ResultBytes);
  if (Backend && !ResultBytes.empty())
    Backend->invalidate(BytesPtr, static_cast<Word>(ResultBytes.size()));

  // Scratch registers are clobbered deterministically; the PC returns to
  // the caller per the calling convention.
  State.PC = State.Regs[abi::LinkReg];
  for (unsigned Reg : sys::syscallClobberedRegs())
    State.Regs[Reg] = 0;
}

bool MachineSem::oracleStep() {
  // An FFI call: consult the interference oracle.
  unsigned Index = State.Regs[abi::FfiIndexReg];
  const auto &Names = ffi::BasisFfi::callNames();
  Word ConfPtr = State.Regs[abi::FfiConfReg];
  Word ConfLen = State.Regs[abi::FfiConfLenReg];
  Word BytesPtr = State.Regs[abi::FfiBytesReg];
  Word BytesLen = State.Regs[abi::FfiBytesLenReg];
  if (Index >= Names.size() || !State.inRange(ConfPtr, ConfLen) ||
      !State.inRange(BytesPtr, BytesLen)) {
    LastBehaviour.Kind = BehaviourKind::Failed;
    LastBehaviour.OracleRejected = true;
    return false;
  }
  ffi::FfiResult R = Ffi.call(Names[Index], State.readBytes(ConfPtr, ConfLen),
                              State.readBytes(BytesPtr, BytesLen));
  if (R.Outcome == ffi::FfiOutcome::Fail) {
    LastBehaviour.Kind = BehaviourKind::Failed;
    LastBehaviour.OracleRejected = true;
    return false;
  }
  if (R.Outcome == ffi::FfiOutcome::Exit) {
    State.writeWord(Layout.ExitFlagAddr, 1);
    State.writeWord(Layout.ExitCodeAddr, R.ExitCode);
    Backend->invalidate(Layout.ExitFlagAddr, 4);
    Backend->invalidate(Layout.ExitCodeAddr, 4);
    LastBehaviour.Kind = BehaviourKind::Terminated;
    LastBehaviour.ExitCode = R.ExitCode;
    return false;
  }
  applyFfiInterfer(State, Layout, Index, R.Bytes, Ffi, Backend.get());
  return true;
}

Behaviour MachineSem::run(uint64_t MaxSteps) {
  LastBehaviour = Behaviour();
  // Backend bursts that stop at the FFI entry keep the hot loop inside
  // the backend; the oracle runs only when the PC lands there.  An oracle
  // consultation, the halt-detecting step and a faulting attempt each
  // cost one step, and none of them runs once the budget is exhausted.
  while (true) {
    isa::RunResult R = Backend->run(State, isa::nullEnv(),
                                    MaxSteps - LastBehaviour.Steps,
                                    Layout.SyscallCodeBase, &Hooks);
    LastBehaviour.Steps += R.Steps;
    if (R.AtStopPc) {
      ++LastBehaviour.Steps;
      if (!oracleStep())
        return LastBehaviour;
      continue;
    }
    if (R.Halted) {
      // A direct halt without an exit call: report the recorded status
      // (zero when no exit happened; hand-written programs use this).
      ++LastBehaviour.Steps;
      sys::ExitStatus S = sys::readExitStatus(State.Memory, Layout);
      LastBehaviour.Kind = BehaviourKind::Terminated;
      LastBehaviour.ExitCode = S.Exited ? S.Code : 0;
      return LastBehaviour;
    }
    if (R.Fault != isa::StepFault::None) {
      ++LastBehaviour.Steps;
      LastBehaviour.Kind = BehaviourKind::Failed;
      LastBehaviour.Fault = R.Fault;
      return LastBehaviour;
    }
    LastBehaviour.Kind = BehaviourKind::OutOfSteps;
    return LastBehaviour;
  }
}
