//===- machine/InterferenceCheck.cpp - Syscall vs oracle checker -----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "machine/InterferenceCheck.h"

#include "isa/Abi.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace silver;
using namespace silver::machine;
using silver::isa::MachineState;

static bool isClobbered(unsigned Reg) {
  const auto &Clobbered = sys::syscallClobberedRegs();
  return std::find(Clobbered.begin(), Clobbered.end(), Reg) !=
         Clobbered.end();
}

Result<void>
silver::machine::checkInterferenceImpl(const MachineState &AtEntry,
                                       const sys::MemoryLayout &Layout,
                                       const ffi::BasisFfi &Model,
                                       uint64_t StepBudget) {
  if (AtEntry.PC != Layout.SyscallCodeBase)
    return Error("interference check: state is not at the FFI entry point");

  unsigned Index = AtEntry.Regs[abi::FfiIndexReg];
  const auto &Names = ffi::BasisFfi::callNames();
  if (Index >= Names.size())
    return Error("interference check: unknown FFI index");
  const std::string &Name = Names[Index];
  bool IsExit = Index == unsigned(sys::FfiIndex::Exit);

  Word ConfPtr = AtEntry.Regs[abi::FfiConfReg];
  Word ConfLen = AtEntry.Regs[abi::FfiConfLenReg];
  Word BytesPtr = AtEntry.Regs[abi::FfiBytesReg];
  Word BytesLen = AtEntry.Regs[abi::FfiBytesLenReg];
  Word ReturnAddr = AtEntry.Regs[abi::LinkReg];
  if (!AtEntry.inRange(ConfPtr, ConfLen) ||
      !AtEntry.inRange(BytesPtr, BytesLen))
    return Error("interference check: FFI argument arrays out of range");

  // Side 1: the oracle.
  ffi::BasisFfi ModelAfter = Model;
  ffi::FfiResult R =
      ModelAfter.call(Name, AtEntry.readBytes(ConfPtr, ConfLen),
                      AtEntry.readBytes(BytesPtr, BytesLen));
  if (R.Outcome == ffi::FfiOutcome::Fail)
    return Error("interference check: oracle rejected the call (the check "
                 "only covers well-formed call states)");

  MachineState Spec = AtEntry;
  if (R.Outcome == ffi::FfiOutcome::Exit) {
    Spec.writeWord(Layout.ExitFlagAddr, 1);
    Spec.writeWord(Layout.ExitCodeAddr, R.ExitCode);
    Spec.writeWord(Layout.SyscallIdAddr, Index);
  } else {
    applyFfiInterfer(Spec, Layout, Index, R.Bytes, ModelAfter);
  }

  // Side 2: the real system-call machine code under the ISA semantics.
  MachineState Impl = AtEntry;
  sys::SysEnv Env(Layout);
  uint64_t Steps = 0;
  for (;;) {
    if (!IsExit && Impl.PC == ReturnAddr)
      break;
    if (IsExit && isa::isHalted(Impl))
      break;
    if (Steps++ >= StepBudget)
      return Error("interference check: system-call code did not return "
                   "within the step budget");
    isa::StepResult S = isa::step(Impl, Env);
    if (!S.ok())
      return Error("interference check: system-call code faulted");
  }

  // Agreement: memory must be identical byte-for-byte (ffi_interfer
  // prescribes the book-keeping exactly).
  if (Impl.Memory != Spec.Memory) {
    for (size_t I = 0, E = Impl.Memory.size(); I != E; ++I)
      if (Impl.Memory[I] != Spec.Memory[I])
        return Error("interference check (" + Name +
                     "): memory differs at " + toHex(static_cast<Word>(I)) +
                     ": impl=" + std::to_string(Impl.Memory[I]) +
                     " spec=" + std::to_string(Spec.Memory[I]));
  }

  // Non-clobbered registers are CakeML-private state: both sides must
  // leave them untouched.
  for (unsigned Reg = 0; Reg != isa::NumRegs; ++Reg) {
    if (isClobbered(Reg))
      continue;
    if (Impl.Regs[Reg] != AtEntry.Regs[Reg])
      return Error("interference check (" + Name + "): r" +
                   std::to_string(Reg) + " was clobbered by the impl");
    if (Spec.Regs[Reg] != AtEntry.Regs[Reg])
      return Error("interference check (" + Name + "): r" +
                   std::to_string(Reg) + " was clobbered by ffi_interfer");
  }

  if (!IsExit && Impl.PC != ReturnAddr)
    return Error("interference check: impl did not return to the caller");

  // Observable IO: what the environment collected must equal the
  // filesystem model's evolution.
  std::string ExpectStdout = ModelAfter.Fs.StdoutData.substr(
      Model.Fs.StdoutData.size());
  std::string ExpectStderr = ModelAfter.Fs.StderrData.substr(
      Model.Fs.StderrData.size());
  if (Env.collectedStdout() != ExpectStdout)
    return Error("interference check (" + Name +
                 "): stdout mismatch: impl \"" +
                 escapeString(Env.collectedStdout()) + "\" vs model \"" +
                 escapeString(ExpectStdout) + "\"");
  if (Env.collectedStderr() != ExpectStderr)
    return Error("interference check (" + Name + "): stderr mismatch");

  if (IsExit) {
    sys::ExitStatus S = sys::readExitStatus(Impl.Memory, Layout);
    if (!S.Exited || S.Code != R.ExitCode)
      return Error("interference check: exit status not recorded");
  }
  return {};
}
