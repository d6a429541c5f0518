//===- cpu/LabEnv.cpp - The lab-setup environment model ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cpu/LabEnv.h"

using namespace silver;
using namespace silver::cpu;

void LabEnv::inputsForCycle(CoreInputs &In) {
  ReadyNow = false;
  AckNow = false;
  RData = 0;

  if (MemBusy) {
    if (MemRemaining == 0) {
      // Complete the transaction now.
      if (MemIsWrite) {
        if (MemIsByte)
          Memory[MemAddr] = static_cast<uint8_t>(MemWData);
        else
          for (unsigned I = 0; I != 4; ++I)
            Memory[MemAddr + I] =
                static_cast<uint8_t>(MemWData >> (8 * I));
      } else if (MemIsByte) {
        RData = Memory[MemAddr];
      } else {
        RData = static_cast<Word>(Memory[MemAddr]) |
                (static_cast<Word>(Memory[MemAddr + 1]) << 8) |
                (static_cast<Word>(Memory[MemAddr + 2]) << 16) |
                (static_cast<Word>(Memory[MemAddr + 3]) << 24);
      }
      ReadyNow = true;
      MemBusy = false;
    } else {
      --MemRemaining;
    }
  }
  if (IntBusy) {
    if (IntRemaining == 0) {
      AckNow = true;
      IntBusy = false;
    } else {
      --IntRemaining;
    }
  }

  In.MemRdata = RData;
  In.MemReady = ReadyNow;
  In.MemStartReady = Cycle >= Opt.StartDelay;
  In.InterruptAck = AckNow;
  In.DataIn = 0;
  ++Cycle;
}

Result<void> LabEnv::observeOutputs(const CoreOutputs &Out) {
  if (Out.MemRen || Out.MemWen) {
    if (MemBusy)
      return Error("lab env: memory request while a transaction is busy");
    Word Addr = static_cast<Word>(Out.MemAddr);
    bool IsByte = Out.MemWbyte;
    if (!IsByte && (Addr & 3))
      return Error("lab env: misaligned word access at " +
                   std::to_string(Addr));
    Word Span = IsByte ? 1 : 4;
    if (Addr > Memory.size() || Memory.size() - Addr < Span)
      return Error("lab env: memory access out of range at " +
                   std::to_string(Addr));
    MemBusy = true;
    MemRemaining = Opt.MemLatency;
    MemIsWrite = Out.MemWen;
    MemIsByte = IsByte;
    MemAddr = Addr;
    MemWData = static_cast<Word>(Out.MemWdata);
  }
  if (Out.InterruptReq) {
    if (IntBusy)
      return Error("lab env: interrupt request while one is pending");
    // The observable action happens at notification time, matching the
    // ISA semantics of the Interrupt instruction.
    sys::interruptObservable(Memory, Layout, Stdout, Stderr);
    ++Interrupts;
    IntBusy = true;
    IntRemaining = Opt.AckDelay;
  }
  return {};
}
