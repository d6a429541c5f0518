//===- cpu/LabEnv.h - The lab-setup environment model -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The environment the Silver core runs in (paper §4.2's lab setup,
/// formally `is_lab_env`): a DRAM model with configurable latency
/// (is_mem), the memory pre-fill notification (is_mem_start_interface),
/// and the interrupt handler standing in for the ARM core's Python
/// script (is_interrupt_interface) — it reacts to interrupt requests by
/// reading the output buffer and collecting terminal output.
///
/// Timing: a request pulse observed on the core's outputs at cycle N is
/// answered with a one-cycle ready pulse at cycle N+1+Latency.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CPU_LABENV_H
#define SILVER_CPU_LABENV_H

#include "cpu/Sim.h"
#include "support/Result.h"
#include "sys/Image.h"

#include <string>
#include <vector>

namespace silver {
namespace cpu {

struct LabEnvOptions {
  unsigned MemLatency = 1;  ///< extra wait cycles per memory transaction
  unsigned StartDelay = 2;  ///< cycles before mem_start_ready rises
  unsigned AckDelay = 1;    ///< cycles before interrupt_ack
};

class LabEnv {
public:
  LabEnv(isa::GuestMemory Memory, sys::MemoryLayout Layout,
         LabEnvOptions Options = {})
      : Memory(std::move(Memory)), Layout(std::move(Layout)), Opt(Options) {}

  /// Input-port values for the upcoming cycle, written into the dense
  /// frame.
  void inputsForCycle(CoreInputs &In);

  /// Reacts to the core's outputs of the cycle that just ran.  Returns an
  /// error on protocol violations (request while busy, misaligned word
  /// access, out-of-range address).
  Result<void> observeOutputs(const CoreOutputs &Out);

  const isa::GuestMemory &memory() const { return Memory; }
  const std::string &collectedStdout() const { return Stdout; }
  const std::string &collectedStderr() const { return Stderr; }
  uint64_t interruptCount() const { return Interrupts; }

private:
  isa::GuestMemory Memory;
  sys::MemoryLayout Layout;
  LabEnvOptions Opt;
  uint64_t Cycle = 0;
  std::string Stdout;
  std::string Stderr;
  uint64_t Interrupts = 0;

  // Memory transaction in flight.
  bool MemBusy = false;
  unsigned MemRemaining = 0;
  bool MemIsWrite = false;
  bool MemIsByte = false;
  Word MemAddr = 0;
  Word MemWData = 0;
  bool ReadyNow = false;
  Word RData = 0;

  // Interrupt in flight.
  bool IntBusy = false;
  unsigned IntRemaining = 0;
  bool AckNow = false;
};

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_LABENV_H
