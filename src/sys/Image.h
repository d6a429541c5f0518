//===- sys/Image.h - Memory images and the lab environment -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds bootable Silver memory images (paper Figure 2) from a compiled
/// program, a command line, and pre-filled standard input; provides the
/// environment model that plays the role of the paper's lab setup (the
/// ARM core's Python script reacting to interrupts); and implements the
/// installed/init validators — executable versions of the paper's
/// installed and init assumptions (§5, §6).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SYS_IMAGE_H
#define SILVER_SYS_IMAGE_H

#include "isa/Interp.h"
#include "sys/Layout.h"
#include "sys/Syscalls.h"

#include <string>
#include <vector>

namespace silver {
namespace sys {

/// Everything needed to build a bootable image.
struct ImageSpec {
  std::vector<std::string> CommandLine;
  std::string StdinData;
  std::vector<uint8_t> Program; ///< machine code + data, loaded at CodeBase
  LayoutParams Params;
};

/// A built image: the full memory contents plus its layout.  Only the
/// written regions are ever touched; the rest stays demand-zero.
struct MemoryImage {
  MemoryLayout Layout;
  isa::GuestMemory Memory;
};

/// Builds the image: startup code, descriptor table, command-line region,
/// stdin region, zeroed output buffer, system-call code, zeroed usable
/// memory, and the program at CodeBase.  Enforces cl_ok and the region
/// capacities.
Result<MemoryImage> buildImage(const ImageSpec &Spec);

/// The paper's init assumption (theorem (5)): a machine state with the
/// image in memory, PC at the startup code, everything else clear.  The
/// image's memory becomes the state's: pass an rvalue to install it in
/// place, an lvalue to install a copy.
isa::MachineState initialState(MemoryImage Image);

/// Exit status recorded by the "exit" system call.
struct ExitStatus {
  bool Exited = false;
  uint8_t Code = 0;
};
ExitStatus readExitStatus(const isa::GuestMemory &Memory,
                          const MemoryLayout &Layout);

/// The observable action of one Interrupt notification against a raw
/// memory: reads the exit cells / output buffer, appends terminal text to
/// \p StdoutData / \p StderrData, and returns the observable bytes for
/// the IO-event trace.  Shared by the ISA-level SysEnv and the RTL-level
/// LabEnv so both layers expose identical behaviour.
std::vector<uint8_t> interruptObservable(const isa::GuestMemory &Memory,
                                         const MemoryLayout &Layout,
                                         std::string &StdoutData,
                                         std::string &StderrData);

/// The environment in the lab setup (paper §4.2): reacts to Interrupt by
/// reading the output buffer and appending it to the collected terminal
/// streams (stdout id 1, stderr id 2).  The bytes it extracts are what
/// the IO-event trace records.
class SysEnv : public isa::IsaEnv {
public:
  explicit SysEnv(MemoryLayout Layout) : Layout(std::move(Layout)) {}

  std::vector<uint8_t> onInterrupt(isa::MachineState &State) override;

  /// Terminal output collected so far (the paper's stdout/stderr of the
  /// io_events trace).
  const std::string &collectedStdout() const { return Stdout; }
  const std::string &collectedStderr() const { return Stderr; }

private:
  MemoryLayout Layout;
  std::string Stdout;
  std::string Stderr;
};

/// Checks the installed-state assumption (paper §5, points (i)-(iv)) on a
/// post-startup machine state: info registers r1-r4 accurate, program
/// code in memory at CodeBase with the PC pointing at it, regions
/// word-aligned and non-overlapping, command line well-formed, and stdin
/// within its capacity.  Point (v) — system calls behave as modelled —
/// is discharged dynamically by machine::checkInterferenceImpl.
Result<void> validateInstalled(const isa::MachineState &State,
                               const MemoryLayout &Layout,
                               const ImageSpec &Spec);

/// Convenience wrapper: builds the image, installs it in place as the
/// initial state (no copy), runs the startup code (the Next^k prefix of
/// theorem (5)), and validates the installed assumption before returning
/// the state ready at CodeBase.  The state owns the only copy of memory.
struct BootResult {
  MemoryLayout Layout;
  isa::MachineState State{0};
  uint64_t StartupSteps = 0;
};
Result<BootResult> boot(const ImageSpec &Spec);

/// As above, but reports each startup-code retire to \p Obs (retire
/// indices 0..StartupSteps-1, matching the RTL level, which retires the
/// startup code on the real core from reset).  Null behaves like boot().
Result<BootResult> boot(const ImageSpec &Spec, obs::Observer *Obs);

} // namespace sys
} // namespace silver

#endif // SILVER_SYS_IMAGE_H
