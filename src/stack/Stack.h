//===- stack/Stack.h - End-to-end verified-stack runner ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public end-to-end API (the paper's milestone, theorems (6)-(8)):
/// compile a MiniCake program, build the bare-metal memory image, and run
/// it at each level of Figure 1 —
///   Spec      the reference interpreter (cakeml_sem),
///   Machine   machine_sem with the FFI interference oracle,
///   Isa       the Silver ISA Next function with real system calls,
///   Rtl       the circuit-level Silver core (cycle accurate),
///   Verilog   the generated Verilog AST under verilog_sem —
/// and check that every level produces the same observable behaviour.
/// The out-of-memory exit is permitted as a prefix behaviour, exactly as
/// extend_with_oom licenses.
///
/// This header holds the configuration types, prepare, the image audit,
/// and the cross-level check; running a program at a level goes through
/// stack::Executor (Executor.h).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_STACK_STACK_H
#define SILVER_STACK_STACK_H

#include "analysis/BlockSummary.h"
#include "analysis/ImageAudit.h"
#include "cml/Compiler.h"
#include "machine/MachineSem.h"
#include "support/Result.h"
#include "sys/Image.h"

#include <string>
#include <vector>

namespace silver {
namespace stack {

/// Which ISA execution backend the software levels (Machine, Isa) step
/// with.  Interp is the reference predecoded interpreter; Jit is the
/// baseline template JIT (isa/jit/Jit.h), which compiles hot basic
/// blocks to host code and degrades to the interpreter on unsupported
/// hosts.  The observable behaviour and the per-slice StateDigests are
/// identical by contract; only throughput differs.
enum class BackendKind : uint8_t { Interp, Jit };

/// Stable identifier ("interp", "jit") for CLIs, logs, and cache keys.
const char *backendKindName(BackendKind B);

/// Parses a backend name; returns false when \p Name is unknown.
bool parseBackendKind(const std::string &Name, BackendKind &Out);

/// True when the requested backend executes natively on this host; a
/// false answer for Jit means the run silently falls back to the
/// interpreter (callers surface a diagnostic, not an error).
bool backendSupported(BackendKind B);

/// Which simulator backend the Verilog level steps with.  Interp is the
/// AST-walking hdl::FastSim; Compiled generates C++ from the module,
/// builds it with the host compiler, and dlopen()s the result
/// (hdl/compile).  Same contract as BackendKind: behaviour and digests
/// are identical — enforced by the compiled-vs-interpreted differential
/// level — and an unsupported host falls back to Interp with a
/// diagnostic, never an error.
enum class HdlBackendKind : uint8_t { Interp, Compiled };

/// Stable identifier ("interp", "compiled") for CLIs, logs, cache keys.
const char *hdlBackendKindName(HdlBackendKind B);

/// Parses an hdl backend name; returns false when \p Name is unknown.
bool parseHdlBackendKind(const std::string &Name, HdlBackendKind &Out);

/// True when the requested hdl backend can run on this host (Compiled
/// needs a usable host C++ compiler; see hdl::compiledSimAvailable).
bool hdlBackendSupported(HdlBackendKind B);

/// How to execute: backend choice plus the budgets, one object so the
/// whole execution configuration travels together through
/// Executor::prepare, the batch-service protocol, and the CLIs.
struct ExecOptions {
  BackendKind Backend = BackendKind::Interp;
  /// Simulator backend for the Verilog level (ignored elsewhere).
  HdlBackendKind Hdl = HdlBackendKind::Interp;
  /// Block-execution count at which the JIT compiles a block; 0 keeps
  /// the backend default (isa::jit::JitOptions).  The fuzz oracle sets
  /// 1 so its differential runs compile every reachable block.
  uint32_t JitHotThreshold = 0;
  uint64_t MaxSteps = 2'000'000'000ull; ///< instruction budget (all levels)
  /// Clock-cycle budget for the Rtl/Verilog levels; 0 derives a generous
  /// bound from MaxSteps (see Executor::cycleBudget).
  uint64_t MaxCycles = 0;
};

/// What to run: a source program plus its world (command line + stdin)
/// and the execution configuration.
struct RunSpec {
  std::string Source;
  std::vector<std::string> CommandLine = {"prog"};
  std::string StdinData;
  cml::CompileOptions Compile;
  ExecOptions Exec;
};

/// Execution level (Figure 1).
enum class Level : uint8_t { Spec, Machine, Isa, Rtl, Verilog };
const char *levelName(Level L);

/// Parses a CLI level spelling (spec, machine, isa, rtl, verilog);
/// returns false when \p Name is unknown.  Note the CLI spelling of
/// Machine is "machine", while levelName reports "machine-sem".
bool parseLevel(const std::string &Name, Level &Out);

/// Observable outcome of one run.
struct Observed {
  std::string StdoutData;
  std::string StderrData;
  uint8_t ExitCode = 0;
  bool Terminated = false;
  uint64_t Instructions = 0; ///< ISA instructions (Spec: eval steps)
  uint64_t Cycles = 0;       ///< clock cycles (Rtl/Verilog only)
};

/// Compiles once; reusable across levels.
struct Prepared {
  cml::Compiled Program;
  sys::ImageSpec Image;
};
Result<Prepared> prepare(const RunSpec &Spec);

/// Builds the bootable image for \p P and statically audits it against
/// the installed-predicate approximation (analysis/ImageAudit.h): region
/// placement, decodability of reachable code, jump-target containment,
/// the W^X store discipline, and the syscall clobber set.  The returned
/// report is the audit outcome; the build itself failing is an error.
Result<analysis::AuditReport> auditPrepared(const Prepared &P);

/// As above, additionally enforcing the requested summary-derived
/// obligations (analysis/BlockSummary.h): the symbolic block summaries
/// are computed over the audited image and each violating program block
/// becomes an "img-stack-discipline" / "img-raw-io" diagnostic.
Result<analysis::AuditReport>
auditPrepared(const Prepared &P, const analysis::SummaryObligations &O);

/// Runs the reference interpreter (the Spec level) directly; never
/// compiles.
Result<Observed> runSpecLevel(const RunSpec &Spec);

/// The cross-level check: runs the given levels and verifies agreement
/// of stdout/stderr/exit code with the Spec level.  A run that exited
/// with the OOM code is accepted when its output is a prefix of the
/// spec's (extend_with_oom).  One Executor, prepared once, runs every
/// level.
Result<std::vector<Observed>> checkEndToEnd(const RunSpec &Spec,
                                            const std::vector<Level> &Levels);

} // namespace stack
} // namespace silver

#endif // SILVER_STACK_STACK_H
