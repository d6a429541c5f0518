//===- isa/jit/Jit.h - Baseline template JIT for Silver code ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline JIT execution tier (DESIGN.md §13): hot basic blocks of
/// Silver machine code are compiled, copy-and-patch style, to host
/// x86-64 and executed natively; everything else — cold code, blocks the
/// compiler refuses, FFI/oracle boundaries, faults, budget tails — runs
/// on the reference interpreter.  The trusted artifact stays the
/// interpreter: the JIT is validated differentially (the silver-fuzz
/// Jit-vs-Isa level grinds it against isa::Interp on every campaign),
/// never trusted.
///
/// Correctness invariants the backend maintains:
///
///  - Bit-exactness.  Compiled templates mirror isa/Interp.cpp's
///    execImpl per instruction, including the flag semantics of
///    Add/AddCarry/Sub (and the SILVER_FAULT_INJECTION carry inversion,
///    re-read from the global on every entry) and the exact operand
///    evaluation order of Jump's link write.
///  - In-order commit.  The memory-resident Silver register file is
///    fully updated between instructions, so every side exit lands on an
///    exact interpreter-resumable state; an instruction that may fault
///    (loads, stores) side-exits *before* any effect and the dispatcher
///    takes the fault through the reference step.
///  - Exact step accounting.  A block charges its length against the
///    budget at entry and refunds the unexecuted tail on a side exit;
///    the dispatcher interprets single steps whenever the remaining
///    budget is smaller than a block.  run() therefore reports step
///    counts identical to the interpreter's.
///  - Store-guard pages.  Every 4 KiB page that ever held executed code
///    (a compiled block, or a decoded slot of the backend's
///    DecodeCache) is marked in a guard map; a native store into a
///    guarded page side-exits and the offending store is interpreted,
///    which honors the DecodeCache invalidation contract and drops the
///    overlapping compiled blocks — self-modifying code (the corpus's
///    selfmod-0.s) deoptimizes and re-compiles.
///  - External invalidation.  ExecBackend::invalidate (the machine-sem
///    FFI interference oracle, tests, image patching) drops decoded
///    slots and compiled blocks covering the range.
///
/// Blocks chain directly block-to-block: a terminator whose target is a
/// compiled block is patched to jump straight to it (the target's entry
/// re-checks the budget), so hot loops never touch the dispatcher.  A
/// run's stop PC is a compile-time guard: no block is compiled at or
/// across it and no chain targets it, so the boundary is always
/// observed by the dispatcher.
///
/// Code buffers follow a W^X discipline: pages are writable during
/// emission and patching, executable otherwise, never both.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_JIT_JIT_H
#define SILVER_ISA_JIT_JIT_H

#include "isa/ExecBackend.h"

#include <memory>

namespace silver {
namespace isa {
namespace jit {

/// Whether this host can execute translated Silver code.  False on
/// non-x86-64 architectures and when executable memory cannot be
/// mapped; the backend then degrades to pure interpretation (and the
/// stack layer reports the degradation as a diagnostic, not an error).
bool hostSupported();

/// Upper bound on instructions per compiled block.  A straight-line run
/// that does not reach a terminator within this many instructions is
/// *refused* (reason "block-too-long") rather than split: the entry
/// budget check retires a whole block up front, and an unbounded block
/// would make the worst-case budget overshoot/refund window unbounded
/// too.  Refused blocks stay on the interpreter and are surfaced by the
/// "jit-bailout" diagnostic (analysis/JitReadiness.h).
inline constexpr unsigned MaxBlockInstrs = 64;

/// Why the compiler refused a block (the bailout taxonomy, §13).  The
/// host-independent reasons (BlockTooLong) are also what the static
/// jit-bailout diagnostic reports; StopPcGuard and HostUnsupported
/// depend on the run configuration and host and are runtime-only.
enum class RefuseReason : uint8_t {
  None,            ///< not refused
  BlockTooLong,    ///< no terminator within MaxBlockInstrs
  EmptyBlock,      ///< the entry instruction itself cannot be compiled
  StopPcGuard,     ///< the block starts at the active run's stop PC
  HostUnsupported, ///< no native execution on this host
};

/// The stable string identifier (e.g. "block-too-long").
const char *refuseReasonId(RefuseReason R);

/// Result of a compile probe: what the compiler would do with the block
/// entered at a given address, without executing anything.
struct BlockProbe {
  bool Compilable = false;
  RefuseReason Refused = RefuseReason::None;
  unsigned Instrs = 0; ///< instructions the block would cover
};

/// Probes the block entered at \p Entry against \p State's memory.
/// Shares the compiler's block-scan code path, so the answer is exactly
/// what JitBackend would decide — this is what the jit-bailout
/// cross-check ctest compares against the committed reports.  The scan
/// is pure C++ and host-independent (it ignores hostSupported()).
BlockProbe probeBlock(const MachineState &State, Word Entry);

struct JitOptions {
  /// Dispatcher visits of a cold block entry before it is compiled.
  uint32_t HotThreshold = 16;
  /// Code arena size; when full, all compiled blocks are flushed and
  /// compilation starts over (bounded memory, self-healing).
  size_t CodeBytes = 4u << 20;
};

struct JitStats {
  uint64_t BlocksCompiled = 0;
  uint64_t BlocksRefused = 0;
  uint64_t BlockInvalidations = 0;
  uint64_t Deopts = 0;      ///< side exits that interpreted a step
  uint64_t ArenaFlushes = 0;
};

/// Creates the JIT backend.  Always succeeds; on hosts without native
/// support the returned backend interprets everything (hostSupported()
/// tells callers whether to surface a degradation diagnostic).
std::unique_ptr<ExecBackend> makeJitBackend(const JitOptions &Opts = {});

/// The statistics of a backend created by makeJitBackend; null for
/// other backends.
const JitStats *backendStats(const ExecBackend &Backend);

} // namespace jit
} // namespace isa
} // namespace silver

#endif // SILVER_ISA_JIT_JIT_H
