//===- fuzz/Oracle.h - Cross-level differential oracle ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle of the conformance fuzzer: runs one generated
/// case (fuzz/Generator.h) on several engines (stack::Engine) through
/// stack::Executor and decides whether each agrees with its reference
/// engine.  Agreement means
///
///  - the same run status (completed vs budget timeout vs error),
///  - the same observable behaviour (stdout, stderr, exit code,
///    termination),
///  - the same retire stream (pc, opcode), and
///  - the same final architectural state (stack::StateDigest),
///
/// up to the asymmetries the engine table's rule (stack::Agreement)
/// names: the hardware's extra halt retire, and the machine level's FFI
/// interference oracle.  The generator's epilogue materialises the flags
/// into r43/r44, so a flag divergence masked by the halt-retire rule is
/// still caught through the register file; it also re-normalises the
/// flags after every FFI call, so they stay unmasked at the machine level.
///
/// Protocol: the isa engine runs first with the full budget.  If it
/// times out the case is Inconclusive (nothing to compare against, and
/// it keeps runaway loops away from the slow cycle-accurate levels);
/// otherwise every other requested engine runs with a budget just above
/// the ISA instruction count, so a diverging engine that runs off into a
/// loop is cut short cheaply and reported as a status mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_FUZZ_ORACLE_H
#define SILVER_FUZZ_ORACLE_H

#include "fuzz/Generator.h"
#include "stack/Executor.h"

#include <string>
#include <vector>

namespace silver {
namespace fuzz {

/// What one engine did with the case.
struct LevelRun {
  stack::Engine E = stack::Engine::Isa;
  bool Ran = false;
  /// Retires holds the run's retire stream.  The JIT run is not traced:
  /// per-step retire events would force every block back to the
  /// interpreter.
  bool Traced = false;
  bool Errored = false; ///< the executor reported an error (fault, ...)
  std::string ErrorMessage;
  stack::RunStatus Status = stack::RunStatus::Completed;
  stack::Observed Behaviour;
  stack::StateDigest Digest;
  std::vector<std::pair<Word, uint8_t>> Retires; ///< (pc, opcode)
  double Seconds = 0; ///< wall time of the run, begin through finish
};

/// How two levels disagreed.
enum class DiffKind : uint8_t {
  None,         ///< all levels agree
  Inconclusive, ///< the reference level timed out; nothing compared
  Status,       ///< completed vs timeout vs error
  Behaviour,    ///< stdout/stderr/exit code/termination differ
  Retire,       ///< first retire-stream mismatch
  State,        ///< final digest mismatch
};
const char *diffKindName(DiffKind K);

/// A divergence between an engine and its reference engine.
struct Divergence {
  DiffKind Kind = DiffKind::None;
  stack::Engine Ref = stack::Engine::Isa;
  stack::Engine Other = stack::Engine::Isa;
  std::string Detail;     ///< human-readable description
  uint64_t RetireAt = 0;  ///< Retire: first differing index

  bool found() const {
    return Kind != DiffKind::None && Kind != DiffKind::Inconclusive;
  }
  /// Stable identity used by the shrinker to reject candidates that
  /// trade one bug for another: the kind plus the engine pair.
  std::string fingerprint() const;
};

struct OracleOptions {
  /// Levels to compare.  Isa always runs (it is the reference); listing
  /// it here is allowed and redundant.  stack::Level::Spec is invalid —
  /// generated cases are machine code with no source program.
  std::vector<stack::Level> Levels = {stack::Level::Machine,
                                      stack::Level::Rtl};
  uint64_t MaxSteps = 100'000; ///< ISA instruction budget
  /// Also run the jit engine and compare it with isa.  On hosts without
  /// native JIT support the run degrades to the interpreter, so the
  /// comparison is trivially green rather than an error.
  bool CompareJit = false;
  /// Also run the verilog-compiled engine and compare it with verilog,
  /// which runs even when Levels does not request it.  On hosts without
  /// a usable C++ compiler the run degrades to the interpreter, so the
  /// comparison is trivially green rather than an error.
  bool CompareCompiled = false;
};

struct OracleResult {
  Divergence Diff;
  /// isa first, then jit, Levels in order (plus verilog when only
  /// CompareCompiled asks for it), and verilog-compiled.
  std::vector<LevelRun> Runs;
  uint64_t IsaInstructions = 0;
};

/// Assembles \p C into a ready-to-run Prepared image: two-pass assembly
/// (once at 0 for the size, once at the computed CodeBase) with
/// "ffi_dispatch" bound to the installed dispatcher.
Result<stack::Prepared> prepareCase(const CaseSpec &C);

/// Compares \p R with the run \p Ref of its reference engine under the
/// engine table's rule for R.E.  \p HasFfi: the case calls FFI, so the
/// FfiOracle rule masks the syscall clobber set.
Divergence compareRuns(const LevelRun &Ref, const LevelRun &R, bool HasFfi);

/// Runs \p C on the requested engines and compares.  The error return is
/// for broken cases (assembly failure); level-side errors are part of
/// the comparison, not errors of runCase.
Result<OracleResult> runCase(const CaseSpec &C, const OracleOptions &O);

} // namespace fuzz
} // namespace silver

#endif // SILVER_FUZZ_ORACLE_H
