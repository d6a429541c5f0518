//===- silverbench/Common.h - Shared benchmark machinery --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: the engine table, seeded app inputs
/// with their reference outputs, the traced compile and engine-run
/// helpers (the only places the benchmark calls into the compiler and
/// the Executor), and the per-phase ledger the metrics are read from.
///
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_COMMON_H
#define SILVERBENCH_COMMON_H

#include "Trace.h"

#include "stack/Executor.h"
#include "support/Rng.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sb {

using namespace silver;

/// One execution engine: a Figure-1 level plus the backend choice.
struct Engine {
  const char *Name;
  stack::Level L;
  stack::BackendKind Backend;
  stack::HdlBackendKind Hdl;
  bool Hardware; ///< cycle-accurate: reports cycles
};
extern const Engine Isa, Jit, MachineSem, Rtl, Verilog, VerilogCompiled;
extern const Engine *const AllEngines[6];

/// One program run with its input and its independent reference: the
/// expected stdout comes from the C++ spec functions in stack/Apps.h.
struct AppCase {
  std::string Name; ///< e.g. "wc-2000"
  std::string Source;
  std::string Stdin;
  std::string ExpectStdout;
  uint8_t ExpectExit = 0;
};

enum class App { Hello, Cat, Wc, Sort, Proof, Tin };
const char *appName(App A);
const char *appSource(App A);
/// \p Size is lines for cat/wc/sort and statements for tin; proof and
/// hello ignore it.  The content is drawn from \p R.
AppCase makeApp(App A, unsigned Size, Rng &R);

/// A measured value and when it was taken, so that it can be read at
/// the reference host speed (speedAt).
struct Sample {
  double V;
  Clock::time_point At;
};
using Samples = std::vector<Sample>;

/// Work done in a stretch of time: instructions, cycles or ops in \p Ms
/// milliseconds around \p At.
struct Block {
  double Work;
  double Ms;
  Clock::time_point At;
};
using Blocks = std::vector<Block>;

/// Per-engine totals of the ops one phase ran at that engine.
struct EngineTotals {
  std::vector<double> BeginMs;
  double StepMs = 0;
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  uint64_t Runs = 0;
  /// Stepping work (instructions, or cycles on hardware) and time of
  /// each block of runs: a deck of the workload's ops, or one reference
  /// op.  A rate is their total work over their total time (rateOf).
  Blocks StepBlocks;
  double BlockStepMs = 0; ///< the open block
  uint64_t BlockWork = 0;
};

/// Counts the compiler returns, summed over compiles.
struct CompileTotals {
  Samples Ms; ///< whole prepare, per compile
  /// Image size per distinct source, so the mean does not depend on how
  /// often each source was compiled.
  std::map<std::string, double> ImageBytes;
  uint64_t Functions = 0, Folded = 0, RemovedLets = 0, Inlined = 0;
  uint64_t Count = 0;
  double meanImageBytes() const;
};

/// Everything one phase records: the set-up, the measured window, the
/// window's reference ops, or the probe.  A metric is read from the
/// window's ledger, and from the others where the window's own ops did
/// not exercise that layer.
struct Ledger {
  Ledger(bool Traced, Clock::time_point Epoch) : T(Traced, Epoch) {}
  Tracer T;
  std::map<std::string, EngineTotals> Engines;
  CompileTotals Compile;
  std::map<std::string, double> Layer; ///< layer metrics set directly

  /// Ends the open block of every engine (EngineTotals::StepBlocks).
  void closeBlock();
};

/// Op accounting shared by every workload.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Oom = 0;
  std::vector<std::string> Failures; ///< the first few, for stderr
  void fail(const std::string &Why);
};

/// Compiles \p Spec into a Prepared.  Untraced: stack::prepare.  Traced:
/// the compiler's phases called one by one, in cml::compileProgram's
/// order, each in its own span; the bytes are then checked against
/// cml::compileProgram's, and a difference is an error.
Result<stack::Prepared> compile(Ledger &L, const stack::RunSpec &Spec);

/// Runs cml::compileProgram on \p Source with the default options (the
/// only ones the benchmark compiles with), once per source, for the
/// traced compile's identity check.  A traced compile calls it itself
/// when needed; workloads whose ops compile call it in their traced
/// set-up, so that the reference compile stays out of every op.
Result<void> warmReferenceImage(const std::string &Source);

/// The Prepared for \p Base with this run's stdin (what PrepareCache
/// does for a cached program).
stack::Prepared withStdin(const stack::Prepared &Base, const std::string &In);

/// Runs \p P at \p E: begin and step each in a span, totals into \p L
/// and its open block.
Result<stack::Observed> runEngine(Ledger &L, stack::Prepared P,
                                  const Engine &E);

/// Ops that stand in for the layers a workload's own ops do not
/// exercise, or step too briefly for a steady rate: fixed programs on
/// the listed engines (wc-500 for the software engines, cat-5 for the
/// hardware ones) and cold compiles of the six apps.  Every workload
/// prints every metric, and the host's speed drifts by tens of percent
/// over seconds, so these ops are spread over the whole window rather
/// than run once: after every chunk of workload time comes a slice of
/// reference ops, a fifth of the window in all.  They record into their
/// own ledger and never into the workload's latencies.
class Reference {
public:
  Reference(std::vector<const Engine *> Engines, bool Compiles)
      : Engines(std::move(Engines)), Compiles(Compiles) {}

  /// Compiles the fixed programs, when verilog-compiled is listed builds
  /// its artifact in a fresh \p BuildDir, then runs one op of every kind
  /// into \p L.
  void prepare(Ledger &L, Tally &T, uint64_t Seed, const std::string &BuildDir);

  /// Starts a window of \p Seconds whose reference ops record into \p L.
  void start(Ledger &L, double Seconds);
  /// Call after each workload op: runs a slice when a chunk of workload
  /// time has passed since the last one, longer when more has.
  void pace(Tally &T);
  /// Runs reference ops for about \p Ms, each kind of op (an engine, or
  /// compiling) in turn to the least time so far.
  void slice(Tally &T, double Ms);
  /// Workload time per chunk and reference time per slice.
  double chunkMs() const { return ChunkMs; }
  double sliceMs() const { return ChunkMs / 4; }
  /// Time spent in slices, and in host-speed probes from pace(), since
  /// start().
  double spentMs() const { return SpentMs; }
  /// Instructions and cycles of one run per engine.  Every run of an
  /// engine must repeat them exactly, and the hardware engines must
  /// agree with each other; a difference fails the op.
  const std::map<std::string, std::pair<uint64_t, uint64_t>> &counts() const {
    return Counts;
  }

private:
  /// Runs one op of kind \p K: Engines[K], or a compile when K is
  /// Engines.size().
  void runOne(Tally &T, size_t K);

  std::vector<const Engine *> Engines;
  bool Compiles;
  std::map<App, stack::Prepared> Prepared;
  AppCase Sw, Hw;
  Ledger *L = nullptr;
  double ChunkMs = 0, SpentMs = 0, OverrunMs = 0;
  Clock::time_point ChunkStart;
  std::vector<double> KindMs; ///< reference time per kind of op
  size_t NextApp = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> Counts;
};

/// Checks \p B against \p C's reference.  An OOM exit (licensed by
/// extend_with_oom) with a prefix of the expected stdout counts in
/// Tally::Oom, not as a failure.  Returns false on a mismatch.
bool checkAgainstSpec(Tally &T, const AppCase &C, const stack::Observed &B,
                      const std::string &Where);

/// FNV-1a digests of every input makeApp generated, in order, and of
/// every distinct image compile() produced: the same seed must give the
/// same values, run after run.
uint64_t inputsDigest();
void resetInputsDigest();
uint64_t imagesDigest();

/// Makes the next checkAgainstSpec compare against a wrong expected
/// output: the benchmark's own test that a mismatch counts as failed.
void plantWrongExpected();

/// The host's speed.  A shared host changes speed by tens of percent in
/// phases of seconds to minutes, and every op of a run moves with it.  So
/// the run probes the host's speed every 100 ms or so, between ops, with a
/// fixed workload of the benchmark's own, and the end-to-end times and
/// rates are reported as they would read at a fixed reference speed.  A
/// change to the stack moves them as before: the probe runs none of its
/// code.

/// Runs the probe, unless one ran within the last 100 ms (\p Force: runs
/// it anyway).  Main thread only.
void probeHostSpeed(bool Force = false);
/// Time spent in probes so far.
double probeSpentMs();
/// The host's speed around \p T: the reference probe time over the
/// median of the probes nearest \p T; above 1 on a host faster than the
/// reference.
double speedAt(Clock::time_point T);
/// Every probe's time, in order.
std::vector<double> probeTimesMs();

/// The values as measured.
std::vector<double> values(const Samples &S);
/// Times at the reference host speed: each times speedAt().
std::vector<double> atReferenceSpeed(const Samples &S);
/// Work per second over all of \p B, as measured or (\p AtReference)
/// with each block's time at the reference host speed.  The total over
/// the total, not a median of per-block rates: the host alternates fast
/// and slow stretches of a fraction of a second, and a median would jump
/// between the two with the share of each.
double rateOf(const Blocks &B, bool AtReference);

/// Nearest-rank percentile (0 < P <= 100) of unsorted samples.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// The highest percentile of a fixed ladder, at most \p Cap, with at
/// least ten samples beyond it; 50 when there are too few samples for any.
double tailPercentile(size_t N, double Cap);

/// Peak resident set size of this process in MB.
double peakRssMb();

} // namespace sb

#endif // SILVERBENCH_COMMON_H
