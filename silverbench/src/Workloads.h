//===- silverbench/Workloads.h - The four workloads and the probe -*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_WORKLOADS_H
#define SILVERBENCH_WORKLOADS_H

#include "Common.h"

#include "fuzz/Generator.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sb {

/// What one measured window yields besides its ledger and tally.
struct Window {
  /// The latency metrics' samples: ops of untraced decks, and of traced
  /// ones when a traced window alternates (Workload::Alternate).
  Samples LatencyMs, TracedLatencyMs;
  /// The workload's tail percentile.  The sample count grows with the
  /// host's speed, and a higher percentile would then land on a slower
  /// kind of op, so the tail is capped here rather than moving with the
  /// host.  A closed loop runs on until it has the samples the cap needs
  /// (windowDone); a run that still has fewer uses a lower percentile.
  double TailCap = 0;
  double Seconds = 0; ///< wall time measured, without reference ops
  uint64_t Ops = 0;   ///< completed ops
  /// Per deck (closed loops) or per overload chunk (svc): completed ops,
  /// and those that completed correctly within the workload's latency
  /// limit, with the deck's time (rateOf).
  Blocks Completed, Goodput;

  /// Adds one op's latency, ended at \p At, to the samples of \p L's
  /// current mode.
  void sample(const Ledger &L, double Ms, Clock::time_point At = Clock::now()) {
    (L.T.enabled() ? TracedLatencyMs : LatencyMs).push_back({Ms, At});
  }
};

class Workload {
public:
  explicit Workload(Reference Ref) : Ref(std::move(Ref)) {}
  virtual ~Workload() = default;
  /// Builds the workload's state from the seed; called several times,
  /// and each call replaces the previous state.
  virtual void setup(Ledger &L, Tally &T) = 0;
  /// Runs the workload for about \p Seconds (closed loops finish the
  /// deck in progress, so every run holds whole decks), with Ref's
  /// slices spread over the time; Window::Seconds excludes them.
  virtual Window run(Ledger &L, Tally &T, double Seconds) = 0;

  /// The reference ops for the layers this workload's ops leave out.
  Reference Ref;
  /// When set, run() turns \p L's tracing off and on at every deck (svc:
  /// chunk), starting untraced, so a traced and an untraced median come
  /// from the same window and the same mix of ops.
  bool Alternate = false;

protected:
  /// Whether a closed loop that started at \p Start and ran \p Decks
  /// decks is done: after \p Seconds, and after one deck, or two when
  /// alternating, so that both modes have samples.  An untraced window
  /// also runs on until it has the samples its tail percentile needs
  /// (W.TailCap), for up to 1.5 times \p Seconds: on a slow host the tail
  /// would otherwise drop to a lower percentile, and so to another kind
  /// of op.
  bool windowDone(const Window &W, Clock::time_point Start, double Seconds,
                  unsigned Decks) const {
    double Ms = msBetween(Start, Clock::now());
    bool TailReady =
        tailPercentile(W.LatencyMs.size(), W.TailCap) >= W.TailCap;
    return Decks >= (Alternate ? 2u : 1u) && Ms >= Seconds * 1e3 &&
           (Alternate || TailReady || Ms >= 1.5 * Seconds * 1e3);
  }
  /// Marks the start of a closed-loop deck.
  void beginDeck(const Window &W, uint64_t Within);
  /// Ends the deck: its rates go to \p W, the engines' blocks close, and
  /// with Alternate the tracing flips.  \p Within counts the window's
  /// ops within the latency limit so far.
  void endDeck(Ledger &L, Window &W, uint64_t Within);
  /// Ends a deck or chunk for the tracing alternation alone.
  void flipTracing(Ledger &L) const {
    if (Alternate)
      L.T.setEnabled(!L.T.enabled());
  }

private:
  Clock::time_point DeckStart;
  double DeckRefMs = 0;
  uint64_t DeckOps = 0, DeckWithin = 0;
};

std::unique_ptr<Workload> makeOneshot(uint64_t Seed);
std::unique_ptr<Workload> makeLongrun(uint64_t Seed);
/// \p HdlCacheDir is a directory cosim owns for compiled-sim artifacts:
/// every setup points SILVER_HDL_CACHE at a fresh subdirectory of it, so
/// setup_s always includes a cold build.
std::unique_ptr<Workload> makeCosim(uint64_t Seed, std::string HdlCacheDir);
std::unique_ptr<Workload> makeSvc(uint64_t Seed);

/// One silver-fuzz op: generateCase then runCase with every level
/// (Machine, Rtl, Verilog, CompareJit, CompareCompiled), in spans.  A
/// divergence or an error fails the op; Inconclusive is counted in
/// L.Layer["fuzz.inconclusive"].
void fuzzOp(Ledger &L, Tally &T, uint64_t Seed, uint64_t Index,
            fuzz::Profile P);

/// Builds the compiled-sim artifact in a fresh \p Dir (through an
/// Executor begin at verilog-compiled) and returns the seconds taken.
double coldCompiledBuild(Ledger &L, Tally &T, const std::string &Dir);

/// A short open-loop svc session with a fixed schedule; used by the
/// layer probe.
void svcProbe(Ledger &L, Tally &T, uint64_t Seed);

/// The per-layer metrics of fuzz and svc on every workload: a few fuzz
/// cases and a short svc session, run after the traced window.
void runProbe(Ledger &L, Tally &T, uint64_t Seed);

} // namespace sb

#endif // SILVERBENCH_WORKLOADS_H
