//===- silverbench/Reference.cpp - Reference ops spread over the window ---===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>

using namespace sb;

namespace {
/// Chunks per window: each is followed by one slice of reference ops.
constexpr double ChunksPerWindow = 40;
const App CompiledApps[] = {App::Hello, App::Cat,   App::Wc,
                            App::Sort,  App::Proof, App::Tin};
} // namespace

void Reference::prepare(Ledger &Setup, Tally &T, uint64_t Seed,
                        const std::string &BuildDir) {
  Rng R(Seed + 29);
  Sw = makeApp(App::Wc, 500, R);
  Hw = makeApp(App::Cat, 5, R);
  for (App A : {App::Wc, App::Cat}) {
    stack::RunSpec Spec;
    Spec.Source = appSource(A);
    Result<stack::Prepared> P = compile(Setup, Spec);
    if (!P)
      T.fail(std::string("reference compile ") + appName(A) + ": " +
             P.error().str());
    else
      Prepared.insert_or_assign(A, P.take());
  }
  for (const Engine *E : Engines)
    if (E == &VerilogCompiled)
      Setup.Layer["hdl.compiled_build_s"] = coldCompiledBuild(Setup, T, BuildDir);
  // One op of every kind, and a compile of every app, before the
  // window: each engine's first run stays out of its rate, and however
  // short the window, the set-up ledger has every engine (for the
  // ratio.* metrics) and every app's image (for the images digest).
  L = &Setup;
  for (size_t K = 0; K != Engines.size(); ++K)
    runOne(T, K);
  for (size_t A = 0; Compiles && A != std::size(CompiledApps); ++A)
    runOne(T, Engines.size());
  L = nullptr;
}

void Reference::start(Ledger &Into, double Seconds) {
  L = &Into;
  ChunkMs = Seconds * 1e3 * 0.8 / ChunksPerWindow;
  SpentMs = OverrunMs = 0;
  ChunkStart = Clock::now();
}

void Reference::pace(Tally &T) {
  double Probed = probeSpentMs();
  probeHostSpeed();
  SpentMs += probeSpentMs() - Probed;
  double Ms = msBetween(ChunkStart, Clock::now());
  if (Ms < ChunkMs)
    return;
  // An op longer than a chunk (cosim's verilog ops take up to 1.4 s)
  // owes a slice per chunk it spanned.
  slice(T, sliceMs() * Ms / ChunkMs);
  ChunkStart = Clock::now();
}

void Reference::slice(Tally &T, double Ms) {
  size_t Kinds = Engines.size() + (Compiles ? 1 : 0);
  if (Kinds == 0)
    return;
  // A slice ends after the op that crosses its time, and the next slice
  // is that much shorter, so reference ops keep to their share.
  Ms -= OverrunMs;
  Clock::time_point Start = Clock::now();
  KindMs.resize(Kinds);
  while (msBetween(Start, Clock::now()) < Ms) {
    probeHostSpeed();
    // The kind with the least time so far: a verilog op takes hundreds
    // of ms and a jit op tens, and each kind's rate needs its share.
    size_t K = static_cast<size_t>(
        std::min_element(KindMs.begin(), KindMs.end()) - KindMs.begin());
    Clock::time_point OpStart = Clock::now();
    runOne(T, K);
    KindMs[K] += msBetween(OpStart, Clock::now());
  }
  double Took = msBetween(Start, Clock::now());
  OverrunMs = std::max(0.0, Took - Ms);
  SpentMs += Took;
}

void Reference::runOne(Tally &T, size_t K) {
  ++T.Attempted;
  Tracer::Scope Op(L->T, "ref");
  if (K == Engines.size()) {
    App A = CompiledApps[NextApp++ % std::size(CompiledApps)];
    stack::RunSpec Spec;
    Spec.Source = appSource(A);
    if (Result<stack::Prepared> P = compile(*L, Spec); !P)
      T.fail(std::string("reference compile ") + appName(A) + ": " +
             P.error().str());
    return;
  }
  const Engine &E = *Engines[K];
  const AppCase &C = E.Hardware ? Hw : Sw;
  auto It = Prepared.find(E.Hardware ? App::Cat : App::Wc);
  if (It == Prepared.end())
    return T.fail("reference " + C.Name + ": program did not compile");
  Result<stack::Observed> B = runEngine(*L, withStdin(It->second, C.Stdin), E);
  L->closeBlock();
  std::string Where = "reference " + C.Name + " at " + E.Name;
  if (!B)
    return T.fail(Where + ": " + B.error().str());
  if (!checkAgainstSpec(T, C, *B, Where))
    return;
  std::pair<uint64_t, uint64_t> Got = {B->Instructions, B->Cycles};
  for (const Engine *Other : AllEngines) {
    auto Seen = Counts.find(Other->Name);
    bool SameCounts = Other == &E || (Other->Hardware && E.Hardware);
    if (SameCounts && Seen != Counts.end() && Seen->second != Got)
      return T.fail(Where + ": instructions/cycles differ from the " +
                    Other->Name + " run");
  }
  Counts[E.Name] = Got;
}

void Workload::beginDeck(const Window &W, uint64_t Within) {
  DeckStart = Clock::now();
  DeckRefMs = Ref.spentMs();
  DeckOps = W.Ops;
  DeckWithin = Within;
}

void Workload::endDeck(Ledger &L, Window &W, uint64_t Within) {
  Clock::time_point Now = Clock::now(), Mid = DeckStart + (Now - DeckStart) / 2;
  double S = (msBetween(DeckStart, Now) - (Ref.spentMs() - DeckRefMs)) / 1e3;
  if (S > 0) {
    W.Completed.push_back(
        {static_cast<double>(W.Ops - DeckOps), S * 1e3, Mid});
    W.Goodput.push_back(
        {static_cast<double>(Within - DeckWithin), S * 1e3, Mid});
  }
  L.closeBlock();
  flipTracing(L);
}
