//===- silverbench/Cosim.cpp - The verified processor's hardware levels ---===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Closed loop, one client.  A deck holds two kinds of op at a fixed
// ratio: silver-fuzz cases over all five profiles, run through
// fuzz::runCase at every level (per-session set-up is almost all of
// each), and the short apps (hello, cat-5, wc-5) prepared during set-up
// and run at isa, rtl, verilog and verilog-compiled (stepping is almost
// all of each).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "fuzz/Oracle.h"

#include <filesystem>

#include <cstdlib>

using namespace sb;

namespace {

constexpr unsigned Variants = 4;
constexpr unsigned FuzzPerProfile = 5;
constexpr double LimitMs = 5000;
/// Window::TailCap: at 12 ops/s, about 240 samples.
constexpr double TailCap = 95;
const Engine *const Engines[] = {&Isa, &Rtl, &Verilog, &VerilogCompiled};
const App Apps[] = {App::Hello, App::Cat, App::Wc};
constexpr unsigned ShortInputLines = 5;

class Cosim final : public Workload {
public:
  Cosim(uint64_t Seed, std::string CacheDir)
      : Workload(Reference({&Isa, &Jit, &MachineSem}, true)), Seed(Seed),
        CacheDir(std::move(CacheDir)) {}

  void setup(Ledger &L, Tally &T) override {
    Rng R(Seed * 0x94d049bb133111ebull + 11);
    BuildS.push_back(coldCompiledBuild(
        L, T, CacheDir + "/setup-" + std::to_string(BuildS.size())));
    L.Layer["hdl.compiled_build_s"] = median(BuildS);
    Cases.assign(std::size(Apps), {});
    Prepared.clear();
    for (unsigned A = 0; A != std::size(Apps); ++A) {
      for (unsigned V = 0; V != Variants; ++V)
        Cases[A].push_back(makeApp(Apps[A], ShortInputLines, R));
      stack::RunSpec Spec;
      Spec.Source = appSource(Apps[A]);
      Result<stack::Prepared> P = compile(L, Spec);
      if (!P)
        T.fail(std::string(appName(Apps[A])) + ": compile: " +
               P.error().str());
      else
        Prepared.emplace(A, P.take());
    }
    DeckRng = Rng(Seed * 0xd6e8feb86659fd93ull + 5);
    FuzzIndex = 0;
  }

  Window run(Ledger &L, Tally &T, double Seconds) override {
    Window W;
    W.TailCap = TailCap;
    uint64_t Within = 0, OpId = 0;
    Clock::time_point Start = Clock::now();
    for (unsigned Decks = 0; !windowDone(W, Start, Seconds, Decks); ++Decks) {
      // A deck op is (app, engine) or, with App == -1, one fuzz case of
      // profile Engine.
      std::vector<std::pair<int, unsigned>> Deck;
      for (unsigned A = 0; A != std::size(Apps); ++A)
        for (unsigned E = 0; E != std::size(Engines); ++E)
          Deck.push_back({static_cast<int>(A), E});
      for (unsigned P = 0; P != fuzz::NumProfiles; ++P)
        for (unsigned K = 0; K != FuzzPerProfile; ++K)
          Deck.push_back({-1, P});
      for (unsigned I = Deck.size(); I > 1; --I)
        std::swap(Deck[I - 1], Deck[DeckRng.below(I)]);
      unsigned Variant[std::size(Apps)];
      for (unsigned &V : Variant)
        V = DeckRng.below(Variants);
      // The first hardware run and the isa run of each app in this deck,
      // which the others must match.
      std::optional<stack::Observed> FirstHw[std::size(Apps)],
          IsaRun[std::size(Apps)];
      beginDeck(W, Within);

      for (auto [A, E] : Deck) {
        Ref.pace(T);
        ++T.Attempted;
        L.T.setOp(OpId++);
        Tracer::Scope Op(L.T, "op");
        if (A < 0) {
          uint64_t Failed = T.Failed;
          fuzzOp(L, T, Seed, FuzzIndex++, static_cast<fuzz::Profile>(E));
          double Ms = Op.stop();
          if (T.Failed != Failed)
            continue;
          ++W.Ops;
          W.sample(L, Ms);
          Within += Ms <= LimitMs;
          continue;
        }
        const Engine &Eng = *Engines[E];
        const AppCase &C = Cases[A][Variant[A]];
        std::string Where = C.Name + " at " + Eng.Name;
        auto It = Prepared.find(static_cast<unsigned>(A));
        if (It == Prepared.end()) {
          T.fail(Where + ": program did not compile");
          continue;
        }
        Result<stack::Observed> B =
            runEngine(L, withStdin(It->second, C.Stdin), Eng);
        double Ms = Op.stop();
        if (!B) {
          T.fail(Where + ": " + B.error().str());
          continue;
        }
        if (!checkAgainstSpec(T, C, *B, Where))
          continue;
        std::optional<stack::Observed> &First =
            Eng.Hardware ? FirstHw[A] : IsaRun[A];
        if (Eng.Hardware && First &&
            (First->Cycles != B->Cycles ||
             First->Instructions != B->Instructions)) {
          T.fail(Where + ": cycles/instructions differ from the other "
                         "hardware levels");
          continue;
        }
        if (Eng.Hardware && IsaRun[A] &&
            (IsaRun[A]->StdoutData != B->StdoutData ||
             IsaRun[A]->ExitCode != B->ExitCode)) {
          T.fail(Where + ": differs from the isa run");
          continue;
        }
        if (!First)
          First = *B;
        ++W.Ops;
        W.sample(L, Ms);
        Within += Ms <= LimitMs;
      }
      endDeck(L, W, Within);
    }
    W.Seconds = (msBetween(Start, Clock::now()) - Ref.spentMs()) / 1e3;
    return W;
  }

private:
  uint64_t Seed;
  std::string CacheDir;
  std::vector<double> BuildS;
  std::vector<std::vector<AppCase>> Cases; ///< [app][variant]
  std::map<unsigned, stack::Prepared> Prepared;
  Rng DeckRng;
  uint64_t FuzzIndex = 0;
};

} // namespace

void sb::fuzzOp(Ledger &L, Tally &T, uint64_t Seed, uint64_t Index,
                fuzz::Profile P) {
  fuzz::CaseSpec C = [&] {
    Tracer::Scope S(L.T, "fuzz.generate");
    return fuzz::generateCase(Seed, Index, P);
  }();
  fuzz::OracleOptions O;
  O.Levels = {stack::Level::Machine, stack::Level::Rtl, stack::Level::Verilog};
  O.CompareJit = true;
  O.CompareCompiled = true;
  Result<fuzz::OracleResult> R = [&] {
    Tracer::Scope S(L.T, "fuzz.run_case");
    return fuzz::runCase(C, O);
  }();
  L.Layer["fuzz.cases"] += 1;
  std::string Where = std::string("fuzz case ") + fuzz::profileName(P) + "#" +
                      std::to_string(Index);
  if (!R)
    T.fail(Where + ": " + R.error().str());
  else if (R->Diff.found())
    T.fail(Where + ": " + fuzz::diffKindName(R->Diff.Kind) + ": " +
           R->Diff.Detail);
  else if (R->Diff.Kind == fuzz::DiffKind::Inconclusive)
    L.Layer["fuzz.inconclusive"] += 1;
}

double sb::coldCompiledBuild(Ledger &L, Tally &T, const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  setenv("SILVER_HDL_CACHE", Dir.c_str(), 1);
  stack::RunSpec Spec;
  Spec.Source = appSource(App::Hello);
  Spec.Exec.Hdl = stack::HdlBackendKind::Compiled;
  Result<stack::Prepared> P = stack::prepare(Spec);
  if (!P) {
    T.fail("hello: compile: " + P.error().str());
    return 0;
  }
  stack::Executor X = stack::Executor::fromPrepared(Spec, P.take());
  Tracer::Scope S(L.T, "hdl.compiled_build");
  Result<void> B = X.begin(stack::Level::Verilog);
  double Sec = S.stop() / 1e3;
  if (!B)
    T.fail("verilog-compiled begin: " + B.error().str());
  return Sec;
}

std::unique_ptr<Workload> sb::makeCosim(uint64_t Seed, std::string HdlCacheDir) {
  return std::make_unique<Cosim>(Seed, std::move(HdlCacheDir));
}
