//===- silverbench/Longrun.cpp - Execution-bound runs of prepared programs -===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Closed loop, one client.  The programs are compiled during set-up;
// each op runs one (program, engine) pair, so stepping is almost all of
// each op.  The engines are the ISA interpreter, the JIT and machine_sem.
// The programs sit on both sides of the JIT's trade-off: it wins big on
// sort-1000 and wc-2000 and loses on proof.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

using namespace sb;

namespace {

/// Inputs per program kept in the pool; decks draw from them.
constexpr unsigned Variants = 4;
constexpr double LimitMs = 2000;
/// Window::TailCap: at 13 ops/s, about 260 samples.
constexpr double TailCap = 95;
const Engine *const Engines[] = {&Isa, &Jit, &MachineSem};

struct Program {
  App A;
  unsigned Size;
};
/// tin-200 exits with OOM under the default 4 MiB layout; tin-150 is the
/// largest input that completes.
const Program Programs[] = {{App::Sort, 1000}, {App::Wc, 2000},
                            {App::Cat, 2000},  {App::Proof, 0},
                            {App::Tin, 60},    {App::Tin, 150}};
constexpr unsigned NumPrograms = std::size(Programs);

class Longrun final : public Workload {
public:
  explicit Longrun(uint64_t Seed)
      : Workload(Reference({&Rtl, &Verilog, &VerilogCompiled}, true)),
        Seed(Seed) {}

  void setup(Ledger &L, Tally &T) override {
    Rng R(Seed * 0x9e3779b97f4a7c15ull + 7);
    Cases.assign(NumPrograms, {});
    Prepared.clear();
    for (unsigned P = 0; P != NumPrograms; ++P)
      for (unsigned V = 0; V != Variants; ++V)
        Cases[P].push_back(makeApp(Programs[P].A, Programs[P].Size, R));
    for (const Program &P : Programs) {
      if (Prepared.count(P.A))
        continue;
      stack::RunSpec Spec;
      Spec.Source = appSource(P.A);
      Result<stack::Prepared> Prep = compile(L, Spec);
      if (!Prep) {
        T.fail(std::string(appName(P.A)) + ": compile: " + Prep.error().str());
        continue;
      }
      Prepared.emplace(P.A, Prep.take());
    }
    DeckRng = Rng(Seed * 0xbf58476d1ce4e5b9ull + 3);
  }

  Window run(Ledger &L, Tally &T, double Seconds) override {
    Window W;
    W.TailCap = TailCap;
    uint64_t Within = 0, OpId = 0;
    Clock::time_point Start = Clock::now();
    for (unsigned Decks = 0; !windowDone(W, Start, Seconds, Decks); ++Decks) {
      // One deck: every (program, engine) pair once, in a seeded order.
      std::vector<std::pair<unsigned, const Engine *>> Deck;
      for (unsigned P = 0; P != NumPrograms; ++P)
        for (const Engine *E : Engines)
          Deck.push_back({P, E});
      for (unsigned I = Deck.size(); I > 1; --I)
        std::swap(Deck[I - 1], Deck[DeckRng.below(I)]);
      beginDeck(W, Within);
      for (auto [P, E] : Deck) {
        const AppCase &C = Cases[P][DeckRng.below(Variants)];
        std::string Where = C.Name + " at " + E->Name;
        Ref.pace(T);
        ++T.Attempted;
        auto It = Prepared.find(Programs[P].A);
        if (It == Prepared.end()) {
          T.fail(Where + ": program did not compile");
          continue;
        }
        L.T.setOp(OpId++);
        Tracer::Scope Op(L.T, "op");
        Result<stack::Observed> B =
            runEngine(L, withStdin(It->second, C.Stdin), *E);
        double Ms = Op.stop();
        if (!B) {
          T.fail(Where + ": " + B.error().str());
          continue;
        }
        if (!checkAgainstSpec(T, C, *B, Where))
          continue;
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
  std::vector<std::vector<AppCase>> Cases; ///< [program][variant]
  std::map<App, stack::Prepared> Prepared;
  Rng DeckRng;
};

} // namespace

std::unique_ptr<Workload> sb::makeLongrun(uint64_t Seed) {
  return std::make_unique<Longrun>(Seed);
}
