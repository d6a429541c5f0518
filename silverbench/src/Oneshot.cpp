//===- silverbench/Oneshot.cpp - The silverc path, source to exit code ----===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Closed loop, one client.  Each op is a cold compile with no cache
// (stack::prepare, the first half of Executor::create) and one run at
// the ISA level, on a seeded draw of all six apps with small inputs.
// Compile plus boot is almost all of each op.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

using namespace sb;

namespace {

/// A deck holds each app once (proof twice, so the deck size is odd and
/// the median falls inside one kind of op), in a seeded order.
constexpr unsigned DeckSize = 7;
constexpr unsigned PoolDecks = 64;
/// Latency limit for the closed-loop goodput: well above every op.
constexpr double LimitMs = 100;
/// Window::TailCap: at 66 ops/s, about 1300 samples.
constexpr double TailCap = 99;

class Oneshot final : public Workload {
public:
  explicit Oneshot(uint64_t Seed)
      : Workload(Reference({&Isa, &Jit, &MachineSem, &Rtl, &Verilog,
                            &VerilogCompiled},
                           false)),
        Seed(Seed) {}

  void setup(Ledger &L, Tally &T) override {
    // Ops compile, so the traced set-up runs the identity check's
    // reference compiles here rather than inside the first ops.
    if (L.T.enabled())
      for (App A : {App::Hello, App::Cat, App::Wc, App::Sort, App::Proof,
                    App::Tin})
        if (Result<void> Ref = warmReferenceImage(appSource(A)); !Ref)
          T.fail(std::string(appName(A)) + ": compileProgram: " +
                 Ref.error().str());
    Rng R(Seed * 0x2545f4914f6cdd1dull + 1);
    Pool.clear();
    for (unsigned D = 0; D != PoolDecks; ++D) {
      std::vector<AppCase> Deck = {
          makeApp(App::Hello, 0, R),
          makeApp(App::Cat, 5 + R.below(36), R),
          makeApp(App::Wc, 5 + R.below(36), R),
          makeApp(App::Sort, 5 + R.below(36), R),
          makeApp(App::Proof, 0, R),
          makeApp(App::Proof, 0, R),
          makeApp(App::Tin, 5 + R.below(26), R)};
      for (unsigned I = Deck.size(); I > 1; --I)
        std::swap(Deck[I - 1], Deck[R.below(I)]);
      for (AppCase &C : Deck)
        Pool.push_back(std::move(C));
    }
  }

  Window run(Ledger &L, Tally &T, double Seconds) override {
    Window W;
    W.TailCap = TailCap;
    Clock::time_point Start = Clock::now();
    uint64_t Within = 0;
    for (size_t I = 0;; ++I) {
      if (I % DeckSize == 0) {
        if (I)
          endDeck(L, W, Within);
        if (windowDone(W, Start, Seconds, static_cast<unsigned>(I / DeckSize)))
          break;
        beginDeck(W, Within);
      }
      Ref.pace(T);
      const AppCase &C = Pool[I % Pool.size()];
      ++T.Attempted;
      L.T.setOp(I);
      Tracer::Scope Op(L.T, "op");
      stack::RunSpec Spec;
      Spec.Source = C.Source;
      Spec.StdinData = C.Stdin;
      Result<stack::Prepared> P = compile(L, Spec);
      if (!P) {
        T.fail(C.Name + ": compile: " + P.error().str());
        continue;
      }
      Result<stack::Observed> B = runEngine(L, P.take(), Isa);
      double Ms = Op.stop();
      if (!B) {
        T.fail(C.Name + ": " + B.error().str());
        continue;
      }
      if (!checkAgainstSpec(T, C, *B, C.Name + " at isa"))
        continue;
      ++W.Ops;
      W.sample(L, Ms);
      Within += Ms <= LimitMs;
    }
    W.Seconds = (msBetween(Start, Clock::now()) - Ref.spentMs()) / 1e3;
    return W;
  }

private:
  uint64_t Seed;
  std::vector<AppCase> Pool;
};

} // namespace

std::unique_ptr<Workload> sb::makeOneshot(uint64_t Seed) {
  return std::make_unique<Oneshot>(Seed);
}
