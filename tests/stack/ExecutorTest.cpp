//===- tests/stack/ExecutorTest.cpp - observable execution engine tests --------===//
//
// The redesigned stack API: cross-level retire-stream equality (the
// event-level strengthening of the end-to-end theorem — the ISA and the
// circuit retire the *same pc+opcode sequence*, not just the same final
// stdout), observer-neutrality (attaching a null observer changes
// nothing observable), deterministic counters, budget Timeouts instead
// of hangs, and pause/resume sessions.
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"
#include "obs/TraceSink.h"
#include "stack/Apps.h"
#include "stack/Executor.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;

namespace {

RunSpec helloSpec() {
  RunSpec Spec;
  Spec.Source = helloSource();
  Spec.Exec.MaxSteps = 100'000'000;
  return Spec;
}

void expectSameObserved(const Observed &A, const Observed &B,
                        bool CompareInstructions = true) {
  EXPECT_EQ(A.StdoutData, B.StdoutData);
  EXPECT_EQ(A.StderrData, B.StderrData);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.Terminated, B.Terminated);
  if (CompareInstructions) {
    EXPECT_EQ(A.Instructions, B.Instructions);
  }
}

// Runs Spec at Isa and Rtl with a TraceSink each and requires the
// pc+opcode retirement sequences to be equal.  The circuit retires the
// final halt self-jump (that is how it signals halt) where the ISA
// interpreter stops *at* it, so the RTL stream is exactly one retire
// longer; trim it before comparing.
void expectRetireStreamsEqual(const RunSpec &Spec) {
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::TraceSink IsaSink, RtlSink;
  Exec.attach(&IsaSink);
  Result<Outcome> Isa = Exec.run(Level::Isa);
  ASSERT_TRUE(Isa) << Isa.error().str();
  ASSERT_EQ(Isa->Status, RunStatus::Completed);

  Exec.attach(&RtlSink);
  Result<Outcome> Rtl = Exec.run(Level::Rtl);
  ASSERT_TRUE(Rtl) << Rtl.error().str();
  ASSERT_EQ(Rtl->Status, RunStatus::Completed);

  // The circuit counts its extra halt retire in Instructions too.
  expectSameObserved(Isa->Behaviour, Rtl->Behaviour,
                     /*CompareInstructions=*/false);
  EXPECT_EQ(Rtl->Behaviour.Instructions, Isa->Behaviour.Instructions + 1);

  std::vector<std::pair<Word, uint8_t>> IsaStream = IsaSink.retireStream();
  std::vector<std::pair<Word, uint8_t>> RtlStream = RtlSink.retireStream();
  ASSERT_EQ(RtlStream.size(), IsaStream.size() + 1);
  RtlStream.pop_back();
  ASSERT_EQ(IsaStream.size(), RtlStream.size());
  for (size_t I = 0; I != IsaStream.size(); ++I) {
    ASSERT_EQ(IsaStream[I].first, RtlStream[I].first)
        << "pc diverges at retirement " << I;
    ASSERT_EQ(IsaStream[I].second, RtlStream[I].second)
        << "opcode diverges at retirement " << I;
  }
}

} // namespace

TEST(Executor, RetireStreamEqualHello) {
  expectRetireStreamsEqual(helloSpec());
}

TEST(Executor, RetireStreamEqualWc) {
  RunSpec Spec;
  Spec.Source = wcSource();
  Spec.CommandLine = {"wc"};
  Spec.StdinData = "alpha beta\ngamma\n";
  Spec.Exec.MaxSteps = 100'000'000;
  expectRetireStreamsEqual(Spec);
}

TEST(Executor, RetireStreamEqualSort) {
  RunSpec Spec;
  Spec.Source = sortSource();
  Spec.StdinData = "pear\napple\nzebra\nmango\n";
  Spec.Exec.MaxSteps = 400'000'000;
  expectRetireStreamsEqual(Spec);
}

/// One begin/step/finish session of \p Exec at \p L with \p Obs
/// attached (null for none); \p Digest receives the final StateDigest.
Result<Outcome> runSession(Executor &Exec, Level L, obs::Observer *Obs,
                           StateDigest &Digest) {
  Exec.attach(Obs);
  Result<Outcome> Out = [&]() -> Result<Outcome> {
    if (Result<void> B = Exec.begin(L); !B)
      return B.error();
    if (Result<RunStatus> S = Exec.step(UINT64_MAX); !S)
      return S.error();
    Result<StateDigest> D = Exec.sessionState();
    if (!D)
      return D.error();
    Digest = *D;
    return Exec.finish();
  }();
  Exec.attach(nullptr);
  return Out;
}

TEST(Executor, NullObserverIsBehaviourNeutral) {
  // The zero-cost-when-null claim, behavioural half: a session with no
  // observer must produce exactly the Observed and the final state of an
  // instrumented one.  The JIT backend runs native code unobserved and
  // interprets observed runs, so it is checked at both ISA levels.
  struct Case {
    BackendKind Backend;
    Level L;
  };
  for (Case C : {Case{BackendKind::Interp, Level::Machine},
                 Case{BackendKind::Interp, Level::Isa},
                 Case{BackendKind::Interp, Level::Rtl},
                 Case{BackendKind::Jit, Level::Machine},
                 Case{BackendKind::Jit, Level::Isa}}) {
    SCOPED_TRACE(std::string(backendKindName(C.Backend)) + " at " +
                 levelName(C.L));
    RunSpec Spec = helloSpec();
    Spec.Exec.Backend = C.Backend;
    Spec.Exec.JitHotThreshold = 1; // the null run executes compiled blocks
    Result<Executor> ExecOr = Executor::create(Spec);
    ASSERT_TRUE(ExecOr) << ExecOr.error().str();
    Executor Exec = ExecOr.take();

    StateDigest NullDigest, ObservedDigest;
    Result<Outcome> Null = runSession(Exec, C.L, nullptr, NullDigest);
    ASSERT_TRUE(Null) << Null.error().str();
    ASSERT_EQ(Null->Status, RunStatus::Completed);

    obs::Counters Counters(Exec.regionMap().take(), Executor::ffiNames());
    Result<Outcome> Observed =
        runSession(Exec, C.L, &Counters, ObservedDigest);
    ASSERT_TRUE(Observed) << Observed.error().str();

    expectSameObserved(Null->Behaviour, Observed->Behaviour);
    EXPECT_EQ(Null->Behaviour.Cycles, Observed->Behaviour.Cycles);
    EXPECT_TRUE(NullDigest == ObservedDigest);
    // The counters agree with the Observed the API reports.  At the
    // machine level FFI calls are oracle steps, not retirements, so the
    // retire count plus the call count makes up the step count.
    uint64_t FfiCalls = 0;
    for (const obs::Counters::FfiCost &Cost : Counters.Ffi)
      FfiCalls += Cost.Calls;
    if (C.L == Level::Machine) {
      EXPECT_EQ(Counters.Retired + FfiCalls,
                Observed->Behaviour.Instructions);
    } else {
      EXPECT_EQ(Counters.Retired, Observed->Behaviour.Instructions);
    }
    EXPECT_EQ(Counters.Cycles, Observed->Behaviour.Cycles);
    EXPECT_GT(Counters.Retired, 0u);
  }
}

TEST(Executor, CountersDeterministicAndRegionBucketed) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::Counters A(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&A);
  ASSERT_TRUE(Exec.run(Level::Isa));

  obs::Counters B(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&B);
  ASSERT_TRUE(Exec.run(Level::Isa));

  // Identical runs, byte-identical reports.
  EXPECT_EQ(A.report(), B.report());
  EXPECT_EQ(A.toJson(), B.toJson());

  // hello writes its message through the output buffer, and every access
  // lands in a mapped Figure-2 region.
  EXPECT_GT(A.RegionStores[static_cast<size_t>(obs::Region::OutBuf)], 0u);
  EXPECT_EQ(A.RegionLoads[static_cast<size_t>(obs::Region::Other)], 0u);
  EXPECT_EQ(A.RegionStores[static_cast<size_t>(obs::Region::Other)], 0u);
  EXPECT_DOUBLE_EQ(A.cpi(), 1.0); // no clock at the ISA level
  // The write_stdout syscall was called and retired instructions.
  bool SawCalls = false;
  for (const obs::Counters::FfiCost &C : A.Ffi)
    SawCalls |= C.Calls != 0 && C.Instructions != 0;
  EXPECT_TRUE(SawCalls);
}

TEST(Executor, RegionTrafficAndFfiCostMatchAcrossLevels) {
  // The ISA interpreter and the circuit must agree not just on the
  // retire stream but on the aggregated observables: data-memory
  // traffic per Figure-2 region (the circuit's instruction fetches are
  // filtered out) and per-syscall calls/instructions.
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::Counters IsaC(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&IsaC);
  ASSERT_TRUE(Exec.run(Level::Isa));

  obs::Counters RtlC(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&RtlC);
  ASSERT_TRUE(Exec.run(Level::Rtl));

  for (unsigned R = 0; R != obs::NumRegions; ++R) {
    EXPECT_EQ(IsaC.RegionLoads[R], RtlC.RegionLoads[R])
        << "loads differ in region "
        << obs::regionName(static_cast<obs::Region>(R));
    EXPECT_EQ(IsaC.RegionStores[R], RtlC.RegionStores[R])
        << "stores differ in region "
        << obs::regionName(static_cast<obs::Region>(R));
  }
  ASSERT_EQ(IsaC.Ffi.size(), RtlC.Ffi.size());
  for (size_t I = 0; I != IsaC.Ffi.size(); ++I) {
    EXPECT_EQ(IsaC.Ffi[I].Calls, RtlC.Ffi[I].Calls);
    EXPECT_EQ(IsaC.Ffi[I].Instructions, RtlC.Ffi[I].Instructions);
  }
}

TEST(Executor, InstructionBudgetTimesOutAtIsa) {
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 50; // far too few to finish
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Result<Outcome> R = ExecOr->run(Level::Isa);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Status, RunStatus::Timeout);
  EXPECT_FALSE(R->Behaviour.Terminated);
}

TEST(Executor, CycleBudgetTimesOutAtRtl) {
  // Pre-redesign, MaxSteps was enforced only at the ISA level and a
  // too-small budget at the circuit level simply ran forever.  Now the
  // derived cycle budget turns it into a Timeout outcome.
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 50;
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  EXPECT_EQ(ExecOr->cycleBudget(), 50u * 16u);
  Result<Outcome> R = ExecOr->run(Level::Rtl);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Status, RunStatus::Timeout);
  EXPECT_FALSE(R->Behaviour.Terminated);
}

TEST(Executor, CycleBudgetDerivation) {
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 10;
  EXPECT_EQ(Executor::create(Spec).take().cycleBudget(), 160u);
  Spec.Exec.MaxCycles = 1000; // explicit budget wins
  EXPECT_EQ(Executor::create(Spec).take().cycleBudget(), 1000u);
}

TEST(Executor, PauseResumeMatchesOneShot) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  Result<Outcome> OneShot = Exec.run(Level::Isa);
  ASSERT_TRUE(OneShot) << OneShot.error().str();

  ASSERT_TRUE(Exec.begin(Level::Isa));
  EXPECT_TRUE(Exec.active());
  unsigned Pauses = 0;
  for (;;) {
    Result<RunStatus> S = Exec.step(100);
    ASSERT_TRUE(S) << S.error().str();
    if (*S != RunStatus::Paused)
      break;
    ++Pauses;
  }
  EXPECT_GT(Pauses, 5u); // hello takes well over 500 instructions
  Result<Outcome> Stepped = Exec.finish();
  ASSERT_TRUE(Stepped) << Stepped.error().str();
  EXPECT_FALSE(Exec.active());

  EXPECT_EQ(Stepped->Status, RunStatus::Completed);
  expectSameObserved(OneShot->Behaviour, Stepped->Behaviour);
}

TEST(Executor, PauseResumeWorksAtRtl) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  Result<Outcome> OneShot = Exec.run(Level::Rtl);
  ASSERT_TRUE(OneShot) << OneShot.error().str();

  ASSERT_TRUE(Exec.begin(Level::Rtl));
  Result<RunStatus> First = Exec.step(200);
  ASSERT_TRUE(First) << First.error().str();
  EXPECT_EQ(*First, RunStatus::Paused);
  for (;;) {
    Result<RunStatus> S = Exec.step(1'000'000);
    ASSERT_TRUE(S) << S.error().str();
    if (*S != RunStatus::Paused)
      break;
  }
  Result<Outcome> Stepped = Exec.finish();
  ASSERT_TRUE(Stepped) << Stepped.error().str();
  EXPECT_EQ(Stepped->Status, RunStatus::Completed);
  expectSameObserved(OneShot->Behaviour, Stepped->Behaviour);
  EXPECT_EQ(OneShot->Behaviour.Cycles, Stepped->Behaviour.Cycles);
}

TEST(Executor, SpecLevelRunsButIsNotResumable) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Result<Outcome> R = ExecOr->run(Level::Spec);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Behaviour.StdoutData, "Hello, world!\n");
  EXPECT_FALSE(ExecOr->begin(Level::Spec));
}

// Exhausts a deliberately small budget at \p L, replenishes through the
// Timeout until the program completes, and requires the final
// StateDigest and Observed to be identical to an unbudgeted run: a
// resumed session must land on the same architectural state, bit for
// bit, no matter how many times the budget interrupted it (the serving
// layer's pause/resume correctness claim).
void expectReplenishedRunMatchesUnbudgeted(Level L) {
  // Reference: one run with budget to spare.
  Result<Executor> RefOr = Executor::create(helloSpec());
  ASSERT_TRUE(RefOr) << RefOr.error().str();
  Executor Ref = RefOr.take();
  ASSERT_TRUE(Ref.begin(L));
  Result<RunStatus> RefS = Ref.step(UINT64_MAX);
  ASSERT_TRUE(RefS) << RefS.error().str();
  ASSERT_EQ(*RefS, RunStatus::Completed);
  Result<StateDigest> RefDigest = Ref.sessionState();
  ASSERT_TRUE(RefDigest) << RefDigest.error().str();
  Result<Outcome> RefOut = Ref.finish();
  ASSERT_TRUE(RefOut) << RefOut.error().str();

  // The same program under a starvation budget, revived via replenish
  // every time it times out.
  RunSpec Starved = helloSpec();
  Starved.Exec.MaxSteps = 200;
  Result<Executor> ExecOr = Executor::create(Starved);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();
  ASSERT_TRUE(Exec.begin(L));
  unsigned Timeouts = 0;
  for (;;) {
    Result<RunStatus> S = Exec.step(UINT64_MAX);
    ASSERT_TRUE(S) << S.error().str();
    if (*S == RunStatus::Completed)
      break;
    ASSERT_EQ(*S, RunStatus::Timeout);
    ASSERT_LT(++Timeouts, 10'000u) << "never completed";
    ASSERT_TRUE(Exec.replenish(200));
  }
  EXPECT_GT(Timeouts, 0u) << "budget was never exhausted; test is vacuous";
  Result<StateDigest> Digest = Exec.sessionState();
  ASSERT_TRUE(Digest) << Digest.error().str();
  Result<Outcome> Out = Exec.finish();
  ASSERT_TRUE(Out) << Out.error().str();

  expectSameObserved(RefOut->Behaviour, Out->Behaviour);
  EXPECT_EQ(RefDigest->Pc, Digest->Pc);
  EXPECT_EQ(RefDigest->Carry, Digest->Carry);
  EXPECT_EQ(RefDigest->Overflow, Digest->Overflow);
  EXPECT_EQ(RefDigest->Regs, Digest->Regs);
  EXPECT_EQ(RefDigest->MemoryHash, Digest->MemoryHash);
  EXPECT_EQ(RefDigest->MemoryBytes, Digest->MemoryBytes);
}

// The compiled simulator backend (hdl/compile) must be observationally
// identical to the AST interpreter at the Verilog level: same Observed
// (including instruction and cycle counts), same retire stream, same
// final StateDigest.  On hosts without a usable C++ compiler the
// compiled run transparently falls back to the interpreter, so the
// comparison holds vacuously — and the run must still succeed.
TEST(Executor, CompiledHdlBackendMatchesInterpreterAtVerilog) {
  RunSpec InterpSpec = helloSpec();
  RunSpec CompiledSpec = helloSpec();
  CompiledSpec.Exec.Hdl = HdlBackendKind::Compiled;

  auto RunVerilog = [](const RunSpec &Spec, obs::TraceSink &Sink,
                       StateDigest &Digest) -> Result<Outcome> {
    Result<Executor> ExecOr = Executor::create(Spec);
    if (!ExecOr)
      return ExecOr.error();
    Executor Exec = ExecOr.take();
    return runSession(Exec, Level::Verilog, &Sink, Digest);
  };

  obs::TraceSink InterpSink, CompiledSink;
  StateDigest InterpDigest, CompiledDigest;
  Result<Outcome> I = RunVerilog(InterpSpec, InterpSink, InterpDigest);
  ASSERT_TRUE(I) << I.error().str();
  Result<Outcome> C = RunVerilog(CompiledSpec, CompiledSink, CompiledDigest);
  ASSERT_TRUE(C) << C.error().str();

  ASSERT_EQ(I->Status, RunStatus::Completed);
  ASSERT_EQ(C->Status, RunStatus::Completed);
  expectSameObserved(I->Behaviour, C->Behaviour);
  EXPECT_EQ(I->Behaviour.Cycles, C->Behaviour.Cycles);
  EXPECT_EQ(InterpSink.retireStream(), CompiledSink.retireStream());
  EXPECT_EQ(InterpDigest.Pc, CompiledDigest.Pc);
  EXPECT_EQ(InterpDigest.Carry, CompiledDigest.Carry);
  EXPECT_EQ(InterpDigest.Overflow, CompiledDigest.Overflow);
  EXPECT_EQ(InterpDigest.Regs, CompiledDigest.Regs);
  EXPECT_EQ(InterpDigest.MemoryHash, CompiledDigest.MemoryHash);
  EXPECT_EQ(InterpDigest.MemoryBytes, CompiledDigest.MemoryBytes);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtMachine) {
  expectReplenishedRunMatchesUnbudgeted(Level::Machine);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtIsa) {
  expectReplenishedRunMatchesUnbudgeted(Level::Isa);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtRtl) {
  expectReplenishedRunMatchesUnbudgeted(Level::Rtl);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtVerilog) {
  expectReplenishedRunMatchesUnbudgeted(Level::Verilog);
}

TEST(Executor, ReplenishErrorsOutsideALiveSession) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();
  EXPECT_FALSE(Exec.replenish(100)) << "no session yet";
  ASSERT_TRUE(Exec.begin(Level::Isa));
  Result<RunStatus> S = Exec.step(UINT64_MAX);
  ASSERT_TRUE(S);
  ASSERT_EQ(*S, RunStatus::Completed);
  EXPECT_FALSE(Exec.replenish(100)) << "completed sessions cannot revive";
  ASSERT_TRUE(Exec.finish());
}

TEST(Executor, SessionBehaviourSnapshotsTheRunningPrefix) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();
  ASSERT_TRUE(Exec.begin(Level::Isa));
  Result<RunStatus> S = Exec.step(300);
  ASSERT_TRUE(S);
  ASSERT_EQ(*S, RunStatus::Paused);
  Result<Observed> Mid = Exec.sessionBehaviour();
  ASSERT_TRUE(Mid) << Mid.error().str();
  // The quota is enforced at the interpreter's chunk granularity, so the
  // session may run slightly past it — but never far, and never to
  // completion.
  EXPECT_GE(Mid->Instructions, 300u);
  EXPECT_LT(Mid->Instructions, 400u);
  EXPECT_FALSE(Mid->Terminated);
  // sessionInstructions() and the behaviour snapshot share one
  // coordinate system (startup prefix included), so a pause point taken
  // from either can be replayed against the other.
  Result<uint64_t> N = Exec.sessionInstructions();
  ASSERT_TRUE(N);
  EXPECT_EQ(*N, Mid->Instructions);
  Result<Outcome> Out = Exec.finish();
  ASSERT_TRUE(Out);
}

// The pluggable-backend contract, end to end: the same program at the
// same level must produce an identical Observed AND an identical final
// StateDigest whether the session steps on the interpreter or the JIT.
// The Machine level additionally covers the oracle-write invalidation
// contract — every FFI consultation there is an oracle interference
// write behind the backend's back, and MachineSem must invalidate the
// JIT's compiled blocks for the touched range.  On hosts without JIT
// support the Jit run degrades to the interpreter, so the comparison
// holds vacuously rather than failing.
void expectJitSessionMatchesInterp(Level L) {
  RunSpec Spec;
  Spec.Source = wcSource();
  Spec.CommandLine = {"wc"};
  Spec.StdinData = randomLines(40, 7);
  Spec.Exec.MaxSteps = 100'000'000;
  Spec.Exec.JitHotThreshold = 1; // compile every block, not just hot ones

  Observed Behaviours[2];
  StateDigest Digests[2];
  for (int I = 0; I != 2; ++I) {
    Spec.Exec.Backend = I ? BackendKind::Jit : BackendKind::Interp;
    Result<Executor> ExecOr = Executor::create(Spec);
    ASSERT_TRUE(ExecOr) << ExecOr.error().str();
    Executor Exec = ExecOr.take();
    ASSERT_TRUE(Exec.begin(L));
    Result<RunStatus> S = Exec.step(UINT64_MAX);
    ASSERT_TRUE(S) << S.error().str();
    ASSERT_EQ(*S, RunStatus::Completed);
    Result<StateDigest> D = Exec.sessionState();
    ASSERT_TRUE(D) << D.error().str();
    Digests[I] = *D;
    Result<Outcome> Out = Exec.finish();
    ASSERT_TRUE(Out) << Out.error().str();
    Behaviours[I] = Out->Behaviour;
  }

  expectSameObserved(Behaviours[0], Behaviours[1]);
  EXPECT_EQ(Digests[0].Pc, Digests[1].Pc);
  EXPECT_EQ(Digests[0].Carry, Digests[1].Carry);
  EXPECT_EQ(Digests[0].Overflow, Digests[1].Overflow);
  EXPECT_EQ(Digests[0].Regs, Digests[1].Regs);
  EXPECT_EQ(Digests[0].MemoryHash, Digests[1].MemoryHash);
  EXPECT_EQ(Digests[0].MemoryBytes, Digests[1].MemoryBytes);
}

TEST(Executor, JitBackendMatchesInterpAtIsa) {
  expectJitSessionMatchesInterp(Level::Isa);
}

TEST(Executor, JitBackendMatchesInterpAtMachine) {
  expectJitSessionMatchesInterp(Level::Machine);
}
