//===- stack/Executor.cpp - Observable execution engine ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Executor.h"

#include "cpu/Check.h"
#include "ffi/BasisFfi.h"
#include "isa/jit/Jit.h"

#include <algorithm>

using namespace silver;
using namespace silver::stack;

const char *silver::stack::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Completed:
    return "completed";
  case RunStatus::Paused:
    return "paused";
  case RunStatus::Timeout:
    return "timeout";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Per-level sessions
//===----------------------------------------------------------------------===//

struct Executor::SessionBase {
  virtual ~SessionBase() = default;
  /// Runs at most \p MaxInstructions more instructions.  Completed means
  /// the program is over; Paused means the quota ran out first; Timeout
  /// means a level-internal budget (cycles, wedge watchdog) ran out.
  virtual Result<RunStatus> step(uint64_t MaxInstructions) = 0;
  /// Instructions retired so far (the Executor charges its global
  /// instruction budget from the deltas of this).
  virtual uint64_t instructions() const = 0;
  /// Snapshots the observable behaviour.
  virtual Observed collect() const = 0;
  /// Snapshots the architectural state (Executor::sessionState).
  virtual StateDigest digest() const = 0;
  /// Grants more of the level-internal budget (cycles at the hardware
  /// levels; a no-op for the interpreters) and clears a level-internal
  /// Timeout so step() can continue (Executor::replenish).
  virtual void addCycles(uint64_t /*ExtraCycles*/) {}
};

namespace {

/// The execution backend a session steps with.  Jit silently degrades
/// to the interpreter on unsupported hosts (the CLIs surface the
/// degradation as a diagnostic before the run starts).
std::unique_ptr<isa::ExecBackend> makeSessionBackend(const ExecOptions &E) {
  if (E.Backend == BackendKind::Jit && isa::jit::hostSupported()) {
    isa::jit::JitOptions Opts;
    if (E.JitHotThreshold)
      Opts.HotThreshold = E.JitHotThreshold;
    return isa::jit::makeJitBackend(Opts);
  }
  return isa::makeInterpBackend();
}

StateDigest digestOf(const isa::MachineState &S) {
  StateDigest D;
  D.Pc = S.PC;
  D.Carry = S.CarryFlag;
  D.Overflow = S.OverflowFlag;
  D.Regs = S.Regs;
  D.MemoryHash = fnv1a64(S.Memory.data(), S.Memory.size());
  D.MemoryBytes = S.Memory.size();
  return D;
}

/// Isa level: the Silver ISA Next function with the real system-call
/// code (sys::SysEnv reacting to Interrupt).  The startup prefix retires
/// under the observer too, so the retire stream lines up with the RTL
/// levels, which execute the startup code on the core from reset.
struct IsaSession final : Executor::SessionBase {
  sys::BootResult Boot;
  sys::SysEnv Env;
  isa::ObsHooks Hooks;
  /// Session-lifetime execution backend: a paused-and-resumed run keeps
  /// its derived state — decoded slots, and compiled blocks at the Jit
  /// backend (stores invalidate what they overwrite, so self-modifying
  /// code stays correct at every backend).
  std::unique_ptr<isa::ExecBackend> Backend;
  uint64_t Steps = 0; ///< post-startup ISA steps
  bool Halted = false;

  IsaSession(sys::BootResult B, const ExecOptions &E, obs::Observer *Obs)
      : Boot(std::move(B)), Env(Boot.Layout),
        Backend(makeSessionBackend(E)) {
    Hooks.Obs = Obs;
    Hooks.RetireIndexBase = Boot.StartupSteps;
    Hooks.FfiEntryPc = Boot.Layout.SyscallCodeBase;
    Hooks.FfiRegionBegin = Boot.Layout.SyscallCodeBase;
    Hooks.FfiRegionEnd = Boot.Layout.HeapBase;
  }

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    if (Halted)
      return RunStatus::Completed;
    // The backend tests for an observer once per call, not per retire:
    // with none attached it runs its uninstrumented loop.
    isa::RunResult R =
        Backend->run(Boot.State, Env, MaxInstructions, std::nullopt, &Hooks);
    Steps += R.Steps;
    if (R.Fault != isa::StepFault::None)
      return Error("ISA execution faulted");
    Halted = R.Halted;
    return Halted ? RunStatus::Completed : RunStatus::Paused;
  }

  // Matches collect().Instructions (startup prefix included): the
  // service journals one and replays against the other, so the two
  // counts must be the same coordinate system.
  uint64_t instructions() const override { return Steps + Boot.StartupSteps; }

  Observed collect() const override {
    Observed O;
    O.Terminated = Halted;
    O.Instructions = Steps + Boot.StartupSteps;
    O.StdoutData = Env.collectedStdout();
    O.StderrData = Env.collectedStderr();
    sys::ExitStatus S = sys::readExitStatus(Boot.State.Memory, Boot.Layout);
    O.ExitCode = S.Exited ? S.Code : 0;
    return O;
  }

  StateDigest digest() const override { return digestOf(Boot.State); }
};

/// Machine level: machine_sem with the FFI interference oracle.  As in
/// the pre-redesign API, Instructions counts machine steps only (the
/// startup prefix runs unobserved before the semantics takes over), so
/// the observer's retire count matches Observed.Instructions.
struct MachineSession final : Executor::SessionBase {
  machine::MachineSem Sem;
  uint64_t Steps = 0;
  machine::Behaviour Last;
  bool Done = false;

  MachineSession(sys::BootResult B, const RunSpec &Spec, obs::Observer *Obs)
      : Sem(std::move(B.State),
            ffi::BasisFfi(Spec.CommandLine,
                          ffi::Filesystem::withStdin(Spec.StdinData)),
            B.Layout, makeSessionBackend(Spec.Exec)) {
    if (Obs)
      Sem.attachObserver(Obs);
  }

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    if (Done)
      return RunStatus::Completed;
    machine::Behaviour B = Sem.run(MaxInstructions);
    Steps += B.Steps;
    if (B.Kind == machine::BehaviourKind::Failed)
      return Error(B.OracleRejected ? machine::OracleRejectedMessage
                                    : "machine-sem execution failed");
    Last = B;
    Done = B.Kind == machine::BehaviourKind::Terminated;
    return Done ? RunStatus::Completed : RunStatus::Paused;
  }

  uint64_t instructions() const override { return Steps; }

  Observed collect() const override {
    Observed O;
    O.Terminated = Done;
    O.ExitCode = Last.ExitCode;
    O.Instructions = Steps;
    O.StdoutData = Sem.ffi().getStdout();
    O.StderrData = Sem.ffi().getStderr();
    return O;
  }

  StateDigest digest() const override { return digestOf(Sem.state()); }
};

/// Rtl / Verilog levels: the Silver core in the lab environment, driven
/// through the resumable cpu::CoreRunner.  Subject to the cycle budget
/// and the wedge watchdog on top of the instruction budget.
struct RtlSession final : Executor::SessionBase {
  cpu::CoreRunner Runner;
  uint64_t CycleBudgetLeft;
  bool TimedOut = false;

  RtlSession(cpu::CoreRunner R, uint64_t CycleBudget)
      : Runner(std::move(R)), CycleBudgetLeft(CycleBudget) {}

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    if (Runner.halted())
      return RunStatus::Completed;
    if (TimedOut)
      return RunStatus::Timeout;
    uint64_t CyclesBefore = Runner.cycles();
    Result<cpu::CoreStop> S = Runner.advance(MaxInstructions, CycleBudgetLeft);
    uint64_t Used = Runner.cycles() - CyclesBefore;
    CycleBudgetLeft -= std::min(Used, CycleBudgetLeft);
    if (!S)
      return S.error();
    switch (*S) {
    case cpu::CoreStop::Halted:
      return RunStatus::Completed;
    case cpu::CoreStop::InstructionBudget:
      return RunStatus::Paused;
    case cpu::CoreStop::CycleBudget:
    case cpu::CoreStop::NoRetireProgress:
      TimedOut = true;
      return RunStatus::Timeout;
    }
    return RunStatus::Paused;
  }

  uint64_t instructions() const override { return Runner.instructions(); }

  void addCycles(uint64_t ExtraCycles) override {
    CycleBudgetLeft = ExtraCycles > UINT64_MAX - CycleBudgetLeft
                          ? UINT64_MAX
                          : CycleBudgetLeft + ExtraCycles;
    TimedOut = false;
  }

  Observed collect() const override {
    cpu::CoreRunResult R = Runner.result();
    Observed O;
    O.Terminated = R.Halted;
    O.Cycles = R.Cycles;
    O.Instructions = R.Instructions;
    O.StdoutData = R.StdoutData;
    O.StderrData = R.StderrData;
    O.ExitCode = R.Exit.Exited ? R.Exit.Code : 0;
    return O;
  }

  StateDigest digest() const override {
    cpu::ArchState A = Runner.archState();
    StateDigest D;
    D.Pc = A.Pc;
    D.Carry = A.Carry;
    D.Overflow = A.Overflow;
    D.Regs = A.Regs;
    const isa::GuestMemory &M = Runner.memory();
    D.MemoryHash = fnv1a64(M.data(), M.size());
    D.MemoryBytes = M.size();
    return D;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(RunSpec SpecIn, Prepared PrepIn)
    : Spec(std::move(SpecIn)), Prep(std::move(PrepIn)) {}

Executor::Executor(Executor &&) noexcept = default;
Executor &Executor::operator=(Executor &&) noexcept = default;
Executor::~Executor() = default;

Result<Executor> Executor::create(RunSpec Spec) {
  Result<Prepared> P = prepare(Spec);
  if (!P)
    return P.error();
  return Executor(std::move(Spec), P.take());
}

Executor Executor::fromPrepared(RunSpec Spec, Prepared P) {
  return Executor(std::move(Spec), std::move(P));
}

Result<obs::RegionMap> Executor::regionMap() const {
  Result<sys::MemoryLayout> L = sys::MemoryLayout::compute(
      Prep.Image.Params, static_cast<Word>(Prep.Image.Program.size()));
  if (!L)
    return L.error();
  obs::RegionMap M;
  M.add(L->StartupBase, L->DescriptorBase, obs::Region::Startup);
  M.add(L->DescriptorBase, L->CmdlineBase, obs::Region::Descriptor);
  M.add(L->CmdlineBase, L->StdinBase, obs::Region::Cmdline);
  M.add(L->StdinBase, L->OutBufBase, obs::Region::Stdin);
  M.add(L->OutBufBase, L->SyscallIdAddr, obs::Region::OutBuf);
  M.add(L->SyscallIdAddr, L->HeapBase, obs::Region::SyscallCode);
  M.add(L->HeapBase, L->HeapEnd, obs::Region::Heap);
  M.add(L->CodeBase, L->Params.MemSize, obs::Region::Code);
  return M;
}

const std::vector<std::string> &Executor::ffiNames() {
  return ffi::BasisFfi::callNames();
}

uint64_t Executor::cycleBudget() const {
  if (Spec.Exec.MaxCycles)
    return Spec.Exec.MaxCycles;
  // Derived: a generous cycles-per-instruction bound over the
  // instruction budget (the core retires one instruction every few
  // cycles; 16 leaves slack for memory latency), saturating.
  const uint64_t Cap = UINT64_MAX / 16;
  return Spec.Exec.MaxSteps > Cap ? UINT64_MAX : Spec.Exec.MaxSteps * 16;
}

Result<void> Executor::begin(Level L) {
  if (Session)
    return Error("an execution session is already active");
  if (L == Level::Spec)
    return Error("the spec level has no machine steps; use run()");

  InstrBudgetLeft = Spec.Exec.MaxSteps;
  LastStatus = RunStatus::Paused;
  if (Obs)
    Obs->onRunBegin(L);
  // Balance onRunBegin even when session setup fails.
  auto Fail = [&](const Error &E) -> Result<void> {
    if (Obs)
      Obs->onRunEnd();
    return E;
  };

  switch (L) {
  case Level::Isa: {
    Result<sys::BootResult> Boot = sys::boot(Prep.Image, Obs);
    if (!Boot)
      return Fail(Boot.error());
    Session =
        std::make_unique<IsaSession>(Boot.take(), Spec.Exec, Obs);
    break;
  }
  case Level::Machine: {
    Result<sys::BootResult> Boot = sys::boot(Prep.Image);
    if (!Boot)
      return Fail(Boot.error());
    Session = std::make_unique<MachineSession>(Boot.take(), Spec, Obs);
    break;
  }
  case Level::Rtl:
  case Level::Verilog: {
    Result<sys::MemoryImage> Image = sys::buildImage(Prep.Image);
    if (!Image)
      return Fail(Image.error());
    // The effective cycle budget is resolved once here into a plain
    // integer; the per-cycle/per-step paths only ever compare counters.
    uint64_t Cycles = cycleBudget();
    cpu::RunOptions Options;
    Options.Level = L == Level::Rtl ? cpu::SimLevel::Circuit
                    : Spec.Exec.Hdl == HdlBackendKind::Compiled
                        ? cpu::SimLevel::VerilogCompiled
                        : cpu::SimLevel::Verilog;
    Options.MaxCycles = Cycles;
    Options.Obs = Obs;
    Result<cpu::CoreRunner> Runner =
        cpu::CoreRunner::create(Image.take(), Options);
    if (!Runner)
      return Fail(Runner.error());
    Session = std::make_unique<RtlSession>(Runner.take(), Cycles);
    break;
  }
  case Level::Spec:
    break; // unreachable; rejected above
  }
  return {};
}

Result<RunStatus> Executor::step(uint64_t MaxInstructions) {
  if (!Session)
    return Error("no active execution session: call begin() first");
  if (LastStatus != RunStatus::Paused)
    return LastStatus; // over; finish() collects the outcome

  uint64_t Quota = std::min(MaxInstructions, InstrBudgetLeft);
  uint64_t Before = Session->instructions();
  Result<RunStatus> S = Session->step(Quota);
  if (!S) {
    // A fault ends the session; balance the observer stream.
    if (Obs)
      Obs->onRunEnd();
    Session.reset();
    return S.error();
  }
  uint64_t Used = Session->instructions() - Before;
  InstrBudgetLeft -= std::min(Used, InstrBudgetLeft);
  LastStatus = *S;
  if (LastStatus == RunStatus::Paused && InstrBudgetLeft == 0)
    LastStatus = RunStatus::Timeout; // the global budget, not the quota
  return LastStatus;
}

Result<StateDigest> Executor::sessionState() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->digest();
}

Result<uint64_t> Executor::sessionInstructions() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->instructions();
}

Result<Observed> Executor::sessionBehaviour() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->collect();
}

Result<void> Executor::replenish(uint64_t ExtraInstructions,
                                 uint64_t ExtraCycles) {
  if (!Session)
    return Error("no active execution session: call begin() first");
  if (LastStatus == RunStatus::Completed)
    return Error("session already completed; nothing to replenish");
  InstrBudgetLeft = ExtraInstructions > UINT64_MAX - InstrBudgetLeft
                        ? UINT64_MAX
                        : InstrBudgetLeft + ExtraInstructions;
  if (ExtraCycles == 0) {
    const uint64_t Cap = UINT64_MAX / 16;
    ExtraCycles =
        ExtraInstructions > Cap ? UINT64_MAX : ExtraInstructions * 16;
  }
  Session->addCycles(ExtraCycles);
  LastStatus = RunStatus::Paused;
  return {};
}

Result<Outcome> Executor::finish() {
  if (!Session)
    return Error("no active execution session: call begin() first");
  Outcome Out;
  Out.Status = LastStatus;
  Out.Behaviour = Session->collect();
  if (Obs)
    Obs->onRunEnd();
  Session.reset();
  return Out;
}

Result<Outcome> Executor::run(Level L) {
  if (L == Level::Spec) {
    // The reference interpreter: no machine steps, a single observable
    // behaviour.  Bracketed so counters/traces still see the run.
    if (Obs)
      Obs->onRunBegin(Level::Spec);
    Result<Observed> R = runSpecLevel(Spec);
    if (Obs)
      Obs->onRunEnd();
    if (!R)
      return R.error();
    Outcome Out;
    Out.Status = RunStatus::Completed;
    Out.Behaviour = *R;
    return Out;
  }
  if (Result<void> B = begin(L); !B)
    return B.error();
  if (Result<RunStatus> S = step(UINT64_MAX); !S)
    return S.error(); // step() already tore the session down
  return finish();
}
