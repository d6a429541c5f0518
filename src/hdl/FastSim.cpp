//===- hdl/FastSim.cpp - Compiled simulator for the subset -------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/FastSim.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

namespace {

uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

int64_t toSigned(unsigned Width, uint64_t Bits) {
  if (Width == 0)
    return 0;
  uint64_t Sign = uint64_t(1) << (Width - 1);
  return static_cast<int64_t>((Bits ^ Sign) - Sign);
}

/// Compiled expression node.  Booleans are width-0 slots holding 0/1.
struct FExp {
  VExpKind Kind;
  BinaryOp BOp = BinaryOp::Add;
  UnaryOp UOp = UnaryOp::Not;
  unsigned Width = 0; ///< vec width of the *result* (0 for bool)
  unsigned ArgWidth = 0; ///< width of Args[0] (signed ops, slicing)
  unsigned Hi = 0, Lo = 0;
  uint64_t Bits = 0;
  int Slot = -1;  ///< Var slot / MemRead memory id
  std::vector<FExp> Args;
};

struct FStmt {
  VStmtKind Kind;
  FExp Cond;             // If
  std::vector<FStmt> Stmts; // Block / If's then+else in Stmts[0],[1]
  bool HasElse = false;
  int Slot = -1;         // assign target slot / memory id
  FExp Index;            // MemWrite
  FExp Rhs;
};

struct NbEntry {
  int Slot;
  bool IsMem;
  uint64_t Index;
  uint64_t Value;
};

} // namespace

struct FastSim::Impl {
  const VModule *Module = nullptr;
  std::map<std::string, int> ScalarSlots; // bool/vec variables
  std::map<std::string, int> MemSlots;
  std::vector<unsigned> SlotWidths;       // 0 = bool
  std::vector<uint64_t> Values;
  std::vector<std::vector<uint64_t>> Mems;
  std::vector<unsigned> MemWidths;
  std::vector<std::pair<std::string, int>> InputSlots;
  std::vector<std::vector<FStmt>> Processes;

  // Observability: cycle ticks for the unified trace/counter subsystem.
  obs::Observer *CycleObs = nullptr;
  uint64_t Cycle = 0;

  /// With a single process there are no later processes to shield from
  /// blocking writes, so they commit in place and the undo/commit logs
  /// stay empty (the rtl-generated module is one process; this removes
  /// two log appends per assignment from the Verilog-level hot path).
  bool DirectBlocking = false;

  // Per-cycle scratch.
  std::vector<NbEntry> Queue;
  std::vector<std::pair<int, uint64_t>> UndoLog;
  std::vector<std::pair<int, uint64_t>> CommitLog;

  Result<FExp> compileExp(const VExp &E);
  Result<FStmt> compileStmt(const VStmt &S);
  uint64_t eval(const FExp &E);
  void exec(const FStmt &S);
};

Result<FExp> FastSim::Impl::compileExp(const VExp &E) {
  FExp F;
  F.Kind = E.Kind;
  F.BOp = E.BOp;
  F.UOp = E.UOp;
  F.Hi = E.Hi;
  F.Lo = E.Lo;
  switch (E.Kind) {
  case VExpKind::ConstBool:
    F.Bits = E.Bool ? 1 : 0;
    F.Width = 0;
    return F;
  case VExpKind::ConstVec:
    F.Bits = E.Bits;
    F.Width = E.Width;
    return F;
  case VExpKind::Var: {
    auto It = ScalarSlots.find(E.Name);
    if (It == ScalarSlots.end())
      return Error("fastsim: unknown variable '" + E.Name + "'");
    F.Slot = It->second;
    F.Width = SlotWidths[F.Slot];
    return F;
  }
  case VExpKind::MemRead: {
    auto It = MemSlots.find(E.Name);
    if (It == MemSlots.end())
      return Error("fastsim: unknown memory '" + E.Name + "'");
    F.Slot = It->second;
    F.Width = MemWidths[F.Slot];
    Result<FExp> Idx = compileExp(*E.Args[0]);
    if (!Idx)
      return Idx;
    F.Args.push_back(Idx.take());
    return F;
  }
  default:
    break;
  }
  for (const VExpPtr &A : E.Args) {
    Result<FExp> C = compileExp(*A);
    if (!C)
      return C;
    F.Args.push_back(C.take());
  }
  switch (E.Kind) {
  case VExpKind::Binary:
    F.ArgWidth = F.Args[0].Width;
    switch (E.BOp) {
    case BinaryOp::Eq:
    case BinaryOp::LtU:
    case BinaryOp::LtS:
      F.Width = 0; // bool
      break;
    default:
      F.Width = F.Args[0].Width;
      break;
    }
    break;
  case VExpKind::Unary:
    F.Width = E.UOp == UnaryOp::LogicNot ? 0 : F.Args[0].Width;
    F.ArgWidth = F.Args[0].Width;
    break;
  case VExpKind::Slice:
    F.Width = E.Hi - E.Lo + 1;
    break;
  case VExpKind::Concat:
    F.Width = F.Args[0].Width + F.Args[1].Width;
    F.ArgWidth = F.Args[1].Width; // low part width for the shift
    break;
  case VExpKind::Cond:
    F.Width = F.Args[1].Width;
    break;
  case VExpKind::ZeroExt:
  case VExpKind::SignExt:
    F.Width = E.Width;
    F.ArgWidth = F.Args[0].Width;
    break;
  case VExpKind::BoolToVec:
    F.Width = 1;
    break;
  case VExpKind::VecToBool:
    F.Width = 0;
    break;
  default:
    break;
  }
  return F;
}

Result<FStmt> FastSim::Impl::compileStmt(const VStmt &S) {
  FStmt F;
  F.Kind = S.Kind;
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts) {
      Result<FStmt> C = compileStmt(*Sub);
      if (!C)
        return C;
      F.Stmts.push_back(C.take());
    }
    return F;
  case VStmtKind::If: {
    Result<FExp> C = compileExp(*S.Cond);
    if (!C)
      return C.error();
    F.Cond = C.take();
    Result<FStmt> T = compileStmt(*S.Then);
    if (!T)
      return T;
    F.Stmts.push_back(T.take());
    if (S.Else) {
      Result<FStmt> E = compileStmt(*S.Else);
      if (!E)
        return E;
      F.Stmts.push_back(E.take());
      F.HasElse = true;
    }
    return F;
  }
  case VStmtKind::BlockingAssign:
  case VStmtKind::NonBlockingAssign: {
    auto It = ScalarSlots.find(S.Lhs);
    if (It == ScalarSlots.end())
      return Error("fastsim: assignment to unknown '" + S.Lhs + "'");
    F.Slot = It->second;
    Result<FExp> R = compileExp(*S.Rhs);
    if (!R)
      return R.error();
    F.Rhs = R.take();
    return F;
  }
  case VStmtKind::MemWrite: {
    auto It = MemSlots.find(S.Lhs);
    if (It == MemSlots.end())
      return Error("fastsim: write to unknown memory '" + S.Lhs + "'");
    F.Slot = It->second;
    Result<FExp> Idx = compileExp(*S.Index);
    if (!Idx)
      return Idx.error();
    F.Index = Idx.take();
    Result<FExp> R = compileExp(*S.Rhs);
    if (!R)
      return R.error();
    F.Rhs = R.take();
    return F;
  }
  }
  return Error("fastsim: unhandled statement");
}

uint64_t FastSim::Impl::eval(const FExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
  case VExpKind::ConstVec:
    return E.Bits;
  case VExpKind::Var:
    return Values[E.Slot];
  case VExpKind::MemRead: {
    uint64_t Idx = eval(E.Args[0]);
    const auto &M = Mems[E.Slot];
    return Idx < M.size() ? M[Idx] : 0;
  }
  case VExpKind::Binary: {
    uint64_t A = eval(E.Args[0]);
    uint64_t B = eval(E.Args[1]);
    unsigned W = E.ArgWidth;
    switch (E.BOp) {
    case BinaryOp::Add:
      return maskTo(W, A + B);
    case BinaryOp::Sub:
      return maskTo(W, A - B);
    case BinaryOp::Mul:
      return maskTo(W, A * B);
    case BinaryOp::And:
      return A & B;
    case BinaryOp::Or:
      return A | B;
    case BinaryOp::Xor:
      return A ^ B;
    case BinaryOp::Eq:
      return A == B;
    case BinaryOp::LtU:
      return A < B;
    case BinaryOp::LtS:
      return toSigned(W, A) < toSigned(W, B);
    case BinaryOp::Shl:
      return B >= W ? 0 : maskTo(W, A << B);
    case BinaryOp::ShrL:
      return B >= W ? 0 : (A >> B);
    case BinaryOp::ShrA: {
      int64_t S = toSigned(W, A);
      if (B >= W)
        return maskTo(W, S < 0 ? ~uint64_t(0) : 0);
      return maskTo(W, static_cast<uint64_t>(S >> B));
    }
    }
    return 0;
  }
  case VExpKind::Unary: {
    uint64_t A = eval(E.Args[0]);
    if (E.UOp == UnaryOp::Not)
      return E.Width == 0 ? (A ? 0 : 1) : maskTo(E.Width, ~A);
    return A == 0;
  }
  case VExpKind::Slice:
    return maskTo(E.Width, eval(E.Args[0]) >> E.Lo);
  case VExpKind::Concat:
    return (eval(E.Args[0]) << E.ArgWidth) | eval(E.Args[1]);
  case VExpKind::Cond:
    return eval(E.Args[0]) ? eval(E.Args[1]) : eval(E.Args[2]);
  case VExpKind::ZeroExt:
    return eval(E.Args[0]);
  case VExpKind::SignExt:
    return maskTo(E.Width,
                  static_cast<uint64_t>(toSigned(E.ArgWidth,
                                                 eval(E.Args[0]))));
  case VExpKind::BoolToVec:
    return eval(E.Args[0]) & 1;
  case VExpKind::VecToBool:
    return eval(E.Args[0]) != 0;
  }
  return 0;
}

void FastSim::Impl::exec(const FStmt &S) {
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const FStmt &Sub : S.Stmts)
      exec(Sub);
    return;
  case VStmtKind::If:
    if (eval(S.Cond))
      exec(S.Stmts[0]);
    else if (S.HasElse)
      exec(S.Stmts[1]);
    return;
  case VStmtKind::BlockingAssign: {
    uint64_t V = eval(S.Rhs);
    if (!DirectBlocking) {
      UndoLog.emplace_back(S.Slot, Values[S.Slot]);
      CommitLog.emplace_back(S.Slot, V);
    }
    Values[S.Slot] = V;
    return;
  }
  case VStmtKind::NonBlockingAssign:
    Queue.push_back({S.Slot, false, 0, eval(S.Rhs)});
    return;
  case VStmtKind::MemWrite:
    Queue.push_back({S.Slot, true, eval(S.Index), eval(S.Rhs)});
    return;
  }
}

ModuleSim::~ModuleSim() = default;

FastSim::FastSim() : I(std::make_unique<Impl>()) {}
FastSim::~FastSim() = default;

Result<std::unique_ptr<FastSim>> FastSim::compile(const VModule &M) {
  if (Result<void> T = typeCheck(M); !T)
    return T.error();

  std::unique_ptr<FastSim> Sim(new FastSim());
  Impl &I = *Sim->I;
  I.Module = &M;

  auto Declare = [&I](const std::string &Name, const VType &T) {
    if (T.K == VType::Kind::Mem) {
      int Id = static_cast<int>(I.Mems.size());
      I.Mems.emplace_back(T.Depth, 0);
      I.MemWidths.push_back(T.Width);
      I.MemSlots[Name] = Id;
      return;
    }
    int Slot = static_cast<int>(I.Values.size());
    I.Values.push_back(0);
    I.SlotWidths.push_back(T.K == VType::Kind::Bool ? 0 : T.Width);
    I.ScalarSlots[Name] = Slot;
  };
  for (const VPort &P : M.Ports) {
    Declare(P.Name, P.Type);
    if (P.D == VPort::Dir::Input)
      I.InputSlots.emplace_back(P.Name, I.ScalarSlots[P.Name]);
  }
  for (const VDecl &D : M.Decls)
    Declare(D.Name, D.Type);

  for (const VProcess &P : M.Processes) {
    Result<FStmt> Body = I.compileStmt(*P.Body);
    if (!Body)
      return Body.error();
    I.Processes.push_back({Body.take()});
  }
  I.DirectBlocking = I.Processes.size() <= 1;
  return Sim;
}

Result<void> FastSim::stepDense(const uint64_t *Inputs, size_t Count) {
  Impl &Im = *I;
  if (Count != Im.InputSlots.size())
    return Error("fastsim: dense input frame has " + std::to_string(Count) +
                 " values, module has " +
                 std::to_string(Im.InputSlots.size()) + " input ports");
  for (size_t K = 0; K != Count; ++K) {
    int Slot = Im.InputSlots[K].second;
    unsigned W = Im.SlotWidths[Slot];
    Im.Values[Slot] = maskTo(W == 0 ? 1 : W, Inputs[K]);
  }
  Im.Queue.clear();
  Im.CommitLog.clear();
  for (const auto &Proc : Im.Processes) {
    Im.UndoLog.clear();
    for (const FStmt &S : Proc)
      Im.exec(S);
    // Later processes must see the cycle-start state: undo the blocking
    // writes (they are re-applied from the commit log afterwards).
    for (auto It = Im.UndoLog.rbegin(); It != Im.UndoLog.rend(); ++It)
      Im.Values[It->first] = It->second;
  }
  // Commit: blocking results first, then the non-blocking queue.
  for (const auto &[Slot, V] : Im.CommitLog)
    Im.Values[Slot] = V;
  for (const NbEntry &W : Im.Queue) {
    if (!W.IsMem) {
      Im.Values[W.Slot] = W.Value;
      continue;
    }
    auto &Mem = Im.Mems[W.Slot];
    if (W.Index >= Mem.size())
      return Error("fastsim: memory write out of range");
    Mem[W.Index] = W.Value;
  }
  if (Im.CycleObs)
    Im.CycleObs->onCycle(Im.Cycle);
  ++Im.Cycle;
  return {};
}

void FastSim::setCycleObserver(obs::Observer *O) { I->CycleObs = O; }

size_t FastSim::numInputs() const { return I->InputSlots.size(); }

const std::string &FastSim::inputName(size_t Ordinal) const {
  assert(Ordinal < I->InputSlots.size() && "input ordinal out of range");
  return I->InputSlots[Ordinal].first;
}

int FastSim::slotOf(const std::string &Name) const {
  auto It = I->ScalarSlots.find(Name);
  return It == I->ScalarSlots.end() ? -1 : It->second;
}

int FastSim::memSlotOf(const std::string &Name) const {
  auto It = I->MemSlots.find(Name);
  return It == I->MemSlots.end() ? -1 : It->second;
}

uint64_t FastSim::valueOf(int Slot) const {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < I->Values.size());
  return I->Values[Slot];
}

void FastSim::setValue(int Slot, uint64_t Bits) {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < I->Values.size());
  unsigned W = I->SlotWidths[Slot];
  I->Values[Slot] = maskTo(W == 0 ? 1 : W, Bits);
}

const std::vector<uint64_t> &FastSim::memOf(int MemSlot) const {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < I->Mems.size());
  return I->Mems[MemSlot];
}

std::vector<uint64_t> &FastSim::memOf(int MemSlot) {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < I->Mems.size());
  return I->Mems[MemSlot];
}

uint64_t FastSim::valueOf(const std::string &Name) const {
  auto It = I->ScalarSlots.find(Name);
  assert(It != I->ScalarSlots.end() && "unknown variable");
  return I->Values[It->second];
}

void FastSim::setValue(const std::string &Name, uint64_t Bits) {
  auto It = I->ScalarSlots.find(Name);
  assert(It != I->ScalarSlots.end() && "unknown variable");
  unsigned W = I->SlotWidths[It->second];
  I->Values[It->second] = maskTo(W == 0 ? 1 : W, Bits);
}

const std::vector<uint64_t> &FastSim::memOf(const std::string &Name) const {
  auto It = I->MemSlots.find(Name);
  assert(It != I->MemSlots.end() && "unknown memory");
  return I->Mems[It->second];
}

std::vector<uint64_t> &FastSim::memOf(const std::string &Name) {
  auto It = I->MemSlots.find(Name);
  assert(It != I->MemSlots.end() && "unknown memory");
  return I->Mems[It->second];
}

SimState FastSim::exportState(const VModule &M) const {
  SimState S = SimState::init(M);
  for (auto &[Name, Value] : S.Vars) {
    if (Value.K == VValue::Kind::Mem) {
      Value.Elems = memOf(Name);
      continue;
    }
    auto It = I->ScalarSlots.find(Name);
    if (It == I->ScalarSlots.end())
      continue;
    if (Value.K == VValue::Kind::Bool)
      Value.B = I->Values[It->second] != 0;
    else
      Value.Bits = maskTo(Value.Width, I->Values[It->second]);
  }
  return S;
}
