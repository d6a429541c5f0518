//===- tests/hdl/HdlTest.cpp - Verilog subset semantics and printer ------------===//

#include "hdl/FastSim.h"
#include "hdl/Printer.h"
#include "hdl/Semantics.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::hdl;

namespace {

/// The paper's AB example (§3), transcribed from its generated Verilog:
///   always_ff @(posedge clk)  if (pulse) count <= count + 8'd1;  // A
///   always_ff @(posedge clk)  if (8'd10 < count) done = 1;       // B
VModule makeAB() {
  VModule M;
  M.Name = "ABv";
  M.Ports.push_back({VPort::Dir::Input, "pulse", VType::boolean()});
  M.Decls.push_back({"count", VType::vec(8)});
  M.Decls.push_back({"done", VType::boolean()});

  VProcess A;
  A.Comment = "A";
  A.Body = vIf(vVar("pulse"),
               vNonBlocking("count", vBinary(BinaryOp::Add, vVar("count"),
                                             vConstVec(8, 1))),
               nullptr);
  VProcess B;
  B.Comment = "B";
  B.Body = vIf(vBinary(BinaryOp::LtU, vConstVec(8, 10), vVar("count")),
               vBlocking("done", vConstBool(true)), nullptr);
  M.Processes.push_back(std::move(A));
  M.Processes.push_back(std::move(B));
  return M;
}

Result<void> pulseCycle(const VModule &M, SimState &S, bool Pulse) {
  std::map<std::string, VValue> In;
  In["pulse"] = VValue::boolean(Pulse);
  return stepCycle(M, S, In);
}

} // namespace

TEST(AB, TypeChecks) {
  VModule M = makeAB();
  Result<void> T = typeCheck(M);
  EXPECT_TRUE(T) << T.error().str();
}

TEST(AB, CountsPulses) {
  VModule M = makeAB();
  SimState S = SimState::init(M);
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(pulseCycle(M, S, true));
  EXPECT_EQ(S.Vars.at("count").Bits, 5u);
  ASSERT_TRUE(pulseCycle(M, S, false));
  EXPECT_EQ(S.Vars.at("count").Bits, 5u);
  EXPECT_FALSE(S.Vars.at("done").B);
}

TEST(AB, PulseSpecImpliesEventuallyDone) {
  // The paper's theorem: pulse_spec env ==> exists n. done.  Drive pulse
  // high on a sparse but infinite schedule and check done becomes (and
  // stays) true — the FG operator's "eventually always".
  VModule M = makeAB();
  SimState S = SimState::init(M);
  Rng R(3);
  bool DoneSeen = false;
  for (int Cycle = 0; Cycle != 200; ++Cycle) {
    bool Pulse = R.chance(1, 3);
    ASSERT_TRUE(pulseCycle(M, S, Pulse));
    if (DoneSeen)
      EXPECT_TRUE(S.Vars.at("done").B); // remains true thereafter
    DoneSeen |= S.Vars.at("done").B;
  }
  EXPECT_TRUE(DoneSeen);
}

TEST(AB, WithoutPulsesNeverDone) {
  VModule M = makeAB();
  SimState S = SimState::init(M);
  for (int I = 0; I != 100; ++I)
    ASSERT_TRUE(pulseCycle(M, S, false));
  EXPECT_FALSE(S.Vars.at("done").B);
}

TEST(Semantics, NonBlockingReadsCycleStartValues) {
  // Two NB assignments that swap two variables: the classic test that
  // both read pre-cycle values.
  VModule M;
  M.Decls.push_back({"a", VType::vec(8)});
  M.Decls.push_back({"b", VType::vec(8)});
  std::vector<VStmtPtr> Body;
  Body.push_back(vNonBlocking("a", vVar("b")));
  Body.push_back(vNonBlocking("b", vVar("a")));
  VProcess P;
  P.Body = vBlock(std::move(Body));
  M.Processes.push_back(std::move(P));
  ASSERT_TRUE(typeCheck(M));

  SimState S = SimState::init(M);
  S.Vars["a"] = VValue::vec(8, 1);
  S.Vars["b"] = VValue::vec(8, 2);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("a").Bits, 2u);
  EXPECT_EQ(S.Vars.at("b").Bits, 1u);
}

TEST(Semantics, BlockingVisibleToLaterStatements) {
  VModule M;
  M.Decls.push_back({"t", VType::vec(8)});
  M.Decls.push_back({"r", VType::vec(8)});
  std::vector<VStmtPtr> Body;
  Body.push_back(vBlocking("t", vConstVec(8, 7)));
  Body.push_back(
      vNonBlocking("r", vBinary(BinaryOp::Add, vVar("t"), vVar("t"))));
  VProcess P;
  P.Body = vBlock(std::move(Body));
  M.Processes.push_back(std::move(P));
  ASSERT_TRUE(typeCheck(M));
  SimState S = SimState::init(M);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("r").Bits, 14u);
}

TEST(Semantics, OtherProcessesSeeCycleStartState) {
  // P1 writes t (blocking); P2 reads t in the same cycle and must see
  // the old value (the processes are non-interfering by write sets).
  VModule M;
  M.Decls.push_back({"t", VType::vec(8)});
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P1;
  P1.Body = vBlocking("t", vConstVec(8, 9));
  VProcess P2;
  P2.Body = vNonBlocking("r", vVar("t"));
  M.Processes.push_back(std::move(P1));
  M.Processes.push_back(std::move(P2));
  ASSERT_TRUE(typeCheck(M));
  SimState S = SimState::init(M);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("r").Bits, 0u); // cycle-start value of t
  EXPECT_EQ(S.Vars.at("t").Bits, 9u);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("r").Bits, 9u);
}

TEST(Semantics, MemoriesReadOldAndWriteAtCycleEnd) {
  VModule M;
  M.Decls.push_back({"m", VType::mem(32, 8)});
  M.Decls.push_back({"r", VType::vec(32)});
  std::vector<VStmtPtr> Body;
  Body.push_back(vNonBlocking("r", vMemRead("m", vConstVec(3, 1))));
  Body.push_back(vMemWrite("m", vConstVec(3, 1), vConstVec(32, 42)));
  VProcess P;
  P.Body = vBlock(std::move(Body));
  M.Processes.push_back(std::move(P));
  ASSERT_TRUE(typeCheck(M));
  SimState S = SimState::init(M);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("r").Bits, 0u);
  EXPECT_EQ(S.Vars.at("m").Elems[1], 42u);
  ASSERT_TRUE(stepCycle(M, S, {}));
  EXPECT_EQ(S.Vars.at("r").Bits, 42u);
}

TEST(Semantics, ExpressionOperators) {
  SimState S;
  S.Vars["x"] = VValue::vec(8, 0xf0);
  auto Eval = [&S](VExpPtr E) {
    Result<VValue> R = evalExp(*E, S);
    EXPECT_TRUE(R);
    return R.take();
  };
  EXPECT_EQ(Eval(vBinary(BinaryOp::Sub, vVar("x"), vConstVec(8, 1))).Bits,
            0xefu);
  EXPECT_EQ(Eval(vBinary(BinaryOp::Mul, vConstVec(8, 16),
                         vConstVec(8, 16)))
                .Bits,
            0u); // wraps at 8 bits
  EXPECT_TRUE(Eval(vBinary(BinaryOp::LtS, vVar("x"), vConstVec(8, 0))).B);
  EXPECT_FALSE(Eval(vBinary(BinaryOp::LtU, vVar("x"), vConstVec(8, 0))).B);
  EXPECT_EQ(Eval(vSlice(vVar("x"), 7, 4)).Bits, 0xfu);
  EXPECT_EQ(Eval(vConcat(vVar("x"), vConstVec(4, 3))).Bits, 0xf03u);
  EXPECT_EQ(Eval(vZeroExt(16, vVar("x"))).Bits, 0xf0u);
  EXPECT_EQ(Eval(vSignExt(16, vVar("x"))).Bits, 0xfff0u);
  EXPECT_EQ(Eval(vBinary(BinaryOp::ShrA, vVar("x"), vConstVec(8, 4))).Bits,
            0xffu);
  EXPECT_EQ(Eval(vCond(vConstBool(false), vConstVec(8, 1),
                       vConstVec(8, 2)))
                .Bits,
            2u);
  EXPECT_EQ(Eval(vUnary(UnaryOp::Not, vVar("x"))).Bits, 0x0fu);
}

TEST(TypeCheck, RejectsBadModules) {
  // Width mismatch.
  {
    VModule M;
    M.Decls.push_back({"a", VType::vec(8)});
    VProcess P;
    P.Body = vNonBlocking("a", vConstVec(16, 0));
    M.Processes.push_back(std::move(P));
    EXPECT_FALSE(typeCheck(M));
  }
  // Undeclared variable.
  {
    VModule M;
    VProcess P;
    P.Body = vNonBlocking("ghost", vConstVec(8, 0));
    M.Processes.push_back(std::move(P));
    EXPECT_FALSE(typeCheck(M));
  }
  // Two processes writing one variable (interference).
  {
    VModule M;
    M.Decls.push_back({"a", VType::vec(8)});
    VProcess P1, P2;
    P1.Body = vNonBlocking("a", vConstVec(8, 1));
    P2.Body = vNonBlocking("a", vConstVec(8, 2));
    M.Processes.push_back(std::move(P1));
    M.Processes.push_back(std::move(P2));
    EXPECT_FALSE(typeCheck(M));
  }
  // Assignment to an input port.
  {
    VModule M;
    M.Ports.push_back({VPort::Dir::Input, "in", VType::vec(8)});
    VProcess P;
    P.Body = vNonBlocking("in", vConstVec(8, 1));
    M.Processes.push_back(std::move(P));
    EXPECT_FALSE(typeCheck(M));
  }
  // Slice of a non-variable (outside the synthesisable subset).
  {
    VModule M;
    M.Decls.push_back({"a", VType::vec(8)});
    VProcess P;
    P.Body = vNonBlocking(
        "a", vZeroExt(8, vSlice(vBinary(BinaryOp::Add, vVar("a"),
                                        vVar("a")),
                                3, 0)));
    M.Processes.push_back(std::move(P));
    EXPECT_FALSE(typeCheck(M));
  }
}

TEST(Printer, ABGoldenShape) {
  VModule M = makeAB();
  std::string Text = printModule(M);
  EXPECT_NE(Text.find("module ABv("), std::string::npos);
  EXPECT_NE(Text.find("always_ff @(posedge clk)"), std::string::npos);
  EXPECT_NE(Text.find("count <= (count + 8'd1);"), std::string::npos);
  EXPECT_NE(Text.find("done = 1'b1;"), std::string::npos);
  EXPECT_NE(Text.find("endmodule"), std::string::npos);
}

TEST(Printer, ExpressionForms) {
  EXPECT_EQ(printExp(*vBinary(BinaryOp::LtS, vVar("a"), vVar("b"))),
            "($signed(a) < $signed(b))");
  EXPECT_EQ(printExp(*vSlice(vVar("x"), 7, 4)), "x[7:4]");
  EXPECT_EQ(printExp(*vMemRead("m", vConstVec(3, 2))), "m[3'd2]");
  EXPECT_EQ(printExp(*vCond(vConstBool(true), vConstVec(1, 0),
                            vConstVec(1, 1))),
            "(1'b1 ? 1'd0 : 1'd1)");
}

TEST(FastSimTest, AgreesWithReferenceOnAB) {
  VModule M = makeAB();
  Result<std::unique_ptr<FastSim>> FastOr = FastSim::compile(M);
  ASSERT_TRUE(FastOr) << FastOr.error().str();
  FastSim &Fast = **FastOr;
  SimState Ref = SimState::init(M);
  Rng R(11);
  for (int Cycle = 0; Cycle != 500; ++Cycle) {
    bool Pulse = R.chance(1, 2);
    ASSERT_TRUE(pulseCycle(M, Ref, Pulse));
    uint64_t Frame[1] = {Pulse ? 1u : 0u};
    ASSERT_TRUE(Fast.stepDense(Frame, 1));
    SimState Exported = Fast.exportState(M);
    ASSERT_TRUE(Exported == Ref) << "cycle " << Cycle;
  }
}

TEST(FastSimTest, MultiProcessBlockingIsolation) {
  // Same module as OtherProcessesSeeCycleStartState: the fast simulator
  // must preserve the per-process read view.
  VModule M;
  M.Decls.push_back({"t", VType::vec(8)});
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P1;
  P1.Body = vBlocking("t", vConstVec(8, 9));
  VProcess P2;
  P2.Body = vNonBlocking("r", vVar("t"));
  M.Processes.push_back(std::move(P1));
  M.Processes.push_back(std::move(P2));

  Result<std::unique_ptr<FastSim>> FastOr = FastSim::compile(M);
  ASSERT_TRUE(FastOr);
  ASSERT_TRUE((*FastOr)->stepDense(nullptr, 0));
  EXPECT_EQ((*FastOr)->valueOf("r"), 0u);
  EXPECT_EQ((*FastOr)->valueOf("t"), 9u);
}

TEST(FastSimTest, DenseSteppingLockStepsWithReference) {
  // Lock-step on the AB module: the dense frame against hdl::stepCycle,
  // with the input ordinal resolved by name.  AB has two processes, so
  // this covers the undo/commit-log path (single-process modules take
  // the direct-blocking shortcut).
  VModule M = makeAB();
  Result<std::unique_ptr<FastSim>> FastOr = FastSim::compile(M);
  ASSERT_TRUE(FastOr);
  FastSim &Fast = **FastOr;

  ASSERT_EQ(Fast.numInputs(), 1u);
  ASSERT_EQ(Fast.inputName(0), "pulse");

  SimState Ref = SimState::init(M);
  Rng R(23);
  for (int Cycle = 0; Cycle != 500; ++Cycle) {
    bool Pulse = R.chance(1, 2);
    ASSERT_TRUE(pulseCycle(M, Ref, Pulse));
    uint64_t Frame[1] = {Pulse ? 1u : 0u};
    ASSERT_TRUE(Fast.stepDense(Frame, 1));
    ASSERT_TRUE(Fast.exportState(M) == Ref) << "cycle " << Cycle;
  }
}

TEST(FastSimTest, DenseStepRejectsWrongFrameSize) {
  VModule M = makeAB();
  Result<std::unique_ptr<FastSim>> FastOr = FastSim::compile(M);
  ASSERT_TRUE(FastOr);
  uint64_t Frame[2] = {1, 1};
  EXPECT_FALSE((*FastOr)->stepDense(Frame, 2));
  EXPECT_FALSE((*FastOr)->stepDense(Frame, 0));
}

TEST(FastSimTest, SlotAccessorsMatchNamedOnes) {
  VModule M = makeAB();
  Result<std::unique_ptr<FastSim>> FastOr = FastSim::compile(M);
  ASSERT_TRUE(FastOr);
  FastSim &Fast = **FastOr;

  int Count = Fast.slotOf("count");
  int Done = Fast.slotOf("done");
  ASSERT_GE(Count, 0);
  ASSERT_GE(Done, 0);
  EXPECT_EQ(Fast.slotOf("no_such_var"), -1);
  EXPECT_EQ(Fast.memSlotOf("count"), -1); // scalar, not a memory

  uint64_t Frame[1] = {1};
  for (int Cycle = 0; Cycle != 12; ++Cycle)
    ASSERT_TRUE(Fast.stepDense(Frame, 1));
  EXPECT_EQ(Fast.valueOf(Count), Fast.valueOf("count"));
  EXPECT_EQ(Fast.valueOf(Done), Fast.valueOf("done"));
  EXPECT_EQ(Fast.valueOf(Count), 12u);
  EXPECT_EQ(Fast.valueOf(Done), 1u);

  Fast.setValue(Count, 3);
  EXPECT_EQ(Fast.valueOf("count"), 3u);
}
