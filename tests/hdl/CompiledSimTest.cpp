//===- tests/hdl/CompiledSimTest.cpp - Compiled simulator backend ------------===//
//
// The compiled backend (hdl/compile) is generated code, so every test
// here is a trust argument: the AST interpreter (hdl::stepCycle) is the
// reference, and the compiled cycle function must match it bit for bit —
// on the non-blocking merge order, on X-initialization, on exhaustive
// input sweeps of leaf processes, and lane-for-lane in batched mode.
// Hosts without a usable C++ compiler skip the suite (visibly).
//
//===----------------------------------------------------------------------===//

#include "cpu/Sim.h"
#include "hdl/FastSim.h"
#include "hdl/Semantics.h"
#include "hdl/compile/Build.h"
#include "hdl/compile/Codegen.h"
#include "hdl/compile/CompiledSim.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::hdl;

namespace {

class CompiledSimTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!compiledSimAvailable())
      GTEST_SKIP() << "no usable host C++ compiler; compiled backend "
                      "unavailable on this host";
  }
};

/// The paper's AB example (§3), as in HdlTest.cpp: two processes, one
/// non-blocking counter, one blocking done flag.
VModule makeAB() {
  VModule M;
  M.Name = "ABv";
  M.Ports.push_back({VPort::Dir::Input, "pulse", VType::boolean()});
  M.Decls.push_back({"count", VType::vec(8)});
  M.Decls.push_back({"done", VType::boolean()});
  VProcess A;
  A.Body = vIf(vVar("pulse"),
               vNonBlocking("count", vBinary(BinaryOp::Add, vVar("count"),
                                             vConstVec(8, 1))),
               nullptr);
  VProcess B;
  B.Body = vIf(vBinary(BinaryOp::LtU, vConstVec(8, 10), vVar("count")),
               vBlocking("done", vConstBool(true)), nullptr);
  M.Processes.push_back(std::move(A));
  M.Processes.push_back(std::move(B));
  return M;
}

/// Steps the reference interpreter and one compiled instance with the
/// same inputs (named per cycle; an absent port is 0) and requires
/// identical exported state every cycle.  The compiled instance takes
/// the dense frame in its input-ordinal order.
void lockstep(const VModule &M, CompiledSim &Sim,
              const std::vector<std::map<std::string, uint64_t>> &Frames) {
  SimState Ref = SimState::init(M);
  std::vector<uint64_t> Dense(Sim.numInputs());
  for (size_t Cycle = 0; Cycle != Frames.size(); ++Cycle) {
    auto BitsOf = [&](const std::string &Name) -> uint64_t {
      auto It = Frames[Cycle].find(Name);
      return It == Frames[Cycle].end() ? 0 : It->second;
    };
    std::map<std::string, VValue> In;
    for (const VPort &P : M.Ports) {
      if (P.D != VPort::Dir::Input)
        continue;
      uint64_t Bits = BitsOf(P.Name);
      In[P.Name] = P.Type.K == VType::Kind::Bool
                       ? VValue::boolean(Bits != 0)
                       : VValue::vec(P.Type.Width, Bits);
    }
    for (size_t K = 0; K != Dense.size(); ++K)
      Dense[K] = BitsOf(Sim.inputName(K));
    ASSERT_TRUE(stepCycle(M, Ref, In));
    ASSERT_TRUE(Sim.stepDense(Dense.data(), Dense.size()));
    ASSERT_TRUE(Sim.exportState(M) == Ref) << "cycle " << Cycle;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden codegen properties (no compiler needed; pure source checks)
//===----------------------------------------------------------------------===//

TEST(CompiledCodegen, EmitsAbiSymbolsAndStableHash) {
  VModule M = makeAB();
  Result<GeneratedModule> G1 = generateCpp(M);
  ASSERT_TRUE(G1) << G1.error().str();
  // The four ABI entry points are present in the generated source.
  EXPECT_NE(G1->Source.find("silver_hdl_abi_version"), std::string::npos);
  EXPECT_NE(G1->Source.find("silver_hdl_design_hash"), std::string::npos);
  EXPECT_NE(G1->Source.find("silver_hdl_cycle"), std::string::npos);
  EXPECT_NE(G1->Source.find("silver_hdl_cycle_batch"), std::string::npos);
  // The design hash is a pure function of the module.
  Result<GeneratedModule> G2 = generateCpp(M);
  ASSERT_TRUE(G2);
  EXPECT_EQ(G1->DesignHash, G2->DesignHash);
  EXPECT_EQ(G1->Source, G2->Source);
  // ... and the placeholder token has been substituted out.
  EXPECT_EQ(G1->Source.find("SILVER_DESIGN_HASH"), std::string::npos);

  // A different module hashes differently.
  VModule N = makeAB();
  N.Processes.pop_back();
  Result<GeneratedModule> G3 = generateCpp(N);
  ASSERT_TRUE(G3);
  EXPECT_NE(G1->DesignHash, G3->DesignHash);
}

TEST(CompiledCodegen, NbaCommitFollowsEveryProcessBody) {
  // The non-blocking merge is compiled in: every latch store (N<k> = ...)
  // textually precedes the commit block (if (Ns<k>) ...), which mirrors
  // the semantics' merge of nb-queues after all processes ran.
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  size_t Latch = G->Source.find("N0 =");
  size_t Commit = G->Source.find("if (Ns0)");
  ASSERT_NE(Latch, std::string::npos);
  ASSERT_NE(Commit, std::string::npos);
  EXPECT_LT(Latch, Commit);
}

TEST(CompiledCodegen, LayoutMatchesInterpreterPlan) {
  // Slot planning is shared with FastSim (ports first, then decls), so
  // slot handles are interchangeable across backends.
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  Result<std::unique_ptr<FastSim>> F = FastSim::compile(M);
  ASSERT_TRUE(F);
  for (const auto &KV : G->Layout.ScalarSlots)
    EXPECT_EQ((*F)->slotOf(KV.first), KV.second) << KV.first;
  ASSERT_EQ(G->Layout.InputSlots.size(), (*F)->numInputs());
}

//===----------------------------------------------------------------------===//
// Semantics agreement (needs the host compiler)
//===----------------------------------------------------------------------===//

TEST_F(CompiledSimTest, XInitMatchesReferenceInit) {
  // The compiled state starts all-zero; SimState::init is the X-free
  // zero initialization the semantics uses.  They must be the same
  // state, before any cycle runs.
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  EXPECT_TRUE((*SimOr)->exportState(M) == SimState::init(M));
}

TEST_F(CompiledSimTest, AgreesWithReferenceOnAB) {
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  Rng R(11);
  std::vector<std::map<std::string, uint64_t>> Frames;
  for (int I = 0; I != 300; ++I)
    Frames.push_back({{"pulse", R.chance(1, 2) ? 1u : 0u}});
  lockstep(M, **SimOr, Frames);
}

TEST_F(CompiledSimTest, NbaMergeOrderIsProgramOrder) {
  // Two non-blocking writes to the same variable in one process: the
  // merge applies them in program order, so the last write wins — in
  // the interpreter and in the compiled commit block alike.
  VModule M;
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P;
  P.Body = vBlock([] {
    std::vector<VStmtPtr> S;
    S.push_back(vNonBlocking("r", vConstVec(8, 1)));
    S.push_back(vNonBlocking("r", vConstVec(8, 2)));
    return S;
  }());
  M.Processes.push_back(std::move(P));

  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  lockstep(M, **SimOr, {{}, {}});
  EXPECT_EQ((*SimOr)->valueOf((*SimOr)->slotOf("r")), 2u);
}

TEST_F(CompiledSimTest, CrossProcessBlockingReadsCycleStartState) {
  // P1 conditionally blocking-writes t; P2 non-blocking-reads t.  Later
  // processes must see the cycle-start value of t, not P1's write —
  // the per-process shadow discipline of the compiled code.
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  M.Decls.push_back({"t", VType::vec(8)});
  M.Decls.push_back({"r", VType::vec(8)});
  VProcess P1;
  P1.Body = vIf(vVar("sel"), vBlocking("t", vConstVec(8, 9)), nullptr);
  VProcess P2;
  P2.Body = vNonBlocking("r", vVar("t"));
  M.Processes.push_back(std::move(P1));
  M.Processes.push_back(std::move(P2));

  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  lockstep(M, **SimOr,
           {{{"sel", 1}}, {{"sel", 0}}, {{"sel", 1}}, {{"sel", 0}}});
  // After cycle 1 (sel=0): t kept 9 from cycle 0; r latched the
  // cycle-start t of each cycle, never the in-cycle write.
  CompiledSim &Sim = **SimOr;
  EXPECT_EQ(Sim.valueOf(Sim.slotOf("t")), 9u);
  EXPECT_EQ(Sim.valueOf(Sim.slotOf("r")), 9u);
}

TEST_F(CompiledSimTest, ExhaustiveLeafSweepMatchesReference) {
  // One leaf process exercising every expression constructor, swept
  // over the full 4-bit x 4-bit x bool input space (512 combinations),
  // compared against the interpreter after every cycle.
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "a", VType::vec(4)});
  M.Ports.push_back({VPort::Dir::Input, "b", VType::vec(4)});
  M.Ports.push_back({VPort::Dir::Input, "sel", VType::boolean()});
  for (const char *Name : {"sum", "dif", "prod", "shl", "shr", "sha",
                           "bnot", "cnd", "sl"})
    M.Decls.push_back({Name, VType::vec(4)});
  M.Decls.push_back({"cat", VType::vec(8)});
  M.Decls.push_back({"sx", VType::vec(8)});
  M.Decls.push_back({"lts", VType::boolean()});
  M.Decls.push_back({"eq", VType::boolean()});
  VProcess P;
  P.Body = vBlock([] {
    std::vector<VStmtPtr> S;
    auto A = [] { return vVar("a"); };
    auto B = [] { return vVar("b"); };
    S.push_back(vNonBlocking("sum", vBinary(BinaryOp::Add, A(), B())));
    S.push_back(vNonBlocking("dif", vBinary(BinaryOp::Sub, A(), B())));
    S.push_back(vNonBlocking("prod", vBinary(BinaryOp::Mul, A(), B())));
    S.push_back(vNonBlocking("shl", vBinary(BinaryOp::Shl, A(), B())));
    S.push_back(vNonBlocking("shr", vBinary(BinaryOp::ShrL, A(), B())));
    S.push_back(vNonBlocking("sha", vBinary(BinaryOp::ShrA, A(), B())));
    S.push_back(vNonBlocking("bnot", vUnary(UnaryOp::Not, A())));
    S.push_back(vNonBlocking("cnd", vCond(vVar("sel"), A(), B())));
    S.push_back(vNonBlocking("sl", vZeroExt(4, vSlice(A(), 3, 1))));
    S.push_back(vNonBlocking("cat", vConcat(A(), B())));
    S.push_back(vNonBlocking("sx", vSignExt(8, A())));
    S.push_back(vNonBlocking("lts", vBinary(BinaryOp::LtS, A(), B())));
    S.push_back(vNonBlocking("eq", vBinary(BinaryOp::Eq, A(), B())));
    return S;
  }());
  M.Processes.push_back(std::move(P));
  ASSERT_TRUE(typeCheck(M));

  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  std::vector<std::map<std::string, uint64_t>> Frames;
  for (uint64_t A = 0; A != 16; ++A)
    for (uint64_t B = 0; B != 16; ++B)
      for (uint64_t Sel = 0; Sel != 2; ++Sel)
        Frames.push_back({{"a", A}, {"b", B}, {"sel", Sel}});
  lockstep(M, **SimOr, Frames);
}

TEST_F(CompiledSimTest, MemoryModuleMatchesReference) {
  // A memory written and read back through both assignment classes,
  // with an interleaved non-blocking scalar — the commit partition
  // (blocking, then scalar NBA, then memory writes) must be invisible.
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "wi", VType::vec(3)});
  M.Ports.push_back({VPort::Dir::Input, "wv", VType::vec(8)});
  M.Ports.push_back({VPort::Dir::Input, "ri", VType::vec(3)});
  M.Decls.push_back({"m", VType::mem(8, 8)});
  M.Decls.push_back({"out", VType::vec(8)});
  VProcess P;
  P.Body = vBlock([] {
    std::vector<VStmtPtr> S;
    S.push_back(vNonBlocking("out", vMemRead("m", vVar("ri"))));
    S.push_back(vMemWrite("m", vVar("wi"), vVar("wv")));
    return S;
  }());
  M.Processes.push_back(std::move(P));
  ASSERT_TRUE(typeCheck(M));

  Result<std::unique_ptr<CompiledSim>> SimOr = CompiledSim::compile(M);
  ASSERT_TRUE(SimOr) << SimOr.error().str();
  Rng R(7);
  std::vector<std::map<std::string, uint64_t>> Frames;
  for (int I = 0; I != 200; ++I)
    Frames.push_back({{"wi", R.next64() & 7},
                      {"wv", R.next64() & 255},
                      {"ri", R.next64() & 7}});
  lockstep(M, **SimOr, Frames);
}

TEST_F(CompiledSimTest, SlotSurfaceMatchesFastSim) {
  // The backends expose the same binding surface: same input ordinals,
  // same slot handles, same values after the same stimulus.
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> C = CompiledSim::compile(M);
  ASSERT_TRUE(C) << C.error().str();
  Result<std::unique_ptr<FastSim>> F = FastSim::compile(M);
  ASSERT_TRUE(F);
  ASSERT_EQ((*C)->numInputs(), (*F)->numInputs());
  for (size_t I = 0; I != (*C)->numInputs(); ++I)
    EXPECT_EQ((*C)->inputName(I), (*F)->inputName(I));
  EXPECT_EQ((*C)->slotOf("count"), (*F)->slotOf("count"));
  EXPECT_EQ((*C)->slotOf("no_such"), -1);
  EXPECT_EQ((*C)->memSlotOf("count"), -1);

  uint64_t Frame[1] = {1};
  for (int Cycle = 0; Cycle != 12; ++Cycle) {
    ASSERT_TRUE((*C)->stepDense(Frame, 1));
    ASSERT_TRUE((*F)->stepDense(Frame, 1));
  }
  int Count = (*C)->slotOf("count");
  int Done = (*C)->slotOf("done");
  EXPECT_EQ((*C)->valueOf(Count), (*F)->valueOf(Count));
  EXPECT_EQ((*C)->valueOf(Done), (*F)->valueOf(Done));
  EXPECT_EQ((*C)->valueOf(Count), 12u);
}

//===----------------------------------------------------------------------===//
// Batched lanes
//===----------------------------------------------------------------------===//

TEST_F(CompiledSimTest, BatchLanesMatchSequentialSingles) {
  // N lanes stepped together must equal N instances stepped one at a
  // time with the same per-lane stimulus — the SoA layout is purely a
  // throughput artifact.
  VModule M = makeAB();
  constexpr size_t Lanes = 4;
  Result<std::shared_ptr<CompiledModule>> ModOr = CompiledModule::create(M);
  ASSERT_TRUE(ModOr) << ModOr.error().str();
  CompiledBatch Batch(*ModOr, Lanes);
  std::vector<std::unique_ptr<CompiledSim>> Singles;
  for (size_t L = 0; L != Lanes; ++L)
    Singles.push_back(std::make_unique<CompiledSim>(*ModOr));

  Rng R(17);
  ASSERT_EQ(Batch.numInputs(), 1u);
  for (int Cycle = 0; Cycle != 200; ++Cycle) {
    uint64_t Frame[Lanes];
    for (size_t L = 0; L != Lanes; ++L)
      Frame[L] = R.chance(1, 2) ? 1u : 0u;
    ASSERT_TRUE(Batch.stepDense(Frame));
    for (size_t L = 0; L != Lanes; ++L)
      ASSERT_TRUE(Singles[L]->stepDense(&Frame[L], 1));
  }
  int Count = Batch.slotOf("count");
  int Done = Batch.slotOf("done");
  ASSERT_GE(Count, 0);
  for (size_t L = 0; L != Lanes; ++L) {
    EXPECT_EQ(Batch.valueOf(L, Count), Singles[L]->valueOf(Count))
        << "lane " << L;
    EXPECT_EQ(Batch.valueOf(L, Done), Singles[L]->valueOf(Done))
        << "lane " << L;
  }
}

TEST_F(CompiledSimTest, BatchLanesMatchOnSilverCore) {
  // The real design: the full Silver core module, four lanes of random
  // input stimulus, every scalar slot and the register-file memory
  // compared lane-for-lane against single instances after ~200 cycles.
  const Result<VModule> &ModAst = cpu::coreDesign().module();
  ASSERT_TRUE(ModAst) << ModAst.error().str();
  constexpr size_t Lanes = 4;
  Result<std::shared_ptr<CompiledModule>> ModOr =
      CompiledModule::create(*ModAst);
  ASSERT_TRUE(ModOr) << ModOr.error().str();
  const CompiledLayout &Layout = (*ModOr)->layout();
  CompiledBatch Batch(*ModOr, Lanes);
  std::vector<std::unique_ptr<CompiledSim>> Singles;
  for (size_t L = 0; L != Lanes; ++L)
    Singles.push_back(std::make_unique<CompiledSim>(*ModOr));

  size_t NumIn = Batch.numInputs();
  Rng R(29);
  std::vector<uint64_t> Frame(NumIn * Lanes);
  for (int Cycle = 0; Cycle != 200; ++Cycle) {
    for (uint64_t &V : Frame)
      V = R.next64();
    ASSERT_TRUE(Batch.stepDense(Frame.data()));
    std::vector<uint64_t> One(NumIn);
    for (size_t L = 0; L != Lanes; ++L) {
      for (size_t P = 0; P != NumIn; ++P)
        One[P] = Frame[P * Lanes + L];
      ASSERT_TRUE(Singles[L]->stepDense(One.data(), NumIn));
    }
  }
  for (const auto &KV : Layout.ScalarSlots)
    for (size_t L = 0; L != Lanes; ++L)
      ASSERT_EQ(Batch.valueOf(L, KV.second), Singles[L]->valueOf(KV.second))
          << KV.first << " lane " << L;
  for (const auto &KV : Layout.MemSlots)
    for (size_t L = 0; L != Lanes; ++L) {
      const std::vector<uint64_t> &Mem = Singles[L]->memOf(KV.second);
      for (size_t E = 0; E != Mem.size(); ++E)
        ASSERT_EQ(Batch.memAt(L, KV.second, E), Mem[E])
            << KV.first << "[" << E << "] lane " << L;
    }
}

//===----------------------------------------------------------------------===//
// Build driver and fallback
//===----------------------------------------------------------------------===//

TEST_F(CompiledSimTest, ArtifactIsCachedByDesignHash) {
  VModule M = makeAB();
  Result<std::unique_ptr<CompiledSim>> A = CompiledSim::compile(M);
  ASSERT_TRUE(A) << A.error().str();
  Result<std::unique_ptr<CompiledSim>> B = CompiledSim::compile(M);
  ASSERT_TRUE(B);
  EXPECT_EQ((*A)->designHash(), (*B)->designHash());
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  EXPECT_EQ((*A)->designHash(), G->DesignHash);
}

TEST(CompiledBuild, BadCompilerIsAnError) {
  VModule M = makeAB();
  Result<GeneratedModule> G = generateCpp(M);
  ASSERT_TRUE(G);
  BuildOptions O;
  O.Compiler = "/no/such/compiler-xyzzy";
  O.CacheDir = ::testing::TempDir() + "silver-hdl-badcxx";
  Result<std::shared_ptr<LoadedModule>> L = buildAndLoad(*G, O);
  EXPECT_FALSE(L);
}

TEST(CompiledFallback, VerilogCompiledDegradesToInterpreter) {
  // The verilog-compiled level always yields a working simulator: the
  // compiled one where the host can build the design, the interpreter
  // where not.  Either way the Verilog level keeps running.
  const cpu::CoreDesign &D = cpu::coreDesign();
  EXPECT_EQ(D.compiled() != nullptr, compiledSimAvailable());
  Result<std::unique_ptr<cpu::CoreSim>> S =
      D.instantiate(cpu::SimLevel::VerilogCompiled);
  ASSERT_TRUE(S) << S.error().str();
  cpu::CoreInputs In;
  cpu::CoreOutputs Out;
  EXPECT_TRUE((*S)->stepDense(In, Out));
}
