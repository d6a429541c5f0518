//===- tests/fuzz/FuzzTest.cpp - Differential fuzzer unit tests -------------===//
//
// Tests of the fuzz subsystem itself (DESIGN.md §9): generator
// determinism and safety, oracle agreement on a healthy build, shrinking
// behaviour, and determinism of whole campaigns across worker counts.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "machine/MachineSem.h"
#include "sys/Syscalls.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

using namespace silver;
using namespace silver::fuzz;

TEST(Generator, PureFunctionOfSeedAndIndex) {
  for (unsigned P = 0; P != NumProfiles; ++P) {
    CaseSpec A = generateCase(42, 7, static_cast<Profile>(P));
    CaseSpec B = generateCase(42, 7, static_cast<Profile>(P));
    ASSERT_EQ(A.Items.size(), B.Items.size());
    for (size_t I = 0; I != A.Items.size(); ++I)
      EXPECT_TRUE(A.Items[I] == B.Items[I]);
    EXPECT_EQ(A.StdinData, B.StdinData);
    // A different seed perturbs the case.
    CaseSpec C = generateCase(43, 7, static_cast<Profile>(P));
    bool Same = A.Items.size() == C.Items.size();
    for (size_t I = 0; Same && I != A.Items.size(); ++I)
      Same = A.Items[I] == C.Items[I];
    EXPECT_FALSE(Same && A.StdinData == C.StdinData)
        << "profile " << profileName(static_cast<Profile>(P));
  }
}

TEST(Generator, RespectsRegisterDiscipline) {
  // No generated instruction may write outside the fuzz register
  // budget: the ABI info registers, syscall temporaries, and the
  // assembler scratch register must survive untouched.
  auto WritableReg = [](unsigned R) {
    return (R >= DataRegLo && R <= DataRegHi) ||
           (R >= LoopRegLo && R < AddrRegLo) ||
           (R >= AddrRegLo && R < FfiValReg) || R == FfiValReg;
  };
  for (uint64_t Index = 0; Index != 60; ++Index) {
    CaseSpec C = generateCase(9, Index,
                              static_cast<Profile>(Index % NumProfiles));
    for (const ProgItem &It : C.Items) {
      if (It.K == ProgItem::Kind::Li) {
        EXPECT_TRUE(WritableReg(It.Reg)) << "li r" << unsigned(It.Reg);
      }
      if (It.K != ProgItem::Kind::Instr)
        continue;
      const isa::Instruction &I = It.Instr;
      EXPECT_NE(I.Op, isa::Opcode::Interrupt);
      EXPECT_NE(I.Op, isa::Opcode::In);
      EXPECT_NE(I.Op, isa::Opcode::Out);
      switch (I.Op) {
      case isa::Opcode::Normal:
      case isa::Opcode::Shift:
      case isa::Opcode::LoadMEM:
      case isa::Opcode::LoadMEMByte:
        EXPECT_TRUE(WritableReg(I.WReg)) << toString(I);
        break;
      default:
        break;
      }
    }
  }
}

TEST(Oracle, HealthyBuildAgreesAcrossLevels) {
  OracleOptions O; // Machine + Rtl against the Isa reference
  unsigned Compared = 0;
  for (uint64_t Index = 0; Index != 25; ++Index) {
    CaseSpec C = generateCase(1234, Index,
                              static_cast<Profile>(Index % NumProfiles));
    Result<OracleResult> R = runCase(C, O);
    ASSERT_TRUE(R) << "case " << Index << ": " << R.error().str();
    if (R->Diff.Kind == DiffKind::Inconclusive)
      continue;
    ++Compared;
    EXPECT_FALSE(R->Diff.found())
        << "case " << Index << ": " << R->Diff.fingerprint() << " — "
        << R->Diff.Detail << "\n"
        << serializeCase(C, &R->Diff);
    // Three level runs: reference plus the two compared levels.
    EXPECT_EQ(R->Runs.size(), 3u);
  }
  EXPECT_GE(Compared, 15u) << "too many inconclusive cases";
}

TEST(Oracle, VerilogLevelAgreesOnASample) {
  OracleOptions O;
  O.Levels = {stack::Level::Verilog};
  for (uint64_t Index = 0; Index != 4; ++Index) {
    CaseSpec C = generateCase(555, Index, Profile::Mixed);
    Result<OracleResult> R = runCase(C, O);
    ASSERT_TRUE(R) << R.error().str();
    if (R->Diff.Kind == DiffKind::Inconclusive)
      continue;
    EXPECT_FALSE(R->Diff.found())
        << R->Diff.fingerprint() << " — " << R->Diff.Detail;
  }
}

TEST(Oracle, CompareRunsFollowsTheEngineTableRule) {
  // Synthetic run pairs, one per row: the reference run of the engine's
  // reference, a copy of it for the engine, then one planted difference.
  LevelRun Base;
  Base.Ran = true;
  Base.Traced = true;
  Base.Behaviour.StdoutData = "ok";
  Base.Behaviour.Terminated = true;
  Base.Behaviour.Instructions = 3;
  Base.Digest.Pc = 0x108;
  for (unsigned I = 0; I != isa::NumRegs; ++I)
    Base.Digest.Regs[I] = 0x1000 + I;
  Base.Retires = {{0x100, 1}, {0x104, 2}, {0x108, 3}};

  auto HaltRetire = [](LevelRun &Ref, LevelRun &R) {
    R.Retires.push_back({Ref.Digest.Pc, 3});
    R.Digest.Regs[isa::NumRegs - 1] ^= 4;
    R.Digest.Carry = !Ref.Digest.Carry;
    R.Digest.Overflow = !Ref.Digest.Overflow;
  };
  auto Clobber = [](LevelRun &, LevelRun &R) {
    R.Digest.Regs[sys::syscallClobberedRegs().front()] ^= 1;
  };
  auto Counts = [](LevelRun &, LevelRun &R) { ++R.Behaviour.Instructions; };
  auto OneErrored = [](LevelRun &, LevelRun &R) {
    R.Errored = true;
    R.ErrorMessage = "fault";
  };
  auto BothErrored = [](LevelRun &Ref, LevelRun &R) {
    Ref.Errored = R.Errored = true;
  };
  auto OracleRejected = [](LevelRun &, LevelRun &R) {
    R.Errored = true;
    R.ErrorMessage = machine::OracleRejectedMessage;
  };
  using stack::Engine;
  struct Row {
    Engine E;
    bool HasFfi;
    std::function<void(LevelRun &, LevelRun &)> Plant;
    DiffKind Want;
    const char *Fingerprint; ///< checked when Want is a finding
  };
  const Row Rows[] = {
      {Engine::Rtl, false, HaltRetire, DiffKind::None, ""},
      {Engine::Verilog, false, HaltRetire, DiffKind::None, ""},
      {Engine::VerilogCompiled, false, HaltRetire, DiffKind::Retire,
       "retire:verilog:verilog-compiled"},
      {Engine::MachineSem, true, Clobber, DiffKind::None, ""},
      {Engine::MachineSem, false, Clobber, DiffKind::State,
       "state:isa:machine-sem"},
      {Engine::Jit, false, Clobber, DiffKind::State, "state:isa:jit"},
      {Engine::Rtl, false, Counts, DiffKind::None, ""},
      {Engine::Jit, false, Counts, DiffKind::Behaviour, "behaviour:isa:jit"},
      {Engine::VerilogCompiled, false, Counts, DiffKind::Behaviour,
       "behaviour:verilog:verilog-compiled"},
      {Engine::Rtl, false, OneErrored, DiffKind::Status, "status:isa:rtl"},
      {Engine::VerilogCompiled, false, OneErrored, DiffKind::Status,
       "status:verilog:verilog-compiled"},
      {Engine::Verilog, false, BothErrored, DiffKind::None, ""},
      {Engine::MachineSem, true, OracleRejected, DiffKind::Inconclusive, ""},
  };
  for (const Row &T : Rows) {
    LevelRun Ref = Base;
    Ref.E = stack::engineRow(T.E).Reference;
    LevelRun R = Base;
    R.E = T.E;
    R.Traced = stack::engineRow(T.E).Backend != stack::BackendKind::Jit;
    T.Plant(Ref, R);
    Divergence D = compareRuns(Ref, R, T.HasFfi);
    EXPECT_STREQ(diffKindName(D.Kind), diffKindName(T.Want))
        << stack::engineName(T.E) << ": " << D.Detail;
    if (D.found()) {
      EXPECT_EQ(D.fingerprint(), T.Fingerprint);
    }
  }
}

TEST(Oracle, RejectsSpecLevel) {
  OracleOptions O;
  O.Levels = {stack::Level::Spec};
  EXPECT_FALSE(runCase(generateCase(1, 0, Profile::Alu), O));
}

TEST(Fuzzer, DeterministicAcrossJobCounts) {
  FuzzOptions Base;
  Base.Seed = 2024;
  Base.MaxCases = 40;
  Base.Shrink = false; // campaign shape is what's under test here

  FuzzOptions One = Base;
  One.Jobs = 1;
  FuzzOptions Three = Base;
  Three.Jobs = 3;
  FuzzReport A = runFuzz(One);
  FuzzReport B = runFuzz(Three);

  EXPECT_EQ(A.CasesRun, B.CasesRun);
  EXPECT_EQ(A.Inconclusive, B.Inconclusive);
  EXPECT_EQ(A.CaseErrors, B.CaseErrors);
  ASSERT_EQ(A.Findings.size(), B.Findings.size());
  for (size_t I = 0; I != A.Findings.size(); ++I) {
    EXPECT_EQ(A.Findings[I].Case.Index, B.Findings[I].Case.Index);
    EXPECT_EQ(serializeCase(A.Findings[I].Shrunk),
              serializeCase(B.Findings[I].Shrunk));
  }
}

TEST(Fuzzer, EngineSecondsFitTheCampaign) {
  // Each engine's rate is its work over its own run time, summed over
  // the workers: positive for every engine that ran, and never more
  // than the campaign's wall time on every worker at once.
  FuzzOptions O;
  O.Seed = 31;
  O.MaxCases = 24;
  O.Jobs = 2;
  O.Shrink = false;
  O.Oracle.Levels = {stack::Level::Machine, stack::Level::Rtl,
                     stack::Level::Verilog};
  FuzzReport R = runFuzz(O);
  ASSERT_FALSE(R.Work.empty());
  for (const LevelWork &W : R.Work) {
    EXPECT_GT(W.Seconds, 0) << stack::engineName(W.E);
    EXPECT_LE(W.Seconds, R.WallSeconds * O.Jobs) << stack::engineName(W.E);
  }
}

TEST(Fuzzer, TimeBudgetStopsTheCampaign) {
  FuzzOptions O;
  O.Seed = 5;
  O.MaxCases = 1u << 20; // far more than a millisecond of work
  O.TimeBudgetSeconds = 0.001;
  O.Jobs = 2;
  FuzzReport R = runFuzz(O);
  EXPECT_LT(R.CasesRun, O.MaxCases);
}

TEST(Corpus, ParserRejectsMalformedLines) {
  EXPECT_FALSE(parseCase("frobnicate r1 r2"));
  EXPECT_FALSE(parseCase("li r10"));
  EXPECT_FALSE(parseCase("branch q add r1 r2 L0"));
  EXPECT_FALSE(parseCase("instr 0xffffffff")); // reserved encoding
  EXPECT_TRUE(parseCase("; just a comment\n"));
  Result<CaseSpec> Empty = parseCase("");
  ASSERT_TRUE(Empty);
  EXPECT_EQ(Empty->CommandLine, std::vector<std::string>{"fuzz"});
}

TEST(Corpus, SaveLoadRoundTripsOnDisk) {
  CaseSpec C = generateCase(31337, 3, Profile::Ffi);
  std::string Dir = ::testing::TempDir() + "silver_fuzz_corpus";
  std::string Path = Dir + "/case.s";
  ASSERT_TRUE(saveCase(Path, C));
  std::vector<std::string> Listed = listCorpus(Dir);
  ASSERT_EQ(Listed.size(), 1u);
  EXPECT_EQ(Listed[0], Path);
  Result<CaseSpec> Back = loadCase(Path);
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(serializeCase(*Back), serializeCase(C));
  EXPECT_EQ(Back->Seed, C.Seed);
  EXPECT_EQ(Back->Index, C.Index);
  EXPECT_EQ(Back->P, C.P);
}

TEST(Corpus, MissingDirectoryIsEmpty) {
  EXPECT_TRUE(listCorpus("/nonexistent/fuzz/corpus").empty());
}
