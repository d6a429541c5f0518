//===- tests/machine/InterferenceTest.cpp - theorem (13) as tests --------------===//
//
// Differential tests between the hand-written system-call machine code
// and the basis FFI oracle: the paper's interference-implementation
// theorems (11)-(13), executed.
//
//===----------------------------------------------------------------------===//

#include "machine/InterferenceCheck.h"

#include "isa/Abi.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::machine;

namespace {

struct World {
  sys::ImageSpec Spec;
  sys::BootResult Boot;
  ffi::BasisFfi Model;

  World(std::vector<std::string> Cl, std::string Stdin) {
    assembler::Assembler A;
    A.emitHalt();
    Spec.Program = A.assemble(0)->Bytes;
    Spec.CommandLine = std::move(Cl);
    Spec.StdinData = std::move(Stdin);
    Result<sys::BootResult> B = sys::boot(Spec);
    EXPECT_TRUE(B) << B.error().str();
    Boot = B.take();
    Model = ffi::BasisFfi(Spec.CommandLine,
                          ffi::Filesystem::withStdin(Spec.StdinData));
  }

  /// Poises the machine at the FFI entry with the given call.
  isa::MachineState atEntry(sys::FfiIndex Index,
                            const std::vector<uint8_t> &Conf,
                            const std::vector<uint8_t> &Bytes) {
    isa::MachineState S = Boot.State;
    const sys::MemoryLayout &L = Boot.Layout;
    // Place conf and bytes in the CakeML-usable region.
    Word ConfPtr = L.HeapBase;
    Word BytesPtr = L.HeapBase + 256;
    S.writeBytes(ConfPtr, Conf);
    S.writeBytes(BytesPtr, Bytes);
    S.Regs[silver::abi::FfiIndexReg] = static_cast<Word>(Index);
    S.Regs[silver::abi::FfiConfReg] = ConfPtr;
    S.Regs[silver::abi::FfiConfLenReg] = static_cast<Word>(Conf.size());
    S.Regs[silver::abi::FfiBytesReg] = BytesPtr;
    S.Regs[silver::abi::FfiBytesLenReg] = static_cast<Word>(Bytes.size());
    S.Regs[silver::abi::LinkReg] = L.CodeBase; // "return" to the program
    S.PC = L.SyscallCodeBase;
    return S;
  }

  Result<void> check(sys::FfiIndex Index, const std::vector<uint8_t> &Conf,
                     const std::vector<uint8_t> &Bytes) {
    return checkInterferenceImpl(atEntry(Index, Conf, Bytes),
                                 Boot.Layout, Model);
  }
};

std::vector<uint8_t> fdConf(uint64_t Fd) {
  std::vector<uint8_t> C(8, 0);
  for (int I = 7; I >= 0; --I) {
    C[I] = static_cast<uint8_t>(Fd);
    Fd >>= 8;
  }
  return C;
}

std::vector<uint8_t> readRequest(uint16_t Count, size_t Capacity) {
  std::vector<uint8_t> B(4 + Capacity, 0x5a);
  ffi::u16ToBytes(Count, B.data());
  return B;
}

} // namespace

TEST(Interference, ReadMatchesOracle) {
  World W({"prog"}, "hello world");
  EXPECT_TRUE(W.check(sys::FfiIndex::Read, fdConf(0), readRequest(5, 8)))
      << W.check(sys::FfiIndex::Read, fdConf(0), readRequest(5, 8))
             .error()
             .str();
}

TEST(Interference, ReadAtEofMatchesOracle) {
  World W({"p"}, "");
  Result<void> R =
      W.check(sys::FfiIndex::Read, fdConf(0), readRequest(5, 8));
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, ReadBadFdMatchesOracle) {
  World W({"p"}, "abc");
  Result<void> R =
      W.check(sys::FfiIndex::Read, fdConf(3), readRequest(2, 8));
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, ReadOverlongRequestMatchesOracle) {
  World W({"p"}, "abc");
  Result<void> R =
      W.check(sys::FfiIndex::Read, fdConf(0), readRequest(200, 8));
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, WriteStdoutMatchesOracle) {
  World W({"p"}, "");
  std::vector<uint8_t> B = {0, 3, 0, 1, 'Q', 'a', 'b', 'c', 'Z'};
  Result<void> R = W.check(sys::FfiIndex::Write, fdConf(1), B);
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, WriteStderrMatchesOracle) {
  World W({"p"}, "");
  std::vector<uint8_t> B = {0, 2, 0, 0, 'e', 'r'};
  Result<void> R = W.check(sys::FfiIndex::Write, fdConf(2), B);
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, WriteBadFdAndBadRangeMatchOracle) {
  World W({"p"}, "");
  std::vector<uint8_t> B = {0, 1, 0, 0, 'x'};
  Result<void> R = W.check(sys::FfiIndex::Write, fdConf(7), B);
  EXPECT_TRUE(R) << R.error().str();
  std::vector<uint8_t> TooLong = {0, 9, 0, 0, 'x'};
  R = W.check(sys::FfiIndex::Write, fdConf(1), TooLong);
  EXPECT_TRUE(R) << R.error().str();
}

TEST(Interference, GetArgCountMatchesOracle) {
  for (auto Cl : std::vector<std::vector<std::string>>{
           {"prog"}, {"prog", "a", "bb", "ccc"}}) {
    World W(Cl, "");
    Result<void> R =
        W.check(sys::FfiIndex::GetArgCount, {}, {0xff, 0xff});
    EXPECT_TRUE(R) << R.error().str();
  }
}

TEST(Interference, GetArgLengthAndGetArgMatchOracle) {
  World W({"prog", "hello", "xyz"}, "");
  for (uint16_t I = 0; I != 3; ++I) {
    std::vector<uint8_t> Q = {uint8_t(I >> 8), uint8_t(I), 0, 0};
    Result<void> R = W.check(sys::FfiIndex::GetArgLength, {}, Q);
    EXPECT_TRUE(R) << "len " << I << ": " << R.error().str();
    std::vector<uint8_t> Buf(8, 0);
    Buf[1] = uint8_t(I);
    R = W.check(sys::FfiIndex::GetArg, {}, Buf);
    EXPECT_TRUE(R) << "arg " << I << ": " << R.error().str();
  }
}

TEST(Interference, OpenAndCloseMatchOracle) {
  World W({"p"}, "");
  std::vector<uint8_t> B = {9, 9, 9};
  std::vector<uint8_t> Name = {'f'};
  EXPECT_TRUE(W.check(sys::FfiIndex::OpenIn, Name, B));
  EXPECT_TRUE(W.check(sys::FfiIndex::Close, fdConf(5), {7}));
}

TEST(Interference, ExitMatchesOracle) {
  World W({"p"}, "");
  Result<void> R = W.check(sys::FfiIndex::Exit, {}, {42});
  EXPECT_TRUE(R) << R.error().str();
}

// Property sweep: random read/write sequences against random stdin.
class InterferenceSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterferenceSweep, RandomCallsMatchOracle) {
  Rng R(GetParam() * 131 + 7);
  std::string Stdin;
  for (unsigned I = 0, N = R.below(200); I != N; ++I)
    Stdin.push_back(static_cast<char>(R.below(256)));
  World W({"prog", "alpha", "beta"}, Stdin);

  for (int Call = 0; Call != 12; ++Call) {
    unsigned Kind = R.below(4);
    Result<void> C{Error("")};
    if (Kind == 0) {
      unsigned Cap = R.below(64);
      unsigned Count = R.below(80);
      C = W.check(sys::FfiIndex::Read, fdConf(R.below(2)),
                  readRequest(static_cast<uint16_t>(Count), Cap));
    } else if (Kind == 1) {
      unsigned PayLen = R.below(64);
      std::vector<uint8_t> B(4 + PayLen);
      for (auto &Byte : B)
        Byte = static_cast<uint8_t>(R.below(256));
      ffi::u16ToBytes(static_cast<uint16_t>(R.below(PayLen + 8)), B.data());
      ffi::u16ToBytes(static_cast<uint16_t>(R.below(8)), B.data() + 2);
      C = W.check(sys::FfiIndex::Write, fdConf(1 + R.below(2)), B);
    } else if (Kind == 2) {
      C = W.check(sys::FfiIndex::GetArgCount, {}, {1, 2});
    } else {
      uint16_t Index = static_cast<uint16_t>(R.below(3));
      std::vector<uint8_t> Q(8, 0);
      ffi::u16ToBytes(Index, Q.data());
      C = W.check(sys::FfiIndex::GetArgLength, {}, Q);
    }
    // Oracle-rejected (Fail) shapes are skipped by the checker with an
    // explanatory error; everything else must agree.
    if (!C) {
      EXPECT_NE(C.error().message().find("well-formed"), std::string::npos)
          << C.error().str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InterferenceSweep,
                         ::testing::Range(0u, 10u));

TEST(Interference, SequencedCallsEvolveTheSameState) {
  // Run several calls in sequence, threading both the machine state and
  // the oracle state, as machine_sem does.
  World W({"prog"}, "abcdefghij");
  isa::MachineState S = W.Boot.State;
  ffi::BasisFfi Model = W.Model;
  const sys::MemoryLayout &L = W.Boot.Layout;

  for (int Round = 0; Round != 3; ++Round) {
    std::vector<uint8_t> Req = readRequest(3, 6);
    isa::MachineState AtEntry = S;
    Word BytesPtr = L.HeapBase + 512;
    AtEntry.writeBytes(L.HeapBase, fdConf(0));
    AtEntry.writeBytes(BytesPtr, Req);
    AtEntry.Regs[silver::abi::FfiIndexReg] = unsigned(sys::FfiIndex::Read);
    AtEntry.Regs[silver::abi::FfiConfReg] = L.HeapBase;
    AtEntry.Regs[silver::abi::FfiConfLenReg] = 8;
    AtEntry.Regs[silver::abi::FfiBytesReg] = BytesPtr;
    AtEntry.Regs[silver::abi::FfiBytesLenReg] = static_cast<Word>(Req.size());
    AtEntry.Regs[silver::abi::LinkReg] = L.CodeBase;
    AtEntry.PC = L.SyscallCodeBase;

    Result<void> C = checkInterferenceImpl(AtEntry, L, Model);
    ASSERT_TRUE(C) << "round " << Round << ": " << C.error().str();

    // Advance both sides for the next round.
    ffi::FfiResult FR = Model.call("read", AtEntry.readBytes(L.HeapBase, 8),
                                   Req);
    ASSERT_EQ(FR.Outcome, ffi::FfiOutcome::Return);
    applyFfiInterfer(AtEntry, L, unsigned(sys::FfiIndex::Read), FR.Bytes,
                     Model);
    S = AtEntry;
  }
}
