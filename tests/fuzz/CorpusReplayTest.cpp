//===- tests/fuzz/CorpusReplayTest.cpp - committed-corpus regression --------===//
//
// Replays every reproducer committed under tests/fuzz/corpus/ through
// the full differential oracle (Machine, Isa, Rtl, Verilog, and the JIT).  The
// committed corpus holds minimized cases from past campaigns plus
// representative generated programs; a replay failure means a
// once-agreed case diverges again.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::fuzz;

#ifndef SILVER_FUZZ_CORPUS_DIR
#error "build must define SILVER_FUZZ_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

TEST(CorpusReplay, CommittedReproducersStillAgree) {
  OracleOptions O;
  O.Levels = {stack::Level::Machine, stack::Level::Rtl,
              stack::Level::Verilog};
  O.CompareJit = true;

  std::vector<std::string> Files = listCorpus(SILVER_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(Files.empty())
      << "no corpus files under " << SILVER_FUZZ_CORPUS_DIR;

  std::vector<ReplayFailure> Failures = replayCorpus(SILVER_FUZZ_CORPUS_DIR, O);
  for (const ReplayFailure &F : Failures)
    ADD_FAILURE() << F.Path << ": " << F.Reason;
}

// The same corpus again at the compiled-simulator level: every
// committed reproducer (including selfmod-0.s and ffi-domain-0.s) must
// agree exactly between the interpreted and the compiled Verilog
// backends.  Hosts without a host C++ compiler fall back to the
// interpreter, which keeps the replay green rather than skipping it.
TEST(CorpusReplay, CommittedReproducersAgreeAtCompiledLevel) {
  OracleOptions O;
  O.Levels = {stack::Level::Verilog};
  O.CompareCompiled = true;

  std::vector<std::string> Files = listCorpus(SILVER_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(Files.empty())
      << "no corpus files under " << SILVER_FUZZ_CORPUS_DIR;

  std::vector<ReplayFailure> Failures = replayCorpus(SILVER_FUZZ_CORPUS_DIR, O);
  for (const ReplayFailure &F : Failures)
    ADD_FAILURE() << F.Path << ": " << F.Reason;
}

TEST(CorpusReplay, EveryFileParsesAndSerializesStably) {
  for (const std::string &Path : listCorpus(SILVER_FUZZ_CORPUS_DIR)) {
    Result<CaseSpec> C = loadCase(Path);
    ASSERT_TRUE(C) << Path << ": " << C.error().str();
    EXPECT_FALSE(C->Items.empty()) << Path;
    Result<CaseSpec> Again = parseCase(serializeCase(*C));
    ASSERT_TRUE(Again) << Path;
    EXPECT_EQ(serializeCase(*Again), serializeCase(*C)) << Path;
  }
}
