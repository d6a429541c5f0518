//===- tests/fuzz/SelfCheckTest.cpp - fuzzer mutation self-check ------------===//
//
// The fuzzer's own end-to-end test: inject a semantic fault into the
// ISA interpreter (the carry flag of Add inverted — the
// SILVER_FAULT_INJECTION hook in isa/Interp.h) and require the
// campaign to (a) find the divergence within a fixed seed and case
// budget and (b) shrink it to a small reproducer.  The fault lives in
// isa::evalAlu, which the Isa and Machine levels share but the circuit
// core does not, so the divergence must surface as Isa-vs-Rtl.
//
// This is the mutation-testing argument for trusting the green runs: a
// fuzzer that cannot find a planted bug proves nothing by finding none.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "isa/Interp.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::fuzz;

#if SILVER_FAULT_INJECTION

namespace {

/// RAII flip of the injected fault so a failing assertion cannot leak
/// the broken interpreter into other tests.
struct FaultGuard {
  FaultGuard() { isa::fault::InvertAddCarry = true; }
  ~FaultGuard() { isa::fault::InvertAddCarry = false; }
};

} // namespace

TEST(SelfCheck, InjectedCarryFaultIsFoundAndShrunk) {
  FaultGuard Guard;

  FuzzOptions O;
  O.Seed = 7; // fixed: this budget is part of the CI smoke contract
  O.MaxCases = 60;
  O.Jobs = 2;
  O.Oracle.Levels = {stack::Level::Rtl};
  O.Shrinker.MaxAttempts = 800;

  FuzzReport R = runFuzz(O);
  ASSERT_FALSE(R.Findings.empty())
      << "the campaign missed the planted Add-carry fault";

  // The fault perturbs the ISA reference, not the circuit core.
  bool SawRtl = false;
  size_t SmallestShrunk = SIZE_MAX;
  for (const Finding &F : R.Findings) {
    EXPECT_TRUE(F.Diff.found());
    if (F.Diff.Other == stack::Engine::Rtl)
      SawRtl = true;
    SmallestShrunk = std::min(SmallestShrunk, F.Shrunk.Items.size());
    EXPECT_TRUE(F.ShrunkDiff.found())
        << "shrinking lost the divergence for case " << F.Case.Index;
    EXPECT_LE(F.Shrunk.Items.size(), F.Case.Items.size());
  }
  EXPECT_TRUE(SawRtl);
  // A carry fault needs very little program to show: expect at least
  // one reproducer at a handful of items.
  EXPECT_LE(SmallestShrunk, 6u);
}

TEST(SelfCheck, FaultOffRestoresAgreement) {
  ASSERT_FALSE(isa::fault::InvertAddCarry);
  OracleOptions O;
  O.Levels = {stack::Level::Rtl};
  for (uint64_t Index = 0; Index != 5; ++Index) {
    CaseSpec C = generateCase(7, Index, Profile::Alu);
    Result<OracleResult> R = runCase(C, O);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_FALSE(R->Diff.found())
        << R->Diff.fingerprint() << " — " << R->Diff.Detail;
  }
}

#else

TEST(SelfCheck, DISABLED_FaultInjectionCompiledOut) {
  // Configure with -DSILVER_FAULT_INJECTION=ON (the default) to run
  // the mutation self-check.
}

#endif // SILVER_FAULT_INJECTION
