//===- silverbench/Probe.cpp - Fuzz and svc layers on every workload ------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Every workload prints every per-layer metric, but only cosim runs
// fuzz cases and only svc drives the service.  After the traced window,
// this pass runs one fuzz case per profile and a short svc session, and
// those layers' metrics are read from it where the window has none.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

using namespace sb;

void sb::runProbe(Ledger &L, Tally &T, uint64_t Seed) {
  for (unsigned P = 0; P != fuzz::NumProfiles; ++P) {
    ++T.Attempted;
    fuzzOp(L, T, Seed, (1u << 30) + P, static_cast<fuzz::Profile>(P));
  }
  svcProbe(L, T, Seed);
}
