//===- silverbench/HostSpeed.cpp - The host's speed, probed over the run --===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdint>

using namespace sb;

namespace {

/// The probe's time at the reference host speed: about its median
/// between a workload's ops on the host named in README.md.  Frozen:
/// end-to-end times and rates are reported as they would read on a host
/// this fast.
constexpr double ReferenceProbeMs = 2.0;
/// Probes run at most this often; each takes about 2 ms.
constexpr double ProbeEveryMs = 100;
/// speedAt() takes the median of this many probes nearest in time.
constexpr size_t Nearest = 7;

/// The probe: a fixed workload of the benchmark's own, shaped like the
/// stack's hot loops and independent of every library under test.  A
/// switch-dispatched interpreter of a fixed 16-instruction program
/// (arithmetic, data-dependent branches, loads and stores scattered over
/// a 1 MiB table), then small allocations, as a compiler makes.
double probeOnceMs() {
  constexpr uint32_t TableWords = 1u << 18, Mask = TableWords - 1;
  static std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(TableWords);
    uint32_t X = 0x9e3779b9u;
    for (uint32_t &W : T) {
      X ^= X << 13;
      X ^= X >> 17;
      X ^= X << 5;
      W = X;
    }
    return T;
  }();
  static const uint8_t Code[16] = {0, 1, 4, 2, 0, 3, 1, 5,
                                   6, 1, 0, 7, 2, 4, 3, 1};
  static volatile uint64_t Sink = 0;

  Clock::time_point Start = Clock::now();
  uint32_t R[8] = {1, 2, 3, 5, 8, 13, 21, 34};
  unsigned Pc = 0;
  for (unsigned Step = 0; Step != 200'000; ++Step) {
    uint8_t Op = Code[Pc];
    unsigned A = Step & 7, B = (Step >> 3) & 7;
    Pc = (Pc + 1) & 15;
    switch (Op) {
    case 0: R[A] += R[B] * 0x2545f491u; break;
    case 1: R[A] = Table[R[B] & Mask]; break;
    case 2: Table[(R[A] >> 3) & Mask] ^= R[B]; break;
    case 3:
      if (R[A] & 1)
        Pc = (Pc + 3) & 15;
      break;
    case 4: R[A] ^= R[B] >> 7; break;
    case 5: R[A] = (R[A] << 5) | (R[B] >> 27); break;
    case 6:
      if (R[B] & 2)
        R[A] -= R[B];
      break;
    default: R[A] += Step; break;
    }
  }
  std::vector<std::string> Names;
  for (unsigned I = 0; I != 2'000; ++I)
    Names.push_back(
        std::string(8 + R[I & 7] % 24, static_cast<char>('a' + I % 26)));
  std::sort(Names.begin(), Names.end());
  Sink = Sink + R[0] + R[7] + Names[Names.size() / 2].size();
  return msBetween(Start, Clock::now());
}

struct Probe {
  Clock::time_point At;
  double Ms;
};

// Touched only by the main thread.
std::vector<Probe> Probes;
Clock::time_point LastProbe;
double SpentMs = 0;

} // namespace

void sb::probeHostSpeed(bool Force) {
  Clock::time_point Now = Clock::now();
  if (!Force && !Probes.empty() && msBetween(LastProbe, Now) < ProbeEveryMs)
    return;
  double Ms = probeOnceMs();
  LastProbe = Clock::now();
  Probes.push_back({Now + (LastProbe - Now) / 2, Ms});
  SpentMs += msBetween(Now, LastProbe);
}

double sb::probeSpentMs() { return SpentMs; }

double sb::speedAt(Clock::time_point T) {
  if (Probes.empty())
    return 1;
  // Probes are in time order: take the Nearest around T.
  auto It = std::lower_bound(
      Probes.begin(), Probes.end(), T,
      [](const Probe &P, Clock::time_point X) { return P.At < X; });
  size_t Hi = static_cast<size_t>(It - Probes.begin()), Lo = Hi;
  while (Hi - Lo < Nearest && (Lo > 0 || Hi < Probes.size())) {
    if (Lo == 0)
      ++Hi;
    else if (Hi == Probes.size())
      --Lo;
    else if (T - Probes[Lo - 1].At < Probes[Hi].At - T)
      --Lo;
    else
      ++Hi;
  }
  std::vector<double> Ms;
  for (size_t I = Lo; I != Hi; ++I)
    Ms.push_back(Probes[I].Ms);
  return ReferenceProbeMs / median(Ms);
}

std::vector<double> sb::probeTimesMs() {
  std::vector<double> Ms;
  for (const Probe &P : Probes)
    Ms.push_back(P.Ms);
  return Ms;
}
