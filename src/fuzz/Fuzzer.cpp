//===- fuzz/Fuzzer.cpp - Parallel differential conformance fuzzer -----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>
#include <thread>

using namespace silver;
using namespace silver::fuzz;

FuzzReport silver::fuzz::runFuzz(const FuzzOptions &O) {
  FuzzReport Report;
  if (O.MaxCases == 0 || O.Profiles.empty())
    return Report;

  std::atomic<uint64_t> NextCase{0};
  std::atomic<uint64_t> CasesRun{0};
  std::atomic<uint64_t> Inconclusive{0};
  std::atomic<uint64_t> CaseErrors{0};
  // Per-engine work totals, indexed by stack::Engine; summed lock-free
  // in the workers and folded into the report at the end.
  std::array<std::atomic<uint64_t>, stack::NumEngines> EngineInstrs{};
  std::array<std::atomic<uint64_t>, stack::NumEngines> EngineCycles{};
  std::array<std::atomic<uint64_t>, stack::NumEngines> EngineRuns{};
  std::array<std::atomic<uint64_t>, stack::NumEngines> EngineNanos{};
  std::mutex Mu; // guards Report.Findings and O.Log
  const auto Start = std::chrono::steady_clock::now();
  const auto Deadline =
      O.TimeBudgetSeconds > 0
          ? Start +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(O.TimeBudgetSeconds))
          : std::chrono::steady_clock::time_point::max();

  auto Worker = [&] {
    while (true) {
      uint64_t Index = NextCase.fetch_add(1, std::memory_order_relaxed);
      if (Index >= O.MaxCases)
        return;
      if (std::chrono::steady_clock::now() >= Deadline)
        return;

      Profile P = O.Profiles[Index % O.Profiles.size()];
      CaseSpec C = generateCase(O.Seed, Index, P);
      Result<OracleResult> R = runCase(C, O.Oracle);
      CasesRun.fetch_add(1, std::memory_order_relaxed);
      if (!R) {
        CaseErrors.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> Lock(Mu);
        if (O.Log)
          *O.Log << "case " << Index << ": " << R.error().message() << "\n";
        continue;
      }
      for (const LevelRun &Run : R->Runs) {
        if (!Run.Ran)
          continue;
        size_t E = static_cast<size_t>(Run.E);
        EngineRuns[E].fetch_add(1, std::memory_order_relaxed);
        EngineInstrs[E].fetch_add(Run.Behaviour.Instructions,
                                  std::memory_order_relaxed);
        EngineCycles[E].fetch_add(Run.Behaviour.Cycles,
                                  std::memory_order_relaxed);
        EngineNanos[E].fetch_add(static_cast<uint64_t>(Run.Seconds * 1e9),
                                 std::memory_order_relaxed);
      }
      if (R->Diff.Kind == DiffKind::Inconclusive) {
        Inconclusive.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!R->Diff.found())
        continue;

      Finding F;
      F.Case = C;
      F.Diff = R->Diff;
      if (O.Shrink) {
        ShrinkResult S = shrinkCase(C, R->Diff, O.Oracle, O.Shrinker);
        F.Shrunk = std::move(S.Minimized);
        F.ShrunkDiff = S.Diff;
        F.ShrinkAttempts = S.Attempts;
      } else {
        F.Shrunk = C;
        F.ShrunkDiff = R->Diff;
      }

      std::lock_guard<std::mutex> Lock(Mu);
      if (O.Log)
        *O.Log << "case " << Index << " (" << profileName(P)
               << "): " << F.Diff.fingerprint() << " — " << F.Diff.Detail
               << " (shrunk to " << F.Shrunk.Items.size() << " items)\n";
      Report.Findings.push_back(std::move(F));
    }
  };

  unsigned Jobs = std::max(1u, O.Jobs);
  if (Jobs == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Jobs);
    for (unsigned I = 0; I != Jobs; ++I)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  Report.CasesRun = CasesRun.load();
  Report.Inconclusive = Inconclusive.load();
  Report.CaseErrors = CaseErrors.load();
  Report.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  for (size_t E = 0; E != stack::NumEngines; ++E) {
    if (EngineRuns[E].load() == 0)
      continue;
    LevelWork W;
    W.E = static_cast<stack::Engine>(E);
    W.Instructions = EngineInstrs[E].load();
    W.Cycles = EngineCycles[E].load();
    W.Seconds = static_cast<double>(EngineNanos[E].load()) / 1e9;
    Report.Work.push_back(W);
  }
  // Workers race on push order; the index sort restores determinism.
  std::sort(Report.Findings.begin(), Report.Findings.end(),
            [](const Finding &A, const Finding &B) {
              return A.Case.Index < B.Case.Index;
            });

  if (!O.CorpusDir.empty()) {
    for (const Finding &F : Report.Findings) {
      std::string Name = O.CorpusDir + "/fuzz-" + std::to_string(F.Case.Seed) +
                         "-" + std::to_string(F.Case.Index) + ".s";
      if (Result<void> S = saveCase(Name, F.Shrunk, &F.ShrunkDiff);
          !S && O.Log)
        *O.Log << S.error().message() << "\n";
    }
  }
  return Report;
}

std::vector<ReplayFailure>
silver::fuzz::replayCorpus(const std::string &Dir, const OracleOptions &O,
                           std::ostream *Log) {
  std::vector<ReplayFailure> Failures;
  for (const std::string &Path : listCorpus(Dir)) {
    Result<CaseSpec> C = loadCase(Path);
    if (!C) {
      Failures.push_back({Path, C.error().message()});
      continue;
    }
    Result<OracleResult> R = runCase(*C, O);
    if (!R) {
      Failures.push_back({Path, R.error().message()});
      continue;
    }
    if (R->Diff.found()) {
      Failures.push_back(
          {Path, R->Diff.fingerprint() + " — " + R->Diff.Detail});
      continue;
    }
    if (Log)
      *Log << Path << ": ok ("
           << (R->Diff.Kind == DiffKind::Inconclusive ? "inconclusive"
                                                      : "agreed")
           << ", " << R->IsaInstructions << " instructions)\n";
  }
  return Failures;
}
