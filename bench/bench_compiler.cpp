//===- bench/bench_compiler.cpp - E5: the optimising compiler ------------------===//
//
// The paper's compiler is optimising (§2.3, in contrast with Verisoft's
// C0 compiler, §9).  This bench quantifies the reproduction's optimiser:
// compile throughput, code size and dynamic instruction counts at O0
// versus O1 — the ablation DESIGN.md calls out — plus the effect of the
// §6.1 startup-code change (OOM exits are orderly, never wild failures).
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"
#include "stack/Executor.h"

#include <benchmark/benchmark.h>

using namespace silver;
using namespace silver::stack;

namespace {

void BM_CompileThroughput(benchmark::State &State) {
  const char *Source = sortSource();
  size_t Bytes = 0;
  for (auto _ : State) {
    Result<cml::Compiled> R = cml::compileProgram(Source);
    if (!R) {
      State.SkipWithError("compile failed");
      return;
    }
    Bytes = R->Program.size();
    benchmark::DoNotOptimize(R->Program);
  }
  State.counters["CodeBytes"] = static_cast<double>(Bytes);
}
BENCHMARK(BM_CompileThroughput)->Unit(benchmark::kMillisecond);

void compareOptLevels(benchmark::State &State, const char *Source,
                      const std::string &Stdin) {
  bool Optimised = State.range(0) != 0;
  RunSpec Spec;
  Spec.Source = Source;
  Spec.StdinData = Stdin;
  Spec.Compile.Opt =
      Optimised ? cml::OptOptions::all() : cml::OptOptions::none();
  Spec.Exec.MaxSteps = 2'000'000'000ull;
  Result<Prepared> P = prepare(Spec);
  if (!P) {
    State.SkipWithError("compile failed");
    return;
  }
  uint64_t Instructions = 0;
  for (auto _ : State) {
    Result<Outcome> R = Executor::fromPrepared(Spec, *P).run(Level::Isa);
    if (!R || !R->Behaviour.Terminated) {
      State.SkipWithError("run failed");
      return;
    }
    Instructions = R->Behaviour.Instructions;
  }
  State.counters["DynInstructions"] = static_cast<double>(Instructions);
  State.counters["CodeBytes"] =
      static_cast<double>(P->Program.Program.size());
  State.counters["O1"] = Optimised;
}

void BM_OptLevel_Wc(benchmark::State &State) {
  compareOptLevels(State, wcSource(), randomLines(200, 4));
}
BENCHMARK(BM_OptLevel_Wc)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_OptLevel_Sort(benchmark::State &State) {
  compareOptLevels(State, sortSource(), randomLines(100, 5));
}
BENCHMARK(BM_OptLevel_Sort)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_OptLevel_Proof(benchmark::State &State) {
  compareOptLevels(State, proofCheckerSource(), sampleValidProof());
}
BENCHMARK(BM_OptLevel_Proof)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_OomShrinkingHeaps(benchmark::State &State) {
  // §6.1: startup checks never cause wild failures; heap exhaustion is
  // an orderly OOM exit at every heap size.
  RunSpec Spec;
  Spec.Source = R"(
    fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
    val _ = print (int_to_string (length (build 200000 [])))
  )";
  Spec.Compile.Layout.MemSize =
      static_cast<Word>(State.range(0)) << 10; // KiB
  Spec.Exec.MaxSteps = 1'000'000'000ull;
  bool Oom = false;
  for (auto _ : State) {
    Result<Executor> Exec = Executor::create(Spec);
    Result<Outcome> R = Exec ? Exec->run(Level::Isa) : Exec.error();
    if (!R || !R->Behaviour.Terminated) {
      State.SkipWithError("run did not terminate cleanly");
      return;
    }
    Oom = R->Behaviour.ExitCode == machine::OomExitCode;
  }
  State.counters["OomExit"] = Oom;
}
BENCHMARK(BM_OomShrinkingHeaps)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
