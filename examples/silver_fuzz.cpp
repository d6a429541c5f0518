//===- examples/silver_fuzz.cpp - Differential conformance fuzzer CLI -------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// silver-fuzz generates random well-formed Silver programs, runs each
// one at several Figure-1 levels (machine_sem's interference oracle,
// the ISA interpreter with real system calls, the circuit-level core,
// and optionally the generated Verilog), and reports any divergence as
// a minimized reproducer.  Exit code 0 = all levels agreed on every
// case, 1 = divergences found, 2 = usage or internal error.
//
//   silver-fuzz --seed=7 --max-cases=500 --jobs=4
//   silver-fuzz --levels=isa,rtl,verilog --shrink=0
//   silver-fuzz --corpus=tests/fuzz/corpus            # replay, then fuzz
//   silver-fuzz --time-budget=60 --corpus-out=findings/
//
//===----------------------------------------------------------------------===//

#include "fuzz/Containment.h"
#include "fuzz/Fuzzer.h"
#include "stack/Stack.h"

#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

using namespace silver;

namespace {

/// Formats N/Seconds with an SI suffix: "12.4M", "310.5k", "87.0".
std::string rate(uint64_t N, double Seconds) {
  double R = static_cast<double>(N) / Seconds;
  const char *Suffix = "";
  if (R >= 1e9) {
    R /= 1e9;
    Suffix = "G";
  } else if (R >= 1e6) {
    R /= 1e6;
    Suffix = "M";
  } else if (R >= 1e3) {
    R /= 1e3;
    Suffix = "k";
  }
  std::ostringstream Out;
  Out << std::fixed << std::setprecision(1) << R << Suffix;
  return Out.str();
}

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " [options]\n"
      << "  --seed=N          campaign seed (default 1)\n"
      << "  --jobs=N          worker threads (default: hardware threads)\n"
      << "  --max-cases=N     cases to generate (default 256)\n"
      << "  --time-budget=S   stop after S seconds (best-effort prefix)\n"
      << "  --levels=a,b,..   levels to compare against the ISA reference\n"
      << "                    (machine, isa, rtl, verilog; default\n"
      << "                    machine,rtl).  The token \"compiled\" adds\n"
      << "                    the Compiled-vs-Verilog differential level:\n"
      << "                    the generated Verilog stepped by the compiled\n"
      << "                    simulator (hdl/compile), compared exactly\n"
      << "                    against the AST interpreter\n"
      << "  --backend=B       interp (default) or jit: jit additionally\n"
      << "                    runs every case at the ISA level on the JIT\n"
      << "                    backend and compares it exactly against the\n"
      << "                    interpreter (the Jit-vs-Isa level)\n"
      << "  --profiles=a,b,.. program shapes (alu, branchy, loadstore,\n"
      << "                    ffi, mixed; default all)\n"
      << "  --max-steps=N     ISA instruction budget per case\n"
      << "  --shrink=0|1      minimize findings (default 1)\n"
      << "  --corpus=DIR      replay DIR/*.s as regression tests first;\n"
      << "                    replay failures fail the run\n"
      << "  --corpus-out=DIR  write minimized reproducers to DIR\n"
      << "  --containment=DIR check DIR/*.s against the symbolic block\n"
      << "                    summaries (analysis/BlockSummary.h) instead\n"
      << "                    of fuzzing; violations fail the run\n";
  return 2;
}

/// Isa is the reference, so listing it is harmless; Spec has no machine
/// state to compare and is rejected.
bool parseLevels(const std::string &Arg, std::vector<stack::Level> &Out,
                 bool &Compiled) {
  Out.clear();
  std::istringstream In(Arg);
  std::string Name;
  while (std::getline(In, Name, ',')) {
    stack::Level L;
    if (Name == "compiled")
      Compiled = true; // Compiled-vs-Verilog; the oracle adds verilog itself
    else if (stack::parseLevel(Name, L) && L != stack::Level::Spec)
      Out.push_back(L);
    else
      return false;
  }
  return !Out.empty() || Compiled;
}

bool parseProfiles(const std::string &Arg, std::vector<fuzz::Profile> &Out) {
  Out.clear();
  std::istringstream In(Arg);
  std::string Name;
  while (std::getline(In, Name, ',')) {
    fuzz::Profile P;
    if (!fuzz::parseProfile(Name, P))
      return false;
    Out.push_back(P);
  }
  return !Out.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  fuzz::FuzzOptions Opt;
  Opt.Jobs = std::max(1u, std::thread::hardware_concurrency());
  Opt.Log = &std::cout;
  std::string ReplayDir;
  std::string ContainmentDir;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) == 0)
        return Arg.c_str() + Len;
      return nullptr;
    };
    try {
      if (const char *V = Value("--seed="))
        Opt.Seed = std::stoull(V, nullptr, 0);
      else if (const char *V = Value("--jobs="))
        Opt.Jobs = static_cast<unsigned>(std::stoul(V));
      else if (const char *V = Value("--max-cases="))
        Opt.MaxCases = std::stoull(V);
      else if (const char *V = Value("--time-budget="))
        Opt.TimeBudgetSeconds = std::stod(V);
      else if (const char *V = Value("--max-steps="))
        Opt.Oracle.MaxSteps = std::stoull(V);
      else if (const char *V = Value("--levels=")) {
        bool Compiled = false;
        if (!parseLevels(V, Opt.Oracle.Levels, Compiled))
          return usage(Argv[0]);
        Opt.Oracle.CompareCompiled = Compiled;
      } else if (const char *V = Value("--backend=")) {
        stack::BackendKind B;
        if (!stack::parseBackendKind(V, B))
          return usage(Argv[0]);
        Opt.Oracle.CompareJit = B == stack::BackendKind::Jit;
      } else if (const char *V = Value("--profiles=")) {
        if (!parseProfiles(V, Opt.Profiles))
          return usage(Argv[0]);
      } else if (const char *V = Value("--shrink="))
        Opt.Shrink = std::string(V) != "0";
      else if (const char *V = Value("--corpus="))
        ReplayDir = V;
      else if (const char *V = Value("--containment="))
        ContainmentDir = V;
      else if (const char *V = Value("--corpus-out="))
        Opt.CorpusDir = V;
      else
        return usage(Argv[0]);
    } catch (...) {
      return usage(Argv[0]);
    }
  }

  if (Opt.Oracle.CompareJit &&
      !stack::backendSupported(stack::BackendKind::Jit))
    std::cerr << "silver-fuzz: warning: the jit backend is not supported on "
                 "this host; the jit level runs on the interpreter\n";

  if (Opt.Oracle.CompareCompiled &&
      !stack::hdlBackendSupported(stack::HdlBackendKind::Compiled))
    std::cerr << "silver-fuzz: warning: the compiled simulator is not "
                 "available on this host (no usable C++ compiler); the "
                 "compiled level runs on the interpreter\n";

  if (!ContainmentDir.empty()) {
    fuzz::CorpusContainment C =
        fuzz::checkCorpusContainment(ContainmentDir, Opt.Oracle.MaxSteps);
    std::cout << "containment: " << C.Cases << " cases, "
              << C.Totals.BlocksChecked << " block executions checked ("
              << C.Totals.CheckedInstrs << " instrs), "
              << C.Totals.BlocksSkipped << " skipped, "
              << C.Totals.EntryMisses << " entry misses, "
              << C.Violations.size() << " violations\n";
    for (const auto &E : C.Errors)
      std::cout << "containment ERROR: " << E.first << ": " << E.second
                << "\n";
    for (const auto &V : C.Violations)
      std::cout << "containment VIOLATION: " << V.first << ": "
                << fuzz::formatViolation(V.second) << "\n";
    if (C.CaseErrors > 0)
      return 2;
    return C.ok() ? 0 : 1;
  }

  bool ReplayFailed = false;
  if (!ReplayDir.empty()) {
    std::vector<fuzz::ReplayFailure> Failures =
        fuzz::replayCorpus(ReplayDir, Opt.Oracle, &std::cout);
    for (const fuzz::ReplayFailure &F : Failures)
      std::cout << "replay FAILED: " << F.Path << ": " << F.Reason << "\n";
    ReplayFailed = !Failures.empty();
  }

  std::cout << "fuzzing: seed=" << Opt.Seed << " cases=" << Opt.MaxCases
            << " jobs=" << Opt.Jobs << "\n";
  fuzz::FuzzReport Report = fuzz::runFuzz(Opt);

  std::cout << "ran " << Report.CasesRun << " cases ("
            << Report.Inconclusive << " inconclusive, " << Report.CaseErrors
            << " errors): " << Report.Findings.size() << " divergences\n";
  if (Report.WallSeconds > 0) {
    std::cout << "throughput: " << std::fixed << std::setprecision(2)
              << Report.WallSeconds << " s, "
              << rate(Report.CasesRun, Report.WallSeconds) << " cases/s\n";
    for (const fuzz::LevelWork &W : Report.Work) {
      std::cout << "  " << stack::engineName(W.E) << ": " << W.Instructions
                << " instrs (" << rate(W.Instructions, W.Seconds)
                << " instrs/s)";
      if (W.Cycles != 0)
        std::cout << ", " << W.Cycles << " cycles ("
                  << rate(W.Cycles, W.Seconds) << " cycles/s)";
      std::cout << "\n";
    }
  }
  for (const fuzz::Finding &F : Report.Findings) {
    std::cout << "--- case " << F.Case.Index << " ("
              << fuzz::profileName(F.Case.P) << "), shrunk from "
              << F.Case.Items.size() << " to " << F.Shrunk.Items.size()
              << " items in " << F.ShrinkAttempts << " attempts\n"
              << fuzz::serializeCase(F.Shrunk, &F.ShrunkDiff);
  }
  if (!Opt.CorpusDir.empty() && !Report.Findings.empty())
    std::cout << "reproducers written to " << Opt.CorpusDir << "\n";

  if (Report.CaseErrors > 0)
    return 2;
  return (!Report.Findings.empty() || ReplayFailed) ? 1 : 0;
}
