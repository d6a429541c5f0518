//===- bench/bench_layers.cpp - E3: the cost of each Figure-1 layer ----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Runs the same program at each abstraction level of the paper's Figure 1
// — machine_sem (layer 1), ISA (layer 2), circuit implementation (layer
// 3), and the generated Verilog under verilog_sem (layer 4, via the
// compiled simulator) — and reports throughput.  The ordering
// ISA >> circuit > Verilog quantifies what each layer of modelling
// fidelity costs.
//
// Unlike the earlier google-benchmark version this is a repetition-aware,
// machine-readable harness: each (workload, level) cell gets a warmup run
// plus N timed repetitions, the *median* wall time is reported (robust
// against scheduler noise on CI runners), and the result is written as
// BENCH_layers.json so the perf trajectory is tracked across PRs and
// guarded by CI (see the perf-smoke job and README "Benchmarks").
//
//   bench_layers [--reps=N] [--warmup=N] [--out=FILE]
//                [--baseline=FILE] [--guard-band=F]
//
// With --baseline, every row is compared against the committed baseline:
// a throughput drop beyond the guard band (default 25%), or a baseline
// row this run did not measure on an engine the host supports, fails
// with exit 3; a rise beyond the band prints a re-baseline hint but
// passes (CI must not go red for getting faster).
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"
#include "stack/Executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace silver;
using namespace silver::stack;

namespace {

struct Row {
  std::string Name;
  std::string Level;
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  uint64_t MedianWallNs = 0;
  double InstrPerSec = 0;
  double CyclesPerSec = 0;
};

struct Workload {
  std::string Name;
  RunSpec Spec;
  std::vector<Engine> Engines; ///< one row each, named by engineName
};

std::vector<Workload> workloads() {
  std::vector<Workload> W;
  RunSpec Hello;
  Hello.Source = helloSource();
  Hello.Exec.MaxSteps = 100'000'000;
  W.push_back({"hello",
               Hello,
               {Engine::MachineSem, Engine::Isa, Engine::Rtl, Engine::Verilog,
                Engine::VerilogCompiled, Engine::Jit}});
  // A longer interpreter-bound workload: the cycle-accurate levels would
  // take minutes here, so wc only measures the two interpreters and the
  // JIT.
  RunSpec Wc;
  Wc.Source = wcSource();
  Wc.StdinData = randomLines(200, 1);
  Wc.Exec.MaxSteps = 100'000'000;
  W.push_back({"wc-200", Wc, {Engine::MachineSem, Engine::Isa, Engine::Jit}});
  return W;
}

uint64_t medianNs(std::vector<uint64_t> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// One timed repetition; returns wall ns and fills the run's counters.
/// Only the stepping phase is timed: session setup (booting the image,
/// compiling the circuit simulator) is per-run overhead the interpreters
/// cannot influence and would drown the per-instruction signal on small
/// programs.
Result<uint64_t> timedRun(Executor &Exec, Level L, uint64_t &Instructions,
                          uint64_t &Cycles) {
  if (Result<void> B = Exec.begin(L); !B)
    return B.error();
  auto T0 = std::chrono::steady_clock::now();
  Result<RunStatus> S = Exec.step(UINT64_MAX);
  auto T1 = std::chrono::steady_clock::now();
  if (!S)
    return S.error();
  Result<Outcome> R = Exec.finish();
  if (!R)
    return R.error();
  if (R->Status != RunStatus::Completed)
    return Error(std::string("run did not complete: ") +
                 runStatusName(R->Status));
  Instructions = R->Behaviour.Instructions;
  Cycles = R->Behaviour.Cycles;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
}

//===----------------------------------------------------------------------===//
// Baseline comparison
//
// The baseline file is our own emitted JSON; the reader below is a
// purpose-built scanner for that fixed shape (objects with string and
// number fields inside the "rows" array), not a general JSON parser.
// Anything it cannot understand is a hard error: a silently-skipped
// baseline row would silently disable the regression guard.
//===----------------------------------------------------------------------===//

struct BaselineRow {
  std::string Name;
  std::string Level;
  double InstrPerSec = 0;
  double CyclesPerSec = 0;
};

bool extractString(const std::string &Obj, const char *Key,
                   std::string &Out) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t At = Obj.find(Needle);
  if (At == std::string::npos)
    return false;
  size_t Open = Obj.find('"', At + Needle.size());
  if (Open == std::string::npos)
    return false;
  size_t Close = Obj.find('"', Open + 1);
  if (Close == std::string::npos)
    return false;
  Out = Obj.substr(Open + 1, Close - Open - 1);
  return true;
}

bool extractNumber(const std::string &Obj, const char *Key, double &Out) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t At = Obj.find(Needle);
  if (At == std::string::npos)
    return false;
  try {
    Out = std::stod(Obj.substr(At + Needle.size()));
  } catch (...) {
    return false;
  }
  return true;
}

Result<std::vector<BaselineRow>> loadBaseline(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return Error("cannot read baseline '" + Path + "'");
  std::stringstream Buf;
  Buf << F.rdbuf();
  std::string Text = Buf.str();

  // The current measurement lives under "rows"; the committed file may
  // additionally carry a "before" array (the pre-optimisation numbers,
  // kept for the record) which is deliberately not compared against.
  size_t RowsAt = Text.find("\"rows\":");
  if (RowsAt == std::string::npos)
    return Error("baseline '" + Path + "' has no \"rows\" array");
  size_t Open = Text.find('[', RowsAt);
  if (Open == std::string::npos)
    return Error("baseline '" + Path + "': malformed rows array");

  std::vector<BaselineRow> Rows;
  size_t At = Open + 1;
  while (true) {
    size_t ObjOpen = Text.find('{', At);
    size_t ArrClose = Text.find(']', At);
    if (ArrClose == std::string::npos)
      return Error("baseline '" + Path + "': unterminated rows array");
    if (ObjOpen == std::string::npos || ObjOpen > ArrClose)
      break;
    size_t ObjClose = Text.find('}', ObjOpen);
    if (ObjClose == std::string::npos)
      return Error("baseline '" + Path + "': unterminated row object");
    std::string Obj = Text.substr(ObjOpen, ObjClose - ObjOpen + 1);
    BaselineRow R;
    if (!extractString(Obj, "name", R.Name) ||
        !extractString(Obj, "level", R.Level) ||
        !extractNumber(Obj, "instr_per_sec", R.InstrPerSec))
      return Error("baseline '" + Path + "': row missing required fields");
    extractNumber(Obj, "cycles_per_sec", R.CyclesPerSec); // 0 when absent
    Rows.push_back(std::move(R));
    At = ObjClose + 1;
  }
  if (Rows.empty())
    return Error("baseline '" + Path + "' has no rows");
  return Rows;
}

/// True when \p Name is an engine this host cannot run natively.
bool unsupportedEngine(const std::string &Name) {
  for (size_t E = 0; E != NumEngines; ++E)
    if (Name == EngineTable[E].Name)
      return !engineSupported(static_cast<Engine>(E));
  return false;
}

/// Compares \p Rows against \p Base.  Returns the number of regressions:
/// throughput below (1 - Band) of baseline, or a baseline row with no
/// fresh row (a renamed or dropped row would otherwise leave the guard
/// unseen) unless its engine cannot run on this host.  Rows faster than
/// (1 + Band) of baseline only print a re-baseline hint.
unsigned compareAgainstBaseline(const std::vector<Row> &Rows,
                                const std::vector<BaselineRow> &Base,
                                double Band) {
  unsigned Regressions = 0;
  auto Check = [&](const Row &R, const char *Metric, double Current,
                   double Baseline) {
    if (Baseline <= 0 || Current <= 0)
      return;
    double Ratio = Current / Baseline;
    if (Ratio < 1.0 - Band) {
      std::fprintf(stderr,
                   "bench_layers: REGRESSION %s/%s %s: %.3g vs baseline "
                   "%.3g (%.0f%%, guard band %.0f%%)\n",
                   R.Name.c_str(), R.Level.c_str(), Metric, Current,
                   Baseline, (Ratio - 1.0) * 100, Band * 100);
      ++Regressions;
    } else if (Ratio > 1.0 + Band) {
      std::fprintf(stderr,
                   "bench_layers: note: %s/%s %s improved %.0f%% over the "
                   "baseline; consider committing the fresh "
                   "BENCH_layers.json\n",
                   R.Name.c_str(), R.Level.c_str(), Metric,
                   (Ratio - 1.0) * 100);
    }
  };
  for (const Row &R : Rows) {
    const BaselineRow *B = nullptr;
    for (const BaselineRow &Cand : Base)
      if (Cand.Name == R.Name && Cand.Level == R.Level)
        B = &Cand;
    if (!B) {
      std::fprintf(stderr,
                   "bench_layers: note: no baseline row for %s/%s (new "
                   "cell)\n",
                   R.Name.c_str(), R.Level.c_str());
      continue;
    }
    Check(R, "instr/s", R.InstrPerSec, B->InstrPerSec);
    Check(R, "cycles/s", R.CyclesPerSec, B->CyclesPerSec);
  }
  for (const BaselineRow &B : Base) {
    bool Fresh = std::any_of(Rows.begin(), Rows.end(), [&](const Row &R) {
      return R.Name == B.Name && R.Level == B.Level;
    });
    if (Fresh || unsupportedEngine(B.Level))
      continue;
    std::fprintf(stderr,
                 "bench_layers: MISSING %s/%s: in the baseline but not "
                 "measured\n",
                 B.Name.c_str(), B.Level.c_str());
    ++Regressions;
  }
  return Regressions;
}

void writeJson(std::ostream &F, const std::vector<Row> &Rows, unsigned Reps,
               unsigned Warmup) {
  F << "{\n";
  F << "  \"schema\": \"bench-layers-v1\",\n";
  F << "  \"reps\": " << Reps << ",\n";
  F << "  \"warmup\": " << Warmup << ",\n";
  F << "  \"rows\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    F << "    {\"name\": \"" << R.Name << "\", \"level\": \"" << R.Level
      << "\", \"instructions\": " << R.Instructions
      << ", \"cycles\": " << R.Cycles
      << ", \"median_wall_ns\": " << R.MedianWallNs << ", \"instr_per_sec\": "
      << static_cast<uint64_t>(R.InstrPerSec) << ", \"cycles_per_sec\": "
      << static_cast<uint64_t>(R.CyclesPerSec) << "}"
      << (I + 1 == Rows.size() ? "\n" : ",\n");
  }
  F << "  ]\n";
  F << "}\n";
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--reps=N] [--warmup=N] [--out=FILE]\n"
               "          [--baseline=FILE] [--guard-band=F]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 5;
  unsigned Warmup = 1;
  double GuardBand = 0.25;
  std::string OutFile = "BENCH_layers.json";
  std::string BaselineFile;

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    try {
      if (const char *V = Value("--reps="))
        Reps = std::max(1u, static_cast<unsigned>(std::stoul(V)));
      else if (const char *V = Value("--warmup="))
        Warmup = static_cast<unsigned>(std::stoul(V));
      else if (const char *V = Value("--out="))
        OutFile = V;
      else if (const char *V = Value("--baseline="))
        BaselineFile = V;
      else if (const char *V = Value("--guard-band="))
        GuardBand = std::stod(V);
      else
        return usage(Argv[0]);
    } catch (...) {
      return usage(Argv[0]);
    }
  }

  std::vector<Row> Rows;
  for (const Workload &W : workloads()) {
    for (Engine E : W.Engines) {
      const EngineRow &Eng = engineRow(E);
      if (!engineSupported(E)) {
        // No row at all: no interpreter numbers under the engine's
        // label, and the baseline guard skips the absent row.
        std::fprintf(stderr,
                     "bench_layers: skipping %s/%s (host unsupported)\n",
                     W.Name.c_str(), Eng.Name);
        continue;
      }
      // The backend is part of the session spec, so each row gets its
      // own (untimed) Executor rather than sharing one per workload.
      RunSpec Spec = W.Spec;
      Spec.Exec.Backend = Eng.Backend;
      Spec.Exec.Hdl = Eng.Hdl;
      Result<Executor> ExecOr = Executor::create(Spec);
      if (!ExecOr) {
        std::fprintf(stderr, "bench_layers: %s: %s\n", W.Name.c_str(),
                     ExecOr.error().str().c_str());
        return 1;
      }
      Executor Exec = ExecOr.take();
      Row R;
      R.Name = W.Name;
      R.Level = Eng.Name;
      std::vector<uint64_t> Samples;
      for (unsigned Rep = 0; Rep != Warmup + Reps; ++Rep) {
        Result<uint64_t> Ns =
            timedRun(Exec, Eng.L, R.Instructions, R.Cycles);
        if (!Ns) {
          std::fprintf(stderr, "bench_layers: %s at %s: %s\n",
                       W.Name.c_str(), Eng.Name,
                       Ns.error().str().c_str());
          return 1;
        }
        if (Rep >= Warmup)
          Samples.push_back(*Ns);
      }
      R.MedianWallNs = medianNs(std::move(Samples));
      double Seconds = static_cast<double>(R.MedianWallNs) * 1e-9;
      if (Seconds > 0) {
        R.InstrPerSec = static_cast<double>(R.Instructions) / Seconds;
        R.CyclesPerSec = static_cast<double>(R.Cycles) / Seconds;
      }
      std::fprintf(stderr,
                   "bench_layers: %-8s %-8s %9llu instr %10llu cycles "
                   "median %11llu ns  %12.0f instr/s %12.0f cycles/s\n",
                   R.Name.c_str(), R.Level.c_str(),
                   (unsigned long long)R.Instructions,
                   (unsigned long long)R.Cycles,
                   (unsigned long long)R.MedianWallNs, R.InstrPerSec,
                   R.CyclesPerSec);
      Rows.push_back(std::move(R));
    }
  }

  if (!OutFile.empty()) {
    std::ofstream F(OutFile, std::ios::binary);
    if (!F) {
      std::fprintf(stderr, "bench_layers: cannot write '%s'\n",
                   OutFile.c_str());
      return 1;
    }
    writeJson(F, Rows, Reps, Warmup);
    std::fprintf(stderr, "bench_layers: wrote %zu rows to %s\n", Rows.size(),
                 OutFile.c_str());
  }

  if (!BaselineFile.empty()) {
    Result<std::vector<BaselineRow>> Base = loadBaseline(BaselineFile);
    if (!Base) {
      std::fprintf(stderr, "bench_layers: %s\n", Base.error().str().c_str());
      return 2;
    }
    unsigned Regressions = compareAgainstBaseline(Rows, *Base, GuardBand);
    if (Regressions) {
      std::fprintf(stderr, "bench_layers: %u regression(s) beyond the "
                   "%.0f%% guard band or missing row(s)\n", Regressions,
                   GuardBand * 100);
      return 3;
    }
    std::fprintf(stderr, "bench_layers: all rows within the baseline guard "
                 "band\n");
  }
  return 0;
}
