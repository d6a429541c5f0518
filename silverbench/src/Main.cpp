//===- silverbench/Main.cpp - SilverStack end-to-end benchmark -----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//   silverbench --workload W --seed N --seconds S --trace 0|1
//               --out DIR --hdl-cache DIR [--plant-wrong-expected]
//
// Sets the workload up at least seven times and for at least a second
// (setup_s is the median), then runs it for S seconds with the
// workload's reference ops spread over the time (Common.h, Reference).
// --trace 0 prints the end-to-end metrics; --trace 1 runs S seconds whose
// decks alternate untraced and traced, then the layer probe (Probe.cpp),
// and prints the per-layer metrics, with the traced decks' span
// breakdown and the tracing overhead in the details.  The
// last stdout line is the result object; the stamp, the details and
// (traced) the spans also go to DIR/<workload>-seed<N>-trace<T>.json.
// Exit 0 when the run completed, whatever the correctness verdict; 2 on
// bad arguments or a host that cannot run every engine.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include <malloc.h>
#include <sched.h>

using namespace sb;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string OutDir;
  std::string HdlCacheDir;
  bool PlantWrongExpected = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--plant-wrong-expected") {
      A.PlantWrongExpected = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    try {
      if (K == "--workload")
        A.Workload = V;
      else if (K == "--seed")
        A.Seed = std::stoull(V);
      else if (K == "--seconds")
        A.Seconds = std::stod(V);
      else if (K == "--trace")
        A.Trace = std::stoi(V) != 0;
      else if (K == "--out")
        A.OutDir = V;
      else if (K == "--hdl-cache")
        A.HdlCacheDir = V;
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return !A.Workload.empty() && A.Seconds > 0 && !A.OutDir.empty() &&
         !A.HdlCacheDir.empty();
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// The host and run stamp: what makes a committed number readable.
std::string stampJson(const Args &A) {
  std::string Cpu = "unknown";
  std::ifstream Info("/proc/cpuinfo");
  for (std::string Line; std::getline(Info, Line);)
    if (Line.rfind("model name", 0) == 0) {
      Cpu = Line.substr(Line.find(':') + 2);
      break;
    }
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Nproc = sched_getaffinity(0, sizeof Set, &Set) == 0 ? CPU_COUNT(&Set) : 0;
  auto Env = [](const char *K) {
    const char *V = std::getenv(K);
    return std::string(V ? V : "unknown");
  };
  return "{\"cpu_model\":" + jsonString(Cpu) +
         ",\"nproc\":" + std::to_string(Nproc) +
         ",\"compiler\":" + jsonString(SILVERBENCH_COMPILER) +
         ",\"build_type\":" + jsonString(SILVERBENCH_BUILD_TYPE) +
         ",\"git_commit\":" + jsonString(Env("SILVERBENCH_COMMIT")) +
         ",\"source_digest\":" + jsonString(Env("SILVERBENCH_SOURCE_DIGEST")) +
         ",\"workload\":" + jsonString(A.Workload) +
         ",\"seed\":" + std::to_string(A.Seed) +
         ",\"seconds\":" + jsonNumber(A.Seconds) +
         ",\"trace\":" + (A.Trace ? "1" : "0") + "}";
}

/// Where each metric is read from, in order: the window, the set-up,
/// the probe.
class Sources {
public:
  explicit Sources(std::vector<const Ledger *> Ls) : Ls(std::move(Ls)) {
    for (const Ledger *L : this->Ls)
      Self.push_back(L->T.selfTimesMs());
  }

  /// Mean self time of the spans named \p Name in the first source
  /// that has any.
  double meanSelfMs(const std::string &Name) const {
    for (const auto &M : Self)
      if (auto It = M.find(Name); It != M.end() && !It->second.empty()) {
        double Sum = 0;
        for (double V : It->second)
          Sum += V;
        return Sum / static_cast<double>(It->second.size());
      }
    return 0;
  }

  /// The engine's totals from the first source that stepped it; the
  /// window's own ops count only when they stepped it long enough for a
  /// steady rate, else the reference ops take over.
  const EngineTotals *engine(const char *Name) const {
    for (size_t I = 0; I != Ls.size(); ++I)
      if (const EngineTotals *T = stepped(*Ls[I], Name, I > 0))
        return T;
    return nullptr;
  }

  /// Throughput ratio of two engines, from the first source that ran
  /// both; every source runs the two on the same programs.
  double ratio(const Engine &Num, const Engine &Den) const {
    for (const Ledger *L : Ls) {
      const EngineTotals *N = stepped(*L, Num.Name, true);
      const EngineTotals *D = stepped(*L, Den.Name, true);
      if (N && D)
        return throughput(*N) / throughput(*D);
    }
    return 0;
  }

  const CompileTotals *compile() const {
    for (const Ledger *L : Ls)
      if (L->Compile.Count)
        return &L->Compile;
    return nullptr;
  }

  double layer(const std::string &Key) const {
    for (const Ledger *L : Ls)
      if (auto It = L->Layer.find(Key); It != L->Layer.end())
        return It->second;
    return 0;
  }

  /// Instructions (hardware: cycles) per second over the engine's
  /// blocks of runs, as measured or (\p AtReference) at the reference
  /// host speed.
  static double throughput(const EngineTotals &T, bool AtReference = false) {
    return rateOf(T.StepBlocks, AtReference);
  }

private:
  /// Rates from less stepping than this are too noisy to report.
  static constexpr double MinStepMs = 200;

  static const EngineTotals *stepped(const Ledger &L, const char *Name,
                                     bool AnyAmount) {
    auto It = L.Engines.find(Name);
    if (It == L.Engines.end() || It->second.StepBlocks.empty())
      return nullptr;
    return AnyAmount || It->second.StepMs >= MinStepMs ? &It->second : nullptr;
  }

  std::vector<const Ledger *> Ls;
  std::vector<std::map<std::string, std::vector<double>>> Self;
};

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// The end-to-end metrics: times and rates at the reference host speed
/// (\p AtReference), or as measured.
Metrics endToEnd(const Sources &Src, const Window &W, const Samples &SetupS,
                 double RssMb, bool AtReference) {
  Metrics M;
  auto Put = [&](const std::string &K, double V, const char *Unit) {
    M.push_back({K, {V, Unit}});
  };
  auto Times = [&](const Samples &S) {
    return AtReference ? atReferenceSpeed(S) : values(S);
  };
  Put("setup_s", median(Times(SetupS)), "s");
  Put("peak_rss_mb", RssMb, "MB");
  std::vector<double> Latency = Times(W.LatencyMs);
  Put("latency_p50_ms", median(Latency), "ms");
  Put("latency_tail_ms",
      percentile(Latency, tailPercentile(Latency.size(), W.TailCap)), "ms");
  Put("ops_per_s", rateOf(W.Completed, AtReference), "1/s");
  const CompileTotals *C = Src.compile();
  Put("compile_p50_ms", C ? median(Times(C->Ms)) : 0, "ms");
  Put("image_kb", C ? C->meanImageBytes() / 1024 : 0, "KB");
  for (const Engine *E : AllEngines) {
    const EngineTotals *T = Src.engine(E->Name);
    Put(std::string(E->Hardware ? "cycles_per_s." : "instr_per_s.") + E->Name,
        T ? Sources::throughput(*T, AtReference) : 0, "1/s");
  }
  Put("goodput_jobs_per_s", rateOf(W.Goodput, AtReference), "1/s");
  return M;
}

Metrics perLayer(const Sources &Src, const Tally &T, double OverheadRatio) {
  Metrics M;
  auto Put = [&](const std::string &K, double V, const char *Unit) {
    M.push_back({K, {V, Unit}});
  };
  for (const char *Phase :
       {"parse", "infer", "lower", "opt", "flatten", "codegen"})
    Put(std::string("cml.") + Phase + "_ms",
        Src.meanSelfMs(std::string("cml.") + Phase), "ms");
  Put("asm.assemble_ms", Src.meanSelfMs("asm.assemble"), "ms");
  const CompileTotals *C = Src.compile();
  auto PerCompile = [&](uint64_t V) {
    return C ? static_cast<double>(V) / static_cast<double>(C->Count) : 0;
  };
  Put("cml.functions", C ? PerCompile(C->Functions) : 0, "count");
  Put("cml.image_bytes", C ? C->meanImageBytes() : 0, "bytes");
  Put("cml.opt.folded", C ? PerCompile(C->Folded) : 0, "count");
  Put("cml.opt.removed_lets", C ? PerCompile(C->RemovedLets) : 0, "count");
  Put("cml.opt.inlined", C ? PerCompile(C->Inlined) : 0, "count");
  for (const Engine *E : AllEngines) {
    std::string N = E->Name;
    const EngineTotals *Tot = Src.engine(E->Name);
    double Runs = Tot ? static_cast<double>(Tot->Runs) : 1;
    Put("stack.begin_ms." + N, Src.meanSelfMs("stack.begin." + N), "ms");
    Put("stack.step_ms." + N, Src.meanSelfMs("stack.step." + N), "ms");
    Put("stack.instructions." + N,
        Tot ? static_cast<double>(Tot->Instructions) / Runs : 0, "count");
    if (E->Hardware)
      Put("stack.cycles." + N,
          Tot ? static_cast<double>(Tot->Cycles) / Runs : 0, "count");
  }
  Put("ratio.jit_over_isa", Src.ratio(Jit, Isa), "ratio");
  Put("ratio.machine-sem_over_isa", Src.ratio(MachineSem, Isa), "ratio");
  Put("ratio.verilog-compiled_over_verilog",
      Src.ratio(VerilogCompiled, Verilog), "ratio");
  Put("hdl.compiled_build_s", Src.layer("hdl.compiled_build_s"), "s");
  Put("fuzz.generate_ms", Src.meanSelfMs("fuzz.generate"), "ms");
  Put("fuzz.run_case_ms", Src.meanSelfMs("fuzz.run_case"), "ms");
  double Cases = Src.layer("fuzz.cases");
  Put("fuzz.inconclusive_ratio",
      Cases > 0 ? Src.layer("fuzz.inconclusive") / Cases : 0, "ratio");
  Put("svc.submit_us", Src.layer("svc.submit_us"), "us");
  Put("svc.prepare_cache.hit_ratio", Src.layer("svc.prepare_cache.hit_ratio"),
      "ratio");
  Put("svc.rejected_ratio", Src.layer("svc.rejected_ratio"), "ratio");
  Put("svc.queue_depth_max", Src.layer("svc.queue_depth_max"), "count");
  Put("svc.reported_p99_ms", Src.layer("svc.reported_p99_ms"), "ms");
  Put("gen.late_ms", Src.layer("gen.late_ms"), "ms");
  double Attempted = static_cast<double>(T.Attempted ? T.Attempted : 1);
  Put("stack.oom_ratio", static_cast<double>(T.Oom) / Attempted, "ratio");
  Put("failed_ratio", static_cast<double>(T.Failed) / Attempted, "ratio");
  Put("trace.overhead_ratio", OverheadRatio, "ratio");
  return M;
}

/// Share of the traced window's time spent in each span name's self
/// time.  The self times partition the root spans, so the shares sum
/// to 1; "op" is the op time no named span covers.
std::string breakdownJson(const Ledger &L) {
  std::map<std::string, std::vector<double>> Self = L.T.selfTimesMs();
  double Total = 0;
  std::map<std::string, double> Sum;
  for (const auto &[Name, V] : Self)
    for (double X : V) {
      Sum[Name] += X;
      Total += X;
    }
  std::string Out = "{\"total_ms\":" + jsonNumber(Total) + ",\"self_share\":{";
  bool First = true;
  for (const auto &[Name, S] : Sum) {
    Out += First ? "" : ",";
    Out += jsonString(Name) + ":" + jsonNumber(Total > 0 ? S / Total : 0);
    First = false;
  }
  return Out + "}}";
}

/// How fast the host ran: the probes' quartiles and the median speed
/// over the window's latency samples.
std::string hostSpeedJson(const Window &W) {
  std::vector<double> Ms = probeTimesMs(), Speed;
  for (const Sample &S : W.LatencyMs)
    Speed.push_back(speedAt(S.At));
  return "{\"probes\":" + std::to_string(Ms.size()) +
         ",\"probe_ms_q1\":" + jsonNumber(percentile(Ms, 25)) +
         ",\"probe_ms_q2\":" + jsonNumber(percentile(Ms, 50)) +
         ",\"probe_ms_q3\":" + jsonNumber(percentile(Ms, 75)) +
         ",\"window_speed\":" + jsonNumber(median(Speed)) +
         ",\"probe_s\":" + jsonNumber(probeSpentMs() / 1e3) + "}";
}

/// Per engine, the blocks its rate comes from: their count and the
/// quartiles of their rates as measured.
std::string rateBlocksJson(const Sources &Src) {
  std::string Out = "{";
  for (const Engine *E : AllEngines) {
    const EngineTotals *T = Src.engine(E->Name);
    std::vector<double> V;
    for (const Block &B : T ? T->StepBlocks : Blocks())
      V.push_back(B.Work / (B.Ms / 1e3));
    Out += std::string(E == AllEngines[0] ? "" : ",") + jsonString(E->Name) +
           ":[" + std::to_string(V.size()) + "," +
           jsonNumber(percentile(V, 25)) + "," + jsonNumber(percentile(V, 50)) +
           "," + jsonNumber(percentile(V, 75)) + "]";
  }
  return Out + "}";
}

std::string metricsJson(const Metrics &M) {
  std::string Out = "{";
  for (size_t I = 0; I != M.size(); ++I) {
    Out += I ? ", " : "";
    Out += jsonString(M[I].first) + ": {\"value\": " +
           jsonNumber(M[I].second.first) +
           ", \"unit\": " + jsonString(M[I].second.second) + "}";
  }
  return Out + "}";
}

std::unique_ptr<Workload> makeWorkload(const Args &A) {
  if (A.Workload == "oneshot")
    return makeOneshot(A.Seed);
  if (A.Workload == "longrun")
    return makeLongrun(A.Seed);
  if (A.Workload == "cosim")
    return makeCosim(A.Seed, A.HdlCacheDir + "/cosim");
  if (A.Workload == "svc")
    return makeSvc(A.Seed);
  return nullptr;
}

/// Set-ups per run: at least MinSetupReps and at least MinSetupS in
/// all, so that a set-up of a few ms is still timed steadily.
constexpr unsigned MinSetupReps = 7, MaxSetupReps = 401;
constexpr double MinSetupS = 1;

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::cerr << "usage: silverbench --workload oneshot|longrun|cosim|svc "
                 "--seed N --seconds S --trace 0|1 --out DIR --hdl-cache DIR "
                 "[--plant-wrong-expected]\n";
    return 2;
  }
  // One malloc arena for every thread.  With one per thread, svc's peak
  // RSS depended on which threads happened to allocate at once: ten runs
  // ranged from 38.5 to 48.3 MB, a spread of 0.19 against a bound of 0.2.
  // With one, the next ten spread 0.08.
  mallopt(M_ARENA_MAX, 1);
  std::unique_ptr<Workload> W = makeWorkload(A);
  if (!W) {
    std::cerr << "silverbench: unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  // Every engine must really run: a silent fallback to an interpreter
  // would measure the wrong engine under the right name.
  setenv("SILVER_HDL_CACHE", (A.HdlCacheDir + "/run").c_str(), 1);
  if (!stack::backendSupported(stack::BackendKind::Jit) ||
      !stack::hdlBackendSupported(stack::HdlBackendKind::Compiled)) {
    std::cerr << "silverbench: this host cannot run the JIT or the compiled "
                 "simulator\n";
    return 2;
  }
  if (A.PlantWrongExpected)
    plantWrongExpected();

  std::string Stamp = stampJson(A);
  std::cout << "{\"stamp\": " << Stamp << "}\n";
  Clock::time_point Epoch = Clock::now();
  Tally T;
  std::ostringstream Detail;

  Ledger SetupL(false, Epoch);
  Samples SetupS;
  probeHostSpeed(true);
  for (double Total = 0; SetupS.size() < MaxSetupReps &&
                         (SetupS.size() < MinSetupReps || Total < MinSetupS);) {
    // The rep count varies with the host's speed; the digest covers the
    // last set-up and what follows it.
    resetInputsDigest();
    Clock::time_point S = Clock::now();
    W->setup(SetupL, T);
    Clock::time_point E = Clock::now();
    SetupS.push_back({msBetween(S, E) / 1e3, S + (E - S) / 2});
    Total += SetupS.back().V;
    probeHostSpeed();
  }
  probeHostSpeed(true);
  Detail << "{\"setup_reps\":" << SetupS.size();

  W->Ref.prepare(SetupL, T, A.Seed, A.HdlCacheDir + "/reference");

  Metrics M;
  std::string Spans;
  if (!A.Trace) {
    Ledger WinL(false, Epoch), RefL(false, Epoch);
    W->Ref.start(RefL, A.Seconds);
    Window Win = W->run(WinL, T, A.Seconds);
    double Rss = peakRssMb();
    probeHostSpeed(true);
    Sources Src({&WinL, &RefL});
    M = endToEnd(Src, Win, SetupS, Rss, true);
    Detail << ",\"latency_samples\":" << Win.LatencyMs.size()
           << ",\"tail_percentile\":"
           << jsonNumber(tailPercentile(Win.LatencyMs.size(), Win.TailCap))
           << ",\"as_measured\":"
           << metricsJson(endToEnd(Src, Win, SetupS, Rss, false))
           << ",\"host_speed\":" << hostSpeedJson(Win)
           << ",\"rate_blocks\":" << rateBlocksJson(Src)
           << ",\"window_s\":" << jsonNumber(Win.Seconds)
           << ",\"window_ops\":" << Win.Ops
           << ",\"reference_s\":" << jsonNumber(W->Ref.spentMs() / 1e3);
  } else {
    Ledger SetupTraced(true, Epoch);
    W->setup(SetupTraced, T);
    // One window whose decks alternate untraced and traced, so the
    // overhead is not confounded with the host's drift.
    Ledger WinL(true, Epoch), RefL(true, Epoch);
    WinL.T.setEnabled(false);
    W->Alternate = true;
    W->Ref.start(RefL, A.Seconds);
    Window Win = W->run(WinL, T, A.Seconds);
    Ledger ProbeL(true, Epoch);
    runProbe(ProbeL, T, A.Seed);
    double P0 = median(values(Win.LatencyMs)),
           P1 = median(values(Win.TracedLatencyMs));
    M = perLayer(Sources({&WinL, &RefL, &SetupTraced, &ProbeL, &SetupL}), T,
                 P0 > 0 ? P1 / P0 - 1 : 0);
    Detail << ",\"untraced_p50_ms\":" << jsonNumber(P0)
           << ",\"untraced_samples\":" << Win.LatencyMs.size()
           << ",\"traced_p50_ms\":" << jsonNumber(P1)
           << ",\"traced_samples\":" << Win.TracedLatencyMs.size()
           << ",\"breakdown\":" << breakdownJson(WinL);
    std::ostringstream Os;
    Os << "{\"window\":";
    WinL.T.writeJson(Os);
    Os << ",\"reference\":";
    RefL.T.writeJson(Os);
    Os << ",\"setup\":";
    SetupTraced.T.writeJson(Os);
    Os << ",\"probe\":";
    ProbeL.T.writeJson(Os);
    Os << "}";
    Spans = Os.str();
  }
  Detail << ",\"inputs_digest\":\"" << std::hex << inputsDigest()
         << "\",\"images_digest\":\"" << imagesDigest() << std::dec
         << "\",\"reference_counts\":{";
  bool First = true;
  for (const auto &[Name, C] : W->Ref.counts()) {
    Detail << (First ? "" : ",") << jsonString(Name) << ":[" << C.first << ","
           << C.second << "]";
    First = false;
  }
  Detail << "}";
  Detail << ",\"failures\":[";
  for (size_t I = 0; I != T.Failures.size(); ++I) {
    Detail << (I ? "," : "") << jsonString(T.Failures[I]);
    std::cerr << "silverbench: failed: " << T.Failures[I] << "\n";
  }
  Detail << "]}";

  std::string Result = "{\"correct\": " +
                       std::string(T.Failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(T.Attempted) +
                       ", \"failed\": " + std::to_string(T.Failed) +
                       ", \"metrics\": " + metricsJson(M) + "}";
  std::string Path = A.OutDir + "/" + A.Workload + "-seed" +
                     std::to_string(A.Seed) + "-trace" +
                     (A.Trace ? "1" : "0") + ".json";
  std::ofstream Out(Path);
  Out << "{\"stamp\": " << Stamp << ",\n\"detail\": " << Detail.str()
      << ",\n\"result\": " << Result;
  if (!Spans.empty())
    Out << ",\n\"spans\": " << Spans;
  Out << "}\n";
  if (!Out) {
    std::cerr << "silverbench: cannot write " << Path << "\n";
    return 2;
  }
  std::cout << "{\"detail\": " << Detail.str() << "}\n";
  std::cout << Result << std::endl;
  return 0;
}
