//===- examples/silver_client.cpp - silverd command-line client ----------------===//
//
// Talks the svc wire protocol to a running silverd:
//
//   silver-client --socket=S submit prog.cml --args="a b" --wait-ms=60000
//   silver-client --socket=S submit --builtin=wc --stdin-file=f --level=rtl
//   silver-client --socket=S submit --builtin=hello --slice=100000
//   silver-client --socket=S status 7 [--wait-ms=N]
//   silver-client --socket=S resume 7 [--slice=N] [--wait-ms=N]
//   silver-client --socket=S cancel 7
//   silver-client --socket=S stats
//   silver-client --socket=S drain
//   silver-client --tcp=127.0.0.1:4100 ...
//
// submit blocks for the job by default (--wait-ms=60000); --wait-ms=0
// submits asynchronously and prints the job id for later status calls.
// With --json, submit/status/resume print the job outcome in the same
// one-line shape as silverc --json, so scripts parse both identically.
//
// Exit code: the job's exit code when it completed; 1 on any error,
// rejection, or non-completed state.
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"
#include "stack/Stack.h"
#include "support/StringUtils.h"
#include "svc/Client.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace silver;

namespace {

int fail(const std::string &Message) {
  std::fprintf(stderr, "silver-client: error: %s\n", Message.c_str());
  return 1;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: silver-client --socket=PATH|--tcp=HOST:PORT COMMAND ...\n"
      "  submit FILE|--builtin=hello|cat|wc|sort|proof\n"
      "         [--level=spec|machine|isa|rtl|verilog]\n"
      "         [--backend=interp|jit] [--hdl=interp|compiled]\n"
      "         [--args=\"...\"]\n"
      "         [--stdin-file=FILE] [--priority=N] [--slice=N]\n"
      "         [--max-steps=N] [--wall-ms=N] [--wait-ms=N] [--json]\n"
      "         [--client=ID] [--live]\n"
      "  status JOBID [--wait-ms=N] [--json] [--digest]\n"
      "  resume JOBID [--slice=N] [--wait-ms=N] [--json] [--digest]\n"
      "  cancel JOBID\n"
      "  stream JOBID [--from=N]\n"
      "  stats\n"
      "  drain\n"
      "  --client=ID   fairness tenant (per-client queue quota)\n"
      "  --live        publish stdout incrementally for stream\n"
      "  --digest      print the job's StateDigest as one canonical line\n");
  return 1;
}

std::string readAll(std::istream &In) {
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

const char *builtinSource(const std::string &Name) {
  if (Name == "hello")
    return stack::helloSource();
  if (Name == "cat")
    return stack::catSource();
  if (Name == "wc")
    return stack::wcSource();
  if (Name == "sort")
    return stack::sortSource();
  if (Name == "proof")
    return stack::proofCheckerSource();
  return nullptr;
}

/// Prints a settled job the way scripts and humans want it, returns the
/// process exit code.
int reportJob(const svc::JobInfo &Info, const std::string &LevelName,
              bool Json) {
  const stack::Observed &B = Info.Outcome.Behaviour;
  if (Json) {
    std::printf("%s\n",
                svc::outcomeJson(svc::jobStateName(Info.State), LevelName, B)
                    .c_str());
    return Info.State == svc::JobState::Completed ? B.ExitCode : 1;
  }
  switch (Info.State) {
  case svc::JobState::Completed:
    std::fwrite(B.StdoutData.data(), 1, B.StdoutData.size(), stdout);
    std::fwrite(B.StderrData.data(), 1, B.StderrData.size(), stderr);
    std::fprintf(stderr,
                 "silver-client: job %llu [%s] completed: %llu instructions, "
                 "exit %d\n",
                 (unsigned long long)Info.Id, LevelName.c_str(),
                 (unsigned long long)B.Instructions, B.ExitCode);
    return B.ExitCode;
  case svc::JobState::Queued:
  case svc::JobState::Running:
  case svc::JobState::Paused:
    std::printf("job %llu %s (%llu instructions so far, %llu slices)\n",
                (unsigned long long)Info.Id, svc::jobStateName(Info.State),
                (unsigned long long)B.Instructions,
                (unsigned long long)Info.SlicesRun);
    // An async submit or a still-running wait is not a failure.
    return 0;
  default:
    std::fprintf(stderr, "silver-client: job %llu %s%s%s\n",
                 (unsigned long long)Info.Id, svc::jobStateName(Info.State),
                 Info.Outcome.Error.empty() ? "" : ": ",
                 Info.Outcome.Error.c_str());
    return 1;
  }
}

/// Prints the job's architectural StateDigest as one canonical line, so
/// scripts can compare pre-crash and post-recovery machine states with a
/// plain string equality (tests/svc/cluster_smoke.sh does exactly that).
int reportDigest(const svc::JobInfo &Info) {
  if (!Info.Outcome.HasDigest) {
    std::fprintf(stderr, "silver-client: job %llu [%s] has no state digest\n",
                 (unsigned long long)Info.Id, svc::jobStateName(Info.State));
    return 1;
  }
  const stack::StateDigest &D = Info.Outcome.Digest;
  std::printf("digest pc=%08x carry=%d overflow=%d regs=",
              (unsigned)D.Pc, D.Carry ? 1 : 0, D.Overflow ? 1 : 0);
  for (Word R : D.Regs)
    std::printf("%08x", (unsigned)R);
  std::printf(" memhash=%016llx membytes=%llu\n",
              (unsigned long long)D.MemoryHash,
              (unsigned long long)D.MemoryBytes);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  std::string TcpTarget;
  std::string Command;
  std::string File;
  std::string Builtin;
  std::string StdinFile;
  std::string Args;
  uint64_t JobId = 0;
  bool HaveJobId = false;
  bool Json = false;
  bool Digest = false;
  uint64_t StreamFrom = 0;
  svc::JobSpec Spec;
  uint64_t WaitMs = 60'000; // submit/status/resume block by default
  uint64_t ResumeSlice = 0;

  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    uint64_t V = 0;
    if (startsWith(A, "--socket="))
      SocketPath = A.substr(9);
    else if (startsWith(A, "--tcp="))
      TcpTarget = A.substr(6);
    else if (startsWith(A, "--builtin="))
      Builtin = A.substr(10);
    else if (startsWith(A, "--level=")) {
      if (!stack::parseLevel(A.substr(8), Spec.Level))
        return usage();
    } else if (startsWith(A, "--backend=")) {
      if (!stack::parseBackendKind(A.substr(10), Spec.Backend))
        return usage();
    } else if (startsWith(A, "--hdl=")) {
      if (!stack::parseHdlBackendKind(A.substr(6), Spec.Hdl))
        return usage();
    } else if (startsWith(A, "--args="))
      Args = A.substr(7);
    else if (startsWith(A, "--stdin-file="))
      StdinFile = A.substr(13);
    else if (startsWith(A, "--priority=") && parseUnsigned(A.substr(11), V))
      Spec.Priority = static_cast<uint8_t>(V);
    else if (startsWith(A, "--slice=") && parseUnsigned(A.substr(8), V)) {
      Spec.SliceInstructions = V;
      ResumeSlice = V;
    } else if (startsWith(A, "--max-steps=") &&
               parseUnsigned(A.substr(12), V))
      Spec.MaxSteps = V;
    else if (startsWith(A, "--wall-ms=") && parseUnsigned(A.substr(10), V))
      Spec.WallMsBudget = V;
    else if (startsWith(A, "--wait-ms=") && parseUnsigned(A.substr(10), V))
      WaitMs = V;
    else if (startsWith(A, "--from=") && parseUnsigned(A.substr(7), V))
      StreamFrom = V;
    else if (startsWith(A, "--client="))
      Spec.ClientId = A.substr(9);
    else if (A == "--live")
      Spec.LiveOutput = true;
    else if (A == "--json")
      Json = true;
    else if (A == "--digest")
      Digest = true;
    else if (!A.empty() && A[0] == '-' && A != "-")
      return usage();
    else if (Command.empty())
      Command = A;
    else if ((Command == "status" || Command == "resume" ||
              Command == "cancel" || Command == "stream") &&
             !HaveJobId && parseUnsigned(A, JobId))
      HaveJobId = true;
    else if (Command == "submit" && File.empty())
      File = A;
    else
      return usage();
  }

  if (Command.empty())
    return usage();
  if (SocketPath.empty() == TcpTarget.empty())
    return usage(); // exactly one transport

  svc::Client C;
  if (!SocketPath.empty()) {
    if (Result<void> R = C.connectUnix(SocketPath); !R)
      return fail(R.error().str());
  } else {
    size_t Colon = TcpTarget.rfind(':');
    uint64_t Port = 0;
    if (Colon == std::string::npos ||
        !parseUnsigned(TcpTarget.substr(Colon + 1), Port) || Port > 65535)
      return fail("bad --tcp target '" + TcpTarget + "' (want HOST:PORT)");
    if (Result<void> R = C.connectTcp(TcpTarget.substr(0, Colon),
                                      static_cast<uint16_t>(Port));
        !R)
      return fail(R.error().str());
  }

  if (Command == "submit") {
    if (!Builtin.empty()) {
      const char *Source = builtinSource(Builtin);
      if (!Source)
        return fail("unknown builtin '" + Builtin + "'");
      Spec.Source = Source;
      Spec.CommandLine = {Builtin};
    } else if (!File.empty()) {
      if (File == "-") {
        Spec.Source = readAll(std::cin);
      } else {
        std::ifstream In(File);
        if (!In)
          return fail("cannot open '" + File + "'");
        Spec.Source = readAll(In);
      }
      Spec.CommandLine = {File == "-" ? "prog" : File};
    } else {
      return usage();
    }
    if (!Args.empty())
      for (const std::string &Arg : splitString(Args, ' '))
        if (!Arg.empty())
          Spec.CommandLine.push_back(Arg);
    if (!StdinFile.empty()) {
      std::ifstream In(StdinFile, std::ios::binary);
      if (!In)
        return fail("cannot open '" + StdinFile + "'");
      Spec.StdinData = readAll(In);
    }
    Result<svc::Response> R = C.submit(Spec, WaitMs);
    if (!R)
      return fail(R.error().str());
    if (!R->Ok)
      return fail(R->Error);
    if (Digest)
      return reportDigest(R->Info);
    return reportJob(R->Info, stack::levelName(Spec.Level), Json);
  }

  if (Command == "status" || Command == "resume" || Command == "cancel") {
    if (!HaveJobId)
      return usage();
    Result<svc::Response> R =
        Command == "status"   ? C.status(JobId, WaitMs)
        : Command == "resume" ? C.resume(JobId, ResumeSlice, WaitMs)
                              : C.cancel(JobId);
    if (!R)
      return fail(R.error().str());
    if (!R->Ok)
      return fail(R->Error);
    if (Digest)
      return reportDigest(R->Info);
    return reportJob(R->Info, stack::levelName(R->Info.Level), Json);
  }

  if (Command == "stream") {
    if (!HaveJobId)
      return usage();
    Result<svc::Response> R =
        C.stream(JobId, StreamFrom, [](uint64_t, const std::string &Data) {
          std::fwrite(Data.data(), 1, Data.size(), stdout);
          std::fflush(stdout);
        });
    if (!R)
      return fail(R.error().str());
    if (!R->Ok)
      return fail(R->Error);
    std::fprintf(stderr, "silver-client: job %llu %s after stream\n",
                 (unsigned long long)R->Info.Id,
                 svc::jobStateName(R->Info.State));
    if (R->Info.State == svc::JobState::Completed)
      return R->Info.Outcome.Behaviour.ExitCode;
    // Paused streams are a clean handoff point (resume continues them),
    // not a failure.
    return R->Info.State == svc::JobState::Paused ? 0 : 1;
  }

  if (Command == "stats" || Command == "drain") {
    Result<svc::Response> R = Command == "stats" ? C.stats() : C.drain();
    if (!R)
      return fail(R.error().str());
    if (!R->Ok)
      return fail(R->Error);
    std::printf("%s\n", R->StatsJson.c_str());
    return 0;
  }

  return usage();
}
