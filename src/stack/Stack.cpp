//===- stack/Stack.cpp - End-to-end verified-stack runner --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Stack.h"

#include "cml/Interp.h"
#include "cml/Parser.h"
#include "hdl/compile/Build.h"
#include "isa/jit/Jit.h"
#include "stack/Executor.h"
#include "support/StringUtils.h"

using namespace silver;
using namespace silver::stack;

const char *silver::stack::backendKindName(BackendKind B) {
  switch (B) {
  case BackendKind::Interp:
    return "interp";
  case BackendKind::Jit:
    return "jit";
  }
  return "?";
}

bool silver::stack::parseBackendKind(const std::string &Name,
                                     BackendKind &Out) {
  if (Name == "interp") {
    Out = BackendKind::Interp;
    return true;
  }
  if (Name == "jit") {
    Out = BackendKind::Jit;
    return true;
  }
  return false;
}

bool silver::stack::backendSupported(BackendKind B) {
  return B == BackendKind::Interp || isa::jit::hostSupported();
}

const char *silver::stack::hdlBackendKindName(HdlBackendKind B) {
  switch (B) {
  case HdlBackendKind::Interp:
    return "interp";
  case HdlBackendKind::Compiled:
    return "compiled";
  }
  return "?";
}

bool silver::stack::parseHdlBackendKind(const std::string &Name,
                                        HdlBackendKind &Out) {
  if (Name == "interp") {
    Out = HdlBackendKind::Interp;
    return true;
  }
  if (Name == "compiled") {
    Out = HdlBackendKind::Compiled;
    return true;
  }
  return false;
}

bool silver::stack::hdlBackendSupported(HdlBackendKind B) {
  return B == HdlBackendKind::Interp || hdl::compiledSimAvailable();
}

const char *silver::stack::levelName(Level L) {
  switch (L) {
  case Level::Spec:
    return "spec";
  case Level::Machine:
    return "machine-sem";
  case Level::Isa:
    return "isa";
  case Level::Rtl:
    return "rtl";
  case Level::Verilog:
    return "verilog";
  }
  return "?";
}

bool silver::stack::parseLevel(const std::string &Name, Level &Out) {
  if (Name == "spec")
    Out = Level::Spec;
  else if (Name == "machine")
    Out = Level::Machine;
  else if (Name == "isa")
    Out = Level::Isa;
  else if (Name == "rtl")
    Out = Level::Rtl;
  else if (Name == "verilog")
    Out = Level::Verilog;
  else
    return false;
  return true;
}

Result<Prepared> silver::stack::prepare(const RunSpec &Spec) {
  Result<cml::Compiled> Compiled =
      cml::compileProgram(Spec.Source, Spec.Compile);
  if (!Compiled)
    return Compiled.error();
  Prepared P;
  P.Program = Compiled.take();
  P.Image.CommandLine = Spec.CommandLine;
  P.Image.StdinData = Spec.StdinData;
  P.Image.Program = P.Program.Program;
  P.Image.Params = Spec.Compile.Layout;
  return P;
}

Result<analysis::AuditReport>
silver::stack::auditPrepared(const Prepared &P) {
  Result<sys::MemoryImage> Image = sys::buildImage(P.Image);
  if (!Image)
    return Image.error();
  return analysis::auditImage(*Image,
                              static_cast<Word>(P.Image.Program.size()));
}

Result<analysis::AuditReport>
silver::stack::auditPrepared(const Prepared &P,
                             const analysis::SummaryObligations &O) {
  Result<analysis::AuditReport> Report = auditPrepared(P);
  if (!Report)
    return Report;
  analysis::ImageSummary Summary = analysis::summarizeImage(*Report);
  for (analysis::AuditDiag &D : analysis::checkObligations(Summary, O))
    Report->Diags.push_back(std::move(D));
  return Report;
}

Result<Observed> silver::stack::runSpecLevel(const RunSpec &Spec) {
  Result<cml::Program> Prog =
      cml::parseProgram(cml::withPrelude(Spec.Source));
  if (!Prog)
    return Error("parse error: " + Prog.error().str());
  cml::RunOutput Out = cml::interpretProgram(*Prog, Spec.CommandLine,
                                             Spec.StdinData, 0);
  if (!Out.Ok)
    return Error("interpreter error: " + Out.ErrorMessage);
  Observed O;
  O.StdoutData = Out.StdoutData;
  O.StderrData = Out.StderrData;
  O.ExitCode = Out.ExitCode;
  O.Terminated = true;
  O.Instructions = Out.Steps;
  return O;
}

Result<std::vector<Observed>>
silver::stack::checkEndToEnd(const RunSpec &Spec,
                             const std::vector<Level> &Levels) {
  Result<Executor> Exec = Executor::create(Spec);
  if (!Exec)
    return Exec.error();

  // The reference semantics is the yardstick.
  Result<Outcome> SpecOut = Exec->run(Level::Spec);
  if (!SpecOut)
    return SpecOut.error();
  const Observed &SpecRun = SpecOut->Behaviour;

  std::vector<Observed> Results;
  for (Level L : Levels) {
    Result<Outcome> R = L == Level::Spec ? SpecOut : Exec->run(L);
    if (!R)
      return Error(std::string(levelName(L)) + ": " + R.error().str());
    const Observed &O = R->Behaviour;
    if (!O.Terminated)
      return Error(std::string(levelName(L)) +
                   ": did not terminate within the step budget");
    bool Oom = O.ExitCode == machine::OomExitCode &&
               SpecRun.ExitCode != machine::OomExitCode;
    if (Oom) {
      // extend_with_oom: premature OOM termination with a prefix of the
      // specified output is within the compiler's contract.
      if (!startsWith(SpecRun.StdoutData, O.StdoutData))
        return Error(std::string(levelName(L)) +
                     ": OOM output is not a prefix of the spec output");
    } else {
      if (O.StdoutData != SpecRun.StdoutData)
        return Error(std::string(levelName(L)) + ": stdout mismatch: \"" +
                     escapeString(O.StdoutData) + "\" vs spec \"" +
                     escapeString(SpecRun.StdoutData) + "\"");
      if (O.StderrData != SpecRun.StderrData)
        return Error(std::string(levelName(L)) + ": stderr mismatch");
      if (O.ExitCode != SpecRun.ExitCode)
        return Error(std::string(levelName(L)) + ": exit code " +
                     std::to_string(O.ExitCode) + " vs spec " +
                     std::to_string(SpecRun.ExitCode));
    }
    Results.push_back(O);
  }
  return Results;
}
