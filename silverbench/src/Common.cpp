//===- silverbench/Common.cpp - Shared benchmark machinery ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "asm/Assembler.h"
#include "cml/CodeGen.h"
#include "cml/Compiler.h"
#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Lower.h"
#include "cml/Parser.h"
#include "stack/Apps.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include <sys/resource.h>

using namespace sb;

const Engine sb::Isa = {"isa", stack::Level::Isa, stack::BackendKind::Interp,
                        stack::HdlBackendKind::Interp, false};
const Engine sb::Jit = {"jit", stack::Level::Isa, stack::BackendKind::Jit,
                        stack::HdlBackendKind::Interp, false};
const Engine sb::MachineSem = {"machine-sem", stack::Level::Machine,
                               stack::BackendKind::Interp,
                               stack::HdlBackendKind::Interp, false};
const Engine sb::Rtl = {"rtl", stack::Level::Rtl, stack::BackendKind::Interp,
                        stack::HdlBackendKind::Interp, true};
const Engine sb::Verilog = {"verilog", stack::Level::Verilog,
                            stack::BackendKind::Interp,
                            stack::HdlBackendKind::Interp, true};
const Engine sb::VerilogCompiled = {"verilog-compiled", stack::Level::Verilog,
                                    stack::BackendKind::Interp,
                                    stack::HdlBackendKind::Compiled, true};
const Engine *const sb::AllEngines[6] = {&Isa, &Jit, &MachineSem,
                                         &Rtl, &Verilog, &VerilogCompiled};

const char *sb::appName(App A) {
  switch (A) {
  case App::Hello: return "hello";
  case App::Cat: return "cat";
  case App::Wc: return "wc";
  case App::Sort: return "sort";
  case App::Proof: return "proof";
  case App::Tin: return "tin";
  }
  return "?";
}

const char *sb::appSource(App A) {
  switch (A) {
  case App::Hello: return stack::helloSource();
  case App::Cat: return stack::catSource();
  case App::Wc: return stack::wcSource();
  case App::Sort: return stack::sortSource();
  case App::Proof: return stack::proofCheckerSource();
  case App::Tin: return stack::tinCompilerSource();
  }
  return "";
}

namespace {

/// \p Lines lines of four five-letter words with seeded letters: the
/// content varies with the seed, the size (and so the work) does not.
std::string seededLines(unsigned Lines, Rng &R) {
  std::string Out;
  for (unsigned L = 0; L != Lines; ++L)
    for (unsigned W = 0; W != 4; ++W) {
      for (unsigned I = 0; I != 5; ++I)
        Out.push_back(static_cast<char>('a' + R.below(26)));
      Out.push_back(W == 3 ? '\n' : ' ');
    }
  return Out;
}

/// A seeded proof: a prefix of the sample valid proof, the sample
/// invalid one, or the valid one with one modus-ponens reference broken.
std::string seededProof(Rng &R) {
  std::string Valid = stack::sampleValidProof();
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Valid.size()) {
    size_t Nl = Valid.find('\n', Pos);
    Lines.push_back(Valid.substr(Pos, Nl - Pos + 1));
    Pos = Nl + 1;
  }
  switch (R.below(3)) {
  case 0: {
    std::string Out;
    unsigned Keep = 1 + R.below(static_cast<uint32_t>(Lines.size()));
    for (unsigned I = 0; I != Keep; ++I)
      Out += Lines[I];
    return Out;
  }
  case 1:
    return stack::sampleInvalidProof();
  default:
    Lines[4] = "M 5 3\n"; // cites itself: no longer a valid step
    std::string Out;
    for (const std::string &L : Lines)
      Out += L;
    return Out;
  }
}

uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I)
    H = (H ^ P[I]) * 0x100000001b3ull;
  return H;
}
constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

// Touched only by the main thread (set-up and compiles).
uint64_t InputsHash = FnvBasis;
std::map<uint64_t, uint64_t> ImageHashes; ///< source hash -> image hash
/// cml::compileProgram's bytes per source (warmReferenceImage).
std::map<std::string, std::vector<uint8_t>> ReferenceImages;

} // namespace

uint64_t sb::inputsDigest() { return InputsHash; }
void sb::resetInputsDigest() { InputsHash = FnvBasis; }

uint64_t sb::imagesDigest() {
  uint64_t H = FnvBasis;
  for (const auto &[Src, Img] : ImageHashes) {
    H = fnv1a(H, &Src, sizeof Src);
    H = fnv1a(H, &Img, sizeof Img);
  }
  return H;
}

AppCase sb::makeApp(App A, unsigned Size, Rng &R) {
  AppCase C;
  C.Source = appSource(A);
  C.Name = appName(A);
  switch (A) {
  case App::Hello:
    C.ExpectStdout = "Hello, world!\n";
    break;
  case App::Cat:
  case App::Wc:
  case App::Sort:
    C.Stdin = seededLines(Size, R);
    C.ExpectStdout = A == App::Cat  ? stack::catSpec(C.Stdin)
                     : A == App::Wc ? stack::wcSpec(C.Stdin)
                                    : stack::sortSpec(C.Stdin);
    C.Name += "-" + std::to_string(Size);
    break;
  case App::Proof:
    C.Stdin = seededProof(R);
    C.ExpectStdout = stack::proofSpec(C.Stdin);
    break;
  case App::Tin:
    C.Stdin = stack::sampleTinProgram(Size);
    C.ExpectStdout = stack::tinSpec(C.Stdin);
    C.Name += "-" + std::to_string(Size);
    break;
  }
  for (const std::string *S : {&C.Name, &C.Stdin, &C.ExpectStdout})
    InputsHash = fnv1a(InputsHash, S->data(), S->size() + 1);
  return C;
}

double CompileTotals::meanImageBytes() const {
  double Sum = 0;
  for (const auto &[Src, Bytes] : ImageBytes)
    Sum += Bytes;
  return ImageBytes.empty() ? 0 : Sum / static_cast<double>(ImageBytes.size());
}

void Ledger::closeBlock() {
  for (auto &[Name, Tot] : Engines) {
    if (Tot.BlockStepMs > 0)
      Tot.StepBlocks.push_back({static_cast<double>(Tot.BlockWork),
                                Tot.BlockStepMs, Clock::now()});
    Tot.BlockStepMs = 0;
    Tot.BlockWork = 0;
  }
}

void Tally::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

namespace {

/// The compiler's phases one by one, each in its own span; mirrors
/// cml::compileProgram step for step.
Result<cml::Compiled> compileByPhases(Tracer &T, const std::string &Source,
                                      const cml::CompileOptions &Options) {
  std::string Full =
      Options.IncludePrelude ? cml::withPrelude(Source) : Source;
  Result<cml::Program> Prog = [&] {
    Tracer::Scope S(T, "cml.parse");
    return cml::parseProgram(Full);
  }();
  if (!Prog)
    return Error("parse error: " + Prog.error().str());
  {
    Tracer::Scope S(T, "cml.infer");
    if (auto Types = cml::inferProgram(*Prog); !Types)
      return Error("type error: " + Types.error().str());
  }
  Result<cml::CoreProgram> Core = [&] {
    Tracer::Scope S(T, "cml.lower");
    return cml::lowerProgram(*Prog);
  }();
  if (!Core)
    return Core.error();
  cml::Compiled Out;
  {
    Tracer::Scope S(T, "cml.opt");
    Out.Stats = cml::optimizeCore(*Core, Options.Opt);
  }
  Out.NumGlobals = Core->GlobalCount;
  cml::FlatProgram Flat = [&] {
    Tracer::Scope S(T, "cml.flatten");
    return cml::flattenProgram(std::move(*Core));
  }();
  Out.NumFunctions = static_cast<unsigned>(Flat.Funs.size());
  assembler::Assembler A;
  {
    Tracer::Scope S(T, "cml.codegen");
    if (Result<void> Gen = cml::generateProgram(Flat, A); !Gen)
      return Gen.error();
  }
  Result<assembler::Assembled> Sized = [&] {
    Tracer::Scope S(T, "asm.assemble");
    return A.assemble(0);
  }();
  if (!Sized)
    return Sized.error();
  Result<sys::MemoryLayout> Layout = sys::MemoryLayout::compute(
      Options.Layout, static_cast<Word>(Sized->Bytes.size()));
  if (!Layout)
    return Layout.error();
  Result<assembler::Assembled> Final = [&] {
    Tracer::Scope S(T, "asm.assemble");
    return A.assemble(Layout->CodeBase);
  }();
  if (!Final)
    return Final.error();
  Out.Program = std::move(Final->Bytes);
  Out.CodeBase = Layout->CodeBase;
  return Out;
}

} // namespace

Result<void> sb::warmReferenceImage(const std::string &Source) {
  if (ReferenceImages.count(Source))
    return {};
  Result<cml::Compiled> Ref = cml::compileProgram(Source, {});
  if (!Ref)
    return Ref.error();
  ReferenceImages.emplace(Source, Ref->Program);
  return {};
}

Result<stack::Prepared> sb::compile(Ledger &L, const stack::RunSpec &Spec) {
  Result<stack::Prepared> P = Error("not compiled");
  double Ms = 0;
  if (!L.T.enabled()) {
    Tracer::Scope S(L.T, "stack.prepare");
    P = stack::prepare(Spec);
    Ms = S.stop();
  } else {
    Result<cml::Compiled> C = Error("not compiled");
    {
      Tracer::Scope S(L.T, "stack.prepare");
      C = compileByPhases(L.T, Spec.Source, Spec.Compile);
      Ms = S.stop();
    }
    if (!C)
      return C.error();
    if (Result<void> Ref = warmReferenceImage(Spec.Source); !Ref)
      return Error("compileProgram failed where the phases did not: " +
                   Ref.error().str());
    if (ReferenceImages.at(Spec.Source) != C->Program)
      return Error("phase-by-phase image differs from compileProgram's");
    stack::Prepared Out;
    Out.Program = C.take();
    Out.Image.CommandLine = Spec.CommandLine;
    Out.Image.StdinData = Spec.StdinData;
    Out.Image.Program = Out.Program.Program;
    Out.Image.Params = Spec.Compile.Layout;
    P = std::move(Out);
  }
  if (!P)
    return P.error();
  const std::vector<uint8_t> &Img = P->Program.Program;
  ImageHashes[fnv1a(FnvBasis, Spec.Source.data(), Spec.Source.size())] =
      fnv1a(FnvBasis, Img.data(), Img.size());
  CompileTotals &CT = L.Compile;
  CT.Ms.push_back({Ms, Clock::now()});
  CT.ImageBytes[Spec.Source] = static_cast<double>(Img.size());
  CT.Functions += P->Program.NumFunctions;
  CT.Folded += P->Program.Stats.FoldedConstants;
  CT.RemovedLets += P->Program.Stats.RemovedLets;
  CT.Inlined += P->Program.Stats.InlinedCalls;
  ++CT.Count;
  return P;
}

stack::Prepared sb::withStdin(const stack::Prepared &Base,
                              const std::string &In) {
  stack::Prepared P = Base;
  P.Image.StdinData = In;
  return P;
}

Result<stack::Observed> sb::runEngine(Ledger &L, stack::Prepared P,
                                      const Engine &E) {
  stack::RunSpec Spec;
  Spec.StdinData = P.Image.StdinData;
  Spec.CommandLine = P.Image.CommandLine;
  Spec.Compile.Layout = P.Image.Params;
  Spec.Exec.Backend = E.Backend;
  Spec.Exec.Hdl = E.Hdl;
  stack::Executor X =
      stack::Executor::fromPrepared(std::move(Spec), std::move(P));
  EngineTotals &Tot = L.Engines[E.Name];
  {
    Tracer::Scope S(L.T, std::string("stack.begin.") + E.Name);
    if (Result<void> B = X.begin(E.L); !B)
      return Error(std::string(E.Name) + " begin: " + B.error().str());
    Tot.BeginMs.push_back(S.stop());
  }
  double StepMs = 0;
  {
    Tracer::Scope S(L.T, std::string("stack.step.") + E.Name);
    Result<stack::RunStatus> St = X.step(UINT64_MAX);
    StepMs = S.stop();
    if (!St)
      return Error(std::string(E.Name) + " step: " + St.error().str());
    if (*St != stack::RunStatus::Completed)
      return Error(std::string(E.Name) + ": " + stack::runStatusName(*St));
  }
  Result<stack::Outcome> Out = X.finish();
  if (!Out)
    return Out.error();
  Tot.StepMs += StepMs;
  Tot.Instructions += Out->Behaviour.Instructions;
  Tot.Cycles += Out->Behaviour.Cycles;
  ++Tot.Runs;
  Tot.BlockStepMs += StepMs;
  Tot.BlockWork +=
      E.Hardware ? Out->Behaviour.Cycles : Out->Behaviour.Instructions;
  return Out->Behaviour;
}

namespace {
std::atomic<bool> PlantPending{false};
} // namespace

void sb::plantWrongExpected() { PlantPending = true; }

bool sb::checkAgainstSpec(Tally &T, const AppCase &C,
                          const stack::Observed &B, const std::string &Where) {
  if (PlantPending.exchange(false)) {
    AppCase Wrong = C;
    Wrong.ExpectStdout += "(planted)";
    return checkAgainstSpec(T, Wrong, B, Where + " [planted wrong expected]");
  }
  if (!B.Terminated) {
    T.fail(Where + ": did not terminate");
    return false;
  }
  if (B.ExitCode == machine::OomExitCode && C.ExpectExit != B.ExitCode &&
      C.ExpectStdout.compare(0, B.StdoutData.size(), B.StdoutData) == 0) {
    ++T.Oom;
    return true;
  }
  if (B.ExitCode != C.ExpectExit || B.StdoutData != C.ExpectStdout) {
    T.fail(Where + ": exit " + std::to_string(B.ExitCode) + ", stdout " +
           std::to_string(B.StdoutData.size()) + " bytes, differs from the spec");
    return false;
  }
  return true;
}

std::vector<double> sb::values(const Samples &S) {
  std::vector<double> V;
  for (const Sample &X : S)
    V.push_back(X.V);
  return V;
}

std::vector<double> sb::atReferenceSpeed(const Samples &S) {
  std::vector<double> V;
  for (const Sample &X : S)
    V.push_back(X.V * speedAt(X.At));
  return V;
}

double sb::rateOf(const Blocks &B, bool AtReference) {
  double Work = 0, Ms = 0;
  for (const Block &X : B) {
    Work += X.Work;
    Ms += AtReference ? X.Ms * speedAt(X.At) : X.Ms;
  }
  return Ms > 0 ? Work / (Ms / 1e3) : 0;
}

double sb::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double sb::median(std::vector<double> V) { return percentile(std::move(V), 50); }

double sb::tailPercentile(size_t N, double Cap) {
  for (double P : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0})
    if (P <= Cap && static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0)
      return P;
  return 50.0;
}

double sb::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}
