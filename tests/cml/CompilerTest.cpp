//===- tests/cml/CompilerTest.cpp - compiler correctness (theorem (2)) ---------===//
//
// The reproduction's compiler-correctness statement is differential: for
// every program in the corpus, machine code running on Silver produces
// the observable behaviour of the reference semantics — and may instead
// exit early with the out-of-memory code after a prefix of the output
// (extend_with_oom).
//
//===----------------------------------------------------------------------===//

#include "stack/Executor.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;

namespace {

struct CorpusEntry {
  const char *Name;
  const char *Source;
  const char *Stdin;
};

const CorpusEntry Corpus[] = {
    {"arith", R"(val _ = print (int_to_string (1 + 2 * 3 - 4 div 2)))", ""},
    {"negdiv",
     R"(val _ = print (int_to_string ((0-17) div 5));
        val _ = print (int_to_string ((0-17) mod 5)))",
     ""},
    {"wrap",
     R"(val _ = print (int_to_string (1073741823 + 2)))", ""},
    {"compare",
     R"(val _ = print (if 3 < 4 andalso 4 <= 4 andalso 5 > 4
                          andalso 4 >= 4 andalso 3 <> 4
                       then "y" else "n"))",
     ""},
    {"closure",
     R"(fun adder n = fn x => x + n
        val add3 = adder 3
        val _ = print (int_to_string (add3 4 + adder 1 2)))",
     ""},
    {"mutual",
     R"(fun even n = if n = 0 then true else odd (n - 1)
        and odd n = if n = 0 then false else even (n - 1)
        val _ = print (if even 10 andalso odd 7 then "y" else "n"))",
     ""},
    {"fib",
     R"(fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
        val _ = print (int_to_string (fib 15)))",
     ""},
    {"tailloop",
     R"(fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + i)
        val _ = print (int_to_string (loop 2000 0)))",
     ""},
    {"listops",
     R"(val l = map (fn x => x * x) [1,2,3,4,5]
        val _ = print (int_to_string (foldl (fn a => fn b => a + b) 0
                        (filter (fn x => x mod 2 = 1) l))))",
     ""},
    {"strings",
     R"(val s = "hello" ^ " " ^ "world"
        val _ = print (substring s 6 5)
        val _ = print (int_to_string (str_size s))
        val _ = print (implode (rev (explode "abc"))))",
     ""},
    {"polyeq",
     R"(val _ = print (if [(1, "a"), (2, "b")] = [(1, "a"), (2, "b")]
                       then "eq" else "ne")
        val _ = print (if ["x"] = ["y"] then "eq" else "ne"))",
     ""},
    {"patterns",
     R"(fun classify l =
          case l of
            [] => "empty"
          | [x] => "one:" ^ int_to_string x
          | 7 :: _ => "seven"
          | a :: b :: _ => int_to_string (a + b)
        val _ = print (classify [])
        val _ = print (classify [3])
        val _ = print (classify [7, 1])
        val _ = print (classify [4, 5, 6]))",
     ""},
    {"pairs",
     R"(fun swap p = case p of (a, b) => (b, a)
        val p = swap (1, "x")
        val _ = print (fst p)
        val _ = print (int_to_string (snd p)))",
     ""},
    {"case_str",
     R"(fun kind s = case s of "add" => 1 | "sub" => 2 | _ => 0
        val _ = print (int_to_string (kind "add" * 100 +
                                      kind "sub" * 10 + kind "?")))",
     ""},
    {"stdin",
     R"(val s = input_all ()
        val _ = print (int_to_string (str_size s))
        val _ = print s)",
     "some input\nwith two lines\n"},
    {"args",
     R"(val _ = print (join " " (arguments ()))
        val _ = print (int_to_string (arg_count ())))",
     ""},
    {"stderr",
     R"(val _ = print "to stdout"
        val _ = print_err "to stderr")",
     ""},
    {"exitcode", R"(val _ = print "x" val _ = exit 5)", ""},
    {"deep_nontail",
     R"(fun sum l = case l of [] => 0 | h :: t => h + sum t
        fun iota n = if n = 0 then [] else n :: iota (n - 1)
        val _ = print (int_to_string (sum (iota 300))))",
     ""},
    {"shadow",
     R"(val x = 1
        val x = x + 1
        fun f x = x * 2
        val _ = print (int_to_string (f x)))",
     ""},
};

} // namespace

class CorpusVsSpec
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(CorpusVsSpec, CompiledMatchesInterpreter) {
  const CorpusEntry &E = Corpus[std::get<0>(GetParam())];
  bool Optimised = std::get<1>(GetParam());

  RunSpec Spec;
  Spec.Source = E.Source;
  Spec.CommandLine = {"prog", "alpha", "beta"};
  Spec.StdinData = E.Stdin;
  Spec.Compile.Opt =
      Optimised ? cml::OptOptions::all() : cml::OptOptions::none();
  Spec.Exec.MaxSteps = 200'000'000;

  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  EXPECT_TRUE(R) << E.Name << ": " << (R ? "" : R.error().str());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusVsSpec,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Corpus)),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>> &Info) {
      return std::string(Corpus[std::get<0>(Info.param)].Name) +
             (std::get<1>(Info.param) ? "_O1" : "_O0");
    });

TEST(Compiler, RejectsIllTypedPrograms) {
  Result<cml::Compiled> R = cml::compileProgram("val x = 1 + true;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("type error"), std::string::npos);
}

TEST(Compiler, RejectsSyntaxErrors) {
  Result<cml::Compiled> R = cml::compileProgram("val = ;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("parse error"), std::string::npos);
}

TEST(Compiler, OptimisationShrinksFibCode) {
  cml::CompileOptions O0;
  O0.Opt = cml::OptOptions::none();
  cml::CompileOptions O1;
  const char *Src = R"(
    val a = 2 + 3 * 4
    val b = str_size "hello" + a
    val _ = print (int_to_string b)
  )";
  Result<cml::Compiled> R0 = cml::compileProgram(Src, O0);
  Result<cml::Compiled> R1 = cml::compileProgram(Src, O1);
  ASSERT_TRUE(R0);
  ASSERT_TRUE(R1);
  EXPECT_GT(R1->Stats.FoldedConstants, 0u);
  EXPECT_LT(R1->Program.size(), R0->Program.size());
}

TEST(Compiler, OutOfMemoryExitsWithPrefixOfOutput) {
  // A tiny heap: the program prints, then exhausts memory building a
  // list.  extend_with_oom allows exactly this behaviour.
  RunSpec Spec;
  Spec.Source = R"(
    val _ = print "before"
    fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
    val l = build 100000 []
    val _ = print (int_to_string (length l))
  )";
  Spec.Compile.Layout.MemSize = 1 << 20; // leaves a few hundred KiB usable
  Spec.Exec.MaxSteps = 100'000'000;

  Result<Outcome> Isa = Executor::create(Spec).take().run(Level::Isa);
  ASSERT_TRUE(Isa) << Isa.error().str();
  EXPECT_TRUE(Isa->Behaviour.Terminated);
  EXPECT_EQ(Isa->Behaviour.ExitCode, machine::OomExitCode);
  EXPECT_EQ(Isa->Behaviour.StdoutData, "before"); // a prefix of the spec output

  // And the end-to-end checker accepts the OOM prefix behaviour.
  Result<std::vector<Observed>> R = checkEndToEnd(Spec, {Level::Isa});
  EXPECT_TRUE(R) << (R ? "" : R.error().str());
}

TEST(Compiler, StackOverflowAlsoExitsOom) {
  RunSpec Spec;
  Spec.Source = R"(
    fun deep n = if n = 0 then 0 else 1 + deep (n - 1)
    val _ = print (int_to_string (deep 1000000))
  )";
  Spec.Exec.MaxSteps = 200'000'000;
  Result<Outcome> Isa = Executor::create(Spec).take().run(Level::Isa);
  ASSERT_TRUE(Isa) << Isa.error().str();
  EXPECT_TRUE(Isa->Behaviour.Terminated);
  EXPECT_EQ(Isa->Behaviour.ExitCode, machine::OomExitCode);
}

TEST(Compiler, TrapExitCodesMatchInterpreter) {
  for (const char *Src :
       {"val x = 1 div 0", "val x = case [] of h :: t => h",
        "val x = str_sub \"\" 0", "val x = chr 999",
        "val x = substring \"abc\" 2 5"}) {
    RunSpec Spec;
    Spec.Source = Src;
    Result<std::vector<Observed>> R =
        checkEndToEnd(Spec, {Level::Machine, Level::Isa});
    EXPECT_TRUE(R) << Src << ": " << (R ? "" : R.error().str());
  }
}

TEST(Compiler, LargeStringIoRoundTrips) {
  // Exercises chunked reads and writes (60000-byte FFI chunks).
  std::string Big;
  for (int I = 0; I != 150'000; ++I)
    Big.push_back(static_cast<char>('a' + I % 26));
  RunSpec Spec;
  Spec.Source = "val _ = print (input_all ())";
  Spec.StdinData = Big;
  Spec.Exec.MaxSteps = 500'000'000;
  Result<Outcome> R = Executor::create(Spec).take().run(Level::Isa);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Behaviour.StdoutData, Big);
  EXPECT_EQ(R->Behaviour.ExitCode, 0);
}

TEST(Compiler, ReportsStatistics) {
  Result<cml::Compiled> R = cml::compileProgram(
      "fun f x = x + 1; val _ = print (int_to_string (f 1));");
  ASSERT_TRUE(R);
  EXPECT_GT(R->NumFunctions, 0u);
  EXPECT_GT(R->NumGlobals, 0u);
  EXPECT_GT(R->Program.size(), 1000u); // runtime + prelude + program
  EXPECT_EQ(R->CodeBase % 4096, 0u);
}
