//===- tests/test_fpcore.cpp - FPCore frontend tests ----------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "fpcore/Eval.h"
#include "fpcore/FPCore.h"

#include "ir/Interpreter.h"
#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace herbgrind;
using namespace herbgrind::fpcore;

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(FPCoreParse, SimpleCore) {
  ParseResult R = parse("(FPCore (x) :name \"t\" (- (sqrt (+ x 1)) "
                        "(sqrt x)))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.Name, "t");
  ASSERT_EQ(R.Value.Params.size(), 1u);
  EXPECT_EQ(R.Value.Params[0], "x");
  EXPECT_EQ(R.Value.Body->print(), "(- (sqrt (+ x 1)) (sqrt x))");
}

TEST(FPCoreParse, Preconditions) {
  ParseResult R =
      parse("(FPCore (x y) :pre (and (<= 0 x 1) (< -2 y)) (+ x y))");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Value.Pre);
  EXPECT_EQ(R.Value.Pre->print(), "(and (<= 0 x 1) (< -2 y))");
}

TEST(FPCoreParse, NumbersRationalsConstants) {
  std::string Err;
  EXPECT_EQ(parseExpr("1.5e3", Err)->Num, 1500.0);
  EXPECT_EQ(parseExpr("1/4", Err)->Num, 0.25);
  EXPECT_EQ(parseExpr("-3", Err)->Num, -3.0);
  ExprPtr Pi = parseExpr("PI", Err);
  EXPECT_EQ(Pi->K, Expr::Kind::Const);
}

TEST(FPCoreParse, LetAndWhile) {
  ParseResult R = parse("(FPCore (n) (while (< i n) ([s 0 (+ s i)] "
                        "[i 0 (+ i 1)]) s))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.Body->K, Expr::Kind::While);
  EXPECT_EQ(R.Value.Body->Binds.size(), 2u);
}

TEST(FPCoreParse, Comments) {
  ParseResult R = parse("(FPCore (x) ; a comment\n (+ x 1))");
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(FPCoreParse, ErrorsAreReported) {
  EXPECT_FALSE(parse("(FPCore (x) (+ x 1").Ok);
  EXPECT_FALSE(parse("(NotFPCore (x) 1)").Ok);
  EXPECT_FALSE(parse("").Ok);
}

TEST(FPCoreParse, NestingDeeperThan1000LevelsIsRefused) {
  // Every walk of a parsed body recurses once per level; the parser
  // refuses what they could not survive, with an error instead of a
  // stack overflow.
  auto Nested = [](int Levels) {
    std::string Text = "(FPCore (x) ";
    for (int I = 0; I < Levels; ++I)
      Text += "(+ 1 ";
    Text += "x";
    Text.append(Levels, ')');
    return Text + ")";
  };
  ParseResult Ok = parse(Nested(1000));
  ASSERT_TRUE(Ok.Ok) << Ok.Error;
  EXPECT_EQ(Ok.Value.Body->opCount(), 1000u);
  for (int Levels : {1001, 20000}) {
    ParseResult Deep = parse(Nested(Levels));
    EXPECT_FALSE(Deep.Ok) << Levels;
    EXPECT_EQ(Deep.Error, "expression nested deeper than 1000 levels");
  }
}

TEST(FPCoreParse, PrintRoundTrips) {
  for (const Core &C : corpus()) {
    ParseResult R = parse(C.print());
    ASSERT_TRUE(R.Ok) << C.Name << ": " << R.Error;
    EXPECT_EQ(R.Value.Body->print(), C.Body->print()) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Ranges
//===----------------------------------------------------------------------===//

TEST(FPCoreRanges, ExtractsChainedBounds) {
  ParseResult R = parse("(FPCore (x y) :pre (and (<= 0 x 1) (<= -5 y 5)) "
                        "(+ x y))");
  ASSERT_TRUE(R.Ok);
  std::vector<VarRange> Ranges = sampleRanges(R.Value);
  ASSERT_EQ(Ranges.size(), 2u);
  EXPECT_EQ(Ranges[0].Lo, 0.0);
  EXPECT_EQ(Ranges[0].Hi, 1.0);
  EXPECT_EQ(Ranges[1].Lo, -5.0);
  EXPECT_EQ(Ranges[1].Hi, 5.0);
}

TEST(FPCoreRanges, DefaultsWhenUnconstrained) {
  ParseResult R = parse("(FPCore (x) (+ x 1))");
  ASSERT_TRUE(R.Ok);
  std::vector<VarRange> Ranges = sampleRanges(R.Value);
  EXPECT_LT(Ranges[0].Lo, 0.0);
  EXPECT_GT(Ranges[0].Hi, 0.0);
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

TEST(FPCoreEval, DoubleMatchesHandComputation) {
  std::string Err;
  ExprPtr E = parseExpr("(- (sqrt (+ x 1)) (sqrt x))", Err);
  ASSERT_TRUE(E) << Err;
  double X = 1e10;
  EXPECT_EQ(evalDouble(*E, {{"x", X}}),
            std::sqrt(X + 1) - std::sqrt(X));
}

TEST(FPCoreEval, RealIsMoreAccurate) {
  std::string Err;
  ExprPtr E = parseExpr("(- (+ x 1) x)", Err);
  double X = 1e16;
  EXPECT_EQ(evalDouble(*E, {{"x", X}}), 0.0);
  BigFloat R = evalReal(*E, {{"x", BigFloat::fromDouble(X)}});
  EXPECT_EQ(R.toDouble(), 1.0);
}

TEST(FPCoreEval, PointErrorBitsSeesCancellation) {
  std::string Err;
  ExprPtr E = parseExpr("(- (+ x 1) x)", Err);
  EXPECT_GT(pointErrorBits(*E, {{"x", 1e16}}), 40.0);
  EXPECT_EQ(pointErrorBits(*E, {{"x", 2.0}}), 0.0);
}

TEST(FPCoreEval, WhileLoops) {
  std::string Err;
  ExprPtr E =
      parseExpr("(while (<= i n) ([s 0 (+ s i)] [i 1 (+ i 1)]) s)", Err);
  ASSERT_TRUE(E) << Err;
  EXPECT_EQ(evalDouble(*E, {{"n", 100.0}}), 5050.0);
  BigFloat R = evalReal(*E, {{"n", BigFloat::fromDouble(100.0)}});
  EXPECT_EQ(R.toDouble(), 5050.0);
}

TEST(FPCoreEval, IfSelectsBranches) {
  std::string Err;
  ExprPtr E = parseExpr("(if (< x 0) (- x) x)", Err);
  EXPECT_EQ(evalDouble(*E, {{"x", -3.0}}), 3.0);
  EXPECT_EQ(evalDouble(*E, {{"x", 5.0}}), 5.0);
}

//===----------------------------------------------------------------------===//
// Compilation: differential against direct evaluation
//===----------------------------------------------------------------------===//

TEST(FPCoreCompile, StraightLineDifferential) {
  Rng R(123);
  for (const Core &C : corpus()) {
    std::string WhyNot;
    ASSERT_TRUE(isCompilable(C, &WhyNot)) << C.Name << ": " << WhyNot;
    Program P = compile(C);
    ASSERT_EQ(P.validate(), "") << C.Name;
    std::vector<VarRange> Ranges = sampleRanges(C);
    for (int Trial = 0; Trial < 5; ++Trial) {
      std::vector<double> Inputs;
      DoubleEnv Env;
      for (size_t I = 0; I < C.Params.size(); ++I) {
        double V = R.uniformReal(Ranges[I].Lo, Ranges[I].Hi);
        Inputs.push_back(V);
        Env[C.Params[I]] = V;
      }
      RunResult Run = interpret(P, Inputs, 10'000'000);
      ASSERT_EQ(Run.Outputs.size(), 1u) << C.Name;
      double Direct = evalDouble(*C.Body, Env);
      double Compiled = Run.Outputs[0].asF64();
      if (std::isnan(Direct)) {
        EXPECT_TRUE(std::isnan(Compiled)) << C.Name;
      } else {
        EXPECT_EQ(bitsOfDouble(Compiled), bitsOfDouble(Direct))
            << C.Name << " inputs ";
      }
    }
  }
}

/// Bodies the compiler cannot compile. Each used to pass isCompilable and
/// then crash herbgrind_batch (the first seven) or compile into a program
/// that does not compute the body (the last five).
const char *const HostileBodies[] = {
    "(if x 1 2)",
    "(if PI 1 2)",
    "(if (not) 1 2)",
    "(if (and) 1 2)",
    "(while x ([y 0 (+ y 1)]) y)",
    "(+ x y)",
    "(+ (let ([y 1]) y) y)",
    "(< x 1)",
    "TRUE",
    "(and (< x 1) (> x 0))",
    "(let ([y (< x 1)]) y)",
    "(if (< x) 1 2)",
};

TEST(FPCoreCompile, CheckerRefusesWhatTheCompilerCannotCompile) {
  for (const char *Body : HostileBodies) {
    ParseResult R = parse(std::string("(FPCore (x) ") + Body + ")");
    ASSERT_TRUE(R.Ok) << Body << ": " << R.Error;
    std::string WhyNot;
    EXPECT_FALSE(isCompilable(R.Value, &WhyNot)) << Body;
    EXPECT_FALSE(WhyNot.empty()) << Body;
  }
}

/// The \p K-th expression slot under \p Slot in pre-order, counting
/// \p Slot itself; null if the tree has at most \p K slots.
ExprPtr *nthSlot(ExprPtr &Slot, size_t &K) {
  if (K-- == 0)
    return &Slot;
  for (std::vector<ExprPtr> *Kids : {&Slot->Args, &Slot->Inits, &Slot->Updates})
    for (ExprPtr &Kid : *Kids)
      if (ExprPtr *Found = nthSlot(Kid, K))
        return Found;
  return nullptr;
}

TEST(FPCoreCompile, CheckerCompilerAndOracleAgree) {
  // Every expression slot of every loop-free corpus core, refilled with
  // values, tests and names in and out of place: whatever isCompilable
  // accepts must compile to a valid program whose output is evalDouble's,
  // bit for bit.
  Rng R(321);
  size_t Substitutions = 0, Accepted = 0;
  for (const Core &C : corpus()) {
    if (C.print().find("(while") != std::string::npos)
      continue;
    const std::string &P = C.Params.at(0);
    const std::string Fills[] = {P,      "unbound", "PI",
                                 "TRUE", "(< " + P + " 1)",
                                 "(and TRUE TRUE)", "(not)"};
    std::vector<VarRange> Ranges = sampleRanges(C);
    for (size_t K = 0;; ++K) {
      Core Sub = C.clone();
      size_t Left = K;
      ExprPtr *Slot = nthSlot(Sub.Body, Left);
      if (!Slot)
        break;
      for (const std::string &Fill : Fills) {
        std::string Err;
        *Slot = parseExpr(Fill, Err);
        ++Substitutions;
        std::string WhyNot;
        if (!isCompilable(Sub, &WhyNot)) {
          EXPECT_FALSE(WhyNot.empty()) << Sub.print();
          continue;
        }
        ++Accepted;
        Program Prog = compile(Sub);
        ASSERT_EQ(Prog.validate(), "") << Sub.print();
        std::vector<double> Inputs;
        DoubleEnv Env;
        for (size_t I = 0; I < C.Params.size(); ++I) {
          Inputs.push_back(R.uniformReal(Ranges[I].Lo, Ranges[I].Hi));
          Env[C.Params[I]] = Inputs.back();
        }
        RunResult Run = interpret(Prog, Inputs, 10'000'000);
        ASSERT_EQ(Run.Outputs.size(), 1u) << Sub.print();
        double Direct = evalDouble(*Sub.Body, Env);
        double Compiled = Run.Outputs[0].asF64();
        EXPECT_TRUE((std::isnan(Direct) && std::isnan(Compiled)) ||
                    bitsOfDouble(Direct) == bitsOfDouble(Compiled))
            << Sub.print() << ": " << Compiled << " vs " << Direct;
      }
    }
  }
  // Every fill fits some slots and not others.
  EXPECT_GT(Accepted, 0u) << Substitutions << " substitutions";
  EXPECT_LT(Accepted, Substitutions);
}

TEST(FPCoreCompile, LoopBenchmarkCompiles) {
  ParseResult R = parse("(FPCore (n) (while (< t n) ([t 0 (+ t 0.1)] "
                        "[c 0 (+ c 1)]) c))");
  ASSERT_TRUE(R.Ok);
  Program P = compile(R.Value);
  RunResult Run = interpret(P, {10.0});
  EXPECT_EQ(Run.Outputs[0].asF64(), evalDouble(*R.Value.Body, {{"n", 10.0}}));
}

TEST(FPCoreCompile, SourceLocationsNameTheBenchmark) {
  ParseResult R = parse("(FPCore (x) :name \"demo\" (+ x 1))");
  ASSERT_TRUE(R.Ok);
  Program P = compile(R.Value);
  bool Found = false;
  for (const Statement &S : P.statements())
    if (S.Loc.File == "demo.fpcore")
      Found = true;
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Corpus hygiene
//===----------------------------------------------------------------------===//

TEST(Corpus, HasAtLeast86Benchmarks) {
  EXPECT_GE(corpus().size(), 86u);
}

TEST(Corpus, AllNamesAreUnique) {
  std::set<std::string> Names;
  for (const Core &C : corpus()) {
    EXPECT_FALSE(C.Name.empty());
    EXPECT_TRUE(Names.insert(C.Name).second) << "duplicate: " << C.Name;
  }
}

TEST(Corpus, AllEntriesHavePreconditions) {
  for (const Core &C : corpus())
    EXPECT_TRUE(C.Pre != nullptr) << C.Name;
}

TEST(Corpus, ParamsMatchFreeVariables) {
  for (const Core &C : corpus()) {
    std::vector<std::string> Free;
    C.Body->freeVars(Free);
    for (const std::string &V : Free)
      EXPECT_NE(std::find(C.Params.begin(), C.Params.end(), V),
                C.Params.end())
          << C.Name << " uses unbound " << V;
  }
}
