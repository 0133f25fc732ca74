//===- fpcore/Eval.cpp - Direct FPCore evaluation --------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Eval.h"

#include "real/RealMath.h"
#include "support/FloatBits.h"

#include <cassert>
#include <cmath>

using namespace herbgrind;
using namespace herbgrind::fpcore;

//===----------------------------------------------------------------------===//
// Double evaluation
//===----------------------------------------------------------------------===//

static bool evalBoolDouble(const Expr &E, const DoubleEnv &Env,
                           uint64_t MaxLoopIters);

/// Applies operator \p N to \p Arity operand values that evalDouble has
/// already evaluated. Every operator consumes each operand exactly once in
/// argument order, so evaluating the operands first gives the same bits
/// as evaluating them where they are used.
static double applyDoubleOp(const std::string &N, const double *V,
                            size_t Arity) {
  if (N == "+" && Arity >= 2) {
    double Acc = V[0];
    for (size_t I = 1; I < Arity; ++I)
      Acc += V[I];
    return Acc;
  }
  if (N == "-" && Arity == 1)
    return -V[0];
  if (N == "-" && Arity >= 2) {
    double Acc = V[0];
    for (size_t I = 1; I < Arity; ++I)
      Acc -= V[I];
    return Acc;
  }
  if (N == "*" && Arity >= 2) {
    double Acc = V[0];
    for (size_t I = 1; I < Arity; ++I)
      Acc *= V[I];
    return Acc;
  }
  if (N == "/")
    return V[0] / V[1];
  if (N == "sqrt")
    return std::sqrt(V[0]);
  if (N == "fabs")
    return std::fabs(V[0]);
  if (N == "fmin")
    return std::fmin(V[0], V[1]);
  if (N == "fmax")
    return std::fmax(V[0], V[1]);
  if (N == "fma")
    return std::fma(V[0], V[1], V[2]);
  if (N == "copysign")
    return std::copysign(V[0], V[1]);
  if (N == "exp")
    return std::exp(V[0]);
  if (N == "exp2")
    return std::exp2(V[0]);
  if (N == "expm1")
    return std::expm1(V[0]);
  if (N == "log")
    return std::log(V[0]);
  if (N == "log2")
    return std::log2(V[0]);
  if (N == "log10")
    return std::log10(V[0]);
  if (N == "log1p")
    return std::log1p(V[0]);
  if (N == "sin")
    return std::sin(V[0]);
  if (N == "cos")
    return std::cos(V[0]);
  if (N == "tan")
    return std::tan(V[0]);
  if (N == "asin")
    return std::asin(V[0]);
  if (N == "acos")
    return std::acos(V[0]);
  if (N == "atan")
    return std::atan(V[0]);
  if (N == "atan2")
    return std::atan2(V[0], V[1]);
  if (N == "sinh")
    return std::sinh(V[0]);
  if (N == "cosh")
    return std::cosh(V[0]);
  if (N == "tanh")
    return std::tanh(V[0]);
  if (N == "pow")
    return std::pow(V[0], V[1]);
  if (N == "cbrt")
    return std::cbrt(V[0]);
  if (N == "hypot")
    return std::hypot(V[0], V[1]);
  if (N == "fmod")
    return std::fmod(V[0], V[1]);
  if (N == "floor")
    return std::floor(V[0]);
  if (N == "ceil")
    return std::ceil(V[0]);
  if (N == "round")
    return std::round(V[0]);
  if (N == "trunc")
    return std::trunc(V[0]);
  assert(false && "unsupported operator in double evaluation");
  return std::nan("");
}

double fpcore::evalDouble(const Expr &E, const DoubleEnv &Env,
                          uint64_t MaxLoopIters) {
  switch (E.K) {
  case Expr::Kind::Num:
    return E.Num;
  case Expr::Kind::Const:
    if (E.Name == "PI")
      return M_PI;
    if (E.Name == "E")
      return M_E;
    if (E.Name == "LN2")
      return M_LN2;
    if (E.Name == "LOG2E")
      return M_LOG2E;
    if (E.Name == "INFINITY")
      return HUGE_VAL;
    return std::nan("");
  case Expr::Kind::Var: {
    auto It = Env.find(E.Name);
    assert(It != Env.end() && "unbound variable");
    return It->second;
  }
  case Expr::Kind::If:
    return evalBoolDouble(*E.Args[0], Env, MaxLoopIters)
               ? evalDouble(*E.Args[1], Env, MaxLoopIters)
               : evalDouble(*E.Args[2], Env, MaxLoopIters);
  case Expr::Kind::Let: {
    DoubleEnv Inner = Env;
    if (E.Sequential) {
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = evalDouble(*E.Inits[I], Inner, MaxLoopIters);
    } else {
      std::vector<double> Vals;
      for (const ExprPtr &Init : E.Inits)
        Vals.push_back(evalDouble(*Init, Env, MaxLoopIters));
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = Vals[I];
    }
    return evalDouble(*E.Args[0], Inner, MaxLoopIters);
  }
  case Expr::Kind::While: {
    DoubleEnv Inner = Env;
    if (E.Sequential) {
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = evalDouble(*E.Inits[I], Inner, MaxLoopIters);
    } else {
      std::vector<double> Vals;
      for (const ExprPtr &Init : E.Inits)
        Vals.push_back(evalDouble(*Init, Env, MaxLoopIters));
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = Vals[I];
    }
    uint64_t Iters = 0;
    while (evalBoolDouble(*E.Args[0], Inner, MaxLoopIters)) {
      if (++Iters > MaxLoopIters)
        return std::nan("");
      if (E.Sequential) {
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] = evalDouble(*E.Updates[I], Inner, MaxLoopIters);
      } else {
        std::vector<double> News;
        for (const ExprPtr &U : E.Updates)
          News.push_back(evalDouble(*U, Inner, MaxLoopIters));
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] = News[I];
      }
    }
    return evalDouble(*E.Args[1], Inner, MaxLoopIters);
  }
  case Expr::Kind::Op:
    break;
  }

  double Vals[8];
  std::vector<double> Heap;
  size_t Arity = E.Args.size();
  double *V = Vals;
  if (Arity > 8) {
    Heap.resize(Arity);
    V = Heap.data();
  }
  for (size_t I = 0; I < Arity; ++I)
    V[I] = evalDouble(*E.Args[I], Env, MaxLoopIters);
  return applyDoubleOp(E.Name, V, Arity);
}

static bool evalBoolDouble(const Expr &E, const DoubleEnv &Env,
                           uint64_t MaxLoopIters) {
  if (E.K == Expr::Kind::Const)
    return E.Name == "TRUE";
  assert(E.K == Expr::Kind::Op && "boolean context needs an operator");
  const std::string &N = E.Name;
  if (N == "and") {
    for (const ExprPtr &Arg : E.Args)
      if (!evalBoolDouble(*Arg, Env, MaxLoopIters))
        return false;
    return true;
  }
  if (N == "or") {
    for (const ExprPtr &Arg : E.Args)
      if (evalBoolDouble(*Arg, Env, MaxLoopIters))
        return true;
    return false;
  }
  if (N == "not")
    return !evalBoolDouble(*E.Args[0], Env, MaxLoopIters);
  // Chained comparison.
  std::vector<double> Vals;
  for (const ExprPtr &Arg : E.Args)
    Vals.push_back(evalDouble(*Arg, Env, MaxLoopIters));
  for (size_t I = 0; I + 1 < Vals.size(); ++I) {
    double L = Vals[I], R = Vals[I + 1];
    bool Ok = N == "<"    ? L < R
              : N == "<=" ? L <= R
              : N == ">"  ? L > R
              : N == ">=" ? L >= R
              : N == "==" ? L == R
              : N == "!=" ? L != R
                          : false;
    if (!Ok)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Real evaluation
//===----------------------------------------------------------------------===//

static bool evalBoolReal(const Expr &E, const RealEnv &Env, size_t Prec,
                         uint64_t MaxLoopIters);

BigFloat fpcore::evalReal(const Expr &E, const RealEnv &Env, size_t PrecBits,
                          uint64_t MaxLoopIters) {
  switch (E.K) {
  case Expr::Kind::Num:
    return BigFloat::fromDouble(E.Num, PrecBits);
  case Expr::Kind::Const:
    if (E.Name == "PI")
      return realmath::pi(PrecBits);
    if (E.Name == "E")
      return realmath::eulerE(PrecBits);
    if (E.Name == "LN2")
      return realmath::ln2(PrecBits);
    if (E.Name == "LOG2E")
      return BigFloat::div(BigFloat::fromInt64(1, PrecBits),
                           realmath::ln2(PrecBits));
    if (E.Name == "INFINITY")
      return BigFloat::inf(false);
    return BigFloat::nan();
  case Expr::Kind::Var: {
    auto It = Env.find(E.Name);
    assert(It != Env.end() && "unbound variable");
    return It->second.withPrecision(PrecBits);
  }
  case Expr::Kind::If:
    return evalBoolReal(*E.Args[0], Env, PrecBits, MaxLoopIters)
               ? evalReal(*E.Args[1], Env, PrecBits, MaxLoopIters)
               : evalReal(*E.Args[2], Env, PrecBits, MaxLoopIters);
  case Expr::Kind::Let: {
    RealEnv Inner = Env;
    if (E.Sequential) {
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] =
            evalReal(*E.Inits[I], Inner, PrecBits, MaxLoopIters);
    } else {
      std::vector<BigFloat> Vals;
      for (const ExprPtr &Init : E.Inits)
        Vals.push_back(evalReal(*Init, Env, PrecBits, MaxLoopIters));
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = Vals[I];
    }
    return evalReal(*E.Args[0], Inner, PrecBits, MaxLoopIters);
  }
  case Expr::Kind::While: {
    RealEnv Inner = Env;
    if (E.Sequential) {
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] =
            evalReal(*E.Inits[I], Inner, PrecBits, MaxLoopIters);
    } else {
      std::vector<BigFloat> Vals;
      for (const ExprPtr &Init : E.Inits)
        Vals.push_back(evalReal(*Init, Env, PrecBits, MaxLoopIters));
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = Vals[I];
    }
    uint64_t Iters = 0;
    while (evalBoolReal(*E.Args[0], Inner, PrecBits, MaxLoopIters)) {
      if (++Iters > MaxLoopIters)
        return BigFloat::nan();
      if (E.Sequential) {
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] =
              evalReal(*E.Updates[I], Inner, PrecBits, MaxLoopIters);
      } else {
        std::vector<BigFloat> News;
        for (const ExprPtr &U : E.Updates)
          News.push_back(evalReal(*U, Inner, PrecBits, MaxLoopIters));
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] = News[I];
      }
    }
    return evalReal(*E.Args[1], Inner, PrecBits, MaxLoopIters);
  }
  case Expr::Kind::Op:
    break;
  }

  auto A = [&](size_t I) {
    return evalReal(*E.Args[I], Env, PrecBits, MaxLoopIters);
  };
  const std::string &N = E.Name;
  size_t Arity = E.Args.size();
  if (N == "+" && Arity >= 2) {
    BigFloat Acc = A(0);
    for (size_t I = 1; I < Arity; ++I)
      BigFloat::addInto(Acc, Acc, A(I));
    return Acc;
  }
  if (N == "-" && Arity == 1)
    return A(0).negated();
  if (N == "-" && Arity >= 2) {
    BigFloat Acc = A(0);
    for (size_t I = 1; I < Arity; ++I)
      BigFloat::subInto(Acc, Acc, A(I));
    return Acc;
  }
  if (N == "*" && Arity >= 2) {
    BigFloat Acc = A(0);
    for (size_t I = 1; I < Arity; ++I)
      BigFloat::mulInto(Acc, Acc, A(I));
    return Acc;
  }
  if (N == "/")
    return BigFloat::div(A(0), A(1));
  if (N == "sqrt")
    return BigFloat::sqrt(A(0));
  if (N == "fabs")
    return A(0).abs();
  if (N == "fmin")
    return BigFloat::fmin(A(0), A(1));
  if (N == "fmax")
    return BigFloat::fmax(A(0), A(1));
  if (N == "fma")
    return BigFloat::fma(A(0), A(1), A(2));
  if (N == "copysign")
    return A(0).copySign(A(1));
  if (N == "exp")
    return realmath::exp(A(0));
  if (N == "exp2")
    return realmath::exp2(A(0));
  if (N == "expm1")
    return realmath::expm1(A(0));
  if (N == "log")
    return realmath::log(A(0));
  if (N == "log2")
    return realmath::log2(A(0));
  if (N == "log10")
    return realmath::log10(A(0));
  if (N == "log1p")
    return realmath::log1p(A(0));
  if (N == "sin")
    return realmath::sin(A(0));
  if (N == "cos")
    return realmath::cos(A(0));
  if (N == "tan")
    return realmath::tan(A(0));
  if (N == "asin")
    return realmath::asin(A(0));
  if (N == "acos")
    return realmath::acos(A(0));
  if (N == "atan")
    return realmath::atan(A(0));
  if (N == "atan2")
    return realmath::atan2(A(0), A(1));
  if (N == "sinh")
    return realmath::sinh(A(0));
  if (N == "cosh")
    return realmath::cosh(A(0));
  if (N == "tanh")
    return realmath::tanh(A(0));
  if (N == "pow")
    return realmath::pow(A(0), A(1));
  if (N == "cbrt")
    return realmath::cbrt(A(0));
  if (N == "hypot")
    return realmath::hypot(A(0), A(1));
  if (N == "fmod")
    return realmath::fmod(A(0), A(1));
  if (N == "floor")
    return A(0).floor();
  if (N == "ceil")
    return A(0).ceil();
  if (N == "round")
    return A(0).roundNearest();
  if (N == "trunc")
    return A(0).trunc();
  assert(false && "unsupported operator in real evaluation");
  return BigFloat::nan();
}

static bool evalBoolReal(const Expr &E, const RealEnv &Env, size_t Prec,
                         uint64_t MaxLoopIters) {
  if (E.K == Expr::Kind::Const)
    return E.Name == "TRUE";
  assert(E.K == Expr::Kind::Op && "boolean context needs an operator");
  const std::string &N = E.Name;
  if (N == "and") {
    for (const ExprPtr &Arg : E.Args)
      if (!evalBoolReal(*Arg, Env, Prec, MaxLoopIters))
        return false;
    return true;
  }
  if (N == "or") {
    for (const ExprPtr &Arg : E.Args)
      if (evalBoolReal(*Arg, Env, Prec, MaxLoopIters))
        return true;
    return false;
  }
  if (N == "not")
    return !evalBoolReal(*E.Args[0], Env, Prec, MaxLoopIters);
  std::vector<BigFloat> Vals;
  for (const ExprPtr &Arg : E.Args)
    Vals.push_back(evalReal(*Arg, Env, Prec, MaxLoopIters));
  for (size_t I = 0; I + 1 < Vals.size(); ++I) {
    const BigFloat &L = Vals[I];
    const BigFloat &R = Vals[I + 1];
    bool Ok = N == "<"    ? BigFloat::lt(L, R)
              : N == "<=" ? BigFloat::le(L, R)
              : N == ">"  ? BigFloat::gt(L, R)
              : N == ">=" ? BigFloat::ge(L, R)
              : N == "==" ? BigFloat::eq(L, R)
              : N == "!=" ? BigFloat::ne(L, R)
                          : false;
    if (!Ok)
      return false;
  }
  return true;
}

double fpcore::pointErrorBits(const Expr &E, const DoubleEnv &Point,
                              size_t PrecBits) {
  double F = evalDouble(E, Point);
  RealEnv RE;
  for (const auto &[Name, V] : Point)
    RE.emplace(Name, BigFloat::fromDouble(V, PrecBits));
  BigFloat R = evalReal(E, RE, PrecBits);
  double RD = R.toDouble();
  bool FNaN = std::isnan(F);
  bool RNaN = std::isnan(RD);
  if (FNaN && RNaN)
    return 0.0;
  if (FNaN || RNaN)
    return 64.0;
  return bitsOfErrorDouble(F, RD);
}
