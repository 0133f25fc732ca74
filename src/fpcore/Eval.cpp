//===- fpcore/Eval.cpp - Direct FPCore evaluation --------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Eval.h"

#include "analysis/RealOps.h"
#include "fpcore/Compile.h"
#include "real/RealMath.h"
#include "support/FloatBits.h"

#include <cassert>
#include <cmath>

using namespace herbgrind;
using namespace herbgrind::fpcore;

//===----------------------------------------------------------------------===//
// The walk
//===----------------------------------------------------------------------===//

namespace {

/// The one let/while/if/test walk behind evalDouble and evalReal. The
/// domain \p D supplies what differs between them: its Value type,
/// num(), constant(), var() (a value read from the environment), apply()
/// (an operator applied to its evaluated operands) and compare().
template <class D> class Walk {
public:
  using T = typename D::Value;
  using Env = std::map<std::string, T>;

  Walk(D Dom, uint64_t MaxLoopIters) : Dom(Dom), MaxLoopIters(MaxLoopIters) {}

  T value(const Expr &E, const Env &Scope) const {
    switch (E.K) {
    case Expr::Kind::Num:
      return Dom.num(E.Num);
    case Expr::Kind::Const:
      return Dom.constant(E.Name);
    case Expr::Kind::Var: {
      auto It = Scope.find(E.Name);
      assert(It != Scope.end() && "unbound variable");
      return Dom.var(It->second);
    }
    case Expr::Kind::If:
      return test(*E.Args[0], Scope) ? value(*E.Args[1], Scope)
                                     : value(*E.Args[2], Scope);
    case Expr::Kind::Let: {
      Env Inner = Scope;
      bind(E, E.Inits, Scope, Inner);
      return value(*E.Args[0], Inner);
    }
    case Expr::Kind::While: {
      Env Inner = Scope;
      bind(E, E.Inits, Scope, Inner);
      for (uint64_t Iters = 0; test(*E.Args[0], Inner);) {
        if (++Iters > MaxLoopIters)
          return Dom.num(std::nan(""));
        bind(E, E.Updates, Inner, Inner);
      }
      return value(*E.Args[1], Inner);
    }
    case Expr::Kind::Op:
      break;
    }
    return operands(E, Scope,
                    [&](T *V, size_t N) { return Dom.apply(E, V, N); });
  }

  bool test(const Expr &E, const Env &Scope) const {
    if (E.K == Expr::Kind::Const)
      return E.Name == "TRUE";
    assert(E.K == Expr::Kind::Op && "boolean context needs an operator");
    if (E.Name == "and") {
      for (const ExprPtr &Arg : E.Args)
        if (!test(*Arg, Scope))
          return false;
      return true;
    }
    if (E.Name == "or") {
      for (const ExprPtr &Arg : E.Args)
        if (test(*Arg, Scope))
          return true;
      return false;
    }
    if (E.Name == "not")
      return !test(*E.Args[0], Scope);
    // Chained comparison: (< a b c) holds when (< a b) and (< b c) do.
    return operands(E, Scope, [&](T *V, size_t N) {
      for (size_t I = 0; I + 1 < N; ++I)
        if (!Dom.compare(E.Name, V[I], V[I + 1]))
          return false;
      return true;
    });
  }

private:
  /// Evaluates \p E's operands in order and hands them to \p Use.
  template <class Fn>
  auto operands(const Expr &E, const Env &Scope, Fn Use) const {
    size_t N = E.Args.size();
    T Inline[3];
    std::vector<T> Heap(N > 3 ? N : 0);
    T *V = N > 3 ? Heap.data() : Inline;
    for (size_t I = 0; I < N; ++I)
      V[I] = value(*E.Args[I], Scope);
    return Use(V, N);
  }

  /// Binds \p E's names to \p Exprs (its inits or its updates) in
  /// \p Inner. A sequential form evaluates each in \p Inner as the
  /// earlier ones land; a parallel one evaluates all in \p Outer first.
  void bind(const Expr &E, const std::vector<ExprPtr> &Exprs,
            const Env &Outer, Env &Inner) const {
    if (E.Sequential) {
      for (size_t I = 0; I < E.Binds.size(); ++I)
        Inner[E.Binds[I]] = value(*Exprs[I], Inner);
      return;
    }
    std::vector<T> Vals;
    for (const ExprPtr &X : Exprs)
      Vals.push_back(value(*X, Outer));
    for (size_t I = 0; I < E.Binds.size(); ++I)
      Inner[E.Binds[I]] = std::move(Vals[I]);
  }

  D Dom;
  uint64_t MaxLoopIters;
};

//===----------------------------------------------------------------------===//
// Doubles: the oracle
//===----------------------------------------------------------------------===//

/// Applies operator \p N to \p Arity operand values that evalDouble has
/// already evaluated. Every operator consumes each operand exactly once in
/// argument order, so evaluating the operands first gives the same bits
/// as evaluating them where they are used.
///
/// This table and DoubleDomain::compare are deliberately not the opcode
/// table: evalDouble is the independent oracle that compiled programs are
/// checked against, so it must not reach fpcoreOpcode or evalScalarOp.
double applyDoubleOp(const std::string &N, const double *V, size_t Arity) {
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

/// Doubles, through applyDoubleOp and a comparison chain of their own.
struct DoubleDomain {
  using Value = double;
  double num(double X) const { return X; }
  double constant(const std::string &Name) const {
    if (Name == "PI")
      return M_PI;
    if (Name == "E")
      return M_E;
    if (Name == "LN2")
      return M_LN2;
    if (Name == "LOG2E")
      return M_LOG2E;
    if (Name == "INFINITY")
      return HUGE_VAL;
    return std::nan("");
  }
  double var(double V) const { return V; }
  double apply(const Expr &E, const double *V, size_t N) const {
    return applyDoubleOp(E.Name, V, N);
  }
  bool compare(const std::string &N, double L, double R) const {
    return N == "<"    ? L < R
           : N == "<=" ? L <= R
           : N == ">"  ? L > R
           : N == ">=" ? L >= R
           : N == "==" ? L == R
           : N == "!=" ? L != R
                       : false;
  }
};

//===----------------------------------------------------------------------===//
// Reals: the shadow's semantics
//===----------------------------------------------------------------------===//

/// Reals at a fixed precision. Operators are the opcode table's, applied
/// with the shadow's own real semantics (analysis/RealOps); constants are
/// computed at the working precision.
struct RealDomain {
  using Value = BigFloat;
  size_t Prec;

  BigFloat num(double X) const { return BigFloat::fromDouble(X, Prec); }
  BigFloat constant(const std::string &Name) const {
    if (Name == "PI")
      return realmath::pi(Prec);
    if (Name == "E")
      return realmath::eulerE(Prec);
    if (Name == "LN2")
      return realmath::ln2(Prec);
    if (Name == "LOG2E")
      return BigFloat::div(BigFloat::fromInt64(1, Prec), realmath::ln2(Prec));
    if (Name == "INFINITY")
      return BigFloat::inf(false);
    return BigFloat::nan();
  }
  BigFloat var(const BigFloat &V) const { return V.withPrecision(Prec); }
  BigFloat apply(const Expr &E, BigFloat *V, size_t N) const {
    Opcode Op = Opcode::NumOpcodes;
    if (!fpcoreOpcode(E.Name, static_cast<unsigned>(N), Op) ||
        opInfo(Op).IsComparison) {
      assert(false && "unsupported operator in real evaluation");
      return BigFloat::nan();
    }
    if (opInfo(Op).Arity == N)
      evalRealOpInto(V[N - 1], Op, V, static_cast<unsigned>(N));
    else // Variadic + - *: left fold, V[I] becomes V[I - 1] op V[I].
      for (size_t I = 1; I < N; ++I)
        evalRealOpInto(V[I], Op, &V[I - 1], 2);
    return std::move(V[N - 1]);
  }
  bool compare(const std::string &Name, const BigFloat &L,
               const BigFloat &R) const {
    Opcode Op = Opcode::NumOpcodes;
    bool Known = fpcoreOpcode(Name, 2, Op) && opInfo(Op).IsComparison;
    assert(Known && "unsupported comparison in real evaluation");
    return Known && evalRealPredicate(Op, L, R);
  }
};

} // namespace

double fpcore::evalDouble(const Expr &E, const DoubleEnv &Env,
                          uint64_t MaxLoopIters) {
  return Walk<DoubleDomain>(DoubleDomain(), MaxLoopIters).value(E, Env);
}

BigFloat fpcore::evalReal(const Expr &E, const RealEnv &Env, size_t PrecBits,
                          uint64_t MaxLoopIters) {
  return Walk<RealDomain>(RealDomain{PrecBits}, MaxLoopIters).value(E, Env);
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
