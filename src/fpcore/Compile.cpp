//===- fpcore/Compile.cpp - FPCore -> abstract machine compiler -----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Compile.h"

#include <cassert>
#include <cmath>
#include <map>
#include <unordered_map>

using namespace herbgrind;
using namespace herbgrind::fpcore;

namespace {

/// The scalar f64 opcodes by FPCore name, built once from the opcode
/// table. None marks an arity the name does not take.
struct FPCoreOps {
  static constexpr Opcode None = Opcode::NumOpcodes;
  struct Entry {
    Opcode ByArity[4] = {None, None, None, None};
    Opcode Variadic = None; ///< The binary opcode, if it folds or chains.
  };
  std::unordered_map<std::string, Entry> ByName;

  FPCoreOps() {
    for (unsigned I = 0; I < static_cast<unsigned>(Opcode::NumOpcodes); ++I) {
      Opcode Op = static_cast<Opcode>(I);
      const OpInfo &Info = opInfo(Op);
      if (!Info.FPCoreName || Info.IsSIMD ||
          Info.OperandTy != ValueType::F64 ||
          (Info.ResultTy != ValueType::F64 && !Info.IsComparison))
        continue;
      Entry &E = ByName[Info.FPCoreName];
      assert(Info.Arity < std::size(E.ByArity) && "arity past the entry");
      E.ByArity[Info.Arity] = Op;
      if (Info.IsComparison || Op == Opcode::AddF64 ||
          Op == Opcode::SubF64 || Op == Opcode::MulF64)
        E.Variadic = Op;
    }
  }
};

/// The value of the named number constant \p Name; false if there is
/// none (TRUE and FALSE are tests, not numbers).
bool constValue(const std::string &Name, double &V) {
  if (Name == "PI")
    V = M_PI;
  else if (Name == "E")
    V = M_E;
  else if (Name == "LN2")
    V = M_LN2;
  else if (Name == "LOG2E")
    V = M_LOG2E;
  else if (Name == "INFINITY")
    V = HUGE_VAL;
  else if (Name == "NAN")
    V = std::nan("");
  else
    return false;
  return true;
}

class Compiler {
public:
  explicit Compiler(const Core &C) : C(C) {
    File = (C.Name.empty() ? std::string("anonymous") : C.Name) + ".fpcore";
  }

  Program run() {
    std::map<std::string, ProgramBuilder::Temp> Env;
    for (size_t I = 0; I < C.Params.size(); ++I)
      Env[C.Params[I]] = B.input(static_cast<unsigned>(I));
    ProgramBuilder::Temp Result = value(*C.Body, Env);
    B.out(Result);
    B.halt();
    Program P = B.finish();
    assert(P.validate().empty() && "compiler produced an invalid program");
    return P;
  }

private:
  using Temp = ProgramBuilder::Temp;
  using Env = std::map<std::string, Temp>;

  void tickLoc() {
    B.setLoc(SourceLoc(File, ++Line, C.Name));
  }

  /// Compiles a float-valued expression.
  Temp value(const Expr &E, Env &Scope) {
    switch (E.K) {
    case Expr::Kind::Num:
      return B.constF64(E.Num);
    case Expr::Kind::Const: {
      double V = 0.0;
      bool Known = constValue(E.Name, V);
      assert(Known && "unknown constant");
      (void)Known;
      return B.constF64(V);
    }
    case Expr::Kind::Var: {
      auto It = Scope.find(E.Name);
      assert(It != Scope.end() && "unbound variable");
      return It->second;
    }
    case Expr::Kind::Op: {
      Opcode Op = lookup(E);
      unsigned Arity = opInfo(Op).Arity;
      if (Arity == E.Args.size()) {
        Temp Args[3];
        for (size_t I = 0; I < E.Args.size(); ++I)
          Args[I] = value(*E.Args[I], Scope);
        tickLoc();
        switch (Arity) {
        case 1:
          return B.op(Op, Args[0]);
        case 2:
          return B.op(Op, Args[0], Args[1]);
        default:
          return B.op(Op, Args[0], Args[1], Args[2]);
        }
      }
      // Variadic +/-/*: left fold.
      Temp Acc = value(*E.Args[0], Scope);
      for (size_t I = 1; I < E.Args.size(); ++I) {
        Temp Next = value(*E.Args[I], Scope);
        tickLoc();
        Acc = B.op(Op, Acc, Next);
      }
      return Acc;
    }
    case Expr::Kind::If: {
      Temp Cond = boolean(*E.Args[0], Scope);
      Temp Result = B.newTemp();
      auto Else = B.newLabel();
      auto End = B.newLabel();
      tickLoc();
      Temp Not = B.op(Opcode::XorI64, Cond, B.constI64(1));
      B.branchIf(Not, Else);
      B.copyTo(Result, value(*E.Args[1], Scope));
      B.jump(End);
      B.bind(Else);
      B.copyTo(Result, value(*E.Args[2], Scope));
      B.bind(End);
      return Result;
    }
    case Expr::Kind::Let: {
      Env Inner = Scope;
      if (E.Sequential) {
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] = value(*E.Inits[I], Inner);
      } else {
        std::vector<Temp> Vals;
        for (const ExprPtr &Init : E.Inits)
          Vals.push_back(value(*Init, Scope));
        for (size_t I = 0; I < E.Binds.size(); ++I)
          Inner[E.Binds[I]] = Vals[I];
      }
      return value(*E.Args[0], Inner);
    }
    case Expr::Kind::While: {
      // Loop variables live in dedicated mutable temps.
      Env Inner = Scope;
      std::vector<Temp> Vars;
      if (E.Sequential) {
        for (size_t I = 0; I < E.Binds.size(); ++I) {
          Temp V = B.newTemp();
          B.copyTo(V, value(*E.Inits[I], Inner));
          Inner[E.Binds[I]] = V;
          Vars.push_back(V);
        }
      } else {
        std::vector<Temp> Vals;
        for (const ExprPtr &Init : E.Inits)
          Vals.push_back(value(*Init, Scope));
        for (size_t I = 0; I < E.Binds.size(); ++I) {
          Temp V = B.newTemp();
          B.copyTo(V, Vals[I]);
          Inner[E.Binds[I]] = V;
          Vars.push_back(V);
        }
      }
      auto Head = B.newLabel();
      auto Exit = B.newLabel();
      B.bind(Head);
      Temp Cond = boolean(*E.Args[0], Inner);
      tickLoc();
      Temp Not = B.op(Opcode::XorI64, Cond, B.constI64(1));
      B.branchIf(Not, Exit);
      if (E.Sequential) {
        for (size_t I = 0; I < E.Binds.size(); ++I)
          B.copyTo(Vars[I], value(*E.Updates[I], Inner));
      } else {
        std::vector<Temp> News;
        for (const ExprPtr &U : E.Updates)
          News.push_back(value(*U, Inner));
        for (size_t I = 0; I < E.Binds.size(); ++I)
          B.copyTo(Vars[I], News[I]);
      }
      B.jump(Head);
      B.bind(Exit);
      return value(*E.Args[1], Inner);
    }
    }
    assert(false && "unhandled expression kind");
    return 0;
  }

  /// Compiles a boolean-valued expression to an i64 temp holding 0/1.
  Temp boolean(const Expr &E, Env &Scope) {
    if (E.K == Expr::Kind::Const) {
      if (E.Name == "TRUE")
        return B.constI64(1);
      if (E.Name == "FALSE")
        return B.constI64(0);
    }
    assert(E.K == Expr::Kind::Op && "boolean context needs an operator");
    if (E.Name == "and" || E.Name == "or") {
      Temp Acc = boolean(*E.Args[0], Scope);
      for (size_t I = 1; I < E.Args.size(); ++I) {
        Temp Next = boolean(*E.Args[I], Scope);
        Acc = B.op(E.Name == "and" ? Opcode::AndI64 : Opcode::OrI64, Acc,
                   Next);
      }
      return Acc;
    }
    if (E.Name == "not")
      return B.op(Opcode::XorI64, boolean(*E.Args[0], Scope), B.constI64(1));
    Opcode Op = lookup(E);
    assert(opInfo(Op).IsComparison && "unsupported boolean operator");
    // Chained comparisons: (< a b c) == (and (< a b) (< b c)).
    std::vector<Temp> Args;
    for (const ExprPtr &A : E.Args)
      Args.push_back(value(*A, Scope));
    tickLoc();
    Temp Acc = B.op(Op, Args[0], Args[1]);
    for (size_t I = 1; I + 1 < Args.size(); ++I) {
      Temp Next = B.op(Op, Args[I], Args[I + 1]);
      Acc = B.op(Opcode::AndI64, Acc, Next);
    }
    return Acc;
  }

  /// The opcode of application \p E, which the checker has accepted.
  static Opcode lookup(const Expr &E) {
    Opcode Op = Opcode::NumOpcodes;
    bool Known =
        fpcoreOpcode(E.Name, static_cast<unsigned>(E.Args.size()), Op);
    assert(Known && "unsupported operator");
    (void)Known;
    return Op;
  }

  const Core &C;
  ProgramBuilder B;
  std::string File;
  int Line = 0;
};

/// Accepts exactly the cores Compiler compiles: it walks the body in
/// Compiler's positions (value or test) and scopes, and names the first
/// thing Compiler could not compile.
class Checker {
public:
  Checker(const Core &C, std::string *WhyNot) : WhyNot(WhyNot) {
    for (const std::string &P : C.Params)
      Bound.push_back(&P);
  }

  bool value(const Expr &E) {
    switch (E.K) {
    case Expr::Kind::Num:
      return true;
    case Expr::Kind::Const: {
      double V = 0.0;
      return constValue(E.Name, V) || no(E.Name + " is not a number");
    }
    case Expr::Kind::Var:
      for (const std::string *Name : Bound)
        if (*Name == E.Name)
          return true;
      return no("unbound variable " + E.Name);
    case Expr::Kind::Op: {
      Opcode Op = Opcode::NumOpcodes;
      if (!fpcoreOpcode(E.Name, static_cast<unsigned>(E.Args.size()), Op) ||
          opInfo(Op).IsComparison)
        return no("no value operator " + E.Name + "/" +
                  std::to_string(E.Args.size()));
      for (const ExprPtr &A : E.Args)
        if (!value(*A))
          return false;
      return true;
    }
    case Expr::Kind::If:
      return test(*E.Args[0]) && value(*E.Args[1]) && value(*E.Args[2]);
    case Expr::Kind::Let:
    case Expr::Kind::While:
      break;
    }
    // Binds scope like Compiler's: a sequential init sees the binds before
    // it, a parallel one only the outer scope; the loop test, the updates
    // and the body see them all.
    size_t Outer = Bound.size();
    bool Ok = true;
    for (size_t I = 0; Ok && I < E.Binds.size(); ++I) {
      Ok = value(*E.Inits[I]);
      if (E.Sequential)
        Bound.push_back(&E.Binds[I]);
    }
    if (!E.Sequential)
      for (const std::string &Name : E.Binds)
        Bound.push_back(&Name);
    if (E.K == Expr::Kind::While) {
      Ok = Ok && test(*E.Args[0]);
      for (size_t I = 0; Ok && I < E.Updates.size(); ++I)
        Ok = value(*E.Updates[I]);
    }
    Ok = Ok && value(*E.Args.back());
    Bound.resize(Outer);
    return Ok;
  }

  bool test(const Expr &E) {
    if (E.K == Expr::Kind::Const && (E.Name == "TRUE" || E.Name == "FALSE"))
      return true;
    if (E.K != Expr::Kind::Op)
      return no(E.print() + " is not a test");
    size_t N = E.Args.size();
    bool Connective = E.Name == "not" ? N == 1
                                      : (E.Name == "and" || E.Name == "or") &&
                                            N > 0;
    Opcode Op = Opcode::NumOpcodes;
    if (!Connective &&
        !(fpcoreOpcode(E.Name, static_cast<unsigned>(N), Op) &&
          opInfo(Op).IsComparison))
      return no("no test operator " + E.Name + "/" + std::to_string(N));
    for (const ExprPtr &A : E.Args)
      if (!(Connective ? test(*A) : value(*A)))
        return false;
    return true;
  }

private:
  bool no(std::string Why) {
    if (WhyNot)
      *WhyNot = std::move(Why);
    return false;
  }

  std::string *WhyNot;
  std::vector<const std::string *> Bound; ///< Innermost last.
};

} // namespace

bool fpcore::fpcoreOpcode(const std::string &Name, unsigned Arity,
                          Opcode &Op) {
  static const FPCoreOps Ops;
  auto It = Ops.ByName.find(Name);
  if (It == Ops.ByName.end())
    return false;
  const FPCoreOps::Entry &E = It->second;
  if (Arity < std::size(E.ByArity) && E.ByArity[Arity] != FPCoreOps::None)
    Op = E.ByArity[Arity];
  else if (Arity > 2 && E.Variadic != FPCoreOps::None)
    Op = E.Variadic;
  else
    return false;
  return true;
}

bool fpcore::isCompilable(const Core &C, std::string *WhyNot) {
  return Checker(C, WhyNot).value(*C.Body);
}

Program fpcore::compile(const Core &C) {
  assert(isCompilable(C) && "core is not compilable");
  Compiler Comp(C);
  return Comp.run();
}

//===----------------------------------------------------------------------===//
// The compiled-program cache
//===----------------------------------------------------------------------===//

const Program &ProgramCache::get(const Core &C) {
  std::string Key = C.print();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Programs.find(Key);
    if (It != Programs.end()) {
      ++Hits;
      return *It->second;
    }
  }
  // Compile outside the lock so a slow compilation never blocks other
  // workers' lookups; on a lost race the duplicate is discarded.
  auto P = std::make_unique<Program>(compile(C));
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Programs.find(Key);
  if (It != Programs.end()) {
    ++Hits;
    return *It->second;
  }
  ++Misses;
  return *Programs.emplace(std::move(Key), std::move(P)).first->second;
}

size_t ProgramCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t ProgramCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}
