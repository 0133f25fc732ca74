//===- fpcore/FPCore.cpp - FPCore AST, parser, printer --------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/FPCore.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace herbgrind;
using namespace herbgrind::fpcore;

//===----------------------------------------------------------------------===//
// AST
//===----------------------------------------------------------------------===//

ExprPtr Expr::num(double X) {
  auto E = std::make_unique<Expr>();
  E->K = Kind::Num;
  E->Num = X;
  return E;
}

ExprPtr Expr::var(std::string Name) {
  auto E = std::make_unique<Expr>();
  E->K = Kind::Var;
  E->Name = std::move(Name);
  return E;
}

ExprPtr Expr::op(std::string Name, std::vector<ExprPtr> Args) {
  auto E = std::make_unique<Expr>();
  E->K = Kind::Op;
  E->Name = std::move(Name);
  E->Args = std::move(Args);
  return E;
}

ExprPtr Expr::clone() const {
  auto E = std::make_unique<Expr>();
  E->K = K;
  E->Num = Num;
  E->Name = Name;
  E->Binds = Binds;
  E->Sequential = Sequential;
  for (const ExprPtr &A : Args)
    E->Args.push_back(A->clone());
  for (const ExprPtr &A : Inits)
    E->Inits.push_back(A->clone());
  for (const ExprPtr &A : Updates)
    E->Updates.push_back(A->clone());
  return E;
}

unsigned Expr::opCount() const {
  unsigned N = K == Kind::Op ? 1 : 0;
  for (const ExprPtr &A : Args)
    N += A->opCount();
  for (const ExprPtr &A : Inits)
    N += A->opCount();
  for (const ExprPtr &A : Updates)
    N += A->opCount();
  return N;
}

void Expr::freeVars(std::vector<std::string> &Out) const {
  auto Add = [&Out](const std::string &Name) {
    if (std::find(Out.begin(), Out.end(), Name) == Out.end())
      Out.push_back(Name);
  };
  switch (K) {
  case Kind::Var:
    Add(Name);
    return;
  case Kind::Num:
  case Kind::Const:
    return;
  case Kind::Op:
  case Kind::If:
    for (const ExprPtr &A : Args)
      A->freeVars(Out);
    return;
  case Kind::Let:
  case Kind::While: {
    for (const ExprPtr &A : Inits)
      A->freeVars(Out);
    // Bound names shadow; collect body/update vars then drop bound ones.
    std::vector<std::string> Inner;
    for (const ExprPtr &A : Updates)
      A->freeVars(Inner);
    for (const ExprPtr &A : Args)
      A->freeVars(Inner);
    for (const std::string &V : Inner)
      if (std::find(Binds.begin(), Binds.end(), V) == Binds.end())
        Add(V);
    return;
  }
  }
}

std::string Expr::print() const {
  switch (K) {
  case Kind::Num:
    return formatDoubleShortest(Num);
  case Kind::Const:
  case Kind::Var:
    return Name;
  case Kind::Op: {
    std::string S = "(" + Name;
    for (const ExprPtr &A : Args)
      S += " " + A->print();
    return S + ")";
  }
  case Kind::If:
    return "(if " + Args[0]->print() + " " + Args[1]->print() + " " +
           Args[2]->print() + ")";
  case Kind::Let: {
    std::string S = Sequential ? "(let* (" : "(let (";
    for (size_t I = 0; I < Binds.size(); ++I) {
      if (I)
        S += " ";
      S += "[" + Binds[I] + " " + Inits[I]->print() + "]";
    }
    return S + ") " + Args[0]->print() + ")";
  }
  case Kind::While: {
    std::string S = Sequential ? "(while* " : "(while ";
    S += Args[0]->print() + " (";
    for (size_t I = 0; I < Binds.size(); ++I) {
      if (I)
        S += " ";
      S += "[" + Binds[I] + " " + Inits[I]->print() + " " +
           Updates[I]->print() + "]";
    }
    return S + ") " + Args[1]->print() + ")";
  }
  }
  return "?";
}

std::string Core::print() const {
  std::string S = "(FPCore (" + join(Params, " ") + ")";
  if (!Name.empty())
    S += "\n  :name \"" + Name + "\"";
  if (Pre)
    S += "\n  :pre " + Pre->print();
  return S + "\n  " + Body->print() + ")";
}

Core Core::clone() const {
  Core C;
  C.Name = Name;
  C.Params = Params;
  C.Pre = Pre ? Pre->clone() : nullptr;
  C.Body = Body->clone();
  return C;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Forms nested deeper than this are refused. The printer, the checker,
/// the compiler and both evaluators recurse once per level, so a deeper
/// body would overflow the stack before any of them could refuse it. The
/// corpus's deepest body nests 12.
constexpr unsigned MaxNesting = 1000;

/// Minimal S-expression tokenizer/recursive-descent parser.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  std::string Error;

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  /// Reads one token: "(", ")", "[", "]", or an atom.
  std::string next() {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return "";
    }
    char C = Text[Pos];
    if (C == '(' || C == ')' || C == '[' || C == ']') {
      ++Pos;
      return std::string(1, C);
    }
    if (C == '"') {
      size_t Start = ++Pos;
      while (Pos < Text.size() && Text[Pos] != '"')
        ++Pos;
      std::string S = Text.substr(Start, Pos - Start);
      if (Pos < Text.size())
        ++Pos;
      return "\"" + S + "\"";
    }
    size_t Start = Pos;
    while (Pos < Text.size() && !isspace(Text[Pos]) && Text[Pos] != '(' &&
           Text[Pos] != ')' && Text[Pos] != '[' && Text[Pos] != ']')
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  std::string peek() {
    size_t Save = Pos;
    std::string T = next();
    Pos = Save;
    return T;
  }

  bool expect(const std::string &Tok) {
    std::string Got = next();
    if (Got != Tok) {
      fail("expected '" + Tok + "', got '" + Got + "'");
      return false;
    }
    return true;
  }

  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  ExprPtr parseExpr();

private:
  /// The rest of a form whose "(" parseExpr consumed.
  ExprPtr parseForm();

  void skipSpace() {
    while (Pos < Text.size()) {
      if (isspace(Text[Pos])) {
        ++Pos;
      } else if (Text[Pos] == ';') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  const std::string &Text;
  size_t Pos = 0;
  unsigned Nesting = 0; ///< Forms open around the current position.
};

bool isNumber(const std::string &Tok, double &Out) {
  if (Tok.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(Tok.c_str(), &End);
  if (End == Tok.c_str() + Tok.size())
    return true;
  // FPCore rationals: "1/3".
  size_t Slash = Tok.find('/');
  if (Slash != std::string::npos && Slash > 0) {
    char *E1 = nullptr;
    char *E2 = nullptr;
    // The numerator string must outlive E1, which points into its buffer.
    std::string Num = Tok.substr(0, Slash);
    double N = std::strtod(Num.c_str(), &E1);
    std::string Den = Tok.substr(Slash + 1);
    double D = std::strtod(Den.c_str(), &E2);
    if (E1 == Num.c_str() + Num.size() && E2 == Den.c_str() + Den.size() &&
        D != 0) {
      Out = N / D;
      return true;
    }
  }
  return false;
}

bool isConstName(const std::string &Tok) {
  return Tok == "PI" || Tok == "E" || Tok == "INFINITY" || Tok == "NAN" ||
         Tok == "TRUE" || Tok == "FALSE" || Tok == "LN2" || Tok == "LOG2E";
}

ExprPtr Parser::parseExpr() {
  std::string Tok = next();
  if (!Error.empty())
    return nullptr;
  double Num;
  if (isNumber(Tok, Num))
    return Expr::num(Num);
  if (Tok != "(") {
    if (Tok == ")" || Tok == "[" || Tok == "]") {
      fail("unexpected '" + Tok + "'");
      return nullptr;
    }
    if (isConstName(Tok)) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Const;
      E->Name = Tok;
      return E;
    }
    return Expr::var(Tok);
  }
  if (Nesting == MaxNesting) {
    fail(format("expression nested deeper than %u levels", MaxNesting));
    return nullptr;
  }
  ++Nesting;
  ExprPtr E = parseForm();
  --Nesting;
  return E;
}

ExprPtr Parser::parseForm() {
  std::string Head = next();
  if (Head == "if") {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::If;
    E->Args.push_back(parseExpr());
    E->Args.push_back(parseExpr());
    E->Args.push_back(parseExpr());
    if (!expect(")"))
      return nullptr;
    return E;
  }
  if (Head == "let" || Head == "let*") {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Let;
    E->Sequential = Head == "let*";
    if (!expect("("))
      return nullptr;
    while (peek() == "[") {
      expect("[");
      E->Binds.push_back(next());
      E->Inits.push_back(parseExpr());
      if (!expect("]"))
        return nullptr;
    }
    if (!expect(")"))
      return nullptr;
    E->Args.push_back(parseExpr()); // body
    if (!expect(")"))
      return nullptr;
    return E;
  }
  if (Head == "while" || Head == "while*") {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::While;
    E->Sequential = Head == "while*";
    E->Args.push_back(parseExpr()); // condition
    if (!expect("("))
      return nullptr;
    while (peek() == "[") {
      expect("[");
      E->Binds.push_back(next());
      E->Inits.push_back(parseExpr());
      E->Updates.push_back(parseExpr());
      if (!expect("]"))
        return nullptr;
    }
    if (!expect(")"))
      return nullptr;
    E->Args.push_back(parseExpr()); // body
    if (!expect(")"))
      return nullptr;
    return E;
  }

  // Plain operator application.
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::Op;
  E->Name = Head;
  while (Error.empty() && peek() != ")")
    E->Args.push_back(parseExpr());
  if (!expect(")"))
    return nullptr;
  return E;
}

} // namespace

ParseResult fpcore::parse(const std::string &Text) {
  ParseResult R;
  Parser P(Text);
  if (!P.expect("(") || P.next() != "FPCore") {
    R.Error = P.Error.empty() ? "not an FPCore form" : P.Error;
    return R;
  }
  if (!P.expect("(")) {
    R.Error = P.Error;
    return R;
  }
  while (P.peek() != ")" && P.Error.empty())
    R.Value.Params.push_back(P.next());
  P.expect(")");
  // Properties, then the body.
  while (P.Error.empty()) {
    std::string Tok = P.peek();
    if (Tok == ":name") {
      P.next();
      // A string, which cannot hold a quote: the printer writes the name
      // back between quotes.
      std::string Name = P.next();
      if (Name.empty() || Name.front() != '"') {
        P.fail("expected a string after :name, got '" + Name + "'");
        break;
      }
      R.Value.Name = Name.substr(1, Name.size() - 2);
    } else if (Tok == ":pre") {
      P.next();
      R.Value.Pre = P.parseExpr();
    } else if (!Tok.empty() && Tok[0] == ':') {
      // Unknown property: skip its single-expression value.
      P.next();
      P.parseExpr();
    } else {
      break;
    }
  }
  R.Value.Body = P.parseExpr();
  P.expect(")");
  if (!P.Error.empty()) {
    R.Error = P.Error;
    return R;
  }
  if (!R.Value.Body) {
    R.Error = "missing body";
    return R;
  }
  R.Ok = true;
  return R;
}

ExprPtr fpcore::parseExpr(const std::string &Text, std::string &Error) {
  Parser P(Text);
  ExprPtr E = P.parseExpr();
  Error = P.Error;
  return Error.empty() ? std::move(E) : nullptr;
}

//===----------------------------------------------------------------------===//
// Precondition ranges
//===----------------------------------------------------------------------===//

/// Folds one comparison clause into the range table.
static void foldClause(const Expr &E,
                       const std::vector<std::string> &Params,
                       std::vector<VarRange> &Ranges) {
  auto IndexOf = [&](const Expr &V) -> int {
    if (V.K != Expr::Kind::Var)
      return -1;
    for (size_t I = 0; I < Params.size(); ++I)
      if (Params[I] == V.Name)
        return static_cast<int>(I);
    return -1;
  };
  auto NumOf = [](const Expr &V, double &Out) {
    if (V.K == Expr::Kind::Num) {
      Out = V.Num;
      return true;
    }
    if (V.K == Expr::Kind::Const && V.Name == "PI") {
      Out = 3.141592653589793;
      return true;
    }
    // (- c) for a literal c.
    if (V.K == Expr::Kind::Op && V.Name == "-" && V.Args.size() == 1 &&
        V.Args[0]->K == Expr::Kind::Num) {
      Out = -V.Args[0]->Num;
      return true;
    }
    return false;
  };

  if (E.K != Expr::Kind::Op)
    return;
  if (E.Name == "and") {
    for (const ExprPtr &A : E.Args)
      foldClause(*A, Params, Ranges);
    return;
  }
  bool Le = E.Name == "<=" || E.Name == "<";
  bool Ge = E.Name == ">=" || E.Name == ">";
  if (!Le && !Ge)
    return;
  // Chained comparisons: (<= a b c ...): fold each adjacent pair.
  for (size_t I = 0; I + 1 < E.Args.size(); ++I) {
    const Expr &L = *E.Args[I];
    const Expr &R = *E.Args[I + 1];
    double Bound;
    int Var;
    if ((Var = IndexOf(R)) >= 0 && NumOf(L, Bound)) {
      // bound <= x  (or bound >= x).
      if (Le)
        Ranges[Var].Lo = std::max(Ranges[Var].Lo, Bound);
      else
        Ranges[Var].Hi = std::min(Ranges[Var].Hi, Bound);
    } else if ((Var = IndexOf(L)) >= 0 && NumOf(R, Bound)) {
      if (Le)
        Ranges[Var].Hi = std::min(Ranges[Var].Hi, Bound);
      else
        Ranges[Var].Lo = std::max(Ranges[Var].Lo, Bound);
    }
  }
}

std::vector<VarRange> fpcore::sampleRanges(const Core &C) {
  std::vector<VarRange> Ranges(C.Params.size());
  if (C.Pre)
    foldClause(*C.Pre, C.Params, Ranges);
  for (VarRange &R : Ranges)
    if (R.Lo > R.Hi)
      std::swap(R.Lo, R.Hi);
  return Ranges;
}
