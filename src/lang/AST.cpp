//===- AST.cpp - AST factories and printer ----------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/AST.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace spa;

RelOp spa::negateRelOp(RelOp Op) {
  switch (Op) {
  case RelOp::Lt:
    return RelOp::Ge;
  case RelOp::Le:
    return RelOp::Gt;
  case RelOp::Gt:
    return RelOp::Le;
  case RelOp::Ge:
    return RelOp::Lt;
  case RelOp::Eq:
    return RelOp::Ne;
  case RelOp::Ne:
    return RelOp::Eq;
  }
  assert(false && "unknown relop");
  return RelOp::Ne;
}

RelOp spa::swapRelOp(RelOp Op) {
  switch (Op) {
  case RelOp::Lt:
    return RelOp::Gt;
  case RelOp::Le:
    return RelOp::Ge;
  case RelOp::Gt:
    return RelOp::Lt;
  case RelOp::Ge:
    return RelOp::Le;
  case RelOp::Eq:
    return RelOp::Eq;
  case RelOp::Ne:
    return RelOp::Ne;
  }
  assert(false && "unknown relop");
  return RelOp::Ne;
}

const char *spa::relOpSpelling(RelOp Op) {
  switch (Op) {
  case RelOp::Lt:
    return "<";
  case RelOp::Le:
    return "<=";
  case RelOp::Gt:
    return ">";
  case RelOp::Ge:
    return ">=";
  case RelOp::Eq:
    return "==";
  case RelOp::Ne:
    return "!=";
  }
  return "?";
}

const char *spa::binOpSpelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::makeNum(int64_t N, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Num;
  E->Num = N;
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::makeVar(std::string Name, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Var;
  E->Name = std::move(Name);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::makeAddrOf(std::string Name, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::AddrOf;
  E->Name = std::move(Name);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::makeDeref(std::string Name, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Deref;
  E->Name = std::move(Name);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::makeBinary(BinOp Op, std::unique_ptr<Expr> L,
                                       std::unique_ptr<Expr> R,
                                       unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Binary;
  E->Op = Op;
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  E->Line = Line;
  E->Height = 1 + std::max(E->Lhs->Height, E->Rhs->Height);
  return E;
}

std::unique_ptr<Expr> Expr::makeInput(unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Input;
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::clone() const {
  auto E = std::make_unique<Expr>();
  E->Kind = Kind;
  E->Line = Line;
  E->Num = Num;
  E->Name = Name;
  E->Op = Op;
  E->Height = Height;
  if (Lhs)
    E->Lhs = Lhs->clone();
  if (Rhs)
    E->Rhs = Rhs->clone();
  return E;
}

std::unique_ptr<Cond> Cond::clone() const {
  auto C = std::make_unique<Cond>();
  C->Op = Op;
  C->Lhs = Lhs->clone();
  C->Rhs = Rhs->clone();
  return C;
}

std::unique_ptr<Cond> Cond::negated() const {
  auto C = clone();
  C->Op = negateRelOp(Op);
  return C;
}

namespace {

/// AST-to-source printer.  Output is re-parseable, which the round-trip
/// tests rely on.
class Printer {
public:
  explicit Printer(std::ostringstream &OS) : OS(OS) {}

  void printExpr(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::Num:
      OS << E.Num;
      return;
    case ExprKind::Var:
      OS << E.Name;
      return;
    case ExprKind::AddrOf:
      OS << "&" << E.Name;
      return;
    case ExprKind::Deref:
      OS << "*" << E.Name;
      return;
    case ExprKind::Input:
      OS << "input()";
      return;
    case ExprKind::Binary:
      OS << "(";
      printExpr(*E.Lhs);
      OS << " " << binOpSpelling(E.Op) << " ";
      printExpr(*E.Rhs);
      OS << ")";
      return;
    }
  }

  void printCond(const Cond &C) {
    printExpr(*C.Lhs);
    OS << " " << relOpSpelling(C.Op) << " ";
    printExpr(*C.Rhs);
  }

  void printStmt(const Stmt &S, int Depth) {
    indent(Depth);
    switch (S.Kind) {
    case StmtKind::Assign:
      OS << S.Target << " = ";
      printExpr(*S.E);
      OS << ";\n";
      return;
    case StmtKind::Store:
      OS << "*" << S.Target << " = ";
      printExpr(*S.E);
      OS << ";\n";
      return;
    case StmtKind::Alloc:
      OS << S.Target << " = alloc(";
      printExpr(*S.E);
      OS << ");\n";
      return;
    case StmtKind::If:
      OS << "if (";
      printCond(*S.Cnd);
      OS << ") {\n";
      printBody(S.Then, Depth + 1);
      indent(Depth);
      OS << "}";
      if (!S.Else.empty()) {
        OS << " else {\n";
        printBody(S.Else, Depth + 1);
        indent(Depth);
        OS << "}";
      }
      OS << "\n";
      return;
    case StmtKind::While:
      OS << "while (";
      printCond(*S.Cnd);
      OS << ") {\n";
      printBody(S.Then, Depth + 1);
      indent(Depth);
      OS << "}\n";
      return;
    case StmtKind::Return:
      OS << "return";
      if (S.E) {
        OS << " ";
        printExpr(*S.E);
      }
      OS << ";\n";
      return;
    case StmtKind::Call:
      if (!S.Target.empty())
        OS << S.Target << " = ";
      if (S.Indirect)
        OS << "(*" << S.Callee << ")";
      else
        OS << S.Callee;
      OS << "(";
      for (size_t I = 0; I < S.Args.size(); ++I) {
        if (I)
          OS << ", ";
        printExpr(*S.Args[I]);
      }
      OS << ");\n";
      return;
    case StmtKind::Skip:
      OS << "skip;\n";
      return;
    case StmtKind::Assume:
      OS << "assume(";
      printCond(*S.Cnd);
      OS << ");\n";
      return;
    }
  }

  void printBody(const std::vector<std::unique_ptr<Stmt>> &Body, int Depth) {
    for (const auto &S : Body)
      printStmt(*S, Depth);
  }

  void indent(int Depth) {
    for (int I = 0; I < Depth; ++I)
      OS << "  ";
  }

private:
  std::ostringstream &OS;
};

} // namespace

std::string spa::printExpr(const Expr &E) {
  std::ostringstream OS;
  Printer(OS).printExpr(E);
  return OS.str();
}

std::string spa::printCond(const Cond &C) {
  std::ostringstream OS;
  Printer(OS).printCond(C);
  return OS.str();
}

std::string spa::printProgram(const ProgramAST &Prog) {
  std::ostringstream OS;
  Printer P(OS);
  for (const GlobalDecl &G : Prog.Globals) {
    OS << "global " << G.Name;
    if (G.Init)
      OS << " = " << *G.Init;
    OS << ";\n";
  }
  if (!Prog.Globals.empty())
    OS << "\n";
  for (const FunctionDecl &F : Prog.Functions) {
    OS << "fun " << F.Name << "(";
    for (size_t I = 0; I < F.Params.size(); ++I) {
      if (I)
        OS << ", ";
      OS << F.Params[I];
    }
    OS << ") {\n";
    P.printBody(F.Body, 1);
    OS << "}\n\n";
  }
  return OS.str();
}
