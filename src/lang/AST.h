//===- AST.h - Abstract syntax for the C-like language ----------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the analyzed language.  The expression and statement forms are
/// exactly the paper's core (Sections 3 and 4) plus the interprocedural
/// features its Section 5 requires:
///
///   e    ::= n | x | &x | *x | e+e | e-e | e*e | e/e | e%e
///          | input()
///   cmd  ::= x := e | *x := e | x := alloc(e) | assume(x relop e)
///          | x := f(e...) | x := (*p)(e...) | return e | skip
///
/// plus structured `if`/`while` which the IR builder lowers to assumes.
///
//===----------------------------------------------------------------------===//

#ifndef SPA_LANG_AST_H
#define SPA_LANG_AST_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spa {

enum class ExprKind { Num, Var, AddrOf, Deref, Binary, Input };
enum class BinOp { Add, Sub, Mul, Div, Mod };
enum class RelOp { Lt, Le, Gt, Ge, Eq, Ne };

/// Returns the relational operator testing the negation of \p Op.
RelOp negateRelOp(RelOp Op);
/// Returns \p Op with its operands swapped (e.g. Lt -> Gt).
RelOp swapRelOp(RelOp Op);
const char *relOpSpelling(RelOp Op);
const char *binOpSpelling(BinOp Op);

/// Expression node.  A single struct with a kind tag keeps the AST compact;
/// consumers switch on \c Kind.
struct Expr {
  ExprKind Kind;
  unsigned Line = 0;
  int64_t Num = 0;        ///< ExprKind::Num.
  std::string Name;       ///< Var / AddrOf / Deref.
  BinOp Op = BinOp::Add;  ///< Binary.
  std::unique_ptr<Expr> Lhs, Rhs;
  /// Nodes on the longest path down to a leaf (1 for a leaf); the parser
  /// bounds it, so no recursive walk of a parsed tree runs deep.
  unsigned Height = 1;

  static std::unique_ptr<Expr> makeNum(int64_t N, unsigned Line);
  static std::unique_ptr<Expr> makeVar(std::string Name, unsigned Line);
  static std::unique_ptr<Expr> makeAddrOf(std::string Name, unsigned Line);
  static std::unique_ptr<Expr> makeDeref(std::string Name, unsigned Line);
  static std::unique_ptr<Expr> makeBinary(BinOp Op, std::unique_ptr<Expr> L,
                                          std::unique_ptr<Expr> R,
                                          unsigned Line);
  static std::unique_ptr<Expr> makeInput(unsigned Line);

  /// Deep copy.
  std::unique_ptr<Expr> clone() const;
};

/// A relational condition `Lhs relop Rhs`.  Bare truth tests are desugared
/// by the parser to `e != 0`.
struct Cond {
  RelOp Op = RelOp::Ne;
  std::unique_ptr<Expr> Lhs, Rhs;

  std::unique_ptr<Cond> clone() const;
  /// Condition testing the opposite outcome.
  std::unique_ptr<Cond> negated() const;
};

enum class StmtKind {
  Assign,
  Store,
  Alloc,
  If,
  While,
  Return,
  Call,
  Skip,
  Assume,
};

/// Statement node.  Field use depends on \c Kind:
///  - Assign:  Target := E
///  - Store:   *Target := E
///  - Alloc:   Target := alloc(E)
///  - If:      Cnd, Then, Else
///  - While:   Cnd, Then (loop body)
///  - Return:  E (optional)
///  - Call:    Target (optional) := Callee(Args), Indirect means `(*Callee)`
///  - Assume:  Cnd
struct Stmt {
  StmtKind Kind;
  unsigned Line = 0;
  std::string Target;
  std::unique_ptr<Expr> E;
  std::unique_ptr<Cond> Cnd;
  std::vector<std::unique_ptr<Stmt>> Then;
  std::vector<std::unique_ptr<Stmt>> Else;
  std::string Callee;
  bool Indirect = false;
  std::vector<std::unique_ptr<Expr>> Args;
};

/// A global variable declaration with an optional constant initializer.
struct GlobalDecl {
  std::string Name;
  std::optional<int64_t> Init;
  unsigned Line = 0;
};

/// A procedure definition.
struct FunctionDecl {
  std::string Name;
  std::vector<std::string> Params;
  std::vector<std::unique_ptr<Stmt>> Body;
  unsigned Line = 0;
};

/// A whole translation unit.  Execution starts at the function named "main".
struct ProgramAST {
  std::vector<GlobalDecl> Globals;
  std::vector<FunctionDecl> Functions;
};

/// Renders \p Prog back to parseable surface syntax.
std::string printProgram(const ProgramAST &Prog);
std::string printExpr(const Expr &E);
std::string printCond(const Cond &C);

} // namespace spa

#endif // SPA_LANG_AST_H
