//===- Parser.cpp - Recursive-descent parser ---------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"

#include <sstream>

using namespace spa;

namespace {

/// Hand-written LL(4) parser (four tokens of lookahead disambiguate the
/// indirect-call statement `x = (*p)(...)` from a parenthesized deref
/// expression `x = (*p + e)`).  Errors set a flag and message;
/// productions short-circuit once a failure is recorded.  Nesting is
/// bounded (MaxNesting), so hostile input is a parse error rather than a
/// stack overflow here or in any later walk of the tree.
class Parser {
public:
  explicit Parser(std::string_view Source) : Lex(Source) {
    for (Token &T : Buf)
      T = Lex.next();
  }

  ParseResult run() {
    ParseResult Result;
    while (!Failed && Tok.Kind != TokenKind::EndOfFile) {
      if (Tok.Kind == TokenKind::KwGlobal)
        parseGlobal(Result.Program);
      else if (Tok.Kind == TokenKind::KwFun)
        parseFunction(Result.Program);
      else
        fail("expected 'global' or 'fun' at top level");
    }
    Result.Ok = !Failed;
    Result.Error = ErrorMessage;
    return Result;
  }

private:
  void advance() {
    for (size_t I = 0; I + 1 < LookAhead; ++I)
      Buf[I] = Buf[I + 1];
    Buf[LookAhead - 1] = Lex.next();
  }

  void fail(const std::string &Message) {
    if (Failed)
      return;
    Failed = true;
    std::ostringstream OS;
    OS << "line " << Tok.Line << ": " << Message << " (got "
       << tokenKindName(Tok.Kind) << ")";
    ErrorMessage = OS.str();
  }

  bool expect(TokenKind Kind) {
    if (Failed)
      return false;
    if (Tok.Kind != Kind) {
      fail(std::string("expected ") + tokenKindName(Kind));
      return false;
    }
    advance();
    return true;
  }

  /// One level of recursive nesting, counted in \p Depth for its scope;
  /// Ok is false, and the parse has failed, past MaxNesting.
  struct Nest {
    Nest(Parser &P, unsigned &Depth, const char *What) : Depth(Depth) {
      Ok = ++Depth <= MaxNesting;
      if (!Ok)
        P.fail(std::string(What) + " nesting deeper than " +
               std::to_string(MaxNesting) + " levels");
    }
    ~Nest() { --Depth; }
    unsigned &Depth;
    bool Ok;
  };

  /// A binary node, failing the parse when it makes the expression taller
  /// than MaxNesting (long operator chains nest without recursing).
  std::unique_ptr<Expr> binary(BinOp Op, std::unique_ptr<Expr> L,
                               std::unique_ptr<Expr> R, unsigned Line) {
    auto E = Expr::makeBinary(Op, std::move(L), std::move(R), Line);
    if (E->Height > MaxNesting)
      fail("expression nesting deeper than " + std::to_string(MaxNesting) +
           " levels");
    return E;
  }

  std::string expectIdent() {
    if (Failed)
      return "";
    if (Tok.Kind != TokenKind::Identifier) {
      fail("expected identifier");
      return "";
    }
    std::string Name = Tok.Text;
    advance();
    return Name;
  }

  void parseGlobal(ProgramAST &Prog) {
    GlobalDecl G;
    G.Line = Tok.Line;
    advance(); // 'global'
    G.Name = expectIdent();
    if (Tok.Kind == TokenKind::Assign) {
      advance();
      bool Negative = false;
      if (Tok.Kind == TokenKind::Minus) {
        Negative = true;
        advance();
      }
      if (Tok.Kind != TokenKind::Number) {
        fail("expected numeric initializer");
        return;
      }
      G.Init = Negative ? -Tok.Value : Tok.Value;
      advance();
    }
    expect(TokenKind::Semi);
    if (!Failed)
      Prog.Globals.push_back(std::move(G));
  }

  void parseFunction(ProgramAST &Prog) {
    FunctionDecl F;
    F.Line = Tok.Line;
    advance(); // 'fun'
    F.Name = expectIdent();
    expect(TokenKind::LParen);
    if (Tok.Kind != TokenKind::RParen) {
      F.Params.push_back(expectIdent());
      while (!Failed && Tok.Kind == TokenKind::Comma) {
        advance();
        F.Params.push_back(expectIdent());
      }
    }
    expect(TokenKind::RParen);
    parseBlock(F.Body);
    if (!Failed)
      Prog.Functions.push_back(std::move(F));
  }

  void parseBlock(std::vector<std::unique_ptr<Stmt>> &Body) {
    expect(TokenKind::LBrace);
    while (!Failed && Tok.Kind != TokenKind::RBrace &&
           Tok.Kind != TokenKind::EndOfFile) {
      auto S = parseStmt();
      if (S)
        Body.push_back(std::move(S));
    }
    expect(TokenKind::RBrace);
  }

  std::unique_ptr<Stmt> parseStmt() {
    switch (Tok.Kind) {
    case TokenKind::KwIf:
      return parseIf();
    case TokenKind::KwWhile:
      return parseWhile();
    case TokenKind::KwReturn:
      return parseReturn();
    case TokenKind::KwSkip: {
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Skip;
      S->Line = Tok.Line;
      advance();
      expect(TokenKind::Semi);
      return S;
    }
    case TokenKind::KwAssume: {
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Assume;
      S->Line = Tok.Line;
      advance();
      expect(TokenKind::LParen);
      S->Cnd = parseCond();
      expect(TokenKind::RParen);
      expect(TokenKind::Semi);
      return S;
    }
    case TokenKind::Star:
      return parseStore();
    case TokenKind::LParen:
      // `(*p)(args);` indirect call without return value.
      return parseCallStmt("");
    case TokenKind::Identifier:
      if (Ahead.Kind == TokenKind::LParen) {
        // `f(args);` direct call without return value.
        return parseCallStmt("");
      }
      return parseAssignLike();
    default:
      fail("expected statement");
      return nullptr;
    }
  }

  std::unique_ptr<Stmt> parseIf() {
    Nest N(*this, StmtNesting, "statement");
    if (!N.Ok)
      return nullptr;
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::If;
    S->Line = Tok.Line;
    advance(); // 'if'
    expect(TokenKind::LParen);
    S->Cnd = parseCond();
    expect(TokenKind::RParen);
    parseBlock(S->Then);
    if (Tok.Kind == TokenKind::KwElse) {
      advance();
      parseBlock(S->Else);
    }
    return S;
  }

  std::unique_ptr<Stmt> parseWhile() {
    Nest N(*this, StmtNesting, "statement");
    if (!N.Ok)
      return nullptr;
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::While;
    S->Line = Tok.Line;
    advance(); // 'while'
    expect(TokenKind::LParen);
    S->Cnd = parseCond();
    expect(TokenKind::RParen);
    parseBlock(S->Then);
    return S;
  }

  std::unique_ptr<Stmt> parseReturn() {
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::Return;
    S->Line = Tok.Line;
    advance(); // 'return'
    if (Tok.Kind != TokenKind::Semi)
      S->E = parseExpr();
    expect(TokenKind::Semi);
    return S;
  }

  std::unique_ptr<Stmt> parseStore() {
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::Store;
    S->Line = Tok.Line;
    advance(); // '*'
    S->Target = expectIdent();
    expect(TokenKind::Assign);
    S->E = parseExpr();
    expect(TokenKind::Semi);
    return S;
  }

  /// Parses `x = <assign|alloc|call>;` after seeing `ident` not followed by
  /// '('.
  std::unique_ptr<Stmt> parseAssignLike() {
    unsigned Line = Tok.Line;
    std::string Target = expectIdent();
    expect(TokenKind::Assign);
    if (Failed)
      return nullptr;

    if (Tok.Kind == TokenKind::KwAlloc) {
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Alloc;
      S->Line = Line;
      S->Target = std::move(Target);
      advance();
      expect(TokenKind::LParen);
      S->E = parseExpr();
      expect(TokenKind::RParen);
      expect(TokenKind::Semi);
      return S;
    }

    bool DirectCall =
        Tok.Kind == TokenKind::Identifier && Ahead.Kind == TokenKind::LParen;
    // `(*p)(...)` is an indirect call; `(*p + e)` and `(*p)` are
    // expressions.  Four tokens decide: LParen Star Ident RParen + LParen.
    bool IndirectCall =
        Tok.Kind == TokenKind::LParen && Ahead.Kind == TokenKind::Star &&
        Buf[2].Kind == TokenKind::Identifier &&
        Buf[3].Kind == TokenKind::RParen;
    if (IndirectCall) {
      // Peek one further by consuming the closed group.
      advance(); // (
      advance(); // *
      std::string Callee = expectIdent();
      advance(); // )
      if (Tok.Kind == TokenKind::LParen)
        return parseCallArgs(std::move(Target), std::move(Callee),
                             /*Indirect=*/true, Line);
      // Parenthesized deref expression: resume expression parsing with
      // the already-consumed (*callee) as the leading factor.
      auto S = std::make_unique<Stmt>();
      S->Kind = StmtKind::Assign;
      S->Line = Line;
      S->Target = std::move(Target);
      S->E = continueExpr(Expr::makeDeref(std::move(Callee), Line));
      expect(TokenKind::Semi);
      return S;
    }
    if (DirectCall)
      return parseCallStmt(Target, Line);

    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::Assign;
    S->Line = Line;
    S->Target = std::move(Target);
    S->E = parseExpr();
    expect(TokenKind::Semi);
    return S;
  }

  /// Parses a call statement; \p Target is the return variable ("" for
  /// none).  The cursor sits at the callee (`ident` or `( * ident )`).
  std::unique_ptr<Stmt> parseCallStmt(std::string Target, unsigned Line = 0) {
    if (!Line)
      Line = Tok.Line;
    bool Indirect = false;
    std::string Callee;
    if (Tok.Kind == TokenKind::LParen) {
      advance();
      expect(TokenKind::Star);
      Indirect = true;
      Callee = expectIdent();
      expect(TokenKind::RParen);
    } else {
      Callee = expectIdent();
    }
    return parseCallArgs(std::move(Target), std::move(Callee), Indirect,
                         Line);
  }

  /// Parses `(args);` with the callee already consumed.
  std::unique_ptr<Stmt> parseCallArgs(std::string Target, std::string Callee,
                                      bool Indirect, unsigned Line) {
    auto S = std::make_unique<Stmt>();
    S->Kind = StmtKind::Call;
    S->Line = Line;
    S->Target = std::move(Target);
    S->Callee = std::move(Callee);
    S->Indirect = Indirect;
    expect(TokenKind::LParen);
    if (!Failed && Tok.Kind != TokenKind::RParen) {
      S->Args.push_back(parseExpr());
      while (!Failed && Tok.Kind == TokenKind::Comma) {
        advance();
        S->Args.push_back(parseExpr());
      }
    }
    expect(TokenKind::RParen);
    expect(TokenKind::Semi);
    return S;
  }

  std::unique_ptr<Cond> parseCond() {
    auto C = std::make_unique<Cond>();
    C->Lhs = parseExpr();
    switch (Tok.Kind) {
    case TokenKind::Lt:
      C->Op = RelOp::Lt;
      break;
    case TokenKind::Le:
      C->Op = RelOp::Le;
      break;
    case TokenKind::Gt:
      C->Op = RelOp::Gt;
      break;
    case TokenKind::Ge:
      C->Op = RelOp::Ge;
      break;
    case TokenKind::EqEq:
      C->Op = RelOp::Eq;
      break;
    case TokenKind::Ne:
      C->Op = RelOp::Ne;
      break;
    default:
      // Bare truth test: `e` means `e != 0`.
      C->Op = RelOp::Ne;
      C->Rhs = Expr::makeNum(0, Tok.Line);
      return C;
    }
    advance();
    C->Rhs = parseExpr();
    return C;
  }

  std::unique_ptr<Expr> parseExpr() { return continueExpr(parseTerm()); }

  std::unique_ptr<Expr> parseTerm() { return continueTerm(parseFactor()); }

  /// Parses the rest of an additive expression whose first term is
  /// \p First (already consumed).
  std::unique_ptr<Expr> continueExpr(std::unique_ptr<Expr> First) {
    auto L = continueTerm(std::move(First));
    while (!Failed &&
           (Tok.Kind == TokenKind::Plus || Tok.Kind == TokenKind::Minus)) {
      BinOp Op = Tok.Kind == TokenKind::Plus ? BinOp::Add : BinOp::Sub;
      unsigned Line = Tok.Line;
      advance();
      L = binary(Op, std::move(L), parseTerm(), Line);
    }
    return L;
  }

  /// Parses the rest of a multiplicative term whose first factor is
  /// \p First (already consumed).
  std::unique_ptr<Expr> continueTerm(std::unique_ptr<Expr> First) {
    auto L = std::move(First);
    while (!Failed &&
           (Tok.Kind == TokenKind::Star || Tok.Kind == TokenKind::Slash ||
            Tok.Kind == TokenKind::Percent)) {
      BinOp Op = Tok.Kind == TokenKind::Star
                     ? BinOp::Mul
                     : (Tok.Kind == TokenKind::Slash ? BinOp::Div
                                                     : BinOp::Mod);
      unsigned Line = Tok.Line;
      advance();
      L = binary(Op, std::move(L), parseFactor(), Line);
    }
    return L;
  }

  std::unique_ptr<Expr> parseFactor() {
    if (Failed)
      return Expr::makeNum(0, Tok.Line);
    unsigned Line = Tok.Line;
    switch (Tok.Kind) {
    case TokenKind::Number: {
      int64_t Value = Tok.Value;
      advance();
      return Expr::makeNum(Value, Line);
    }
    case TokenKind::Identifier: {
      std::string Name = Tok.Text;
      advance();
      return Expr::makeVar(std::move(Name), Line);
    }
    case TokenKind::Amp: {
      advance();
      return Expr::makeAddrOf(expectIdent(), Line);
    }
    case TokenKind::Star: {
      advance();
      return Expr::makeDeref(expectIdent(), Line);
    }
    case TokenKind::KwInput: {
      advance();
      expect(TokenKind::LParen);
      expect(TokenKind::RParen);
      return Expr::makeInput(Line);
    }
    case TokenKind::Minus: {
      advance();
      // Fold negative literals so `-7` round-trips as a constant.
      if (Tok.Kind == TokenKind::Number) {
        int64_t Value = Tok.Value;
        advance();
        return Expr::makeNum(-Value, Line);
      }
      Nest N(*this, ExprNesting, "expression");
      if (!N.Ok)
        return Expr::makeNum(0, Line);
      return binary(BinOp::Sub, Expr::makeNum(0, Line), parseFactor(), Line);
    }
    case TokenKind::LParen: {
      advance();
      Nest N(*this, ExprNesting, "expression");
      if (!N.Ok)
        return Expr::makeNum(0, Line);
      auto E = parseExpr();
      expect(TokenKind::RParen);
      return E;
    }
    default:
      fail("expected expression");
      return Expr::makeNum(0, Line);
    }
  }

  static constexpr size_t LookAhead = 4;
  /// Deepest expression or statement nesting accepted — the snapshot
  /// loader's expression-depth cap, so every parsed program also
  /// round-trips through a snapshot.
  static constexpr unsigned MaxNesting = 1024;

  Lexer Lex;
  Token Buf[LookAhead];
  Token &Tok = Buf[0];
  Token &Ahead = Buf[1];
  bool Failed = false;
  std::string ErrorMessage;
  unsigned ExprNesting = 0; ///< Open parentheses and unary minuses.
  unsigned StmtNesting = 0; ///< Open if/while bodies.
};

} // namespace

ParseResult spa::parseProgram(std::string_view Source) {
  return Parser(Source).run();
}
