//===- lang_ir_test.cpp - Frontend and IR tests ----------------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Checker.h"
#include "ir/Builder.h"
#include "ir/Dominators.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace spa;
using namespace spa::test;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, TokenStream) {
  Lexer L("fun f(x) { y = x + 41; } // comment\nwhile");
  std::vector<TokenKind> Kinds;
  for (;;) {
    Token T = L.next();
    Kinds.push_back(T.Kind);
    if (T.Kind == TokenKind::EndOfFile)
      break;
  }
  EXPECT_EQ(Kinds,
            (std::vector<TokenKind>{
                TokenKind::KwFun, TokenKind::Identifier, TokenKind::LParen,
                TokenKind::Identifier, TokenKind::RParen, TokenKind::LBrace,
                TokenKind::Identifier, TokenKind::Assign,
                TokenKind::Identifier, TokenKind::Plus, TokenKind::Number,
                TokenKind::Semi, TokenKind::RBrace, TokenKind::KwWhile,
                TokenKind::EndOfFile}));
}

TEST(Lexer, OperatorsAndLines) {
  Lexer L("< <= > >= == != = & *\n!");
  EXPECT_EQ(L.next().Kind, TokenKind::Lt);
  EXPECT_EQ(L.next().Kind, TokenKind::Le);
  EXPECT_EQ(L.next().Kind, TokenKind::Gt);
  EXPECT_EQ(L.next().Kind, TokenKind::Ge);
  EXPECT_EQ(L.next().Kind, TokenKind::EqEq);
  EXPECT_EQ(L.next().Kind, TokenKind::Ne);
  EXPECT_EQ(L.next().Kind, TokenKind::Assign);
  EXPECT_EQ(L.next().Kind, TokenKind::Amp);
  EXPECT_EQ(L.next().Kind, TokenKind::Star);
  Token Bang = L.next();
  EXPECT_EQ(Bang.Kind, TokenKind::Error); // Bare '!' is invalid.
  EXPECT_EQ(Bang.Line, 2u);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, ErrorsCarryLineNumbers) {
  ParseResult R = parseProgram("fun main() {\n  x = ;\n}");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 2"), std::string::npos) << R.Error;
}

TEST(Parser, IndirectCallVsParenDeref) {
  ParseResult R = parseProgram(R"(
    fun main() {
      x = (*p)(1, 2);
      y = (*p) + 1;
      z = (*p);
      (*p)(3);
      return z;
    }
  )");
  ASSERT_TRUE(R.Ok) << R.Error;
  const auto &Body = R.Program.Functions[0].Body;
  ASSERT_EQ(Body.size(), 5u);
  EXPECT_EQ(Body[0]->Kind, StmtKind::Call);
  EXPECT_TRUE(Body[0]->Indirect);
  EXPECT_EQ(Body[1]->Kind, StmtKind::Assign);
  EXPECT_EQ(Body[1]->E->Kind, ExprKind::Binary);
  EXPECT_EQ(Body[2]->Kind, StmtKind::Assign);
  EXPECT_EQ(Body[2]->E->Kind, ExprKind::Deref);
  EXPECT_EQ(Body[3]->Kind, StmtKind::Call);
  EXPECT_TRUE(Body[3]->Target.empty());
}

TEST(Parser, PrecedenceAndNegatives) {
  ParseResult R = parseProgram("fun main() { x = 1 + 2 * 3 - -4; return x; }");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(printExpr(*R.Program.Functions[0].Body[0]->E),
            "((1 + (2 * 3)) - -4)");
}

TEST(Parser, BareTruthCondition) {
  ParseResult R = parseProgram("fun main() { if (x) { y = 1; } return 0; }");
  ASSERT_TRUE(R.Ok) << R.Error;
  const Cond &C = *R.Program.Functions[0].Body[0]->Cnd;
  EXPECT_EQ(C.Op, RelOp::Ne); // Desugared to x != 0.
  EXPECT_EQ(C.Rhs->Num, 0);
}

namespace {

std::string deepParens(size_t N) {
  return "fun main() { x = " + std::string(N, '(') + "1" +
         std::string(N, ')') + "; return x; }";
}

std::string deepIfs(size_t N) {
  std::string Src = "fun main() { x = 0; ";
  for (size_t I = 0; I < N; ++I)
    Src += "if (x < 1) { ";
  Src += "x = 1; ";
  for (size_t I = 0; I < N; ++I)
    Src += "} ";
  return Src + "return x; }";
}

/// `x = 1 + 1 + ... + 1` with \p Terms terms: a left chain \p Terms high.
std::string longChain(size_t Terms) {
  std::string Src = "fun main() { x = 1";
  for (size_t I = 1; I < Terms; ++I)
    Src += " + 1";
  return Src + "; return x; }";
}

} // namespace

TEST(Parser, NestingAtTheCapStillAnalyzes) {
  // 1024 levels — the snapshot loader's expression-depth cap — parse,
  // build, analyze, and check, on the contracted graph `--check` uses
  // and on the full one `--list` and `--no-bypass` build.
  for (const std::string &Src :
       {deepParens(1024), deepIfs(1024), longChain(1024)}) {
    std::unique_ptr<Program> Prog = build(Src);
    for (bool Bypass : {true, false}) {
      AnalyzerOptions Opts;
      Opts.Dep.Bypass = Bypass;
      AnalysisRun Run = analyzeProgram(*Prog, Opts);
      EXPECT_FALSE(Run.timedOut()) << "bypass " << Bypass;
      checkBufferOverruns(*Prog, Run);
    }
  }
}

TEST(Parser, NestingPastTheCapIsAParseError) {
  // One level past the cap, and inputs deep enough to overflow the stack
  // of an unbounded recursive descent: a parse error with a line number.
  for (const std::string &Src :
       {deepParens(1025), deepIfs(1025), longChain(1025), deepParens(200000),
        deepIfs(100000), longChain(200000),
        "fun main() { x = " + std::string(200000, '-') + "y; return x; }"}) {
    ParseResult R = parseProgram(Src);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("nesting deeper than 1024"), std::string::npos)
        << R.Error;
    EXPECT_NE(R.Error.find("line 1"), std::string::npos) << R.Error;
  }
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

TEST(Builder, RejectsMissingMain) {
  BuildResult R = buildProgramFromSource("fun f() { return 0; }");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("main"), std::string::npos);
}

TEST(Builder, RejectsDuplicates) {
  EXPECT_FALSE(buildProgramFromSource(
                   "global g; global g; fun main() { return 0; }")
                   .ok());
  EXPECT_FALSE(buildProgramFromSource(
                   "fun f() { return 0; } fun f() { return 1; } "
                   "fun main() { return 0; }")
                   .ok());
  EXPECT_FALSE(buildProgramFromSource(
                   "fun f(a, a) { return 0; } fun main() { return 0; }")
                   .ok());
  EXPECT_FALSE(buildProgramFromSource("fun main(x) { return x; }").ok());
}

TEST(Builder, EveryPointReachableAndContiguous) {
  auto Prog = build(R"(
    fun f(n) {
      if (n < 0) { return 0 - n; }
      return n;
    }
    fun main() {
      x = f(3);
      while (x > 0) { x = x - 1; }
      return x;
    }
  )");
  for (uint32_t F = 0; F < Prog->numFuncs(); ++F) {
    const FunctionInfo &Info = Prog->function(FuncId(F));
    // Contiguity (builder invariant the dominator code relies on).
    for (size_t I = 0; I < Info.Points.size(); ++I)
      EXPECT_EQ(Info.Points[I].value(), Info.Points.front().value() + I);
    EXPECT_EQ(Prog->point(Info.Entry).Cmd.Kind, CmdKind::Entry);
    EXPECT_EQ(Prog->point(Info.Exit).Cmd.Kind, CmdKind::Exit);
    // Reachability from the entry via skeleton edges.
    std::set<uint32_t> Seen{Info.Entry.value()};
    std::vector<PointId> Work{Info.Entry};
    while (!Work.empty()) {
      PointId P = Work.back();
      Work.pop_back();
      for (PointId S : Prog->succs(P))
        if (Seen.insert(S.value()).second)
          Work.push_back(S);
    }
    EXPECT_EQ(Seen.size(), Info.Points.size());
  }
}

TEST(Builder, DropsCodeAfterReturn) {
  auto Prog = build(R"(
    fun main() {
      if (1 < 2) { return 1; } else { return 2; }
      x = 3;
      return x;
    }
  )");
  // The trailing statements are unreachable and must not be emitted.
  for (uint32_t P = 0; P < Prog->numPoints(); ++P) {
    const Command &Cmd = Prog->point(PointId(P)).Cmd;
    if (Cmd.Kind == CmdKind::Assign) {
      EXPECT_NE(Prog->loc(Cmd.Target).Name, "main::x");
    }
  }
}

TEST(Builder, CallPairsAreLinked) {
  auto Prog = build(R"(
    fun f() { return 1; }
    fun main() {
      a = f();
      f();
      return a;
    }
  )");
  unsigned Calls = 0;
  for (uint32_t P = 0; P < Prog->numPoints(); ++P) {
    const Command &Cmd = Prog->point(PointId(P)).Cmd;
    if (Cmd.Kind != CmdKind::Call)
      continue;
    ++Calls;
    const Command &Ret = Prog->point(Cmd.Pair).Cmd;
    EXPECT_EQ(Ret.Kind, CmdKind::Return);
    EXPECT_EQ(Ret.Pair, PointId(P));
    // Skeleton: the call's only static successor is its return point.
    ASSERT_EQ(Prog->succs(PointId(P)).size(), 1u);
    EXPECT_EQ(Prog->succs(PointId(P))[0], Cmd.Pair);
  }
  EXPECT_EQ(Calls, 3u); // Two in main plus _start's call to main.
}

TEST(Builder, StartInitializesGlobals) {
  auto Prog = build("global a = 7; global b; fun main() { return a; }");
  AnalysisRun Run = analyze(*Prog, EngineKind::Vanilla);
  FuncId Start = Prog->startFunc();
  const AbsState &AtExit =
      Run.Dense->Post[Prog->function(Start).Exit.value()];
  EXPECT_EQ(AtExit.get(locByName(*Prog, "a")).Itv, Interval::constant(7));
  EXPECT_EQ(AtExit.get(locByName(*Prog, "b")).Itv, Interval::constant(0));
}

//===----------------------------------------------------------------------===//
// Dominators
//===----------------------------------------------------------------------===//

TEST(Dominators, DiamondAndLoop) {
  auto Prog = build(R"(
    fun main() {
      x = input();
      if (x < 0) { y = 1; } else { y = 2; }
      z = y;
      while (z > 0) { z = z - 1; }
      return z;
    }
  )");
  FuncId Main = Prog->findFunction("main");
  Dominators Dom(*Prog, Main);
  const FunctionInfo &Info = Prog->function(Main);

  // The entry dominates everything; its idom is invalid.
  EXPECT_FALSE(Dom.idom(Info.Entry).isValid());
  for (PointId P : Info.Points) {
    if (P == Info.Entry)
      continue;
    EXPECT_TRUE(Dom.idom(P).isValid());
  }

  // Find the join point `z := y`: its idom must be the branch point
  // (the x assignment's successor structure makes that the condition
  // source), and both assume points have it in their dominance frontier.
  PointId Join;
  for (PointId P : Info.Points)
    if (Prog->point(P).Cmd.Kind == CmdKind::Assign &&
        Prog->loc(Prog->point(P).Cmd.Target).Name == "main::z" &&
        Prog->point(P).Cmd.E->Kind == IExprKind::Var)
      Join = P;
  ASSERT_TRUE(Join.isValid());
  ASSERT_EQ(Prog->preds(Join).size(), 2u);
  for (PointId Pred : Prog->preds(Join)) {
    const auto &DF = Dom.frontier(Pred);
    EXPECT_TRUE(std::find(DF.begin(), DF.end(), Join) != DF.end());
  }

  // RPO: entry first.
  EXPECT_EQ(Dom.rpo().front(), Info.Entry);
  EXPECT_EQ(Dom.rpoIndex(Info.Entry), 0u);
}
