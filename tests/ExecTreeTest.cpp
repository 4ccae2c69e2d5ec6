//===- ExecTreeTest.cpp - Execution tree tests (paper Figure 7) -----------===//

#include "trace/ExecTreeBuilder.h"

#include "pascal/Frontend.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::trace;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

std::unique_ptr<ExecTree> trace(const Program &P, InterpOptions Opts = {},
                                std::vector<int64_t> Input = {}) {
  ExecResult Res;
  auto Tree = buildExecTree(P, Opts, std::move(Input), &Res);
  EXPECT_TRUE(Res.Ok) << Res.Error.Message;
  return Tree;
}

/// Finds the first node (preorder) whose unit name is \p Name.
ExecNode *findNode(ExecTree &T, const std::string &Name) {
  ExecNode *Found = nullptr;
  T.forEachNode([&](ExecNode *N) {
    if (!Found && N->getName() == Name)
      Found = N;
  });
  return Found;
}

TEST(ExecTreeTest, RootIsTheProgram) {
  auto Prog = compile("program tiny; var x: integer; begin x := 1; end.");
  auto Tree = trace(*Prog);
  ASSERT_TRUE(Tree->getRoot());
  EXPECT_EQ(Tree->getRoot()->getName(), "tiny");
  EXPECT_EQ(Tree->getRoot()->getId(), 1u);
  EXPECT_TRUE(Tree->getRoot()->getChildren().empty());
}

TEST(ExecTreeTest, CallNodesRecordParamsInDeclaredOrder) {
  auto Prog = compile("program p; var r: integer;"
                      "procedure q(a, b: integer; var c: integer);"
                      "begin c := a * 10 + b; end;"
                      "begin q(1, 2, r); end.");
  auto Tree = trace(*Prog);
  ExecNode *Q = findNode(*Tree, "q");
  ASSERT_TRUE(Q);
  EXPECT_EQ(Q->signature(), "q(In a: 1, In b: 2, Out c: 12)");
}

TEST(ExecTreeTest, VarParamReadBeforeWriteShowsAsInput) {
  auto Prog = compile("program p; var r: integer;"
                      "procedure bump(var v: integer);"
                      "begin v := v + 1; end;"
                      "begin r := 41; bump(r); end.");
  auto Tree = trace(*Prog);
  ExecNode *B = findNode(*Tree, "bump");
  ASSERT_TRUE(B);
  EXPECT_EQ(B->signature(), "bump(In v: 41, Out v: 42)");
}

TEST(ExecTreeTest, GlobalSideEffectsAreRecorded) {
  auto Prog = compile(workload::Section6Globals);
  auto Tree = trace(*Prog);
  ExecNode *P = findNode(*Tree, "p");
  ASSERT_TRUE(P);
  // p reads global x and writes global z through side effects.
  ASSERT_TRUE(P->findInput("x"));
  EXPECT_EQ(P->findInput("x")->V.asInt(), 10);
  ASSERT_TRUE(P->findOutput("z"));
  EXPECT_EQ(P->findOutput("z")->V.asInt(), 1);
  ASSERT_TRUE(P->findOutput("y"));
  EXPECT_EQ(P->findOutput("y")->V.asInt(), 11);
}

TEST(ExecTreeTest, FunctionNodesRenderResult) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  ExecNode *D = findNode(*Tree, "decrement");
  ASSERT_TRUE(D);
  EXPECT_EQ(D->signature(), "decrement(In y: 3)=4");
}

TEST(ExecTreeTest, Figure7TreeShape) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);

  // The paper's Figure 7, rendered by our tree printer (root node added for
  // the Main program).
  const char *Expected =
      R"(main(Out isok: false)
  sqrtest(In ary: [1, 2], In n: 2, Out isok: false)
    arrsum(In a: [1, 2], In n: 2, Out b: 3)
    computs(In y: 3, Out r1: 12, Out r2: 9)
      comput1(In y: 3, Out r1: 12)
        partialsums(In y: 3, Out s1: 6, Out s2: 6)
          sum1(In y: 3, Out s1: 6)
            increment(In y: 3)=4
          sum2(In y: 3, Out s2: 6)
            decrement(In y: 3)=4
        add(In s1: 6, In s2: 6, Out r1: 12)
      comput2(In y: 3, Out r2: 9)
        square(In y: 3, Out r2: 9)
    test(In r1: 12, In r2: 9, Out isok: false)
)";
  EXPECT_EQ(Tree->str(), Expected);
}

TEST(ExecTreeTest, Figure7NodeCount) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  // 13 unit executions from Figure 7 plus the Main root.
  EXPECT_EQ(Tree->size(), 14u);
}

TEST(ExecTreeTest, NodeLookupById) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  ExecNode *Sqrtest = findNode(*Tree, "sqrtest");
  ASSERT_TRUE(Sqrtest);
  EXPECT_EQ(Tree->node(Sqrtest->getId()), Sqrtest);
  EXPECT_EQ(Tree->node(9999), nullptr);
}

TEST(ExecTreeTest, ParentPointers) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  ExecNode *Dec = findNode(*Tree, "decrement");
  ASSERT_TRUE(Dec);
  EXPECT_EQ(Dec->getParent()->getName(), "sum2");
  EXPECT_EQ(Dec->getParent()->getParent()->getName(), "partialsums");
}

TEST(ExecTreeTest, LoopUnitsAppearWhenEnabled) {
  auto Prog = compile(workload::Figure4Buggy);
  InterpOptions Opts;
  Opts.TraceLoops = true;
  auto Tree = trace(*Prog, Opts);
  ExecNode *Loop = findNode(*Tree, "arrsum.for#1");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(Loop->getKind(), UnitKind::Loop);
  EXPECT_EQ(Loop->getParent()->getName(), "arrsum");
  // The loop reads a and n (and the running b) and writes b and i.
  EXPECT_TRUE(Loop->findInput("n"));
  EXPECT_TRUE(Loop->findOutput("b"));
  ASSERT_TRUE(Loop->findOutput("i"));
  EXPECT_EQ(Loop->findOutput("i")->V.asInt(), 2);
}

TEST(ExecTreeTest, IterationUnitsAppearWhenEnabled) {
  auto Prog = compile(workload::Figure4Buggy);
  InterpOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  auto Tree = trace(*Prog, Opts);
  ExecNode *Loop = findNode(*Tree, "arrsum.for#1");
  ASSERT_TRUE(Loop);
  ASSERT_EQ(Loop->getChildren().size(), 2u);
  EXPECT_EQ(Loop->getChildren()[0]->getKind(), UnitKind::Iteration);
  EXPECT_EQ(Loop->getChildren()[0]->getIterIndex(), 1u);
  EXPECT_EQ(Loop->getChildren()[1]->getIterIndex(), 2u);
}

TEST(ExecTreeTest, LoopTracingPreservesCallChildren) {
  auto Prog = compile("program p; var s, i: integer;"
                      "function inc(x: integer): integer;"
                      "begin inc := x + 1; end;"
                      "begin s := 0;"
                      "for i := 1 to 3 do s := inc(s); end.");
  InterpOptions Opts;
  Opts.TraceLoops = true;
  auto Tree = trace(*Prog, Opts);
  ExecNode *Loop = findNode(*Tree, "p.for#1");
  ASSERT_TRUE(Loop);
  // Calls made inside the loop hang off the loop unit.
  EXPECT_EQ(Loop->getChildren().size(), 3u);
  EXPECT_EQ(Loop->getChildren()[0]->getName(), "inc");
}

TEST(ExecTreeTest, SubtreeSizeAndStrAgree) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  std::string Rendered = Tree->str();
  unsigned Lines = 0;
  for (char C : Rendered)
    if (C == '\n')
      ++Lines;
  EXPECT_EQ(Lines, Tree->size());
}

} // namespace

namespace {

TEST(ExecTreeTest, DotExport) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  std::string Dot = Tree->dot();
  EXPECT_NE(Dot.find("digraph exectree"), std::string::npos);
  EXPECT_NE(Dot.find("decrement(In y: 3)=4"), std::string::npos);
  EXPECT_NE(Dot.find(" -> "), std::string::npos);
  // 14 nodes, 13 edges.
  size_t Edges = 0;
  for (size_t Pos = Dot.find(" -> "); Pos != std::string::npos;
       Pos = Dot.find(" -> ", Pos + 1))
    ++Edges;
  EXPECT_EQ(Edges, 13u);
}

TEST(ExecTreeTest, DotEscapesQuotesAndBackslashes) {
  // Unit names flow into dot labels verbatim; quotes and backslashes must
  // come out escaped or the digraph is syntactically broken.
  ExecTreeBuilder B;
  UnitStart S;
  S.NodeId = 1;
  S.Name = "we\"ird\\name";
  B.enterUnit(S);
  B.exitUnit(1, {}, {}, {});
  auto Tree = B.takeTree();
  std::string Dot = Tree->dot();
  EXPECT_NE(Dot.find("we\\\"ird\\\\name"), std::string::npos) << Dot;
  EXPECT_EQ(Dot.find("we\"ird"), std::string::npos)
      << "unescaped quote leaked into the label";
}

/// A pathological single chain of \p Depth nested units, built by replaying
/// listener events (the interpreter's call-depth limit keeps real programs
/// far shallower).
std::unique_ptr<ExecTree> chainTree(uint32_t Depth) {
  ExecTreeBuilder B;
  for (uint32_t Id = 1; Id <= Depth; ++Id) {
    UnitStart S;
    S.NodeId = Id;
    S.Name = "u";
    B.enterUnit(S);
  }
  for (uint32_t Id = Depth; Id >= 1; --Id)
    B.exitUnit(Id, {}, {}, {});
  return B.takeTree();
}

TEST(ExecTreeTest, DeepTreeTraversalsAreIterative) {
  // 150k-deep chain: every traversal (forEachNode, dot, parent walk) and
  // destruction must be iterative — any recursion over depth overflows the
  // stack long before this.
  constexpr uint32_t Depth = 150000;
  auto Tree = chainTree(Depth);
  ASSERT_TRUE(Tree->getRoot());
  EXPECT_EQ(Tree->size(), Depth);
  EXPECT_EQ(Tree->getRoot()->subtreeSize(), Depth);

  unsigned Count = 0;
  Tree->forEachNode([&](ExecNode *) { ++Count; });
  EXPECT_EQ(Count, Depth);

  // Walk leaf -> root.
  const ExecNode *Leaf = Tree->node(Depth);
  ASSERT_TRUE(Leaf);
  unsigned Hops = 0;
  for (const ExecNode *N = Leaf; N; N = N->getParent())
    ++Hops;
  EXPECT_EQ(Hops, Depth);

  // dot() output is linear in the node count (constant indent), so it is
  // safe to render at full depth; one label and one edge line per node.
  std::string Dot = Tree->dot();
  size_t Lines = static_cast<size_t>(
      std::count(Dot.begin(), Dot.end(), '\n'));
  // Two header lines, Depth labels, Depth-1 edges, one closing brace.
  EXPECT_EQ(Lines, size_t(2) * Depth + 2);
  // Destruction happens at scope exit; a recursive destructor would crash.
}

TEST(ExecTreeTest, DeepTreeStrRendersEveryLevel) {
  // str() output is quadratic in depth (indentation), so correctness is
  // checked at a depth that still defeats recursive implementations.
  constexpr uint32_t Depth = 4096;
  auto Tree = chainTree(Depth);
  std::string Rendered = Tree->str();
  size_t Lines = static_cast<size_t>(
      std::count(Rendered.begin(), Rendered.end(), '\n'));
  EXPECT_EQ(Lines, Depth);
  // The last line is the deepest node at indent 2*(Depth-1).
  size_t LastLine = Rendered.rfind("u()");
  ASSERT_NE(LastLine, std::string::npos);
  size_t PrevNl = Rendered.rfind('\n', LastLine);
  ASSERT_NE(PrevNl, std::string::npos);
  EXPECT_EQ(LastLine - PrevNl - 1, size_t(2) * (Depth - 1));
}

TEST(ExecTreeTest, DotExportMarksPrunedNodes) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = trace(*Prog);
  ExecNode *Computs = findNode(*Tree, "computs");
  ASSERT_TRUE(Computs);
  support::NodeSet Kept(Tree->maxNodeId() + 1);
  Kept.insert(Computs->getId());
  std::string Dot = Tree->dot(&Kept);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
}

} // namespace
