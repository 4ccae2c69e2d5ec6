//===- ExecTreeBuilder.cpp - Build trees from interpreter events ----------===//

#include "trace/ExecTreeBuilder.h"

#include "obs/Trace.h"

#include <cassert>

using namespace gadt;
using namespace gadt::trace;
using namespace gadt::interp;

void ExecTreeBuilder::enterUnit(const UnitStart &Start) {
  std::vector<ExecNode> &Nodes = Tree->Nodes;
  if (Nodes.empty())
    Nodes.emplace_back(); // dummy slot 0; ids are 1-based
  assert(Start.NodeId == Nodes.size() &&
         "unit ids must be dense and preorder");
  Nodes.emplace_back();
  ExecNode &N = Nodes.back();
  N.Id = Start.NodeId;
  N.ParentId = OpenIds.empty() ? 0 : OpenIds.back();
  N.Kind = Start.Kind;
  N.Name = Start.Name;
  N.Routine = Start.Routine;
  N.CallStmt = Start.CallStmt;
  N.CallExpr = Start.CallExpr;
  N.LoopStmt = Start.LoopStmt;
  N.IterIndex = Start.IterIndex;
  N.Loc = Start.Loc;
  OpenIds.push_back(Start.NodeId);
}

void ExecTreeBuilder::exitUnit(uint32_t NodeId, std::vector<Binding> Inputs,
                               std::vector<Binding> Outputs,
                               std::vector<DepSet> OutputDeps) {
  assert(!OpenIds.empty() && OpenIds.back() == NodeId &&
         "exitUnit without matching enterUnit");
  assert((OutputDeps.empty() || OutputDeps.size() == Outputs.size()) &&
         "output dependence sets must be parallel to the outputs");
  ExecNode &N = Tree->Nodes[NodeId];
  N.Inputs = std::move(Inputs);
  N.Outputs = std::move(Outputs);
  N.OutputDeps = std::move(OutputDeps);
  // Every node allocated since this unit entered belongs to its subtree.
  N.Size = static_cast<uint32_t>(Tree->Nodes.size()) - NodeId;
  OpenIds.pop_back();
}

std::unique_ptr<ExecTree> ExecTreeBuilder::takeTree() {
  // Tolerate an aborted run (runtime error mid-trace): close the subtree
  // intervals of units that never exited, keeping navigation well-formed.
  for (auto It = OpenIds.rbegin(); It != OpenIds.rend(); ++It)
    Tree->Nodes[*It].Size = static_cast<uint32_t>(Tree->Nodes.size()) - *It;
  OpenIds.clear();
  return std::move(Tree);
}

std::unique_ptr<ExecTree>
gadt::trace::buildExecTree(const pascal::Program &P, InterpOptions Opts,
                           std::vector<int64_t> Input, ExecResult *Result) {
  obs::Span Span("exectree", "trace");
  Span.arg("track_deps", Opts.TrackDeps);
  Interpreter Interp(P, Opts);
  Interp.setInput(std::move(Input));
  ExecTreeBuilder Builder;
  Interp.setListener(&Builder);
  ExecResult Res = Interp.run();
  Span.arg("steps", Res.Steps);
  Span.arg("units", Res.UnitsExecuted);
  Span.arg("ok", Res.Ok);
  if (Result)
    *Result = Res;
  return Builder.takeTree();
}
