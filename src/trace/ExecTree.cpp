//===- ExecTree.cpp - Execution trees -------------------------------------===//

#include "trace/ExecTree.h"

using namespace gadt;
using namespace gadt::trace;
using namespace gadt::interp;

const Binding *ExecNode::findOutput(const std::string &Name) const {
  for (const Binding &B : Outputs)
    if (B.Name == Name)
      return &B;
  return nullptr;
}

const Binding *ExecNode::findInput(const std::string &Name) const {
  for (const Binding &B : Inputs)
    if (B.Name == Name)
      return &B;
  return nullptr;
}

std::string ExecNode::signature() const {
  std::string Out = getName();
  if (getKind() == UnitKind::Iteration)
    Out += " iteration " + std::to_string(getIterIndex());

  // A function's result is rendered after the parenthesis, paper-style:
  // decrement(In y: 3)=4.
  const Binding *ResultBinding = nullptr;
  if (getRoutine() && getRoutine()->isFunction() && !Outputs.empty() &&
      Outputs.back().Name == getRoutine()->getName())
    ResultBinding = &Outputs.back();

  Out += "(";
  bool First = true;
  for (const Binding &B : Inputs) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "In ";
    Out += B.Name.str();
    Out += ": ";
    Out += B.V.str();
  }
  for (const Binding &B : Outputs) {
    if (&B == ResultBinding)
      continue;
    if (!First)
      Out += ", ";
    First = false;
    Out += "Out ";
    Out += B.Name.str();
    Out += ": ";
    Out += B.V.str();
  }
  Out += ")";
  if (ResultBinding) {
    Out += '=';
    Out += ResultBinding->V.str();
  }
  return Out;
}

void ExecTree::forEachNode(const std::function<void(ExecNode *)> &Fn) const {
  for (size_t I = 1; I < Nodes.size(); ++I)
    Fn(const_cast<ExecNode *>(&Nodes[I]));
}

std::string ExecTree::str() const {
  std::string Out;
  // Preorder is id order; depth is the number of enclosing subtree
  // intervals still open, tracked on an explicit end-id stack.
  std::vector<uint32_t> OpenEnds;
  for (size_t I = 1; I < Nodes.size(); ++I) {
    const ExecNode &N = Nodes[I];
    while (!OpenEnds.empty() && N.getId() >= OpenEnds.back())
      OpenEnds.pop_back();
    Out.append(OpenEnds.size() * 2, ' ');
    Out += N.signature();
    Out += '\n';
    OpenEnds.push_back(N.subtreeEnd());
  }
  return Out;
}

static std::string escapeDot(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string ExecTree::dot(const support::NodeSet *Kept) const {
  std::string Out = "digraph exectree {\n  node [shape=box, "
                    "fontname=\"monospace\"];\n";
  for (size_t I = 1; I < Nodes.size(); ++I) {
    const ExecNode &N = Nodes[I];
    bool Retained = !Kept || Kept->count(N.getId());
    Out += "  n" + std::to_string(N.getId()) + " [label=\"" +
           escapeDot(N.signature()) + "\"";
    if (!Retained)
      Out += ", style=dashed, color=grey, fontcolor=grey";
    Out += "];\n";
    for (const ExecNode *C = N.firstChild(); C; C = C->nextSibling())
      Out += "  n" + std::to_string(N.getId()) + " -> n" +
             std::to_string(C->getId()) + ";\n";
  }
  Out += "}\n";
  return Out;
}

size_t ExecTree::memoryBytes() const {
  size_t Bytes = Nodes.capacity() * sizeof(ExecNode);
  for (const ExecNode &N : Nodes) {
    Bytes += (N.getInputs().capacity() + N.getOutputs().capacity()) *
             sizeof(Binding);
    Bytes += N.OutputDeps.capacity() * sizeof(DepSet);
    for (const Binding &B : N.getInputs())
      if (B.V.isArray())
        Bytes += B.V.asArray().Elems.capacity() * sizeof(int64_t);
    for (const Binding &B : N.getOutputs())
      if (B.V.isArray())
        Bytes += B.V.asArray().Elems.capacity() * sizeof(int64_t);
  }
  return Bytes;
}
