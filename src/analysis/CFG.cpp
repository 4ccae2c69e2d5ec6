//===- CFG.cpp - Per-routine control-flow graphs --------------------------===//

#include "analysis/CFG.h"

#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace gadt;
using namespace gadt::analysis;
using namespace gadt::pascal;

std::string CFGNode::label() const {
  switch (K) {
  case Kind::Entry:
    return "entry";
  case Kind::Exit:
    return "exit";
  case Kind::FormalIn:
    return "formal-in " + FormalVar->getName();
  case Kind::FormalOut:
    return ResultFormal ? "formal-out <result>"
                        : "formal-out " + FormalVar->getName();
  case Kind::Predicate: {
    switch (S->getKind()) {
    case Stmt::Kind::If:
      return "if " + cast<IfStmt>(S)->getCond()->str();
    case Stmt::Kind::While:
      return "while " + cast<WhileStmt>(S)->getCond()->str();
    case Stmt::Kind::Repeat:
      return "until " + cast<RepeatStmt>(S)->getCond()->str();
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      return "for " + FS->getLoopVar()->str() + " := " +
             FS->getFrom()->str() + ".." + FS->getTo()->str();
    }
    default:
      return "predicate";
    }
  }
  case Kind::Statement:
    switch (S->getKind()) {
    case Stmt::Kind::Labeled:
      return std::to_string(cast<LabeledStmt>(S)->getLabel()) + ":";
    case Stmt::Kind::Goto:
      return "goto " + std::to_string(cast<GotoStmt>(S)->getLabel());
    case Stmt::Kind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      return AS->getTarget()->str() + " := " + AS->getValue()->str();
    }
    case Stmt::Kind::ProcCall:
      return "call " + cast<ProcCallStmt>(S)->getCalleeName();
    case Stmt::Kind::Read:
      return "read";
    case Stmt::Kind::Write:
      return "write";
    case Stmt::Kind::Empty:
      return "skip";
    default:
      return "stmt";
    }
  }
  return "?";
}

CFGNode *CFG::newNode(CFGNode::Kind K) {
  Nodes.emplace_back(new CFGNode(K, static_cast<unsigned>(Nodes.size())));
  return Nodes.back().get();
}

void CFG::addEdge(CFGNode *From, CFGNode *To) {
  assert(From && To);
  if (std::find(From->Succs.begin(), From->Succs.end(), To) !=
      From->Succs.end())
    return;
  From->Succs.push_back(To);
  To->Preds.push_back(From);
}

void CFG::connect(const std::vector<CFGNode *> &From, CFGNode *To) {
  for (CFGNode *F : From)
    addEdge(F, To);
}

CFG::CFG(const RoutineDecl *R, const SideEffectAnalysis &Effects)
    : R(R), Effects(Effects) {
  Entry = newNode(CFGNode::Kind::Entry);
  Exit = newNode(CFGNode::Kind::Exit);

  const RoutineEffects &E = Effects.effects(R);

  // Formal-in boundary: parameters carrying values in, then referenced
  // globals.
  std::vector<CFGNode *> Chain = {Entry};
  auto addFormalIn = [&](const VarDecl *V) {
    CFGNode *N = newNode(CFGNode::Kind::FormalIn);
    N->FormalVar = V;
    N->Access.Defs.push_back(V);
    FormalIns.push_back(N);
    connect(Chain, N);
    Chain = {N};
  };
  for (const auto &P : R->getParams())
    if (P->getMode() != ParamMode::Out)
      addFormalIn(P.get());
  for (const VarDecl *G : E.GRef)
    addFormalIn(G);

  // Body.
  std::vector<CFGNode *> BodyExits = Chain;
  if (R->getBody())
    BodyExits = buildStmt(R->getBody(), Chain);

  // Patch gotos now that every label target exists.
  for (auto &[Node, GS] : PendingGotos) {
    if (GS->isNonLocal()) {
      addEdge(Node, Exit);
      continue;
    }
    auto It = LabelTargets.find(GS->getLabel());
    assert(It != LabelTargets.end() && "Sema guarantees labels are defined");
    addEdge(Node, It->second);
  }

  // Formal-out boundary: reference parameters, modified globals, result.
  // For the program routine, every global is a formal-out so that slicing
  // criteria at program exit have an anchor vertex.
  auto addFormalOut = [&](const VarDecl *V, bool IsResult) {
    CFGNode *N = newNode(CFGNode::Kind::FormalOut);
    N->FormalVar = IsResult ? nullptr : V;
    N->ResultFormal = IsResult;
    N->Access.Uses.push_back(V);
    FormalOuts.push_back(N);
    connect(BodyExits, N);
    BodyExits = {N};
  };
  if (R->isProgram()) {
    for (const auto &G : R->getLocals())
      addFormalOut(G.get(), false);
  } else {
    for (const auto &P : R->getParams())
      if (P->isReference())
        addFormalOut(P.get(), false);
    for (const VarDecl *G : E.GMod)
      addFormalOut(G, false);
    if (R->isFunction())
      addFormalOut(R->getResultVar(), true);
  }

  connect(BodyExits, Exit);
}

std::vector<CFGNode *> CFG::buildStmt(const Stmt *S,
                                      std::vector<CFGNode *> Preds) {
  switch (S->getKind()) {
  case Stmt::Kind::Compound: {
    std::vector<CFGNode *> Cur = std::move(Preds);
    for (const StmtPtr &Sub : cast<CompoundStmt>(S)->getBody())
      Cur = buildStmt(Sub.get(), std::move(Cur));
    return Cur;
  }

  case Stmt::Kind::Labeled: {
    const auto *LS = cast<LabeledStmt>(S);
    // A dedicated join node marks the label target.
    CFGNode *N = newNode(CFGNode::Kind::Statement);
    N->S = S;
    StmtNodes[S] = N;
    LabelTargets[LS->getLabel()] = N;
    connect(Preds, N);
    return buildStmt(LS->getSub(), {N});
  }

  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    CFGNode *P = newNode(CFGNode::Kind::Predicate);
    P->S = S;
    P->Access = computeStmtAccess(R, S);
    StmtNodes[S] = P;
    connect(Preds, P);
    std::vector<CFGNode *> Exits = buildStmt(IS->getThen(), {P});
    if (IS->getElse()) {
      std::vector<CFGNode *> ElseExits = buildStmt(IS->getElse(), {P});
      Exits.insert(Exits.end(), ElseExits.begin(), ElseExits.end());
    } else {
      Exits.push_back(P);
    }
    return Exits;
  }

  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    CFGNode *P = newNode(CFGNode::Kind::Predicate);
    P->S = S;
    P->Access = computeStmtAccess(R, S);
    StmtNodes[S] = P;
    connect(Preds, P);
    std::vector<CFGNode *> BodyExits = buildStmt(WS->getBody(), {P});
    connect(BodyExits, P);
    return {P};
  }

  case Stmt::Kind::Repeat: {
    const auto *RS = cast<RepeatStmt>(S);
    size_t FirstNew = Nodes.size();
    std::vector<CFGNode *> Cur = std::move(Preds);
    for (const StmtPtr &Sub : RS->getBody())
      Cur = buildStmt(Sub.get(), std::move(Cur));
    CFGNode *P = newNode(CFGNode::Kind::Predicate);
    P->S = S;
    P->Access = computeStmtAccess(R, S);
    StmtNodes[S] = P;
    connect(Cur, P);
    // Back edge: condition false repeats the body (or itself when empty).
    CFGNode *BodyEntry = FirstNew < Nodes.size() - 1
                             ? Nodes[FirstNew].get()
                             : P;
    addEdge(P, BodyEntry);
    return {P};
  }

  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    CFGNode *P = newNode(CFGNode::Kind::Predicate);
    P->S = S;
    P->Access = computeStmtAccess(R, S);
    StmtNodes[S] = P;
    connect(Preds, P);
    std::vector<CFGNode *> BodyExits = buildStmt(FS->getBody(), {P});
    connect(BodyExits, P);
    return {P};
  }

  case Stmt::Kind::Goto: {
    CFGNode *N = newNode(CFGNode::Kind::Statement);
    N->S = S;
    StmtNodes[S] = N;
    connect(Preds, N);
    PendingGotos.push_back({N, cast<GotoStmt>(S)});
    return {}; // control never falls through
  }

  case Stmt::Kind::Assign:
  case Stmt::Kind::ProcCall:
  case Stmt::Kind::Read:
  case Stmt::Kind::Write:
  case Stmt::Kind::Empty: {
    CFGNode *N = newNode(CFGNode::Kind::Statement);
    N->S = S;
    N->Access = computeStmtAccess(R, S);
    StmtNodes[S] = N;
    connect(Preds, N);
    return {N};
  }
  }
  return Preds;
}

CFGNode *CFG::nodeFor(const Stmt *S) const {
  auto It = StmtNodes.find(S);
  return It == StmtNodes.end() ? nullptr : It->second;
}

CFGNode *CFG::formalOutFor(const VarDecl *V) const {
  for (CFGNode *N : FormalOuts)
    if (N->getFormalVar() == V)
      return N;
  return nullptr;
}

CFGNode *CFG::resultFormalOut() const {
  for (CFGNode *N : FormalOuts)
    if (N->isResultFormal())
      return N;
  return nullptr;
}

CFGNode *CFG::formalInFor(const VarDecl *V) const {
  for (CFGNode *N : FormalIns)
    if (N->getFormalVar() == V)
      return N;
  return nullptr;
}

std::string CFG::str() const {
  std::string Out;
  for (const auto &N : Nodes) {
    Out += std::to_string(N->getId()) + ": " + N->label() + " ->";
    for (const CFGNode *S : N->succs()) {
      Out += ' ';
      Out += std::to_string(S->getId());
    }
    Out += '\n';
  }
  return Out;
}
