//===- SDG.cpp - System dependence graph ----------------------------------===//

#include "analysis/SDG.h"

#include "analysis/CFG.h"
#include "analysis/ControlDep.h"
#include "analysis/Dataflow.h"
#include "analysis/DefUse.h"
#include "obs/Trace.h"
#include "pascal/ASTMatch.h"
#include "support/Casting.h"
#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <map>
#include <unordered_set>

using namespace gadt;
using namespace gadt::analysis;
using namespace gadt::pascal;

//===----------------------------------------------------------------------===//
// SDGNode
//===----------------------------------------------------------------------===//

std::string SDGNode::label() const {
  auto VarName = [this]() {
    return Var ? Var->getName() : std::string("<result>");
  };
  switch (K) {
  case Kind::Entry:
    return "entry " + Routine->getName();
  case Kind::FormalIn:
    return "formal-in " + VarName() + " @" + Routine->getName();
  case Kind::FormalOut:
    return "formal-out " + VarName() + " @" + Routine->getName();
  case Kind::Stmt:
    return "stmt@" + S->getLoc().str() + " in " + Routine->getName();
  case Kind::Predicate:
    return "pred@" + S->getLoc().str() + " in " + Routine->getName();
  case Kind::ActualIn:
    return "actual-in " +
           (ArgIndex >= 0 ? "#" + std::to_string(ArgIndex) : VarName()) +
           " @call " + Call->Site.Callee->getName();
  case Kind::ActualOut:
    return "actual-out " +
           (Result ? std::string("<result>")
                   : ArgIndex >= 0 ? "#" + std::to_string(ArgIndex)
                                   : VarName()) +
           " @call " + Call->Site.Callee->getName();
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

namespace gadt {
namespace analysis {
namespace detail {

struct SDGBuilder {
  SDG &G;
  const CallGraph &CG;
  const SideEffectAnalysis &SEA;
  SDGBuilder(SDG &G, const CallGraph &CG, const SideEffectAnalysis &SEA)
      : G(G), CG(CG), SEA(SEA) {}

  /// Intra-routine edge dedup: (from, to) -> kind bitmask.
  std::unordered_map<uint64_t, uint8_t> LocalSeen;

  /// Formal ordinals and per-routine formal-out counts, computed during
  /// call linkage and reused by the summary fixpoint.
  std::vector<int32_t> FiOrdSaved, FoOrdSaved;
  std::vector<uint32_t> FoCountSaved;

  static uint64_t edgeKey(uint32_t From, uint32_t To) {
    return (uint64_t(From) << 32) | To;
  }

  void addLocalEdge(RoutinePdg &P, uint32_t From, uint32_t To,
                    SDGEdgeKind K) {
    uint8_t Bit = uint8_t(1) << static_cast<uint8_t>(K);
    uint8_t &Mask = LocalSeen[edgeKey(From, To)];
    if (Mask & Bit)
      return;
    Mask |= Bit;
    P.Edges.push_back({From, To, K});
  }

  /// Builds the program dependence graph of one routine into \p P.
  void buildRoutine(const RoutineDecl *R, RoutinePdg &P);

  /// Serial phases over the merged arena. merge reads the per-routine
  /// arenas without mutating them (relocation happens on the copies pushed
  /// into the graph), so the caller can move \p Locals into the replay
  /// snapshot afterwards instead of deep-copying it up front.
  void merge(const std::vector<RoutinePdg> &Locals);
  void buildCallLinkage(std::vector<PendingEdge> &Edges);
  /// Summary fixpoint. Cold mode (\p Affected null): seed every formal-out.
  /// Partial mode: seed only routines flagged in \p Affected and pre-install
  /// the cached pair sets (\p OldPairs) of unaffected callees — the BFS
  /// provably never enters an unaffected routine because the affected set
  /// is closed under "callers of". Either way the resulting per-routine
  /// pair sets are sorted and call-site summary edges are materialized in
  /// call-record order, so a partial rebuild is byte-identical to a cold
  /// one. The pair sets are left in G.SummaryPairsV (the ctor clears them
  /// when replay data isn't wanted).
  void computeSummaryEdges(std::vector<PendingEdge> &Edges,
                           const std::vector<char> *Affected,
                           const std::vector<SummaryPairList> *OldPairs);
  /// \p InsOnly builds only the incoming-edge side — enough for the
  /// summary fixpoint, which walks predecessors exclusively; the final
  /// call after summary edges materializes both sides. \p InMask (valid
  /// with InsOnly) keeps only edges into flagged nodes: the partial
  /// fixpoint provably never reads predecessors of unaffected routines'
  /// nodes, so their adjacency need not be materialized at all.
  void finalizeCSR(const std::vector<PendingEdge> &Edges,
                   bool InsOnly = false,
                   const std::vector<char> *InMask = nullptr);

  /// Copies the old build's pre-merge PDG of one routine and rewrites
  /// every AST pointer through \p Map onto the new program. Returns false
  /// (leaving \p P in an unspecified state) if anything fails to
  /// correspond — the caller then rebuilds the routine from scratch.
  static bool replayRoutinePdg(const RoutinePdg &Old,
                               const RoutineDecl *NewR,
                               const pascal::AstMap &Map,
                               const CallGraph &NewCG, RoutinePdg &P);
};

bool SDGBuilder::replayRoutinePdg(const RoutinePdg &Old,
                                  const RoutineDecl *NewR,
                                  const pascal::AstMap &Map,
                                  const CallGraph &NewCG, RoutinePdg &P) {
  P.R = NewR;
  P.Nodes = Old.Nodes;
  P.Edges = Old.Edges;
  P.EntryLocal = Old.EntryLocal;
  for (SDGNode &N : P.Nodes) {
    N.Routine = NewR;
    if (N.S) {
      const Stmt *NS = Map.stmt(N.S);
      if (!NS)
        return false;
      N.S = NS;
    }
    if (N.Var) {
      const VarDecl *NV = Map.var(N.Var);
      if (!NV)
        return false;
      N.Var = NV;
    }
    // Re-pointed at the new call records by merge().
    N.Call = nullptr;
  }
  P.StmtNodes.clear();
  P.StmtNodes.reserve(Old.StmtNodes.size());
  for (const auto &[S, Local] : Old.StmtNodes) {
    const Stmt *NS = Map.stmt(S);
    if (!NS)
      return false;
    P.StmtNodes.push_back({NS, Local});
  }
  // Re-anchor the call records on the new call graph's sites. A clean body
  // yields the same site sequence, so records pair up positionally; verify
  // the correspondence anyway.
  std::vector<const CallSite *> NewSites;
  for (const CallSite &CS : NewCG.callSitesIn(NewR))
    if (CS.Callee)
      NewSites.push_back(&CS);
  if (NewSites.size() != Old.Calls.size())
    return false;
  P.Calls = Old.Calls;
  for (size_t I = 0; I != P.Calls.size(); ++I) {
    SDGCallRecord &Rec = P.Calls[I];
    const CallSite &NS = *NewSites[I];
    if (Map.routine(Rec.Site.Callee) != NS.Callee ||
        Map.stmt(Rec.Site.AtStmt) != NS.AtStmt)
      return false;
    Rec.Site = NS;
    std::unordered_map<const VarDecl *, SDGNodeId> In, Out;
    In.reserve(Rec.InByGlobal.size());
    Out.reserve(Rec.OutByGlobal.size());
    for (const auto &[V, Id] : Rec.InByGlobal) {
      const VarDecl *NV = Map.var(V);
      if (!NV)
        return false;
      In.emplace(NV, Id);
    }
    for (const auto &[V, Id] : Rec.OutByGlobal) {
      const VarDecl *NV = Map.var(V);
      if (!NV)
        return false;
      Out.emplace(NV, Id);
    }
    Rec.InByGlobal = std::move(In);
    Rec.OutByGlobal = std::move(Out);
    // Refilled by call linkage against the new callee formals.
    Rec.AIByFormalIn.clear();
    Rec.AOByFormalOut.clear();
  }
  return true;
}

static int paramIndexIn(const RoutineDecl *R, const VarDecl *V) {
  const auto &Params = R->getParams();
  for (unsigned I = 0, N = Params.size(); I != N; ++I)
    if (Params[I].get() == V)
      return static_cast<int>(I);
  return -1;
}

void SDGBuilder::buildRoutine(const RoutineDecl *R, RoutinePdg &P) {
  P.R = R;
  CFG Cfg(R, SEA);
  ControlDependence CD(Cfg);
  ReachingDefs RD(Cfg, SEA);

  auto newNode = [&](SDGNode::Kind K) -> uint32_t {
    uint32_t Id = static_cast<uint32_t>(P.Nodes.size());
    P.Nodes.push_back(SDGNode(K, Id));
    P.Nodes.back().Routine = R;
    return Id;
  };

  // --- Vertices mirroring CFG nodes.
  std::vector<uint32_t> CfgToLocal(Cfg.nodes().size(), SDGNoNode);
  for (const auto &NPtr : Cfg.nodes()) {
    const CFGNode *N = NPtr.get();
    switch (N->getKind()) {
    case CFGNode::Kind::Entry:
      P.EntryLocal = newNode(SDGNode::Kind::Entry);
      CfgToLocal[N->getId()] = P.EntryLocal;
      break;
    case CFGNode::Kind::Exit:
      break;
    case CFGNode::Kind::FormalIn: {
      uint32_t F = newNode(SDGNode::Kind::FormalIn);
      P.Nodes[F].Var = N->getFormalVar();
      P.Nodes[F].ArgIndex = paramIndexIn(R, P.Nodes[F].Var);
      CfgToLocal[N->getId()] = F;
      break;
    }
    case CFGNode::Kind::FormalOut: {
      uint32_t F = newNode(SDGNode::Kind::FormalOut);
      P.Nodes[F].Var = N->getFormalVar();
      P.Nodes[F].Result = N->isResultFormal();
      P.Nodes[F].ArgIndex =
          P.Nodes[F].Var ? paramIndexIn(R, P.Nodes[F].Var) : -1;
      CfgToLocal[N->getId()] = F;
      break;
    }
    case CFGNode::Kind::Statement:
    case CFGNode::Kind::Predicate: {
      uint32_t X = newNode(N->getKind() == CFGNode::Kind::Predicate
                               ? SDGNode::Kind::Predicate
                               : SDGNode::Kind::Stmt);
      P.Nodes[X].S = N->getStmt();
      CfgToLocal[N->getId()] = X;
      P.StmtNodes.push_back({N->getStmt(), X});
      break;
    }
    }
  }
  std::unordered_map<const Stmt *, uint32_t> StmtToLocal(
      P.StmtNodes.size() * 2);
  for (const auto &[St, Id] : P.StmtNodes)
    StmtToLocal.emplace(St, Id);
  auto stmtLocal = [&](const Stmt *S) -> uint32_t {
    auto It = StmtToLocal.find(S);
    return It == StmtToLocal.end() ? SDGNoNode : It->second;
  };

  // --- Actual vertices per call site, grouped by site statement for the
  // def-lookup and result-flow passes below.
  std::map<const Stmt *, std::vector<uint32_t>> CallsByStmt;
  for (const CallSite &CS : CG.callSitesIn(R)) {
    if (!CS.Callee)
      continue;
    uint32_t RecIdx = static_cast<uint32_t>(P.Calls.size());
    P.Calls.emplace_back();
    SDGCallRecord &Rec = P.Calls.back();
    Rec.Site = CS;
    Rec.CallVertex = stmtLocal(CS.AtStmt);
    assert(Rec.CallVertex != SDGNoNode && "call site statement has no vertex");
    const RoutineEffects &E = SEA.effects(CS.Callee);
    const auto &Params = CS.Callee->getParams();
    const auto &Args = CS.args();
    size_t NumArgs = std::min(Params.size(), Args.size());
    Rec.InByArg.assign(NumArgs, SDGNoNode);
    Rec.OutByArg.assign(NumArgs, SDGNoNode);
    for (size_t I = 0; I != NumArgs; ++I) {
      uint32_t AI = newNode(SDGNode::Kind::ActualIn);
      P.Nodes[AI].S = CS.AtStmt;
      P.Nodes[AI].ArgIndex = static_cast<int>(I);
      if (Params[I]->isReference())
        P.Nodes[AI].Var = varArgDecl(Args[I].get());
      Rec.ActualIns.push_back(AI);
      Rec.InByArg[I] = AI;
      addLocalEdge(P, Rec.CallVertex, AI, SDGEdgeKind::Control);
      if (Params[I]->isReference()) {
        uint32_t AO = newNode(SDGNode::Kind::ActualOut);
        P.Nodes[AO].S = CS.AtStmt;
        P.Nodes[AO].ArgIndex = static_cast<int>(I);
        P.Nodes[AO].Var = varArgDecl(Args[I].get());
        Rec.ActualOuts.push_back(AO);
        Rec.OutByArg[I] = AO;
        addLocalEdge(P, Rec.CallVertex, AO, SDGEdgeKind::Control);
      }
    }
    for (const VarDecl *Gl : E.GRef) {
      uint32_t AI = newNode(SDGNode::Kind::ActualIn);
      P.Nodes[AI].S = CS.AtStmt;
      P.Nodes[AI].Var = Gl;
      Rec.ActualIns.push_back(AI);
      Rec.InByGlobal.emplace(Gl, AI);
      addLocalEdge(P, Rec.CallVertex, AI, SDGEdgeKind::Control);
    }
    for (const VarDecl *Gl : E.GMod) {
      uint32_t AO = newNode(SDGNode::Kind::ActualOut);
      P.Nodes[AO].S = CS.AtStmt;
      P.Nodes[AO].Var = Gl;
      Rec.ActualOuts.push_back(AO);
      Rec.OutByGlobal.emplace(Gl, AO);
      addLocalEdge(P, Rec.CallVertex, AO, SDGEdgeKind::Control);
    }
    if (CS.Callee->isFunction() && CS.CallExpr) {
      uint32_t AO = newNode(SDGNode::Kind::ActualOut);
      P.Nodes[AO].S = CS.AtStmt;
      P.Nodes[AO].Result = true;
      Rec.ActualOuts.push_back(AO);
      Rec.ResultOut = AO;
      addLocalEdge(P, Rec.CallVertex, AO, SDGEdgeKind::Control);
    }
    CallsByStmt[CS.AtStmt].push_back(RecIdx);
  }

  // --- Control-dependence edges.
  for (const auto &NPtr : Cfg.nodes()) {
    const CFGNode *N = NPtr.get();
    uint32_t X = CfgToLocal[N->getId()];
    if (X == SDGNoNode || P.Nodes[X].getKind() == SDGNode::Kind::Entry)
      continue;
    for (const CFGNode *C : CD.controllersOf(N)) {
      uint32_t From = CfgToLocal[C->getId()];
      if (From != SDGNoNode)
        addLocalEdge(P, From, X, SDGEdgeKind::Control);
    }
  }

  // --- Flow-dependence edges. Definitions of V at CFG node D surface at
  // the formal-in vertex, the statement vertex for direct defs, and the
  // actual-out vertices of calls made by D's statement.
  auto forEachDefVertex = [&](const CFGNode *D, const VarDecl *V,
                              auto &&Fn) {
    uint32_t X = CfgToLocal[D->getId()];
    if (X == SDGNoNode)
      return;
    if (P.Nodes[X].getKind() == SDGNode::Kind::FormalIn) {
      Fn(X);
      return;
    }
    if (D->access().defs(V))
      Fn(X);
    auto It = CallsByStmt.find(D->getStmt());
    if (It != CallsByStmt.end())
      for (uint32_t RecIdx : It->second)
        for (uint32_t AO : P.Calls[RecIdx].ActualOuts) {
          const SDGNode &AONode = P.Nodes[AO];
          if (!AONode.isResult() && AONode.getVar() == V)
            Fn(AO);
        }
  };
  auto addUseEdges = [&](uint32_t UseNode, const VarDecl *V,
                         const CFGNode *Anchor) {
    for (const CFGNode *D : RD.reachingIn(Anchor, V))
      forEachDefVertex(D, V, [&](uint32_t DefV) {
        addLocalEdge(P, DefV, UseNode, SDGEdgeKind::Flow);
      });
  };

  for (const auto &NPtr : Cfg.nodes()) {
    const CFGNode *N = NPtr.get();
    uint32_t X = CfgToLocal[N->getId()];
    if (X == SDGNoNode || P.Nodes[X].getKind() == SDGNode::Kind::Entry)
      continue;
    for (const VarDecl *V : N->access().Uses)
      addUseEdges(X, V, N);
  }

  // Actual-in uses and result flow.
  for (SDGCallRecord &Rec : P.Calls) {
    const CFGNode *Anchor = Cfg.nodeFor(Rec.Site.AtStmt);
    assert(Anchor && "call site has no CFG node");
    const auto &Args = Rec.Site.args();
    for (uint32_t AI : Rec.ActualIns) {
      const SDGNode &AINode = P.Nodes[AI];
      if (AINode.getArgIndex() >= 0 && !AINode.getVar()) {
        // Value argument: uses every variable in the argument expression.
        forEachExprIn(
            const_cast<Expr *>(
                Args[static_cast<size_t>(AINode.getArgIndex())].get()),
            [&](Expr *Sub) {
              if (auto *VR = dyn_cast<VarRefExpr>(Sub))
                addUseEdges(AI, VR->getDecl(), Anchor);
            });
      } else if (AINode.getVar()) {
        addUseEdges(AI, AINode.getVar(), Anchor);
      }
    }
    // A function call's result flows into the innermost consumer: another
    // call's argument when nested, otherwise the site's statement vertex.
    if (Rec.ResultOut != SDGNoNode) {
      uint32_t Consumer = Rec.CallVertex;
      for (uint32_t OtherIdx : CallsByStmt[Rec.Site.AtStmt]) {
        SDGCallRecord &Other = P.Calls[OtherIdx];
        if (&Other == &Rec)
          continue;
        const auto &OtherArgs = Other.Site.args();
        for (size_t I = 0; I != OtherArgs.size(); ++I) {
          bool Contains = false;
          forEachExprIn(const_cast<Expr *>(OtherArgs[I].get()),
                        [&](Expr *Sub) {
                          if (Sub == Rec.Site.CallExpr)
                            Contains = true;
                        });
          if (Contains) {
            uint32_t AI = Other.actualInForArg(static_cast<int>(I));
            if (AI != SDGNoNode)
              Consumer = AI;
          }
        }
      }
      addLocalEdge(P, Rec.ResultOut, Consumer, SDGEdgeKind::Flow);
    }
  }
}

void SDGBuilder::merge(const std::vector<RoutinePdg> &Locals) {
  // Prefix-sum the per-routine node counts into deterministic id bases —
  // the order is CG.routines() (call-graph preorder), exactly the order
  // the old serial build allocated ids in.
  size_t TotalNodes = 0, TotalCalls = 0, TotalEdges = 0, TotalStmts = 0;
  G.Ranges.resize(Locals.size());
  for (size_t I = 0; I != Locals.size(); ++I) {
    G.Ranges[I].Begin = static_cast<SDGNodeId>(TotalNodes);
    TotalNodes += Locals[I].Nodes.size();
    G.Ranges[I].End = static_cast<SDGNodeId>(TotalNodes);
    TotalCalls += Locals[I].Calls.size();
    TotalEdges += Locals[I].Edges.size();
    TotalStmts += Locals[I].StmtNodes.size();
  }
  G.NodesV.reserve(TotalNodes);
  G.CallsV.reserve(TotalCalls);
  G.StmtMap.reserve(TotalStmts);
  G.RoutineIdx.reserve(Locals.size());

  for (size_t I = 0; I != Locals.size(); ++I) {
    const RoutinePdg &P = Locals[I];
    SDGNodeId Base = G.Ranges[I].Begin;
    G.RoutineIdx.emplace(P.R, static_cast<uint32_t>(I));
    for (const SDGNode &N : P.Nodes) {
      G.NodesV.push_back(N);
      G.NodesV.back().Id += Base;
    }
    assert(P.EntryLocal != SDGNoNode && "routine without entry vertex");
    G.Entries.emplace(P.R, Base + P.EntryLocal);
    for (const auto &[S, Local] : P.StmtNodes)
      G.StmtMap.emplace(S, Base + Local);
    for (const SDGCallRecord &Src : P.Calls) {
      if (Src.Site.CallExpr)
        G.CallExprMap.emplace(Src.Site.CallExpr,
                              static_cast<uint32_t>(G.CallsV.size()));
      G.CallsV.push_back(Src);
      SDGCallRecord &Rec = G.CallsV.back();
      Rec.CallVertex += Base;
      for (SDGNodeId &Id : Rec.ActualIns)
        Id += Base;
      for (SDGNodeId &Id : Rec.ActualOuts)
        Id += Base;
      for (SDGNodeId &Id : Rec.InByArg)
        if (Id != SDGNoNode)
          Id += Base;
      for (SDGNodeId &Id : Rec.OutByArg)
        if (Id != SDGNoNode)
          Id += Base;
      for (auto &[Var, Id] : Rec.InByGlobal)
        Id += Base;
      for (auto &[Var, Id] : Rec.OutByGlobal)
        Id += Base;
      if (Rec.ResultOut != SDGNoNode)
        Rec.ResultOut += Base;
    }
  }
  // Call-record addresses are stable now; point the actual vertices at
  // their records.
  for (const SDGCallRecord &Rec : G.CallsV) {
    for (SDGNodeId Id : Rec.ActualIns)
      G.NodesV[Id].Call = &Rec;
    for (SDGNodeId Id : Rec.ActualOuts)
      G.NodesV[Id].Call = &Rec;
  }
}

void SDGBuilder::buildCallLinkage(std::vector<PendingEdge> &Edges) {
  // Formal ordinals: the k-th formal-in/out vertex of a routine, in id
  // order. The linkage tables below map them straight to actuals, which is
  // what the summary fixpoint pops against. FiByVar/FoByVar resolve the
  // callee-side endpoint of param-in/out edges per formal variable.
  const size_t NumRoutines = G.Ranges.size();
  std::vector<int32_t> FiOrd(G.NodesV.size(), -1);
  std::vector<int32_t> FoOrd(G.NodesV.size(), -1);
  std::vector<uint32_t> FiCount(NumRoutines, 0);
  std::vector<uint32_t> FoCount(NumRoutines, 0);
  std::vector<std::unordered_map<const VarDecl *, SDGNodeId>>
      FiByVar(NumRoutines), FoByVar(NumRoutines);
  std::vector<SDGNodeId> FoResult(NumRoutines, SDGNoNode);
  for (size_t R = 0; R != NumRoutines; ++R)
    for (SDGNodeId Id = G.Ranges[R].Begin; Id != G.Ranges[R].End; ++Id) {
      const SDGNode &N = G.NodesV[Id];
      if (N.getKind() == SDGNode::Kind::FormalIn) {
        FiOrd[Id] = static_cast<int32_t>(FiCount[R]++);
        FiByVar[R].emplace(N.getVar(), Id);
      } else if (N.getKind() == SDGNode::Kind::FormalOut) {
        FoOrd[Id] = static_cast<int32_t>(FoCount[R]++);
        if (N.isResult())
          FoResult[R] = Id;
        else
          FoByVar[R].emplace(N.getVar(), Id);
      }
    }
  auto lookup =
      [](const std::unordered_map<const VarDecl *, SDGNodeId> &Map,
         const VarDecl *V) -> SDGNodeId {
    auto It = Map.find(V);
    return It == Map.end() ? SDGNoNode : It->second;
  };

  // Two expression calls to the same callee inside one statement share
  // their call vertex; emit the call edge only once.
  std::unordered_set<uint64_t> CallEdgeSeen;
  for (SDGCallRecord &Rec : G.CallsV) {
    const RoutineDecl *Callee = Rec.Site.Callee;
    uint32_t CalleeIdx = G.RoutineIdx.at(Callee);
    SDGNodeId Entry = G.Entries.at(Callee);
    if (CallEdgeSeen.insert((uint64_t(Rec.CallVertex) << 32) | Entry).second)
      Edges.push_back({Rec.CallVertex, Entry, SDGEdgeKind::Call});
    Rec.AIByFormalIn.assign(FiCount[CalleeIdx], SDGNoNode);
    Rec.AOByFormalOut.assign(FoCount[CalleeIdx], SDGNoNode);

    const auto &Params = Callee->getParams();
    for (SDGNodeId AI : Rec.ActualIns) {
      const SDGNode &AINode = G.NodesV[AI];
      const VarDecl *V =
          AINode.getArgIndex() >= 0
              ? Params[static_cast<size_t>(AINode.getArgIndex())].get()
              : AINode.getVar();
      SDGNodeId FI = lookup(FiByVar[CalleeIdx], V);
      if (FI != SDGNoNode) {
        Edges.push_back({AI, FI, SDGEdgeKind::ParamIn});
        Rec.AIByFormalIn[static_cast<size_t>(FiOrd[FI])] = AI;
      }
    }
    for (SDGNodeId AO : Rec.ActualOuts) {
      const SDGNode &AONode = G.NodesV[AO];
      SDGNodeId FO =
          AONode.isResult()
              ? FoResult[CalleeIdx]
              : lookup(FoByVar[CalleeIdx],
                       AONode.getArgIndex() >= 0
                           ? Params[static_cast<size_t>(AONode.getArgIndex())]
                                 .get()
                           : AONode.getVar());
      if (FO != SDGNoNode) {
        Edges.push_back({FO, AO, SDGEdgeKind::ParamOut});
        Rec.AOByFormalOut[static_cast<size_t>(FoOrd[FO])] = AO;
      }
    }
  }
  FiOrdSaved = std::move(FiOrd);
  FoOrdSaved = std::move(FoOrd);
  FoCountSaved = std::move(FoCount);
}

void SDGBuilder::computeSummaryEdges(std::vector<PendingEdge> &Edges,
                                     const std::vector<char> *Affected,
                                     const std::vector<SummaryPairList> *OldPairs) {
  // Worklist of "path edges" (n, fo): vertex n reaches formal-out fo along
  // a realizable same-level path within fo's routine. Per vertex the
  // reached formal-outs are one bitset row over the *owning routine's*
  // formal-outs (dense local numbering), so membership is a bit test and
  // the whole table is one arena allocation.
  const size_t N = G.NodesV.size();
  const std::vector<int32_t> &FiOrd = FiOrdSaved;
  const std::vector<int32_t> &FoOrd = FoOrdSaved;
  const std::vector<uint32_t> &FoCount = FoCountSaved;

  // Routine index per node (ranges are contiguous) and per-node bit base.
  std::vector<uint32_t> NodeRoutine(N);
  for (size_t R = 0; R != G.Ranges.size(); ++R)
    for (SDGNodeId Id = G.Ranges[R].Begin; Id != G.Ranges[R].End; ++Id)
      NodeRoutine[Id] = static_cast<uint32_t>(R);
  std::vector<uint64_t> BitBase(N + 1, 0);
  for (size_t Id = 0; Id != N; ++Id)
    BitBase[Id + 1] = BitBase[Id] + FoCount[NodeRoutine[Id]];
  std::vector<uint64_t> Pairs((BitBase[N] + 63) / 64, 0);

  // Calls per callee routine, in call-record order.
  std::vector<std::vector<uint32_t>> CallsTo(G.Ranges.size());
  for (size_t C = 0; C != G.CallsV.size(); ++C)
    CallsTo[G.RoutineIdx.at(G.CallsV[C].Site.Callee)].push_back(
        static_cast<uint32_t>(C));

  // Formal-outs reached per vertex, in discovery order, plus the summary
  // in-edges accumulated per actual-out (the CSR has no summary edges yet).
  std::vector<std::vector<uint32_t>> FosReached(N);
  std::vector<std::vector<SDGNodeId>> SummaryIns(N);
  std::unordered_set<uint64_t> SummarySeen;
  std::deque<std::pair<SDGNodeId, uint32_t>> Work;

  // The portable result: per-routine (fi, fo) pair sets, in discovery
  // order here, sorted before materialization.
  std::vector<SummaryPairList> RoutinePairs(G.Ranges.size());

  auto addPair = [&](SDGNodeId Node, uint32_t Fo) {
    uint64_t Bit = BitBase[Node] + Fo;
    uint64_t Mask = uint64_t(1) << (Bit % 64);
    if (Pairs[Bit / 64] & Mask)
      return;
    Pairs[Bit / 64] |= Mask;
    Work.push_back({Node, Fo});
    FosReached[Node].push_back(Fo);
  };

  // Partial mode: replay the cached pair sets of unaffected routines and
  // pre-install the summary in-edges they imply at their call sites, so
  // paths through calls to unaffected callees propagate in the BFS without
  // ever entering the callee.
  if (Affected) {
    for (size_t R = 0; R != G.Ranges.size(); ++R)
      if (!(*Affected)[R])
        RoutinePairs[R] = (*OldPairs)[R];
    for (const SDGCallRecord &Rec : G.CallsV) {
      uint32_t CalleeIdx = G.RoutineIdx.at(Rec.Site.Callee);
      if ((*Affected)[CalleeIdx])
        continue;
      for (const auto &[Fi, Fo] : RoutinePairs[CalleeIdx]) {
        SDGNodeId AI = Rec.AIByFormalIn[Fi];
        SDGNodeId AO = Rec.AOByFormalOut[Fo];
        if (AI == SDGNoNode || AO == SDGNoNode ||
            !SummarySeen.insert((uint64_t(AI) << 32) | AO).second)
          continue;
        SummaryIns[AO].push_back(AI);
      }
    }
  }

  for (SDGNodeId Id = 0; Id != N; ++Id)
    if (FoOrd[Id] >= 0 && (!Affected || (*Affected)[NodeRoutine[Id]]))
      addPair(Id, static_cast<uint32_t>(FoOrd[Id]));

  while (!Work.empty()) {
    auto [Node, Fo] = Work.front();
    Work.pop_front();

    if (G.NodesV[Node].getKind() == SDGNode::Kind::FormalIn) {
      // A same-level path fi ->* fo is a summary pair of this routine and
      // induces summary edges ai -> ao at every call to it.
      uint32_t Fi = static_cast<uint32_t>(FiOrd[Node]);
      uint32_t R = NodeRoutine[Node];
      assert(!Affected || (*Affected)[R]);
      RoutinePairs[R].push_back({Fi, Fo});
      for (uint32_t CallIdx : CallsTo[R]) {
        const SDGCallRecord &Rec = G.CallsV[CallIdx];
        SDGNodeId AI = Rec.AIByFormalIn[Fi];
        SDGNodeId AO = Rec.AOByFormalOut[Fo];
        if (AI == SDGNoNode || AO == SDGNoNode ||
            !SummarySeen.insert((uint64_t(AI) << 32) | AO).second)
          continue;
        SummaryIns[AO].push_back(AI);
        // The new edge extends any path already known to leave AO.
        for (uint32_t Fo2 : FosReached[AO])
          addPair(AI, Fo2);
      }
    }

    // Control, flow and summary in-edges stay within the routine, so every
    // predecessor shares Fo's owner and the pair propagates unconditionally.
    for (const SDGEdge &E : G.ins(Node)) {
      if (E.K != SDGEdgeKind::Control && E.K != SDGEdgeKind::Flow)
        continue;
      assert(NodeRoutine[E.N] == NodeRoutine[Node]);
      addPair(E.N, Fo);
    }
    for (SDGNodeId AI : SummaryIns[Node])
      addPair(AI, Fo);
  }

  // Canonical materialization: per call record (in record order), per
  // sorted (fi, fo) pair of its callee. This makes the summary edge order
  // a function of the final pair sets alone — identical for cold and
  // partial builds.
  for (SummaryPairList &PL : RoutinePairs)
    std::sort(PL.begin(), PL.end());
  G.NumSummary = 0;
  for (const SDGCallRecord &Rec : G.CallsV) {
    uint32_t CalleeIdx = G.RoutineIdx.at(Rec.Site.Callee);
    for (const auto &[Fi, Fo] : RoutinePairs[CalleeIdx]) {
      SDGNodeId AI = Rec.AIByFormalIn[Fi];
      SDGNodeId AO = Rec.AOByFormalOut[Fo];
      if (AI == SDGNoNode || AO == SDGNoNode)
        continue;
      Edges.push_back({AI, AO, SDGEdgeKind::Summary});
      ++G.NumSummary;
    }
  }
  G.SummaryPairsV = std::move(RoutinePairs);
}

void SDGBuilder::finalizeCSR(const std::vector<PendingEdge> &Edges,
                             bool InsOnly,
                             const std::vector<char> *InMask) {
  // Stable counting sort by endpoint: per-vertex adjacency comes out in
  // exactly the order the edges were recorded, matching the append order
  // of the old pointer-graph representation.
  const size_t N = G.NodesV.size();
  if (InsOnly) {
    G.InOff.assign(N + 1, 0);
    for (const PendingEdge &E : Edges)
      if (!InMask || (*InMask)[E.To])
        ++G.InOff[E.To + 1];
    for (size_t I = 0; I != N; ++I)
      G.InOff[I + 1] += G.InOff[I];
    G.InE.resize(G.InOff[N]);
    std::vector<uint32_t> InCur(G.InOff.begin(), G.InOff.end() - 1);
    for (const PendingEdge &E : Edges)
      if (!InMask || (*InMask)[E.To])
        G.InE[InCur[E.To]++] = {E.From, E.K};
    G.NumEdges = static_cast<unsigned>(Edges.size());
    return;
  }
  G.OutOff.assign(N + 1, 0);
  G.InOff.assign(N + 1, 0);
  for (const PendingEdge &E : Edges) {
    ++G.OutOff[E.From + 1];
    ++G.InOff[E.To + 1];
  }
  for (size_t I = 0; I != N; ++I) {
    G.OutOff[I + 1] += G.OutOff[I];
    G.InOff[I + 1] += G.InOff[I];
  }
  G.OutE.resize(Edges.size());
  G.InE.resize(Edges.size());
  std::vector<uint32_t> OutCur(G.OutOff.begin(), G.OutOff.end() - 1);
  std::vector<uint32_t> InCur(G.InOff.begin(), G.InOff.end() - 1);
  for (const PendingEdge &E : Edges) {
    G.OutE[OutCur[E.From]++] = {E.To, E.K};
    G.InE[InCur[E.To]++] = {E.From, E.K};
  }
  G.NumEdges = static_cast<unsigned>(Edges.size());
}

} // namespace detail
} // namespace analysis
} // namespace gadt

//===----------------------------------------------------------------------===//
// SDG construction
//===----------------------------------------------------------------------===//

SDG::~SDG() = default;

SDG::SDG(const Program &P, SDGBuildOptions Opts) {
  // Only the build reads the call graph and effect sets; the graph keeps
  // neither.
  std::shared_ptr<const CallGraph> CG =
      Opts.SharedCG ? Opts.SharedCG : std::make_shared<CallGraph>(P);
  std::shared_ptr<const SideEffectAnalysis> SEA =
      Opts.SharedSEA ? Opts.SharedSEA
                     : std::make_shared<SideEffectAnalysis>(P, *CG);
  obs::Span Span("sdg", "analysis");
  detail::SDGBuilder B(*this, *CG, *SEA);

  const std::vector<const RoutineDecl *> &Routines = CG->routines();
  std::vector<detail::RoutinePdg> Locals(Routines.size());
  unsigned Threads = support::resolveThreads(Opts.Threads);

  // Validate the reuse plan's shape; a malformed plan degrades to a cold
  // build rather than failing.
  const SDGReusePlan *Reuse = Opts.Reuse;
  bool CanReuse = Reuse && Reuse->Old && Reuse->Map &&
                  Reuse->Old->Pdgs.size() == Routines.size() &&
                  Reuse->Old->SummaryPairsV.size() == Routines.size() &&
                  Reuse->Replay.size() == Routines.size() &&
                  Reuse->SummaryAffected.size() == Routines.size();
  std::atomic<unsigned> Replayed{0};
  std::atomic<bool> ReplayFellBack{false};
  {
    obs::Span Pdg("sdg.pdg", "analysis");
    Pdg.arg("threads", Threads);
    // Routine-local phase: CFG, control deps, reaching defs and all
    // intra-routine vertices/edges, under local ids — or, with a reuse
    // plan, a pointer-remapped copy of the old build's PDG for routines
    // the edit left clean. Safe to fan out — workers share only the
    // immutable ASTs, call graph and effect sets. Each worker needs its
    // own dedup map, so give every index a builder.
    support::parallelFor(Threads, Routines.size(), [&](size_t I) {
      if (CanReuse && Reuse->Replay[I]) {
        if (detail::SDGBuilder::replayRoutinePdg(Reuse->Old->Pdgs[I], Routines[I],
                                     *Reuse->Map, *CG, Locals[I])) {
          Replayed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        // A failed replay invalidates the plan's summary partition too
        // (this routine was assumed clean); note it and rebuild.
        ReplayFellBack.store(true, std::memory_order_relaxed);
        Locals[I] = detail::RoutinePdg();
      }
      detail::SDGBuilder Local(*this, *CG, *SEA);
      Local.buildRoutine(Routines[I], Locals[I]);
    });
  }

  // Serial phases: deterministic id assignment + merge, interprocedural
  // linkage, summary fixpoint, CSR finalize. merge leaves the per-routine
  // arenas untouched (they still hold local ids and their own node copies),
  // so the replay snapshot below is a move, not a deep copy.
  std::vector<detail::PendingEdge> Edges;
  {
    obs::Span Merge("sdg.merge", "analysis");
    B.merge(Locals);
    size_t IntraEdges = 0;
    for (const detail::RoutinePdg &L : Locals)
      IntraEdges += L.Edges.size();
    Edges.reserve(IntraEdges);
    for (size_t I = 0; I != Locals.size(); ++I) {
      SDGNodeId Base = Ranges[I].Begin;
      for (const detail::PendingEdge &E : Locals[I].Edges)
        Edges.push_back({E.From + Base, E.To + Base, E.K});
    }
    if (Opts.KeepReplayData)
      Pdgs = std::move(Locals);
  }
  {
    obs::Span Linkage("sdg.linkage", "analysis");
    B.buildCallLinkage(Edges);
  }
  bool PartialSummary =
      CanReuse && !ReplayFellBack.load(std::memory_order_relaxed);
  {
    obs::Span Csr("sdg.csr", "analysis");
    if (PartialSummary) {
      std::vector<char> Mask(NodesV.size(), 0);
      for (size_t I = 0; I != Ranges.size(); ++I)
        if (Reuse->SummaryAffected[I])
          std::fill(Mask.begin() + Ranges[I].Begin,
                    Mask.begin() + Ranges[I].End, 1);
      B.finalizeCSR(Edges, /*InsOnly=*/true, &Mask);
    } else {
      B.finalizeCSR(Edges, /*InsOnly=*/true);
    }
  }
  {
    obs::Span Summary("sdg.summary", "analysis");
    B.computeSummaryEdges(Edges,
                          PartialSummary ? &Reuse->SummaryAffected : nullptr,
                          PartialSummary ? &Reuse->Old->SummaryPairsV
                                         : nullptr);
    Summary.arg("summary", NumSummary);
  }
  {
    obs::Span Csr("sdg.csr", "analysis");
    B.finalizeCSR(Edges);
  }
  if (!Opts.KeepReplayData)
    SummaryPairsV.clear();
  if (Opts.Stats) {
    Opts.Stats->PdgReplayed = Replayed.load(std::memory_order_relaxed);
    Opts.Stats->PdgBuilt =
        static_cast<unsigned>(Routines.size()) - Opts.Stats->PdgReplayed;
    Opts.Stats->ReplayFellBack = !PartialSummary && CanReuse;
    unsigned AffectedCount = 0;
    if (PartialSummary) {
      for (char C : Reuse->SummaryAffected)
        AffectedCount += C ? 1 : 0;
    } else {
      AffectedCount = static_cast<unsigned>(Routines.size());
    }
    Opts.Stats->SummaryRecomputed = AffectedCount;
  }

  Span.arg("routines", Routines.size());
  Span.arg("nodes", NodesV.size());
  Span.arg("edges", NumEdges);
}

//===----------------------------------------------------------------------===//
// Lookup and rendering
//===----------------------------------------------------------------------===//

bool SDG::hasEdge(SDGNodeId From, SDGNodeId To, SDGEdgeKind K) const {
  for (const SDGEdge &E : outs(From))
    if (E.N == To && E.K == K)
      return true;
  return false;
}

SDGNodeId SDG::entryOf(const RoutineDecl *R) const {
  auto It = Entries.find(R);
  return It == Entries.end() ? SDGNoNode : It->second;
}

SDG::RoutineRange SDG::routineRange(const RoutineDecl *R) const {
  auto It = RoutineIdx.find(R);
  return It == RoutineIdx.end() ? RoutineRange() : Ranges[It->second];
}

SDGNodeId SDG::stmtNode(const Stmt *S) const {
  auto It = StmtMap.find(S);
  return It == StmtMap.end() ? SDGNoNode : It->second;
}

const SDGCallRecord *SDG::callOf(const Expr *E) const {
  auto It = CallExprMap.find(E);
  return It == CallExprMap.end() ? nullptr : &CallsV[It->second];
}

SDGNodeId SDG::formalOut(const RoutineDecl *R, const std::string &Name) const {
  RoutineRange Range = routineRange(R);
  for (SDGNodeId Id = Range.Begin; Id != Range.End; ++Id)
    if (NodesV[Id].getKind() == SDGNode::Kind::FormalOut &&
        NodesV[Id].getVar() && NodesV[Id].getVar()->getName() == Name)
      return Id;
  return SDGNoNode;
}

SDGNodeId SDG::formalOutResult(const RoutineDecl *R) const {
  RoutineRange Range = routineRange(R);
  for (SDGNodeId Id = Range.Begin; Id != Range.End; ++Id)
    if (NodesV[Id].getKind() == SDGNode::Kind::FormalOut &&
        NodesV[Id].isResult())
      return Id;
  return SDGNoNode;
}

SDGNodeId SDG::formalIn(const RoutineDecl *R, const std::string &Name) const {
  RoutineRange Range = routineRange(R);
  for (SDGNodeId Id = Range.Begin; Id != Range.End; ++Id)
    if (NodesV[Id].getKind() == SDGNode::Kind::FormalIn &&
        NodesV[Id].getVar() && NodesV[Id].getVar()->getName() == Name)
      return Id;
  return SDGNoNode;
}

std::string SDG::str() const {
  std::string Out;
  for (const SDGNode &N : NodesV) {
    Out += std::to_string(N.getId()) + ": " + N.label() + "\n";
    for (const SDGEdge &E : outs(N.getId())) {
      const char *K = "";
      switch (E.K) {
      case SDGEdgeKind::Control:
        K = "ctrl";
        break;
      case SDGEdgeKind::Flow:
        K = "flow";
        break;
      case SDGEdgeKind::Call:
        K = "call";
        break;
      case SDGEdgeKind::ParamIn:
        K = "pin";
        break;
      case SDGEdgeKind::ParamOut:
        K = "pout";
        break;
      case SDGEdgeKind::Summary:
        K = "sum";
        break;
      }
      Out += "  -" + std::string(K) + "-> " + std::to_string(E.N) + "\n";
    }
  }
  return Out;
}

static std::string escapeDotLabel(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string SDG::dot() const {
  std::string Out = "digraph sdg {\n  node [shape=box, "
                    "fontname=\"monospace\", fontsize=10];\n";
  // Cluster vertices per routine: each routine's ids are one contiguous
  // range (never empty: it holds the entry), emitted in call-graph preorder.
  for (size_t R = 0; R != Ranges.size(); ++R) {
    const RoutineDecl *Routine = NodesV[Ranges[R].Begin].getRoutine();
    Out += "  subgraph cluster_" + std::to_string(R) + " {\n";
    Out += "    label=\"" + escapeDotLabel(Routine->qualifiedName()) +
           "\";\n";
    for (SDGNodeId Id = Ranges[R].Begin; Id != Ranges[R].End; ++Id)
      Out += "    v" + std::to_string(Id) + " [label=\"" +
             escapeDotLabel(NodesV[Id].label()) + "\"];\n";
    Out += "  }\n";
  }
  for (const SDGNode &N : NodesV)
    for (const SDGEdge &E : outs(N.getId())) {
      Out += "  v" + std::to_string(N.getId()) + " -> v" +
             std::to_string(E.N);
      switch (E.K) {
      case SDGEdgeKind::Control:
        break;
      case SDGEdgeKind::Flow:
        Out += " [style=dashed]";
        break;
      case SDGEdgeKind::Call:
      case SDGEdgeKind::ParamIn:
      case SDGEdgeKind::ParamOut:
        Out += " [style=bold, color=blue]";
        break;
      case SDGEdgeKind::Summary:
        Out += " [style=dotted, color=red]";
        break;
      }
      Out += ";\n";
    }
  Out += "}\n";
  return Out;
}
