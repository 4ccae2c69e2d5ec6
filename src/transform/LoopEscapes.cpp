//===- LoopEscapes.cpp - Rewrite gotos jumping out of while loops ---------===//
//
// Paper Section 6, "Handling gotos inside a loop addressed outside the
// loop": a while loop containing `goto 9` with label 9 outside the loop is
// rewritten to
//
//   leave := false;
//   while (B) and not leave do begin
//     ... leave := true; goto whilelab; ...
//     whilelab: ;
//   end;
//   if leave then goto 9;
//
// so the loop has a single exit and can serve as a debugging unit. Several
// distinct escape targets are supported through an auxiliary code variable.
//
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"
#include "transform/TransformUtils.h"

#include "pascal/Sema.h"
#include "support/Casting.h"

#include <algorithm>
#include <set>

using namespace gadt;
using namespace gadt::transform;
using namespace gadt::transform::detail;
using namespace gadt::pascal;

namespace {

/// Gotos inside \p W's body that leave the loop: non-local ones, and local
/// ones whose label is not defined inside the body.
std::vector<const GotoStmt *> escapingGotos(const RoutineDecl *R,
                                            WhileStmt *W) {
  std::set<int> InsideLabels;
  forEachStmt(W->getBody(), [&](Stmt *S) {
    if (const auto *LS = dyn_cast<LabeledStmt>(S))
      InsideLabels.insert(LS->getLabel());
  });
  std::vector<const GotoStmt *> Out;
  forEachStmt(W->getBody(), [&](Stmt *S) {
    if (const auto *GS = dyn_cast<GotoStmt>(S)) {
      if (GS->getTargetRoutine() != R || !InsideLabels.count(GS->getLabel()))
        Out.push_back(GS);
    }
  });
  return Out;
}

/// Finds one while loop with escaping gotos, innermost first.
WhileStmt *findTarget(RoutineDecl *R) {
  std::vector<WhileStmt *> Whiles;
  if (R->getBody())
    forEachStmt(R->getBody(), [&](Stmt *S) {
      if (auto *WS = dyn_cast<WhileStmt>(S))
        Whiles.push_back(WS);
    });
  // forEachStmt is preorder; scanning in reverse visits inner loops first.
  for (auto It = Whiles.rbegin(); It != Whiles.rend(); ++It)
    if (!escapingGotos(R, *It).empty())
      return *It;
  return nullptr;
}

void rewriteOne(Program &P, RoutineDecl *R, WhileStmt *W,
                TransformStats &Stats) {
  FreshNamer Names(P);
  SourceLoc Loc = W->getLoc();
  std::vector<const GotoStmt *> Escapes = escapingGotos(R, W);

  // Distinct targets in order of first appearance.
  std::vector<int> Targets;
  for (const GotoStmt *GS : Escapes)
    if (std::find(Targets.begin(), Targets.end(), GS->getLabel()) ==
        Targets.end())
      Targets.push_back(GS->getLabel());
  bool Multi = Targets.size() > 1;

  std::string LeaveName = Names.freshVar("leave");
  std::string CodeName = Multi ? Names.freshVar("leavecode") : "";
  int WhileLab = Names.freshLabel();

  R->addLocal(std::make_unique<VarDecl>(Loc, LeaveName,
                                        P.types().getBooleanType(),
                                        VarDecl::VarKind::Local));
  if (Multi)
    R->addLocal(std::make_unique<VarDecl>(Loc, CodeName,
                                          P.types().getIntegerType(),
                                          VarDecl::VarKind::Local));
  R->getLabels().push_back(WhileLab);

  auto CodeOf = [&](int Label) {
    for (size_t I = 0; I != Targets.size(); ++I)
      if (Targets[I] == Label)
        return static_cast<int64_t>(I + 1);
    return int64_t(0);
  };

  // 1. Replace each escaping goto with {leave := true; [code := k;]
  //    goto whilelab}. Each goto leaves the set when it is replaced: the
  //    rewrite frees it, and a statement built later may reuse its address.
  std::set<const Stmt *> ToReplace(Escapes.begin(), Escapes.end());
  rewriteStmts(R->getBody(), [&](Stmt *S, SlotEdit &Edit) {
    if (!ToReplace.erase(S))
      return;
    const auto *GS = cast<GotoStmt>(S);
    std::vector<StmtPtr> Body;
    Body.push_back(mkAssign(S->getLoc(), LeaveName, mkBool(S->getLoc(), true)));
    if (Multi)
      Body.push_back(mkAssign(S->getLoc(), CodeName,
                              mkInt(S->getLoc(), CodeOf(GS->getLabel()))));
    Body.push_back(mkGoto(S->getLoc(), WhileLab));
    Edit.Replacement =
        std::make_unique<CompoundStmt>(S->getLoc(), std::move(Body));
  });

  // 2. Wrap the loop body so it ends with `whilelab: ;`.
  {
    std::vector<StmtPtr> NewBody;
    StmtPtr Old = std::move(W->bodySlot());
    if (auto *CS = dyn_cast<CompoundStmt>(Old.get())) {
      NewBody = std::move(CS->getBody());
    } else {
      NewBody.push_back(std::move(Old));
    }
    NewBody.push_back(std::make_unique<LabeledStmt>(
        Loc, WhileLab, std::make_unique<EmptyStmt>(Loc)));
    W->bodySlot() = std::make_unique<CompoundStmt>(Loc, std::move(NewBody));
  }

  // 3. Strengthen the condition: (B) and not leave.
  W->setCond(std::make_unique<BinaryExpr>(
      Loc, BinaryOp::And, std::unique_ptr<Expr>(W->getCond()->clone()),
      std::make_unique<UnaryExpr>(Loc, UnaryOp::Not,
                                  mkVarRef(Loc, LeaveName))));

  // 4. Initialize before the loop; dispatch after it.
  rewriteStmts(R->getBody(), [&](Stmt *S, SlotEdit &Edit) {
    if (S != W)
      return;
    Edit.Before.push_back(mkAssign(Loc, LeaveName, mkBool(Loc, false)));
    if (Multi)
      Edit.Before.push_back(mkAssign(Loc, CodeName, mkInt(Loc, 0)));
    if (Multi) {
      for (size_t I = 0; I != Targets.size(); ++I)
        Edit.After.push_back(mkCheckGoto(Loc, CodeName,
                                         static_cast<int64_t>(I + 1),
                                         Targets[I]));
    } else {
      auto Then = mkGoto(Loc, Targets[0]);
      Edit.After.push_back(std::make_unique<IfStmt>(
          Loc, mkVarRef(Loc, LeaveName), std::move(Then), nullptr));
    }
  });

  ++Stats.LoopsRewritten;
  Stats.Log.push_back("rewrote " + std::to_string(Escapes.size()) +
                      " escaping goto(s) in a while loop of " +
                      R->getName());
}

} // namespace

bool gadt::transform::rewriteLoopEscapes(Program &P, DiagnosticsEngine &Diags,
                                         TransformStats &Stats) {
  for (unsigned Round = 0; Round < 1000; ++Round) {
    WhileStmt *W = nullptr;
    RoutineDecl *Owner = nullptr;
    forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
      if (W)
        return;
      if (WhileStmt *Found = findTarget(R)) {
        W = Found;
        Owner = R;
      }
    });
    if (!W)
      return true;
    rewriteOne(P, Owner, W, Stats);
    if (!analyze(P, Diags))
      return false;
  }
  Diags.error(SourceLoc(), "loop-escape rewriting did not converge");
  return false;
}
