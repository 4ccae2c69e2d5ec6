//===- GlobalGotos.cpp - Break non-local gotos into exit parameters -------===//
//
// Paper Section 6, "Breaking global gotos into several structured local
// gotos": a goto from routine q to a label declared in an enclosing scope
// becomes
//
//   procedure q(...; var exitcond: integer);
//   begin
//     exitcond := 0;
//     ... exitcond := 1; goto exitlab; ...
//     exitlab: ;
//   end
//
// and every call site gains `q(..., ec); if ec = 1 then goto 9;`. The
// inserted goto may itself be non-local one level up, so the pass iterates
// until every goto is local — exactly the paper's cascading treatment.
//
//===----------------------------------------------------------------------===//

#include "transform/Transform.h"
#include "transform/TransformUtils.h"

#include "analysis/CallGraph.h"
#include "pascal/Sema.h"
#include "support/Casting.h"

#include <algorithm>
#include <map>
#include <set>

using namespace gadt;
using namespace gadt::transform;
using namespace gadt::transform::detail;
using namespace gadt::pascal;
using analysis::CallGraph;
using analysis::CallSite;

namespace {

/// Per-routine rewrite record shared with the call-site fixup.
struct ExitInfo {
  std::string ExitParam;
  std::vector<int> Targets; // label of code k at index k-1
};

std::vector<const GotoStmt *> nonLocalGotos(const RoutineDecl *R) {
  std::vector<const GotoStmt *> Out;
  if (R->getBody())
    forEachStmt(const_cast<CompoundStmt *>(R->getBody()), [&](Stmt *S) {
      if (const auto *GS = dyn_cast<GotoStmt>(S))
        if (GS->isNonLocal())
          Out.push_back(GS);
    });
  return Out;
}

} // namespace

bool gadt::transform::breakGlobalGotos(Program &P, DiagnosticsEngine &Diags,
                                       TransformStats &Stats) {
  for (unsigned Round = 0; Round < 1000; ++Round) {
    // Routines whose own body still performs non-local gotos, in routine
    // traversal order — a pointer-keyed map here would hand out the fresh
    // exit-parameter names in heap-address order, making two transforms of
    // the same program disagree on which routine gets "exitcond" vs
    // "exitcond1".
    std::vector<std::pair<RoutineDecl *, std::vector<const GotoStmt *>>>
        Offenders;
    forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
      auto Gotos = nonLocalGotos(R);
      if (!Gotos.empty())
        Offenders.emplace_back(R, std::move(Gotos));
    });
    if (Offenders.empty())
      return true;

    FreshNamer Names(P);
    CallGraph CG(P); // call sites of the pre-rewrite program
    std::map<const RoutineDecl *, ExitInfo> Infos;

    // --- Rewrite each offending routine.
    for (auto &[R, Gotos] : Offenders) {
      ExitInfo Info;
      Info.ExitParam = Names.freshVar("exitcond");
      int ExitLab = Names.freshLabel();
      for (const GotoStmt *GS : Gotos)
        if (std::find(Info.Targets.begin(), Info.Targets.end(),
                      GS->getLabel()) == Info.Targets.end())
          Info.Targets.push_back(GS->getLabel());

      R->addParam(std::make_unique<VarDecl>(R->getLoc(), Info.ExitParam,
                                            P.types().getIntegerType(),
                                            VarDecl::VarKind::Param,
                                            ParamMode::Var));
      R->getLabels().push_back(ExitLab);

      auto CodeOf = [&Info](int Label) {
        for (size_t I = 0; I != Info.Targets.size(); ++I)
          if (Info.Targets[I] == Label)
            return static_cast<int64_t>(I + 1);
        return int64_t(0);
      };

      // A goto leaves the set when it is replaced: the rewrite frees it,
      // and a statement built later may reuse its address.
      std::set<const Stmt *> ToReplace(Gotos.begin(), Gotos.end());
      rewriteStmts(R->getBody(), [&](Stmt *S, SlotEdit &Edit) {
        if (!ToReplace.erase(S))
          return;
        const auto *GS = cast<GotoStmt>(S);
        std::vector<StmtPtr> Body;
        Body.push_back(mkAssign(S->getLoc(), Info.ExitParam,
                                mkInt(S->getLoc(), CodeOf(GS->getLabel()))));
        Body.push_back(mkGoto(S->getLoc(), ExitLab));
        Edit.Replacement =
            std::make_unique<CompoundStmt>(S->getLoc(), std::move(Body));
      });

      // exitcond := 0 first; exitlab: ; last.
      auto &Body = R->getBody()->getBody();
      Body.insert(Body.begin(),
                  mkAssign(R->getLoc(), Info.ExitParam,
                           mkInt(R->getLoc(), 0)));
      Body.push_back(std::make_unique<LabeledStmt>(
          R->getLoc(), ExitLab, std::make_unique<EmptyStmt>(R->getLoc())));

      Stats.GotosBroken += static_cast<unsigned>(Gotos.size());
      ++Stats.ExitParamsAdded;
      Stats.Log.push_back("added exit parameter '" + Info.ExitParam +
                          "' to " + R->getName() + " (breaking " +
                          std::to_string(Gotos.size()) +
                          " non-local goto(s))");
      Infos[R] = std::move(Info);
    }

    // --- Fix every call site of the rewritten routines.
    std::map<std::pair<const RoutineDecl *, const RoutineDecl *>, std::string>
        LocalNames;
    for (const CallSite &CS : CG.allCallSites()) {
      auto InfoIt = Infos.find(CS.Callee);
      if (InfoIt == Infos.end())
        continue;
      const ExitInfo &Info = InfoIt->second;
      if (CS.CallExpr) {
        Diags.error(CS.CallExpr->getLoc(),
                    "cannot break non-local goto out of function '" +
                        CS.Callee->getName() +
                        "' called in expression position");
        return false;
      }
      auto *Caller = const_cast<RoutineDecl *>(CS.Caller);
      std::string &LocalName = LocalNames[{CS.Caller, CS.Callee}];
      if (LocalName.empty()) {
        LocalName = Names.freshVar(Info.ExitParam + "_" +
                                   CS.Callee->getName());
        Caller->addLocal(std::make_unique<VarDecl>(
            CS.AtStmt->getLoc(), LocalName, P.types().getIntegerType(),
            VarDecl::VarKind::Local));
      }
      auto *CallStmt = const_cast<ProcCallStmt *>(CS.CallStmt);
      CallStmt->getArgs().push_back(
          mkVarRef(CS.AtStmt->getLoc(), LocalName));
      rewriteStmts(Caller->getBody(), [&](Stmt *S, SlotEdit &Edit) {
        if (S != CallStmt)
          return;
        for (size_t I = 0; I != Info.Targets.size(); ++I)
          Edit.After.push_back(mkCheckGoto(S->getLoc(), LocalName,
                                           static_cast<int64_t>(I + 1),
                                           Info.Targets[I]));
      });
    }

    if (!analyze(P, Diags))
      return false;
  }
  Diags.error(SourceLoc(), "global-goto breaking did not converge");
  return false;
}
