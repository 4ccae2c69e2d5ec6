//===- Sema.cpp - Pascal semantic analysis --------------------------------===//

#include "pascal/Sema.h"

#include "support/Casting.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

using namespace gadt;
using namespace gadt::pascal;

namespace {

/// Carries the state of one analysis run.
class SemaPass {
public:
  SemaPass(Program &P, DiagnosticsEngine &Diags) : P(P), Diags(Diags) {}

  bool run();

private:
  // Declaration checking.
  bool checkRoutineTree(RoutineDecl *R);
  bool checkDuplicateNames(RoutineDecl *R);
  bool checkLabels(RoutineDecl *R);

  // Name lookup (walks the static scope chain from \p From outward).
  VarDecl *lookupVar(RoutineDecl *From, const std::string &Name);
  RoutineDecl *lookupRoutine(RoutineDecl *From, const std::string &Name);
  /// Finds the nearest enclosing routine (including \p From) that declares
  /// label \p Label; null when none does.
  RoutineDecl *lookupLabel(RoutineDecl *From, int Label);

  // Statement / expression checking within routine \p R.
  void checkBody(RoutineDecl *R);
  void checkStmt(RoutineDecl *R, Stmt *S);
  const Type *checkExpr(RoutineDecl *R, Expr *E);
  bool checkLValue(RoutineDecl *R, Expr *E, const char *What);
  void checkCallArgs(RoutineDecl *R, RoutineDecl *Callee,
                     std::vector<ExprPtr> &Args, SourceLoc Loc);

  void error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
  }

  const Type *intTy() { return P.types().getIntegerType(); }
  const Type *boolTy() { return P.types().getBooleanType(); }

  Program &P;
  DiagnosticsEngine &Diags;
  unsigned LoopCounter = 0;
};

bool SemaPass::run() {
  RoutineDecl *Main = P.getMain();
  if (!Main) {
    error(SourceLoc(), "program has no main routine");
    return false;
  }
  if (!checkRoutineTree(Main))
    return false;
  forEachRoutine(Main, [this](RoutineDecl *R) { checkBody(R); });
  return !Diags.hasErrors();
}

bool SemaPass::checkRoutineTree(RoutineDecl *R) {
  // Create the function-result pseudo-variable before any body is checked.
  if (R->isFunction() && !R->getResultVar()) {
    auto RV = std::make_unique<VarDecl>(R->getLoc(), R->getName(),
                                        R->getReturnType(),
                                        VarDecl::VarKind::Result);
    RV->setOwner(R);
    R->setResultVar(std::move(RV));
  }
  for (const auto &V : R->getParams())
    V->setOwner(R);
  for (const auto &V : R->getLocals())
    V->setOwner(R);

  if (!checkDuplicateNames(R))
    return false;
  if (!checkLabels(R))
    return false;
  for (const auto &N : R->getNested()) {
    N->setParent(R);
    if (!checkRoutineTree(N.get()))
      return false;
  }
  return true;
}

bool SemaPass::checkDuplicateNames(RoutineDecl *R) {
  // Views of the declarations' own names: checking copies no name.
  std::unordered_set<std::string_view> Seen;
  Seen.reserve(R->getParams().size() + R->getLocals().size() +
               R->getNested().size());
  auto Check = [&](const std::string &Name, SourceLoc Loc) {
    if (!Seen.insert(Name).second) {
      error(Loc, "redeclaration of '" + Name + "' in " + R->getName());
      return false;
    }
    return true;
  };
  for (const auto &V : R->getParams())
    if (!Check(V->getName(), V->getLoc()))
      return false;
  for (const auto &V : R->getLocals())
    if (!Check(V->getName(), V->getLoc()))
      return false;
  for (const auto &N : R->getNested())
    if (!Check(N->getName(), N->getLoc()))
      return false;
  return true;
}

bool SemaPass::checkLabels(RoutineDecl *R) {
  // Each declared label must be defined exactly once in this routine's own
  // body (not in a nested routine's body).
  for (int Label : R->getLabels()) {
    unsigned Definitions = 0;
    if (R->getBody())
      forEachStmt(R->getBody(), [&](Stmt *S) {
        if (auto *LS = dyn_cast<LabeledStmt>(S))
          if (LS->getLabel() == Label)
            ++Definitions;
      });
    if (Definitions == 0) {
      error(R->getLoc(), "label " + std::to_string(Label) + " declared in " +
                             R->getName() + " but never defined");
      return false;
    }
    if (Definitions > 1) {
      error(R->getLoc(), "label " + std::to_string(Label) +
                             " defined more than once in " + R->getName());
      return false;
    }
  }
  // Every labeled statement must use a label declared here.
  bool Ok = true;
  if (R->getBody())
    forEachStmt(R->getBody(), [&](Stmt *S) {
      auto *LS = dyn_cast<LabeledStmt>(S);
      if (!LS)
        return;
      if (std::find(R->getLabels().begin(), R->getLabels().end(),
                    LS->getLabel()) == R->getLabels().end()) {
        error(LS->getLoc(), "label " + std::to_string(LS->getLabel()) +
                                " not declared in " + R->getName());
        Ok = false;
      }
    });
  return Ok;
}

VarDecl *SemaPass::lookupVar(RoutineDecl *From, const std::string &Name) {
  for (RoutineDecl *R = From; R; R = R->getParent())
    if (VarDecl *V = R->findLocal(Name))
      return V;
  return nullptr;
}

RoutineDecl *SemaPass::lookupRoutine(RoutineDecl *From,
                                     const std::string &Name) {
  for (RoutineDecl *R = From; R; R = R->getParent()) {
    if (R->getName() == Name)
      return R; // direct recursion / enclosing routine
    if (RoutineDecl *N = R->findNested(Name))
      return N;
  }
  return nullptr;
}

RoutineDecl *SemaPass::lookupLabel(RoutineDecl *From, int Label) {
  for (RoutineDecl *R = From; R; R = R->getParent())
    if (std::find(R->getLabels().begin(), R->getLabels().end(), Label) !=
        R->getLabels().end())
      return R;
  return nullptr;
}

void SemaPass::checkBody(RoutineDecl *R) {
  if (!R->getBody())
    return;
  checkStmt(R, R->getBody());
}

void SemaPass::checkStmt(RoutineDecl *R, Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::Compound:
    for (const StmtPtr &Sub : cast<CompoundStmt>(S)->getBody())
      checkStmt(R, Sub.get());
    return;

  case Stmt::Kind::Assign: {
    auto *AS = cast<AssignStmt>(S);
    if (!checkLValue(R, AS->getTarget(), "assignment target"))
      return;
    const Type *TargetTy = AS->getTarget()->getType();
    const Type *ValueTy = checkExpr(R, AS->getValue());
    if (TargetTy && ValueTy && !TargetTy->isAssignableFrom(ValueTy))
      error(AS->getLoc(), "cannot assign " + ValueTy->str() + " to " +
                              TargetTy->str());
    return;
  }

  case Stmt::Kind::If: {
    auto *IS = cast<IfStmt>(S);
    const Type *CondTy = checkExpr(R, IS->getCond());
    if (CondTy && !CondTy->isBoolean())
      error(IS->getCond()->getLoc(), "if condition must be boolean, got " +
                                         CondTy->str());
    checkStmt(R, IS->getThen());
    if (IS->getElse())
      checkStmt(R, IS->getElse());
    return;
  }

  case Stmt::Kind::While: {
    auto *WS = cast<WhileStmt>(S);
    const Type *CondTy = checkExpr(R, WS->getCond());
    if (CondTy && !CondTy->isBoolean())
      error(WS->getCond()->getLoc(), "while condition must be boolean, got " +
                                         CondTy->str());
    if (WS->getUnitName().empty())
      WS->setUnitName(R->getName() + ".while#" +
                      std::to_string(++LoopCounter));
    checkStmt(R, WS->getBody());
    return;
  }

  case Stmt::Kind::Repeat: {
    auto *RS = cast<RepeatStmt>(S);
    for (const StmtPtr &Sub : RS->getBody())
      checkStmt(R, Sub.get());
    const Type *CondTy = checkExpr(R, RS->getCond());
    if (CondTy && !CondTy->isBoolean())
      error(RS->getCond()->getLoc(),
            "until condition must be boolean, got " + CondTy->str());
    if (RS->getUnitName().empty())
      RS->setUnitName(R->getName() + ".repeat#" +
                      std::to_string(++LoopCounter));
    return;
  }

  case Stmt::Kind::For: {
    auto *FS = cast<ForStmt>(S);
    if (!checkLValue(R, FS->getLoopVar(), "for-loop variable"))
      return;
    const Type *VarTy = FS->getLoopVar()->getType();
    if (VarTy && !VarTy->isInteger())
      error(FS->getLoopVar()->getLoc(), "for-loop variable must be integer");
    const Type *FromTy = checkExpr(R, FS->getFrom());
    if (FromTy && !FromTy->isInteger())
      error(FS->getFrom()->getLoc(), "for-loop start value must be integer");
    const Type *ToTy = checkExpr(R, FS->getTo());
    if (ToTy && !ToTy->isInteger())
      error(FS->getTo()->getLoc(), "for-loop end value must be integer");
    if (FS->getUnitName().empty())
      FS->setUnitName(R->getName() + ".for#" + std::to_string(++LoopCounter));
    checkStmt(R, FS->getBody());
    return;
  }

  case Stmt::Kind::ProcCall: {
    auto *PC = cast<ProcCallStmt>(S);
    RoutineDecl *Callee = lookupRoutine(R, PC->getCalleeName());
    if (!Callee) {
      error(PC->getLoc(), "call to undeclared routine '" +
                              PC->getCalleeName() + "'");
      return;
    }
    PC->setCallee(Callee);
    checkCallArgs(R, Callee, PC->getArgs(), PC->getLoc());
    return;
  }

  case Stmt::Kind::Goto: {
    auto *GS = cast<GotoStmt>(S);
    RoutineDecl *Target = lookupLabel(R, GS->getLabel());
    if (!Target) {
      error(GS->getLoc(), "goto to undeclared label " +
                              std::to_string(GS->getLabel()));
      return;
    }
    GS->setTargetRoutine(Target);
    GS->setNonLocal(Target != R);
    return;
  }

  case Stmt::Kind::Labeled:
    checkStmt(R, cast<LabeledStmt>(S)->getSub());
    return;

  case Stmt::Kind::Read: {
    auto *RS = cast<ReadStmt>(S);
    for (const ExprPtr &T : RS->getTargets()) {
      if (!checkLValue(R, T.get(), "read target"))
        continue;
      const Type *Ty = T->getType();
      if (Ty && !Ty->isInteger())
        error(T->getLoc(), "read target must be integer, got " + Ty->str());
    }
    return;
  }

  case Stmt::Kind::Write: {
    auto *WS = cast<WriteStmt>(S);
    for (const ExprPtr &A : WS->getArgs()) {
      const Type *Ty = checkExpr(R, A.get());
      if (Ty && Ty->isArray())
        error(A->getLoc(), "cannot write an entire array");
    }
    return;
  }

  case Stmt::Kind::Empty:
    return;
  }
}

bool SemaPass::checkLValue(RoutineDecl *R, Expr *E, const char *What) {
  if (auto *VR = dyn_cast<VarRefExpr>(E)) {
    VarDecl *D = lookupVar(R, VR->getName());
    if (!D) {
      // A reference to the enclosing function's name denotes its result.
      for (RoutineDecl *Scope = R; Scope; Scope = Scope->getParent())
        if (Scope->isFunction() && Scope->getName() == VR->getName()) {
          D = Scope->getResultVar();
          break;
        }
    }
    if (!D) {
      error(VR->getLoc(),
            std::string("undeclared variable '") + VR->getName() + "'");
      return false;
    }
    VR->setDecl(D);
    VR->setType(D->getType());
    return true;
  }
  if (auto *IE = dyn_cast<IndexExpr>(E)) {
    if (!checkLValue(R, IE->getBase(), What))
      return false;
    const Type *BaseTy = IE->getBase()->getType();
    if (BaseTy && !BaseTy->isArray()) {
      error(IE->getLoc(), "indexed value is not an array");
      return false;
    }
    const Type *IdxTy = checkExpr(R, IE->getIndex());
    if (IdxTy && !IdxTy->isInteger())
      error(IE->getIndex()->getLoc(), "array index must be integer");
    if (BaseTy)
      IE->setType(BaseTy->getElementType());
    return true;
  }
  error(E->getLoc(), std::string(What) + " must be a variable or array element");
  return false;
}

void SemaPass::checkCallArgs(RoutineDecl *R, RoutineDecl *Callee,
                             std::vector<ExprPtr> &Args, SourceLoc Loc) {
  const auto &Params = Callee->getParams();
  if (Args.size() != Params.size()) {
    error(Loc, "call to " + Callee->getName() + " passes " +
                   std::to_string(Args.size()) + " arguments, expected " +
                   std::to_string(Params.size()));
    return;
  }
  for (size_t I = 0, N = Args.size(); I != N; ++I) {
    VarDecl *Param = Params[I].get();
    Expr *Arg = Args[I].get();
    const Type *ArgTy;
    if (Param->isReference()) {
      // var/out arguments must be designators.
      if (!isa<VarRefExpr>(Arg) && !isa<IndexExpr>(Arg)) {
        error(Arg->getLoc(), "argument for var parameter '" +
                                 Param->getName() + "' must be a variable");
        continue;
      }
      if (!checkLValue(R, Arg, "var argument"))
        continue;
      ArgTy = Arg->getType();
    } else {
      ArgTy = checkExpr(R, Arg);
    }
    if (ArgTy && !Param->getType()->isAssignableFrom(ArgTy))
      error(Arg->getLoc(), "argument " + std::to_string(I + 1) + " of " +
                               Callee->getName() + " has type " +
                               ArgTy->str() + ", expected " +
                               Param->getType()->str());
  }
}

const Type *SemaPass::checkExpr(RoutineDecl *R, Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    E->setType(intTy());
    return E->getType();
  case Expr::Kind::BoolLiteral:
    E->setType(boolTy());
    return E->getType();
  case Expr::Kind::StringLiteral:
    E->setType(P.types().getStringType());
    return E->getType();

  case Expr::Kind::ArrayLiteral: {
    auto *AL = cast<ArrayLiteralExpr>(E);
    for (const ExprPtr &Elem : AL->getElements()) {
      const Type *Ty = checkExpr(R, Elem.get());
      if (Ty && !Ty->isInteger())
        error(Elem->getLoc(), "array constructor elements must be integers");
    }
    E->setType(P.types().getArrayType(
        intTy(), 1, static_cast<int64_t>(AL->getElements().size())));
    return E->getType();
  }

  case Expr::Kind::VarRef:
  case Expr::Kind::Index:
    if (!checkLValue(R, E, "expression"))
      return nullptr;
    return E->getType();

  case Expr::Kind::Call: {
    auto *CE = cast<CallExpr>(E);
    RoutineDecl *Callee = lookupRoutine(R, CE->getCalleeName());
    if (!Callee) {
      error(CE->getLoc(), "call to undeclared routine '" +
                              CE->getCalleeName() + "'");
      return nullptr;
    }
    if (!Callee->isFunction()) {
      error(CE->getLoc(), "procedure '" + Callee->getName() +
                              "' cannot be called in an expression");
      return nullptr;
    }
    CE->setCallee(Callee);
    checkCallArgs(R, Callee, CE->getArgs(), CE->getLoc());
    CE->setType(Callee->getReturnType());
    return E->getType();
  }

  case Expr::Kind::Unary: {
    auto *UE = cast<UnaryExpr>(E);
    const Type *OpTy = checkExpr(R, UE->getOperand());
    if (!OpTy)
      return nullptr;
    if (UE->getOp() == UnaryOp::Neg) {
      if (!OpTy->isInteger()) {
        error(UE->getLoc(), "unary '-' requires an integer operand");
        return nullptr;
      }
      E->setType(intTy());
    } else {
      if (!OpTy->isBoolean()) {
        error(UE->getLoc(), "'not' requires a boolean operand");
        return nullptr;
      }
      E->setType(boolTy());
    }
    return E->getType();
  }

  case Expr::Kind::Binary: {
    auto *BE = cast<BinaryExpr>(E);
    const Type *L = checkExpr(R, BE->getLHS());
    const Type *Rt = checkExpr(R, BE->getRHS());
    if (!L || !Rt)
      return nullptr;
    switch (BE->getOp()) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      if (!L->isInteger() || !Rt->isInteger()) {
        error(BE->getLoc(), std::string("operator '") +
                                binaryOpSpelling(BE->getOp()) +
                                "' requires integer operands");
        return nullptr;
      }
      E->setType(intTy());
      return E->getType();
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (!(L->isInteger() && Rt->isInteger()) &&
          !(L->isBoolean() && Rt->isBoolean())) {
        error(BE->getLoc(), "'='/'<>' operands must both be integer or both "
                            "boolean");
        return nullptr;
      }
      E->setType(boolTy());
      return E->getType();
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!L->isInteger() || !Rt->isInteger()) {
        error(BE->getLoc(), std::string("operator '") +
                                binaryOpSpelling(BE->getOp()) +
                                "' requires integer operands");
        return nullptr;
      }
      E->setType(boolTy());
      return E->getType();
    case BinaryOp::And:
    case BinaryOp::Or:
      if (!L->isBoolean() || !Rt->isBoolean()) {
        error(BE->getLoc(), std::string("operator '") +
                                binaryOpSpelling(BE->getOp()) +
                                "' requires boolean operands");
        return nullptr;
      }
      E->setType(boolTy());
      return E->getType();
    }
    return nullptr;
  }
  }
  return nullptr;
}

} // namespace

bool gadt::pascal::analyze(Program &P, DiagnosticsEngine &Diags) {
  SemaPass Pass(P, Diags);
  bool Ok = Pass.run();
  if (Ok) {
    assignNodeIds(P);
    assignStorageSlots(P);
  }
  return Ok;
}
