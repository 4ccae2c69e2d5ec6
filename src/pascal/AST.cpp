//===- AST.cpp - Pascal abstract syntax tree ------------------------------===//

#include "pascal/AST.h"

#include <unordered_map>

using namespace gadt;
using namespace gadt::pascal;

//===----------------------------------------------------------------------===//
// Spellings
//===----------------------------------------------------------------------===//

const char *gadt::pascal::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "div";
  case BinaryOp::Mod:
    return "mod";
  case BinaryOp::Eq:
    return "=";
  case BinaryOp::Ne:
    return "<>";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "and";
  case BinaryOp::Or:
    return "or";
  }
  return "?";
}

const char *gadt::pascal::paramModeSpelling(ParamMode Mode) {
  switch (Mode) {
  case ParamMode::Value:
    return "";
  case ParamMode::Var:
    return "var";
  case ParamMode::In:
    return "in";
  case ParamMode::Out:
    return "out";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Expr::str
//===----------------------------------------------------------------------===//

namespace {

/// Binding strengths, used to decide parenthesization when rendering: the
/// parser's three binary levels (Parser.cpp parseExpr, parseSimpleExpr,
/// parseTerm), each left-associative, and the operands of unary operators
/// and indexing above them.
enum : int { RelPrec = 1, AddPrec = 2, MulPrec = 3, UnaryPrec = 4 };

int precedenceOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return RelPrec;
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Or:
    return AddPrec;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Mod:
  case BinaryOp::And:
    return MulPrec;
  }
  return 0;
}

/// Whether \p E renders with a leading minus sign.
bool printsSign(const Expr *E) {
  if (const auto *UE = dyn_cast<UnaryExpr>(E))
    return UE->getOp() == UnaryOp::Neg;
  if (const auto *IL = dyn_cast<IntLiteralExpr>(E))
    return IL->getValue() < 0;
  return false;
}

void renderExpr(const Expr *E, std::string &Out, int ParentPrec) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    Out += std::to_string(cast<IntLiteralExpr>(E)->getValue());
    return;
  case Expr::Kind::BoolLiteral:
    Out += cast<BoolLiteralExpr>(E)->getValue() ? "true" : "false";
    return;
  case Expr::Kind::StringLiteral:
    Out += '\'';
    Out += cast<StringLiteralExpr>(E)->getValue();
    Out += '\'';
    return;
  case Expr::Kind::ArrayLiteral: {
    const auto *AL = cast<ArrayLiteralExpr>(E);
    Out += '[';
    for (size_t I = 0, N = AL->getElements().size(); I != N; ++I) {
      if (I != 0)
        Out += ", ";
      renderExpr(AL->getElements()[I].get(), Out, 0);
    }
    Out += ']';
    return;
  }
  case Expr::Kind::VarRef:
    Out += cast<VarRefExpr>(E)->getName();
    return;
  case Expr::Kind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    renderExpr(IE->getBase(), Out, UnaryPrec);
    Out += '[';
    renderExpr(IE->getIndex(), Out, 0);
    Out += ']';
    return;
  }
  case Expr::Kind::Call: {
    const auto *CE = cast<CallExpr>(E);
    Out += CE->getCalleeName();
    Out += '(';
    for (size_t I = 0, N = CE->getArgs().size(); I != N; ++I) {
      if (I != 0)
        Out += ", ";
      renderExpr(CE->getArgs()[I].get(), Out, 0);
    }
    Out += ')';
    return;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    Out += UE->getOp() == UnaryOp::Neg ? "-" : "not ";
    renderExpr(UE->getOperand(), Out, UnaryPrec);
    return;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    int Prec = precedenceOf(BE->getOp());
    bool Paren = Prec < ParentPrec;
    if (Paren)
      Out += '(';
    // A leading minus on the left of a multiplying operator would reparse
    // as the sign of the whole term (`-a * b` is `-(a * b)`).
    bool SignParen = Prec == MulPrec && printsSign(BE->getLHS());
    if (SignParen)
      Out += '(';
    renderExpr(BE->getLHS(), Out, Prec);
    if (SignParen)
      Out += ')';
    Out += ' ';
    Out += binaryOpSpelling(BE->getOp());
    Out += ' ';
    renderExpr(BE->getRHS(), Out, Prec + 1);
    if (Paren)
      Out += ')';
    return;
  }
  }
}

} // namespace

std::string Expr::str() const {
  std::string Out;
  renderExpr(this, Out, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// clone implementations
//===----------------------------------------------------------------------===//

static std::vector<ExprPtr> cloneExprs(const std::vector<ExprPtr> &Exprs) {
  std::vector<ExprPtr> Out;
  Out.reserve(Exprs.size());
  for (const ExprPtr &E : Exprs)
    Out.push_back(E->clone());
  return Out;
}

static std::vector<StmtPtr> cloneStmts(const std::vector<StmtPtr> &Stmts) {
  std::vector<StmtPtr> Out;
  Out.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts)
    Out.push_back(S->clone());
  return Out;
}

ExprPtr IntLiteralExpr::clone() const {
  auto E = std::make_unique<IntLiteralExpr>(getLoc(), Value);
  E->setType(getType());
  return E;
}

ExprPtr BoolLiteralExpr::clone() const {
  auto E = std::make_unique<BoolLiteralExpr>(getLoc(), Value);
  E->setType(getType());
  return E;
}

ExprPtr StringLiteralExpr::clone() const {
  auto E = std::make_unique<StringLiteralExpr>(getLoc(), Value);
  E->setType(getType());
  return E;
}

ExprPtr ArrayLiteralExpr::clone() const {
  auto E = std::make_unique<ArrayLiteralExpr>(getLoc(), cloneExprs(Elements));
  E->setType(getType());
  return E;
}

ExprPtr VarRefExpr::clone() const {
  auto E = std::make_unique<VarRefExpr>(getLoc(), Name);
  E->setDecl(Decl);
  E->setType(getType());
  return E;
}

ExprPtr IndexExpr::clone() const {
  auto E = std::make_unique<IndexExpr>(getLoc(), Base->clone(),
                                       IndexE->clone());
  E->setType(getType());
  return E;
}

ExprPtr CallExpr::clone() const {
  auto E = std::make_unique<CallExpr>(getLoc(), CalleeName, cloneExprs(Args));
  E->setCallee(Callee);
  E->setType(getType());
  return E;
}

ExprPtr UnaryExpr::clone() const {
  auto E = std::make_unique<UnaryExpr>(getLoc(), Op, Operand->clone());
  E->setType(getType());
  return E;
}

ExprPtr BinaryExpr::clone() const {
  auto E =
      std::make_unique<BinaryExpr>(getLoc(), Op, LHS->clone(), RHS->clone());
  E->setType(getType());
  return E;
}

StmtPtr AssignStmt::clone() const {
  return std::make_unique<AssignStmt>(getLoc(), Target->clone(),
                                      Value->clone());
}

StmtPtr CompoundStmt::clone() const { return cloneCompound(); }

std::unique_ptr<CompoundStmt> CompoundStmt::cloneCompound() const {
  return std::make_unique<CompoundStmt>(getLoc(), cloneStmts(Body));
}

StmtPtr IfStmt::clone() const {
  return std::make_unique<IfStmt>(getLoc(), Cond->clone(), Then->clone(),
                                  Else ? Else->clone() : nullptr);
}

StmtPtr WhileStmt::clone() const {
  auto S = std::make_unique<WhileStmt>(getLoc(), Cond->clone(), Body->clone());
  S->setUnitName(UnitName);
  return S;
}

StmtPtr RepeatStmt::clone() const {
  auto S = std::make_unique<RepeatStmt>(getLoc(), cloneStmts(Body),
                                        Cond->clone());
  S->setUnitName(UnitName);
  return S;
}

StmtPtr ForStmt::clone() const {
  auto S = std::make_unique<ForStmt>(getLoc(), LoopVar->clone(), From->clone(),
                                     To->clone(), Downward, Body->clone());
  S->setUnitName(UnitName);
  return S;
}

StmtPtr ProcCallStmt::clone() const {
  auto S =
      std::make_unique<ProcCallStmt>(getLoc(), CalleeName, cloneExprs(Args));
  S->setCallee(Callee);
  return S;
}

StmtPtr GotoStmt::clone() const {
  auto S = std::make_unique<GotoStmt>(getLoc(), Label);
  S->setTargetRoutine(TargetRoutine);
  S->setNonLocal(NonLocal);
  return S;
}

StmtPtr LabeledStmt::clone() const {
  return std::make_unique<LabeledStmt>(getLoc(), Label, Sub->clone());
}

StmtPtr ReadStmt::clone() const {
  return std::make_unique<ReadStmt>(getLoc(), cloneExprs(Targets));
}

StmtPtr WriteStmt::clone() const {
  return std::make_unique<WriteStmt>(getLoc(), cloneExprs(Args), Newline);
}

StmtPtr EmptyStmt::clone() const {
  return std::make_unique<EmptyStmt>(getLoc());
}

//===----------------------------------------------------------------------===//
// RoutineDecl
//===----------------------------------------------------------------------===//

std::string RoutineDecl::qualifiedName() const {
  if (!Parent)
    return Name;
  return Parent->qualifiedName() + "." + Name;
}

VarDecl *RoutineDecl::findLocal(const std::string &VarName) const {
  for (const auto &P : Params)
    if (P->getName() == VarName)
      return P.get();
  for (const auto &L : Locals)
    if (L->getName() == VarName)
      return L.get();
  if (ResultVar && ResultVar->getName() == VarName)
    return ResultVar.get();
  return nullptr;
}

RoutineDecl *RoutineDecl::findNested(const std::string &RoutineName) const {
  for (const auto &R : Nested)
    if (R->getName() == RoutineName)
      return R.get();
  return nullptr;
}

namespace {

/// Bookkeeping for cloneTree: old declaration -> new declaration.
struct CloneMaps {
  std::unordered_map<const VarDecl *, VarDecl *> Vars;
  std::unordered_map<const RoutineDecl *, RoutineDecl *> Routines;
};

std::unique_ptr<VarDecl> cloneVar(const VarDecl &V, CloneMaps &Maps) {
  auto NewV = std::make_unique<VarDecl>(V.getLoc(), V.getName(), V.getType(),
                                        V.getVarKind(), V.getMode());
  Maps.Vars[&V] = NewV.get();
  return NewV;
}

std::unique_ptr<RoutineDecl> cloneRoutineStructure(const RoutineDecl &R,
                                                   CloneMaps &Maps) {
  auto NewR = std::make_unique<RoutineDecl>(R.getLoc(), R.getName(),
                                            R.isFunction(), R.getReturnType());
  Maps.Routines[&R] = NewR.get();
  for (const auto &P : R.getParams()) {
    VarDecl *NP = NewR->addParam(cloneVar(*P, Maps));
    NP->setOwner(NewR.get());
  }
  for (const auto &L : R.getLocals()) {
    VarDecl *NL = NewR->addLocal(cloneVar(*L, Maps));
    NL->setOwner(NewR.get());
  }
  if (const VarDecl *RV = R.getResultVar()) {
    NewR->setResultVar(cloneVar(*RV, Maps));
    NewR->getResultVar()->setOwner(NewR.get());
  }
  NewR->getLabels() = R.getLabels();
  for (const auto &N : R.getNested()) {
    RoutineDecl *NN = NewR->addNested(cloneRoutineStructure(*N, Maps));
    NN->setParent(NewR.get());
  }
  if (R.getBody())
    NewR->setBody(R.getBody()->cloneCompound());
  return NewR;
}

void remapExpr(Expr *E, const CloneMaps &Maps) {
  forEachExprIn(E, [&Maps](Expr *Sub) {
    if (auto *VR = dyn_cast<VarRefExpr>(Sub)) {
      if (VR->getDecl()) {
        auto It = Maps.Vars.find(VR->getDecl());
        if (It != Maps.Vars.end())
          VR->setDecl(It->second);
      }
    } else if (auto *CE = dyn_cast<CallExpr>(Sub)) {
      if (CE->getCallee()) {
        auto It = Maps.Routines.find(CE->getCallee());
        if (It != Maps.Routines.end())
          CE->setCallee(It->second);
      }
    }
  });
}

void remapStmts(RoutineDecl *R, const CloneMaps &Maps) {
  if (R->getBody()) {
    forEachStmt(R->getBody(), [&Maps](Stmt *S) {
      if (auto *PC = dyn_cast<ProcCallStmt>(S)) {
        if (PC->getCallee()) {
          auto It = Maps.Routines.find(PC->getCallee());
          if (It != Maps.Routines.end())
            PC->setCallee(It->second);
        }
      } else if (auto *GS = dyn_cast<GotoStmt>(S)) {
        if (GS->getTargetRoutine()) {
          auto It = Maps.Routines.find(GS->getTargetRoutine());
          if (It != Maps.Routines.end())
            GS->setTargetRoutine(It->second);
        }
      }
    });
    forEachExpr(R->getBody(),
                [&Maps](Expr *E) { remapExpr(E, Maps); });
  }
  for (const auto &N : R->getNested())
    remapStmts(N.get(), Maps);
}

} // namespace

std::unique_ptr<RoutineDecl> RoutineDecl::cloneTree() const {
  CloneMaps Maps;
  std::unique_ptr<RoutineDecl> NewRoot = cloneRoutineStructure(*this, Maps);
  remapStmts(NewRoot.get(), Maps);
  return NewRoot;
}

std::unique_ptr<Program> Program::clone() const {
  auto NewP = std::make_unique<Program>();
  // Clones share our TypeContext: Type pointers inside the cloned AST point
  // into it, so the original program must outlive the clone.
  NewP->SharedTypes = SharedTypes ? SharedTypes : Types.get();
  NewP->TypeDefs = TypeDefs;
  NewP->setMain(Main->cloneTree());
  // Keep the clone immediately interpretable: the batch runtime caches
  // transformed clones and interprets one instance from many threads, so
  // the Interpreter's lazy slot assignment must never trigger on a shared
  // program (it would be a write race).
  if (SlotsAssigned)
    assignStorageSlots(*NewP);
  return NewP;
}

//===----------------------------------------------------------------------===//
// Traversal
//===----------------------------------------------------------------------===//

void gadt::pascal::forEachRoutine(
    RoutineDecl *Root, const std::function<void(RoutineDecl *)> &Fn) {
  Fn(Root);
  for (const auto &N : Root->getNested())
    forEachRoutine(N.get(), Fn);
}

RoutineDecl *gadt::pascal::findRoutine(const Program &P,
                                       const std::string &Name,
                                       bool *Ambiguous) {
  RoutineDecl *Found = nullptr;
  unsigned Matches = 0;
  size_t Dot = Name.find('.');
  if (Dot == std::string::npos) {
    forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
      if (R->getName() == Name) {
        Found = R;
        ++Matches;
      }
    });
  } else if (Name.compare(0, Dot, P.getMain()->getName()) == 0) {
    // A path: one nested routine per segment after the program's name.
    for (Found = P.getMain(); Found && Dot != std::string::npos;) {
      size_t Next = Name.find('.', Dot + 1);
      Found = Found->findNested(Name.substr(Dot + 1, Next - Dot - 1));
      Dot = Next;
    }
    Matches = Found != nullptr;
  }
  if (Ambiguous)
    *Ambiguous = Matches > 1;
  return Matches == 1 ? Found : nullptr;
}

void gadt::pascal::forEachStmt(Stmt *S,
                               const std::function<void(Stmt *)> &Fn) {
  if (!S)
    return;
  Fn(S);
  switch (S->getKind()) {
  case Stmt::Kind::Compound:
    for (const StmtPtr &Sub : cast<CompoundStmt>(S)->getBody())
      forEachStmt(Sub.get(), Fn);
    return;
  case Stmt::Kind::If: {
    auto *IS = cast<IfStmt>(S);
    forEachStmt(IS->getThen(), Fn);
    forEachStmt(IS->getElse(), Fn);
    return;
  }
  case Stmt::Kind::While:
    forEachStmt(cast<WhileStmt>(S)->getBody(), Fn);
    return;
  case Stmt::Kind::Repeat:
    for (const StmtPtr &Sub : cast<RepeatStmt>(S)->getBody())
      forEachStmt(Sub.get(), Fn);
    return;
  case Stmt::Kind::For:
    forEachStmt(cast<ForStmt>(S)->getBody(), Fn);
    return;
  case Stmt::Kind::Labeled:
    forEachStmt(cast<LabeledStmt>(S)->getSub(), Fn);
    return;
  case Stmt::Kind::Assign:
  case Stmt::Kind::ProcCall:
  case Stmt::Kind::Goto:
  case Stmt::Kind::Read:
  case Stmt::Kind::Write:
  case Stmt::Kind::Empty:
    return;
  }
}

void gadt::pascal::forEachExprIn(Expr *E,
                                 const std::function<void(Expr *)> &Fn) {
  if (!E)
    return;
  Fn(E);
  switch (E->getKind()) {
  case Expr::Kind::ArrayLiteral:
    for (const ExprPtr &Sub : cast<ArrayLiteralExpr>(E)->getElements())
      forEachExprIn(Sub.get(), Fn);
    return;
  case Expr::Kind::Index: {
    auto *IE = cast<IndexExpr>(E);
    forEachExprIn(IE->getBase(), Fn);
    forEachExprIn(IE->getIndex(), Fn);
    return;
  }
  case Expr::Kind::Call:
    for (const ExprPtr &Sub : cast<CallExpr>(E)->getArgs())
      forEachExprIn(Sub.get(), Fn);
    return;
  case Expr::Kind::Unary:
    forEachExprIn(cast<UnaryExpr>(E)->getOperand(), Fn);
    return;
  case Expr::Kind::Binary: {
    auto *BE = cast<BinaryExpr>(E);
    forEachExprIn(BE->getLHS(), Fn);
    forEachExprIn(BE->getRHS(), Fn);
    return;
  }
  case Expr::Kind::IntLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::StringLiteral:
  case Expr::Kind::VarRef:
    return;
  }
}

void gadt::pascal::forEachExpr(Stmt *S,
                               const std::function<void(Expr *)> &Fn) {
  forEachStmt(S, [&Fn](Stmt *Sub) {
    switch (Sub->getKind()) {
    case Stmt::Kind::Assign: {
      auto *AS = cast<AssignStmt>(Sub);
      forEachExprIn(AS->getTarget(), Fn);
      forEachExprIn(AS->getValue(), Fn);
      return;
    }
    case Stmt::Kind::If:
      forEachExprIn(cast<IfStmt>(Sub)->getCond(), Fn);
      return;
    case Stmt::Kind::While:
      forEachExprIn(cast<WhileStmt>(Sub)->getCond(), Fn);
      return;
    case Stmt::Kind::Repeat:
      forEachExprIn(cast<RepeatStmt>(Sub)->getCond(), Fn);
      return;
    case Stmt::Kind::For: {
      auto *FS = cast<ForStmt>(Sub);
      forEachExprIn(FS->getLoopVar(), Fn);
      forEachExprIn(FS->getFrom(), Fn);
      forEachExprIn(FS->getTo(), Fn);
      return;
    }
    case Stmt::Kind::ProcCall:
      for (const ExprPtr &Arg : cast<ProcCallStmt>(Sub)->getArgs())
        forEachExprIn(Arg.get(), Fn);
      return;
    case Stmt::Kind::Read:
      for (const ExprPtr &T : cast<ReadStmt>(Sub)->getTargets())
        forEachExprIn(T.get(), Fn);
      return;
    case Stmt::Kind::Write:
      for (const ExprPtr &A : cast<WriteStmt>(Sub)->getArgs())
        forEachExprIn(A.get(), Fn);
      return;
    case Stmt::Kind::Compound:
    case Stmt::Kind::Goto:
    case Stmt::Kind::Labeled:
    case Stmt::Kind::Empty:
      return;
    }
  });
}

uint32_t gadt::pascal::assignStorageSlots(Program &P) {
  uint32_t MaxSlots = 0;
  forEachRoutine(P.getMain(), [&MaxSlots](RoutineDecl *R) {
    uint32_t Depth = 0;
    for (const RoutineDecl *Up = R->getParent(); Up; Up = Up->getParent())
      ++Depth;
    std::vector<const VarDecl *> Decls;
    auto Place = [&](VarDecl *V) {
      V->setStorage(static_cast<uint32_t>(Decls.size()), Depth);
      Decls.push_back(V);
    };
    for (const auto &Param : R->getParams())
      Place(Param.get());
    for (const auto &Local : R->getLocals())
      Place(Local.get());
    if (VarDecl *Result = R->getResultVar())
      Place(Result);
    MaxSlots = std::max(MaxSlots, static_cast<uint32_t>(Decls.size()));
    R->setStorageLayout(Depth, std::move(Decls));
  });
  P.setSlotsAssigned(true);
  return MaxSlots;
}

unsigned gadt::pascal::assignNodeIds(Program &P) {
  unsigned Next = 1;
  std::vector<const void *> Table;
  Table.push_back(nullptr); // id 0 = unassigned
  forEachRoutine(P.getMain(), [&Next, &Table](RoutineDecl *R) {
    if (!R->getBody()) {
      R->setNodeIdRange(0, 0, 0);
      return;
    }
    unsigned First = Next;
    forEachStmt(R->getBody(), [&Next, &Table](Stmt *S) {
      S->setId(Next++);
      Table.push_back(S);
    });
    unsigned Stmts = Next - First;
    forEachExpr(R->getBody(), [&Next, &Table](Expr *E) {
      E->setId(Next++);
      Table.push_back(E);
    });
    R->setNodeIdRange(First, Stmts, Next - First);
  });
  P.setNodeTable(std::move(Table));
  return Next - 1;
}
