//===- AssertionOracle.cpp - Assertion-based oracle -----------------------===//

#include "core/AssertionOracle.h"

#include "support/Casting.h"
#include "tgen/ConstEval.h"
#include "tgen/SpecParser.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::pascal;
using namespace gadt::trace;

namespace {

/// A value's type as an assertion's literals, operators and declared names
/// determine it; Unknown where only the bindings at judge time tell.
enum class Ty : uint8_t { Unknown, Int, Bool, Str };

bool fits(Ty T, Ty Want) { return T == Ty::Unknown || T == Want; }

/// True when \p Name is a unit name an execution of \p P can show: a
/// routine's name, or a loop unit's name as Sema assigns it
/// (`<routine>.while#<n>`, `.repeat#<n>`, `.for#<n>`).
bool hasUnit(const Program &P, const std::string &Name) {
  bool Found = false;
  forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
    Found = Found || R->getName() == Name;
    if (Found || !R->getBody())
      return;
    forEachStmt(R->getBody(), [&](Stmt *S) {
      if (const auto *W = dyn_cast<WhileStmt>(S))
        Found = Found || W->getUnitName() == Name;
      else if (const auto *Rp = dyn_cast<RepeatStmt>(S))
        Found = Found || Rp->getUnitName() == Name;
      else if (const auto *F = dyn_cast<ForStmt>(S))
        Found = Found || F->getUnitName() == Name;
    });
  });
  return Found;
}

/// The declared type of \p E when it is a name as \p Unit's body resolves
/// it (its parameters, result and locals, then the enclosing scopes;
/// `in_<name>` is the input value of `<name>`) or an element of one; null
/// otherwise.
const Type *declaredType(const Expr *E, const RoutineDecl *Unit) {
  if (const auto *IE = dyn_cast<IndexExpr>(E)) {
    const Type *Base = declaredType(IE->getBase(), Unit);
    return Base && Base->isArray() ? Base->getElementType() : nullptr;
  }
  const auto *VR = dyn_cast<VarRefExpr>(E);
  if (!VR || !Unit)
    return nullptr;
  auto Lookup = [Unit](const std::string &N) -> const VarDecl * {
    for (const RoutineDecl *S = Unit; S; S = S->getParent())
      if (const VarDecl *D = S->findLocal(N))
        return D;
    return nullptr;
  };
  const VarDecl *D = Lookup(VR->getName());
  if (!D && VR->getName().rfind("in_", 0) == 0)
    D = Lookup(VR->getName().substr(3));
  return D ? D->getType() : nullptr;
}

/// The type a value of declared type \p T has in an assertion.
Ty tyOf(const Type *T) {
  if (!T || T->isArray())
    return Ty::Unknown;
  return T->isInteger() ? Ty::Int : T->isBoolean() ? Ty::Bool : Ty::Str;
}

/// Types \p E bottom-up under the operator rules evalClosedExpr applies,
/// with names typed by \p Unit's declarations (untyped without one).
/// Reports the first operator whose operands cannot have the types it
/// needs and returns nullopt: such an assertion is undefined on every
/// call.
std::optional<Ty> typeOf(const Expr *E, const RoutineDecl *Unit,
                         DiagnosticsEngine &Diags) {
  auto Reject = [&](const std::string &Message) -> std::optional<Ty> {
    Diags.error(E->getLoc(), Message);
    return std::nullopt;
  };
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return Ty::Int;
  case Expr::Kind::BoolLiteral:
    return Ty::Bool;
  case Expr::Kind::StringLiteral:
    return Ty::Str;
  case Expr::Kind::VarRef:
    return tyOf(declaredType(E, Unit));
  case Expr::Kind::Call:
  case Expr::Kind::ArrayLiteral:
    return Ty::Unknown;
  case Expr::Kind::Index: {
    std::optional<Ty> I =
        typeOf(cast<IndexExpr>(E)->getIndex(), Unit, Diags);
    if (!I)
      return std::nullopt;
    if (!fits(*I, Ty::Int))
      return Reject("array index must be an integer");
    return tyOf(declaredType(E, Unit));
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    std::optional<Ty> T = typeOf(UE->getOperand(), Unit, Diags);
    if (!T)
      return std::nullopt;
    Ty Want = UE->getOp() == UnaryOp::Neg ? Ty::Int : Ty::Bool;
    if (!fits(*T, Want))
      return Reject(Want == Ty::Int ? "unary '-' requires an integer operand"
                                    : "'not' requires a boolean operand");
    return Want;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    std::optional<Ty> L = typeOf(BE->getLHS(), Unit, Diags);
    if (!L)
      return std::nullopt;
    std::optional<Ty> R = typeOf(BE->getRHS(), Unit, Diags);
    if (!R)
      return std::nullopt;
    std::string Op = std::string("operator '") +
                     binaryOpSpelling(BE->getOp()) + "' requires ";
    switch (BE->getOp()) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (*L != Ty::Unknown && *R != Ty::Unknown && *L != *R)
        return Reject(Op + "operands of one type");
      return Ty::Bool;
    case BinaryOp::And:
    case BinaryOp::Or:
      if (!fits(*L, Ty::Bool) || !fits(*R, Ty::Bool))
        return Reject(Op + "boolean operands");
      return Ty::Bool;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!fits(*L, Ty::Int) || !fits(*R, Ty::Int))
        return Reject(Op + "integer operands");
      return Ty::Bool;
    default: // + - * div mod
      if (!fits(*L, Ty::Int) || !fits(*R, Ty::Int))
        return Reject(Op + "integer operands");
      return Ty::Int;
    }
  }
  }
  return Ty::Unknown;
}

} // namespace

struct AssertionOracle::Entry {
  pascal::ExprPtr Expr;
  Strength S;
  std::string Text;
};

bool AssertionOracle::addAssertion(const std::string &UnitName,
                                   const std::string &ExprText, Strength S,
                                   DiagnosticsEngine &Diags) {
  if (Names && !hasUnit(*Names, UnitName)) {
    Diags.error(SourceLoc(),
                "no routine or loop unit named '" + UnitName + "'");
    return false;
  }
  pascal::ExprPtr E = tgen::parseClassifierExpr(ExprText, Diags);
  if (!E)
    return false;
  std::optional<Ty> T = typeOf(
      E.get(), Names ? findRoutine(*Names, UnitName) : nullptr, Diags);
  if (!T)
    return false;
  if (!fits(*T, Ty::Bool)) {
    Diags.error(E->getLoc(), "an assertion must be a boolean expression");
    return false;
  }
  auto Ent = std::make_shared<Entry>();
  Ent->Expr = std::move(E);
  Ent->S = S;
  Ent->Text = ExprText;
  ByUnit[UnitName].push_back(std::move(Ent));
  ++Count;
  return true;
}

Judgement AssertionOracle::judge(const ExecNode &N) {
  auto It = ByUnit.find(N.getName());
  if (It == ByUnit.end())
    return Judgement::dontKnow();

  // Environment: inputs by name (also under in_<name>), then outputs by
  // name (shadowing inputs of the same name, e.g. var parameters).
  tgen::ValueEnv Env;
  for (const interp::Binding &B : N.getInputs()) {
    Env[B.Name] = B.V;
    Env["in_" + B.Name.str()] = B.V;
  }
  for (const interp::Binding &B : N.getOutputs())
    Env[B.Name] = B.V;

  for (const auto &Ent : It->second) {
    auto Holds = tgen::evalPredicate(Ent->Expr.get(), Env);
    if (!Holds)
      continue; // undefined over these bindings: no conclusion
    if (Ent->S == Strength::Specification)
      return *Holds ? Judgement::correct("assertion")
                    : Judgement::incorrect("assertion");
    if (!*Holds)
      return Judgement::incorrect("assertion");
  }
  return Judgement::dontKnow();
}
