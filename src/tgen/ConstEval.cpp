//===- ConstEval.cpp - Closed expression evaluation -----------------------===//

#include "tgen/ConstEval.h"

#include "support/Casting.h"

#include <cstdint>

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::interp;
using namespace gadt::pascal;

std::optional<Value> gadt::tgen::applyUnary(UnaryOp Op, const Value &V) {
  if (Op == UnaryOp::Neg) {
    if (!V.isInt())
      return std::nullopt;
    return Value::makeInt(intArith(IntOp::Neg, V.asInt()));
  }
  if (!V.isBool())
    return std::nullopt;
  return Value::makeBool(!V.asBool());
}

std::optional<Value> gadt::tgen::applyBinary(BinaryOp Op, const Value &L,
                                             const Value &R) {
  switch (Op) {
  case BinaryOp::Add:
  case BinaryOp::Sub:
  case BinaryOp::Mul: {
    if (!L.isInt() || !R.isInt())
      return std::nullopt;
    IntOp IOp = Op == BinaryOp::Add   ? IntOp::Add
                : Op == BinaryOp::Sub ? IntOp::Sub
                                      : IntOp::Mul;
    return Value::makeInt(intArith(IOp, L.asInt(), R.asInt()));
  }
  case BinaryOp::Div:
  case BinaryOp::Mod: {
    // Where the VM fails (intDivMod returns its error) the value is
    // undefined.
    int64_t Out = 0;
    if (!L.isInt() || !R.isInt() ||
        intDivMod(Op == BinaryOp::Mod, L.asInt(), R.asInt(), Out))
      return std::nullopt;
    return Value::makeInt(Out);
  }
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    if (L.kind() != R.kind())
      return std::nullopt;
    bool Equal = L.equals(R);
    return Value::makeBool(Op == BinaryOp::Eq ? Equal : !Equal);
  }
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge: {
    if (!L.isInt() || !R.isInt())
      return std::nullopt;
    int64_t A = L.asInt(), B = R.asInt();
    switch (Op) {
    case BinaryOp::Lt:
      return Value::makeBool(A < B);
    case BinaryOp::Le:
      return Value::makeBool(A <= B);
    case BinaryOp::Gt:
      return Value::makeBool(A > B);
    default:
      return Value::makeBool(A >= B);
    }
  }
  case BinaryOp::And:
  case BinaryOp::Or: {
    if (!L.isBool() || !R.isBool())
      return std::nullopt;
    return Value::makeBool(Op == BinaryOp::And ? (L.asBool() && R.asBool())
                                               : (L.asBool() || R.asBool()));
  }
  }
  return std::nullopt;
}

std::optional<Value> gadt::tgen::evalClosedExpr(const Expr *E,
                                                const ValueEnv &Env) {
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    return Value::makeInt(cast<IntLiteralExpr>(E)->getValue());
  case Expr::Kind::BoolLiteral:
    return Value::makeBool(cast<BoolLiteralExpr>(E)->getValue());
  case Expr::Kind::StringLiteral:
    return Value::makeStr(cast<StringLiteralExpr>(E)->getValue());

  case Expr::Kind::VarRef: {
    auto It = Env.find(cast<VarRefExpr>(E)->getName());
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }

  case Expr::Kind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    const auto *Base = dyn_cast<VarRefExpr>(IE->getBase());
    if (!Base)
      return std::nullopt;
    auto It = Env.find(Base->getName());
    if (It == Env.end() || !It->second.isArray())
      return std::nullopt;
    auto Idx = evalClosedExpr(IE->getIndex(), Env);
    if (!Idx || !Idx->isInt())
      return std::nullopt;
    const ArrayVal &Arr = It->second.asArray();
    if (!Arr.inBounds(Idx->asInt()))
      return std::nullopt;
    return Value::makeInt(Arr.at(Idx->asInt()));
  }

  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    auto V = evalClosedExpr(UE->getOperand(), Env);
    if (!V)
      return std::nullopt;
    return applyUnary(UE->getOp(), *V);
  }

  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    auto L = evalClosedExpr(BE->getLHS(), Env);
    auto R = evalClosedExpr(BE->getRHS(), Env);
    if (!L || !R)
      return std::nullopt;
    return applyBinary(BE->getOp(), *L, *R);
  }

  case Expr::Kind::Call:
  case Expr::Kind::ArrayLiteral:
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<bool> gadt::tgen::evalPredicate(const Expr *E,
                                              const ValueEnv &Env) {
  auto V = evalClosedExpr(E, Env);
  if (!V || !V->isBool())
    return std::nullopt;
  return V->asBool();
}
