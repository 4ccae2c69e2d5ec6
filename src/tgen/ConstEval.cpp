//===- ConstEval.cpp - Closed expression evaluation -----------------------===//

#include "tgen/ConstEval.h"

#include "support/Casting.h"

#include <cstdint>

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::interp;
using namespace gadt::pascal;

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
    auto Op = evalClosedExpr(UE->getOperand(), Env);
    if (!Op)
      return std::nullopt;
    if (UE->getOp() == UnaryOp::Neg) {
      if (!Op->isInt())
        return std::nullopt;
      return Value::makeInt(intArith(IntOp::Neg, Op->asInt()));
    }
    if (!Op->isBool())
      return std::nullopt;
    return Value::makeBool(!Op->asBool());
  }

  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    auto L = evalClosedExpr(BE->getLHS(), Env);
    auto R = evalClosedExpr(BE->getRHS(), Env);
    if (!L || !R)
      return std::nullopt;
    switch (BE->getOp()) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod: {
      if (!L->isInt() || !R->isInt())
        return std::nullopt;
      int64_t A = L->asInt(), B = R->asInt();
      switch (BE->getOp()) {
      case BinaryOp::Add:
        return Value::makeInt(intArith(IntOp::Add, A, B));
      case BinaryOp::Sub:
        return Value::makeInt(intArith(IntOp::Sub, A, B));
      case BinaryOp::Mul:
        return Value::makeInt(intArith(IntOp::Mul, A, B));
      case BinaryOp::Div:
        // The VM's runtime errors are undefined here: a zero divisor, and
        // INT64_MIN div -1, the one quotient int64 cannot hold.
        if (B == 0 || (B == -1 && A == INT64_MIN))
          return std::nullopt;
        return Value::makeInt(A / B);
      case BinaryOp::Mod:
        if (B == 0)
          return std::nullopt;
        // x mod -1 is 0 for every x; INT64_MIN % -1 would trap.
        return Value::makeInt(B == -1 ? 0 : A % B);
      default:
        return std::nullopt;
      }
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      if (L->kind() != R->kind())
        return std::nullopt;
      bool Equal = L->equals(*R);
      return Value::makeBool(BE->getOp() == BinaryOp::Eq ? Equal : !Equal);
    }
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      if (!L->isInt() || !R->isInt())
        return std::nullopt;
      int64_t A = L->asInt(), B = R->asInt();
      switch (BE->getOp()) {
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
      if (!L->isBool() || !R->isBool())
        return std::nullopt;
      return Value::makeBool(BE->getOp() == BinaryOp::And
                                 ? (L->asBool() && R->asBool())
                                 : (L->asBool() || R->asBool()));
    }
    }
    return std::nullopt;
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
