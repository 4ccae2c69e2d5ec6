//===- Generator.cpp - Executable test cases from specifications ----------===//

#include "tgen/Generator.h"

#include "pascal/Parser.h"
#include "support/Casting.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::interp;
using namespace gadt::pascal;

std::optional<Value> gadt::tgen::evalGenExpr(const Expr *E,
                                             const ValueEnv &Env) {
  if (const auto *CE = dyn_cast<CallExpr>(E)) {
    const std::string &Name = CE->getCalleeName();
    const auto &Args = CE->getArgs();

    if (Name == "fill") {
      if (Args.size() != 2)
        return std::nullopt;
      auto Count = evalGenExpr(Args[0].get(), Env);
      if (!Count || !Count->isInt() || Count->asInt() < 0 ||
          Count->asInt() > Parser::MaxArrayElements)
        return std::nullopt;
      ArrayVal Arr;
      Arr.Lo = 1;
      Arr.Hi = Count->asInt();
      ValueEnv Inner = Env;
      Value &Index = Inner["i"];
      for (int64_t I = 1; I <= Count->asInt(); ++I) {
        Index = Value::makeInt(I);
        auto Elem = evalGenExpr(Args[1].get(), Inner);
        if (!Elem || !Elem->isInt())
          return std::nullopt;
        Arr.Elems.push_back(Elem->asInt());
      }
      return Value::makeArray(std::move(Arr));
    }

    if (Name == "max" || Name == "min") {
      if (Args.size() != 2)
        return std::nullopt;
      auto L = evalGenExpr(Args[0].get(), Env);
      auto R = evalGenExpr(Args[1].get(), Env);
      if (!L || !R || !L->isInt() || !R->isInt())
        return std::nullopt;
      int64_t A = L->asInt(), B = R->asInt();
      return Value::makeInt(Name == "max" ? std::max(A, B)
                                          : std::min(A, B));
    }

    if (Name == "abs") {
      if (Args.size() != 1)
        return std::nullopt;
      auto V = evalGenExpr(Args[0].get(), Env);
      if (!V || !V->isInt())
        return std::nullopt;
      return Value::makeInt(V->asInt() < 0 ? intArith(IntOp::Neg, V->asInt())
                                            : V->asInt());
    }

    return std::nullopt; // unknown builtin
  }

  // Operator nodes recurse through *this* evaluator so nested builtin
  // calls work; leaves fall through to the closed evaluator.
  if (const auto *BE = dyn_cast<BinaryExpr>(E)) {
    auto L = evalGenExpr(BE->getLHS(), Env);
    auto R = evalGenExpr(BE->getRHS(), Env);
    if (!L || !R)
      return std::nullopt;
    return applyBinary(BE->getOp(), *L, *R);
  }
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    auto V = evalGenExpr(UE->getOperand(), Env);
    if (!V)
      return std::nullopt;
    return applyUnary(UE->getOp(), *V);
  }
  return evalClosedExpr(E, Env);
}

std::optional<std::vector<Value>>
gadt::tgen::instantiateFrame(const TestSpec &Spec, const TestFrame &Frame) {
  if (!Spec.hasGenerators())
    return std::nullopt;
  if (Frame.ChoiceNames.size() != Spec.Categories.size())
    return std::nullopt;

  // Evaluate the gen bindings of the frame's choices in category order.
  ValueEnv Env;
  for (size_t CI = 0; CI != Spec.Categories.size(); ++CI) {
    const Category &Cat = Spec.Categories[CI];
    const Choice *Ch = nullptr;
    for (const Choice &Candidate : Cat.Choices)
      if (Candidate.Name == Frame.ChoiceNames[CI])
        Ch = &Candidate;
    if (!Ch)
      return std::nullopt;
    for (const auto &[Name, ExprP] : Ch->Gens) {
      auto V = evalGenExpr(ExprP.get(), Env);
      if (!V)
        return std::nullopt;
      Env[Name] = std::move(*V);
    }
  }

  std::vector<Value> Args;
  for (const ParamSpec &P : Spec.Params) {
    if (P.IsOut) {
      Args.push_back(Value());
      continue;
    }
    auto It = Env.find(P.Name);
    if (It == Env.end())
      return std::nullopt; // ungenerated input parameter
    Args.push_back(It->second);
  }
  return Args;
}

FrameInstantiator gadt::tgen::specInstantiator(const TestSpec &Spec) {
  return [&Spec](const TestFrame &Frame) {
    return instantiateFrame(Spec, Frame);
  };
}
