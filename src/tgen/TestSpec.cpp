//===- TestSpec.cpp - T-GEN test specifications ---------------------------===//

#include "tgen/TestSpec.h"

using namespace gadt;
using namespace gadt::tgen;

Selector Selector::prop(std::string Name) {
  Selector S(Kind::Prop);
  S.PropName = std::move(Name);
  return S;
}

Selector Selector::notOf(Selector Sub) {
  Selector S(Kind::Not);
  S.LHS = std::make_shared<Selector>(std::move(Sub));
  return S;
}

Selector Selector::andOf(Selector L, Selector R) {
  Selector S(Kind::And);
  S.LHS = std::make_shared<Selector>(std::move(L));
  S.RHS = std::make_shared<Selector>(std::move(R));
  return S;
}

Selector Selector::orOf(Selector L, Selector R) {
  Selector S(Kind::Or);
  S.LHS = std::make_shared<Selector>(std::move(L));
  S.RHS = std::make_shared<Selector>(std::move(R));
  return S;
}

bool Selector::eval(const std::set<std::string> &Properties) const {
  switch (K) {
  case Kind::True:
    return true;
  case Kind::Prop:
    return Properties.count(PropName) != 0;
  case Kind::Not:
    return !LHS->eval(Properties);
  case Kind::And:
    return LHS->eval(Properties) && RHS->eval(Properties);
  case Kind::Or:
    return LHS->eval(Properties) || RHS->eval(Properties);
  }
  return true;
}

std::string Selector::str() const {
  switch (K) {
  case Kind::True:
    return "true";
  case Kind::Prop:
    return PropName;
  case Kind::Not:
    return "not " + LHS->str();
  case Kind::And:
  case Kind::Or: {
    std::string Out = "(";
    Out += LHS->str();
    Out += K == Kind::And ? " and " : " or ";
    Out += RHS->str();
    Out += ')';
    return Out;
  }
  }
  return "?";
}

const Category *TestSpec::findCategory(const std::string &Name) const {
  for (const Category &C : Categories)
    if (C.Name == Name)
      return &C;
  return nullptr;
}

bool TestSpec::hasGenerators() const {
  if (Params.empty())
    return false;
  for (const Category &C : Categories)
    for (const Choice &Ch : C.Choices)
      if (!Ch.Gens.empty())
        return true;
  return false;
}
