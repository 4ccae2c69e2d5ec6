//===- TestSpec.cpp - T-GEN test specifications ---------------------------===//

#include "tgen/TestSpec.h"

#include "support/Casting.h"

using namespace gadt;
using namespace gadt::tgen;

namespace {

/// \p E holds over \p Properties; \p E is a checked selector expression.
bool holds(const pascal::Expr *E, const std::set<std::string> &Properties) {
  if (const auto *UE = dyn_cast<pascal::UnaryExpr>(E))
    return !holds(UE->getOperand(), Properties);
  if (const auto *BE = dyn_cast<pascal::BinaryExpr>(E)) {
    bool LHS = holds(BE->getLHS(), Properties);
    return BE->getOp() == pascal::BinaryOp::And
               ? LHS && holds(BE->getRHS(), Properties)
               : LHS || holds(BE->getRHS(), Properties);
  }
  return Properties.count(cast<pascal::VarRefExpr>(E)->getName()) != 0;
}

} // namespace

bool Selector::eval(const std::set<std::string> &Properties) const {
  return !E || holds(E.get(), Properties);
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
