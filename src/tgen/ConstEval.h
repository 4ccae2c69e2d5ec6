//===- ConstEval.h - Closed expression evaluation ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates a Pascal expression over a flat name->value environment — the
/// engine behind `when` classifiers (feature variables from concrete call
/// inputs) and user assertions about unit behaviour (paper Section 3,
/// [Drabent, et al-88]-style assertions over input/output bindings).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TGEN_CONSTEVAL_H
#define GADT_TGEN_CONSTEVAL_H

#include "interp/Value.h"
#include "pascal/AST.h"

#include <map>
#include <optional>
#include <string>

namespace gadt {
namespace tgen {

using ValueEnv = std::map<std::string, interp::Value>;

/// Evaluates \p E over \p Env. Returns nullopt when the expression uses an
/// unbound name, an unsupported construct (calls, indexing), divides by
/// zero, overflows a division (INT64_MIN div -1), or mixes types. Integer
/// +, - and * and negation wrap on overflow, as in the VM (interp::intArith).
std::optional<interp::Value> evalClosedExpr(const pascal::Expr *E,
                                            const ValueEnv &Env);

/// Convenience: evaluates and requires a boolean result.
std::optional<bool> evalPredicate(const pascal::Expr *E,
                                  const ValueEnv &Env);

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_CONSTEVAL_H
