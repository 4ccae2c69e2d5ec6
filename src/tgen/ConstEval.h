//===- ConstEval.h - Closed expression evaluation ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates a Pascal expression over a flat name->value environment — the
/// engine behind `when` classifiers (feature variables from concrete call
/// inputs), `gen` bindings (tgen/Generator.h) and user assertions about
/// unit behaviour (paper Section 3, [Drabent, et al-88]-style assertions
/// over input/output bindings). It defines every operator as the VM does.
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
/// unbound name, an index outside its array, an unsupported construct
/// (calls, array constructors), mixes types, or fails where the VM reports
/// a runtime error (interp::intDivMod: a zero divisor, INT64_MIN div -1).
/// Integer +, - and * and negation wrap on overflow, as in the VM
/// (interp::intArith). This is the reference the VM is tested against
/// (ClosedExprDifferential in tests/DifferentialTest.cpp).
std::optional<interp::Value> evalClosedExpr(const pascal::Expr *E,
                                            const ValueEnv &Env);

/// Applies \p Op to an evaluated operand, as evalClosedExpr does at a unary
/// node.
std::optional<interp::Value> applyUnary(pascal::UnaryOp Op,
                                        const interp::Value &V);

/// Applies \p Op to evaluated operands, as evalClosedExpr does at a binary
/// node.
std::optional<interp::Value> applyBinary(pascal::BinaryOp Op,
                                         const interp::Value &L,
                                         const interp::Value &R);

/// Convenience: evaluates and requires a boolean result.
std::optional<bool> evalPredicate(const pascal::Expr *E,
                                  const ValueEnv &Env);

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_CONSTEVAL_H
