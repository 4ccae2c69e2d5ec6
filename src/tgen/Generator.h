//===- Generator.h - Executable test cases from specifications -*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spec-driven test-case instantiation (paper Section 2: "By extending the
/// test specification with declarations and executable statements the
/// system can generate executable test cases from test frames"). A
/// specification that declares its parameters (`params a, n, out b;`) and
/// attaches `gen` bindings to its choices can turn every frame into
/// concrete argument values without host-language callbacks.
///
/// Generator expressions are Pascal expressions, like `when` classifiers,
/// whose calls name builtins:
///   fill(count, elem)  — array [1..count], elem evaluated with i = 1..count
///                        (count at most pascal::Parser::MaxArrayElements)
///   max(x, y), min(x, y), abs(x)
///
/// Bindings evaluate in category order; later bindings see (and may
/// override) earlier ones, so `type_of_elements` can use the `n` bound by
/// `size_of_array`.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TGEN_GENERATOR_H
#define GADT_TGEN_GENERATOR_H

#include "tgen/ConstEval.h"
#include "tgen/FrameGen.h"
#include "tgen/ReportDB.h"
#include "tgen/TestSpec.h"

#include <optional>
#include <vector>

namespace gadt {
namespace tgen {

/// Evaluates a generator expression (a Pascal expression whose calls are
/// fill/max/min/abs) over \p Env. Returns nullopt on unbound names or
/// invalid arguments.
std::optional<interp::Value> evalGenExpr(const pascal::Expr *E,
                                         const ValueEnv &Env);

/// Instantiates \p Frame into argument values for Spec.TestName using the
/// spec's own `params` and `gen` clauses. Out parameters become unset
/// values. Returns nullopt when the spec has no generators, when a frame
/// choice cannot be found, or when some non-out parameter ends up unbound.
std::optional<std::vector<interp::Value>>
instantiateFrame(const TestSpec &Spec, const TestFrame &Frame);

/// A FrameInstantiator backed by the spec itself — plug-compatible with
/// runTestSuite.
FrameInstantiator specInstantiator(const TestSpec &Spec);

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_GENERATOR_H
