//===- SpecParser.h - Parser for T-GEN specifications -----------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the T-GEN specification language (see TestSpec.h for the
/// grammar). The spec parser derives from the Pascal parser: `when`
/// classifiers, `gen` bindings, `if` selectors and debugger assertions are
/// Pascal expressions, parsed by pascal::Parser::parseExpr with Pascal's
/// operator precedence (relations bind loosest, `and` with `*`, `or` with
/// `+`) under its nesting limit.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TGEN_SPECPARSER_H
#define GADT_TGEN_SPECPARSER_H

#include "support/Diagnostics.h"
#include "tgen/TestSpec.h"

#include <cstdint>
#include <memory>
#include <string_view>

namespace gadt {
namespace tgen {

/// The most categories a specification may declare: parseSpec rejects more
/// with a diagnostic. generateFrames recurses once per category, and every
/// frame holds one choice name per category, so an unbounded category list
/// could exhaust the stack or memory. The largest shipped spec (arrsum) has
/// 3 categories.
constexpr size_t MaxCategoriesPerSpec = 100;

/// The most frames a specification may generate: parseSpec rejects a spec
/// whose frame count can exceed it, counting the product of the ordinary
/// choices per category plus one frame per SINGLE or ERROR choice (an upper
/// bound on what generateFrames enumerates). Every frame becomes a test
/// case to run and a report-database entry, and a few dozen two-choice
/// categories ask for more frames than memory holds. The largest shipped
/// spec (arrsum) has a bound of 20 frames and generates 8.
constexpr uint64_t MaxFramesPerSpec = 10000;

/// Parses one specification. Returns null (with diagnostics) on error.
std::unique_ptr<TestSpec> parseSpec(std::string_view Source,
                                    DiagnosticsEngine &Diags);

/// Parses a standalone classifier or assertion expression
/// ("(r1 = r2 * 2) and (b >= 0)"), with the grammar of `when` clauses.
/// Returns null (with diagnostics) on error.
pascal::ExprPtr parseClassifierExpr(std::string_view Source,
                                    DiagnosticsEngine &Diags);

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_SPECPARSER_H
