//===- AssertionOracle.h - Assertion-based oracle ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// User-supplied assertions about intended unit behaviour, in the style of
/// [Drabent, Nadjm-Tehrani, Maluszynski 1988] which the paper adopts:
/// "Assertions in this model are expressed in terms of Boolean expressions,
/// which can refer to functions and procedures, parameters, and global
/// variables." An assertion is a boolean expression over the unit's input
/// and output binding names (inputs additionally under `in_<name>` when an
/// output shadows them).
///
/// Two strengths:
///  - Specification: holds exactly when the behaviour is intended — its
///    value answers the query outright (this is what cuts interactions).
///  - Necessary: must hold for intended behaviour — a violation answers
///    "incorrect", but holding proves nothing.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_ASSERTIONORACLE_H
#define GADT_CORE_ASSERTIONORACLE_H

#include "core/Oracle.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <string>

namespace gadt {
namespace core {

/// Holds assertions keyed by unit name and judges nodes with them.
class AssertionOracle : public Oracle {
public:
  enum class Strength : uint8_t { Specification, Necessary };

  /// Parses \p ExprText with the classifier-expression grammar, checks
  /// the types its literals and operators imply (names stay untyped) and
  /// attaches it to \p UnitName. Returns false, with a diagnostic, on a
  /// parse error, an operator whose operands cannot have the types it
  /// needs (`x > 0 and y > 0` ranks as `x > (0 and y) > 0`), or a
  /// non-boolean expression: each is undefined on every call.
  bool addAssertion(const std::string &UnitName, const std::string &ExprText,
                    Strength S, DiagnosticsEngine &Diags);

  Judgement judge(const trace::ExecNode &N) override;

  unsigned assertionCount() const { return Count; }

private:
  struct Entry;
  std::map<std::string, std::vector<std::shared_ptr<Entry>>> ByUnit;
  unsigned Count = 0;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_ASSERTIONORACLE_H
