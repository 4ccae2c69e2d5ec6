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
#include "pascal/AST.h"
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

  /// The program whose declarations type the names of assertions added
  /// from now on. GADTSession passes the program it debugs.
  void setProgram(const pascal::Program *P) { Names = P; }

  /// Parses \p ExprText with the classifier-expression grammar, checks
  /// the types its literals, operators and names imply and attaches it to
  /// \p UnitName. Returns false, with a diagnostic, on a parse error, an
  /// operator whose operands cannot have the types it needs (`x > 0 and
  /// y > 0` ranks as `x > (0 and y) > 0`, `not x` with an integer `x`), or
  /// a non-boolean expression: each is undefined on every call. With a
  /// setProgram() program, a \p UnitName that is neither a routine's name
  /// nor a loop unit's (`<routine>.for#<n>` and the like) is rejected too:
  /// no execution of the program shows such a unit.
  ///
  /// A name is typed as the body of the one routine named \p UnitName in
  /// the setProgram() program would resolve it: its parameters, result
  /// and locals, then the enclosing scopes, with `in_<name>` resolving as
  /// `<name>`; an integer, boolean or string declaration gives its type,
  /// and an element of an array name takes the element type. Other names,
  /// every name of a unit that is no such routine (a loop unit, or a name
  /// several routines share), and every name without a program stay
  /// untyped.
  bool addAssertion(const std::string &UnitName, const std::string &ExprText,
                    Strength S, DiagnosticsEngine &Diags);

  Judgement judge(const trace::ExecNode &N) override;

  unsigned assertionCount() const { return Count; }

private:
  struct Entry;
  const pascal::Program *Names = nullptr;
  std::map<std::string, std::vector<std::shared_ptr<Entry>>> ByUnit;
  unsigned Count = 0;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_ASSERTIONORACLE_H
