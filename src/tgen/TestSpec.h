//===- TestSpec.h - T-GEN test specifications -------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The category-partition test specification language of T-GEN (paper
/// Section 2, extending Ostrand-Balcer's category partition method with
/// test scripts, result categories, executable test cases and test
/// reports). A specification, mirroring the paper's Figure 1:
///
///   test arrsum;
///   category size_of_array;
///     zero : property SINGLE when n = 0;
///     one  : property SINGLE when n = 1;
///     two  : when n = 2;
///     more : property MORE when n > 2;
///   category type_of_elements;
///     positive : when a_min > 0;
///     negative : when a_max < 0;
///     mixed    : if MORE property MIXED when (a_min <= 0) and (a_max >= 0);
///   category deviation;
///     small   : if not MIXED;
///     large   : if MIXED when a_spread > 10;
///     average : if MIXED when a_spread <= 10;
///   scripts
///     script_1 : if MIXED;
///     script_2 : if not MIXED;
///   result
///     result_1 : if MIXED;
///   end.
///
/// `property P` attaches a property name usable in later `if` selectors;
/// SINGLE and ERROR are the Ostrand-Balcer markers (one frame per such
/// choice). A selector is a Pascal expression of property names, `and`,
/// `or`, `not` and parentheses, so `and` binds tighter than `or`. `when
/// <expr>` is this implementation's realization of the paper's "automatic
/// test frame selector functions": a boolean Pascal expression over
/// *feature variables* derived from concrete input values, evaluated when
/// the debugger classifies a call (Section 5.3.2). Both follow Pascal's
/// precedence, so relations joined by `and` or `or` need parentheses.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TGEN_TESTSPEC_H
#define GADT_TGEN_TESTSPEC_H

#include "pascal/AST.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace gadt {
namespace tgen {

/// A selector over property names (`if MORE and not MIXED`): a Pascal
/// expression that the spec parser checked to hold only property names,
/// `and`, `or`, `not` and parentheses. An omitted selector always holds.
class Selector {
public:
  Selector() = default;
  explicit Selector(pascal::ExprPtr E) : E(std::move(E)) {}

  /// Evaluates against the set of properties established so far.
  bool eval(const std::set<std::string> &Properties) const;

private:
  pascal::ExprPtr E; ///< null when omitted
};

/// One choice within a category.
struct Choice {
  std::string Name;
  /// Guard over properties of earlier choices.
  Selector If;
  /// Properties this choice establishes (lowercased).
  std::vector<std::string> Properties;
  /// Ostrand-Balcer markers.
  bool Single = false;
  bool Error = false;
  /// Classifier over feature variables; null when the choice cannot be
  /// selected automatically.
  pascal::ExprPtr When;
  /// Generator bindings (`gen n := 7, a := fill(n, 3 * i + 1)`): evaluated
  /// in category order to turn a frame into executable test-case inputs
  /// (the paper: "By extending the test specification ... the system can
  /// generate executable test cases from test frames").
  std::vector<std::pair<std::string, pascal::ExprPtr>> Gens;
};

/// One category (a critical property of an input parameter or of the
/// environment).
struct Category {
  std::string Name;
  std::vector<Choice> Choices;
};

/// A named script or result bucket with its selector.
struct Bucket {
  std::string Name;
  Selector If;
};

/// A parameter of the routine under test, as declared in the optional
/// `params` section (`params a, n, out b;`). Out parameters receive no
/// generated value.
struct ParamSpec {
  std::string Name;
  bool IsOut = false;
};

/// A whole specification for one procedure under test.
struct TestSpec {
  std::string TestName; ///< routine under test (lowercased)
  std::vector<ParamSpec> Params;
  std::vector<Category> Categories;
  std::vector<Bucket> Scripts;
  std::vector<Bucket> Results;

  /// True when the spec can instantiate frames by itself (params declared
  /// and generator bindings present).
  bool hasGenerators() const;
};

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_TESTSPEC_H
