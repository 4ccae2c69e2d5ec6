//===- TwoHelpers.h - Two routines that share a simple name -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A subject whose procedures `a` and `b` each declare a nested
/// `helper(var x)`: `p.a.helper` adds 1, `p.b.helper` calls `inc2`, which
/// adds 3 where 2 is intended. Every lookup of a routine by name is tested
/// on it: the simple name `helper` must not stand for both routines.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TESTS_TWOHELPERS_H
#define GADT_TESTS_TWOHELPERS_H

#include <string>

namespace gadt {
namespace test {

inline const char *const TwoHelpers = R"(
program p;
var g: integer;

procedure inc2(var x: integer);
begin
  x := x + 3;
end;

procedure a(var y: integer);
  procedure helper(var x: integer);
  begin
    x := x + 1;
  end;
begin
  helper(y);
end;

procedure b(var y: integer);
  procedure helper(var x: integer);
  begin
    inc2(x);
  end;
begin
  helper(y);
end;

begin
  read(g);
  a(g);
  b(g);
  writeln(g);
end.
)";

/// TwoHelpers with its one occurrence of \p From replaced by \p To
/// (`x + 1` is `p.a.helper`'s body, `x + 3` is `inc2`'s).
inline std::string twoHelpersWith(const std::string &From,
                                  const std::string &To) {
  std::string S = TwoHelpers;
  return S.replace(S.find(From), From.size(), To);
}

} // namespace test
} // namespace gadt

#endif // GADT_TESTS_TWOHELPERS_H
