//===- Parser.h - Pascal recursive-descent parser ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recursive-descent parser for the Pascal subset. Produces an unchecked
/// AST; name resolution and type checking happen in Sema.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_PARSER_H
#define GADT_PASCAL_PARSER_H

#include "pascal/AST.h"
#include "pascal/Lexer.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <set>
#include <string_view>

namespace gadt {
namespace pascal {

/// Parses one program. On any syntax error the parser reports to the
/// diagnostics engine and returns null from \c parseProgram. The T-GEN
/// spec parser (tgen/SpecParser.cpp) derives from it, so specifications and
/// assertions reach parseExpr over the same token cursor and nesting guard.
class Parser {
public:
  Parser(std::string_view Source, DiagnosticsEngine &Diags);

  /// Parses a complete `program ... end.` unit. Returns null on error.
  std::unique_ptr<Program> parseProgram();

  /// The deepest nesting a program may have. Every later pass — Sema, the
  /// transforms, CFG construction, the bytecode compiler — recurses on the
  /// AST, so the parser rejects deeper programs with a diagnostic instead
  /// of letting one of them overflow the stack. A level is a routine, a
  /// statement, an expression (each parenthesis or argument opens one) or
  /// a unary or binary operator (a chain of N binary operators builds an
  /// AST N levels deep). The value leaves room in an 8 MB stack for an
  /// AddressSanitizer build, whose frames are several times larger: there
  /// about 1,500 nested blocks still run every pass.
  static constexpr unsigned MaxNestingDepth = 1000;

  /// The most elements an array may have: the parser rejects a larger
  /// array type with a diagnostic, and T-GEN's fill() generates no larger
  /// array. Every array is allocated in full when its variable is created,
  /// so without a bound a single declaration could exhaust memory (or, at
  /// the extremes of int64, overflow the element count). The largest array
  /// in the paper's programs and the test corpus has 100 elements.
  static constexpr int64_t MaxArrayElements = 1000000;

protected:
  /// Restores the nesting depth on scope exit; descend() opens one level.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P) : P(P), Entry(P.Depth) {}
    ~NestingScope() { P.Depth = Entry; }
    /// Opens one more level. Past MaxNestingDepth it reports an error and
    /// returns false; the caller then fails, as on a syntax error.
    bool descend();

  private:
    Parser &P;
    unsigned Entry;
  };

  // Token stream helpers.
  const Token &tok() const { return Tokens[Index]; }
  const Token &peekTok(unsigned Ahead = 1) const {
    size_t I = Index + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  void consume() {
    if (Index + 1 < Tokens.size())
      ++Index;
  }
  bool consumeIf(TokenKind K) {
    if (!tok().is(K))
      return false;
    consume();
    return true;
  }
  /// Consumes \p K or reports "expected ...". Returns success.
  bool expect(TokenKind K, const char *Context);
  void error(const std::string &Message);

  // Grammar productions.
  bool parseBlock(RoutineDecl &R);
  bool parseLabelSection(RoutineDecl &R);
  bool parseTypeSection();
  bool parseConstSection();
  bool parseVarSection(RoutineDecl &R);
  std::unique_ptr<RoutineDecl> parseRoutineDecl(RoutineDecl &Parent);
  bool parseParamList(RoutineDecl &R);
  const Type *parseType();
  int64_t parseArrayBound(bool &Ok);

  // Constant scoping: Pascal `const` names are substituted with their
  // literal values during parsing; declarations in inner scopes shadow
  // outer constants. The maps look names up by token text (std::less<>),
  // building no std::string.
  struct ConstScope {
    std::map<std::string, int64_t, std::less<>> Ints;
    std::map<std::string, bool, std::less<>> Bools;
    std::set<std::string, std::less<>> Shadowed; ///< var/param/routine names
  };
  /// Looks up \p Name through the scope stack; returns a literal expression
  /// or null when the name is not a visible constant.
  ExprPtr lookupConst(std::string_view Name, SourceLoc Loc) const;
  bool lookupConstInt(std::string_view Name, int64_t &Out) const;
  /// Records that \p Name, declared in the innermost scope, hides the outer
  /// constants of that name. Nothing is recorded while no constant is
  /// visible: the outer scopes cannot define one while this scope is open.
  void shadow(std::string_view Name) {
    if (VisibleConsts != 0)
      ConstScopes.back().Shadowed.emplace(Name);
  }

  std::unique_ptr<CompoundStmt> parseCompound();
  StmtPtr parseStatement();
  StmtPtr parseUnlabeledStatement();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseRepeat();
  StmtPtr parseFor();
  StmtPtr parseAssignOrCall();

  ExprPtr parseExpr();          // relational level
  ExprPtr parseSimpleExpr();    // additive / or
  ExprPtr parseTerm();          // multiplicative / and
  ExprPtr parseFactor();

  std::unique_ptr<Program> Prog;
  TokenBuffer Tokens;
  size_t Index = 0;
  DiagnosticsEngine &Diags;
  std::map<std::string, const Type *, std::less<>> TypeTable;
  std::vector<ConstScope> ConstScopes;
  /// Constants defined in the open scopes; while there are none, every
  /// name lookup returns at once.
  size_t VisibleConsts = 0;
  unsigned Depth = 0; ///< nesting levels open (see MaxNestingDepth)
  /// What the nesting-limit diagnostic calls the input.
  const char *InputKind = "program";
};

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_PARSER_H
