//===- Token.h - Pascal token definitions -----------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens for the Pascal subset used throughout the paper: programs, nested
/// procedures/functions, value/var/in/out parameters, labels and gotos,
/// structured statements, integer/boolean/array expressions.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_TOKEN_H
#define GADT_PASCAL_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace gadt {
namespace pascal {

enum class TokenKind : uint8_t {
  // Sentinels.
  Eof,
  Unknown,

  // Literals and identifiers.
  Identifier,
  IntLiteral,
  StringLiteral,

  // Keywords (Pascal keywords are case-insensitive).
  KwProgram,
  KwProcedure,
  KwFunction,
  KwVar,
  KwConst,
  KwType,
  KwLabel,
  KwBegin,
  KwEnd,
  KwIf,
  KwThen,
  KwElse,
  KwWhile,
  KwDo,
  KwRepeat,
  KwUntil,
  KwFor,
  KwTo,
  KwDownto,
  KwGoto,
  KwArray,
  KwOf,
  KwDiv,
  KwMod,
  KwAnd,
  KwOr,
  KwNot,
  KwTrue,
  KwFalse,
  KwIn,  // Parameter mode in transformed programs (paper Section 6).
  KwOut, // Parameter mode in transformed programs (paper Section 6).

  // Punctuation and operators.
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Semicolon,
  Colon,
  Dot,
  DotDot,
  Assign, // :=
  Plus,
  Minus,
  Star,
  Equal,
  NotEqual, // <>
  Less,
  LessEqual,
  Greater,
  GreaterEqual,
};

/// Returns a human-readable spelling for diagnostics ("':='", "'begin'", ...).
const char *tokenKindName(TokenKind Kind);

/// A single lexed token. \c Text is the spelling: identifiers lower-cased,
/// keywords in lower case, string literals without their quotes and with
/// '' unescaped. It views the source text, a keyword's static spelling, or
/// the storage of the TokenBuffer the token came from (pascal/Lexer.h);
/// \c IntValue is the decoded value of integer literals.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  std::string_view Text;
  int64_t IntValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
};

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_TOKEN_H
