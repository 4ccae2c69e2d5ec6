//===- Lexer.h - Pascal lexer -----------------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the Pascal subset. Identifiers and keywords are
/// case-insensitive; `(* ... *)` and `{ ... }` comments are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_LEXER_H
#define GADT_PASCAL_LEXER_H

#include "pascal/Token.h"
#include "support/Diagnostics.h"

#include <cstdlib>
#include <memory>
#include <string_view>

namespace gadt {
namespace pascal {

/// The tokens of one source buffer, read like a vector. A token's Text
/// views the source, except where its spelling differs from the source
/// text: an identifier with an upper-case letter (stored lower-cased) and a
/// string literal containing '' (stored unescaped). Those spellings live in
/// one allocation the buffer owns, so the tokens stay valid while the
/// buffer and the source live; moving the buffer keeps them valid.
class TokenBuffer {
public:
  size_t size() const { return Size; }
  const Token &operator[](size_t I) const { return Tokens.get()[I]; }
  const Token &back() const { return Tokens.get()[Size - 1]; }
  const Token *begin() const { return Tokens.get(); }
  const Token *end() const { return Tokens.get() + Size; }

private:
  friend class Lexer;
  void push_back(const Token &T);

  struct Free {
    void operator()(Token *P) const { std::free(P); }
  };
  /// Grown by doubling with realloc, which moves the pages of a large
  /// buffer instead of copying them into fresh memory, as a growing
  /// std::vector does.
  std::unique_ptr<Token[], Free> Tokens;
  size_t Size = 0;
  size_t Capacity = 0;
  std::unique_ptr<char[]> Spellings;
};

/// Converts a source buffer into a token stream.
///
/// The lexer reports malformed input (unterminated comments/strings, stray
/// characters) to the DiagnosticsEngine and keeps going, so the parser can
/// surface as many problems as possible in one pass.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticsEngine &Diags)
      : Source(Source), Diags(Diags) {}

  /// Lexes the entire buffer. The last token is always Eof.
  TokenBuffer lexAll();

private:
  /// Columns count bytes from 1 at the start of each line.
  SourceLoc currentLoc() const {
    return SourceLoc(Line, static_cast<uint32_t>(Pos - LineStart + 1));
  }
  char peek(unsigned Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  char advance();
  bool match(char Expected);
  void skipTrivia();
  /// Lexes the next token (Eof at end of input, forever after). A token
  /// whose spelling differs from its source text views the source text and
  /// adds the spelling's size to SpellingBytes; storeSpellings fixes it.
  Token next();
  Token makeToken(TokenKind Kind, SourceLoc Loc, std::string_view Text = {});
  Token lexIdentifierOrKeyword(SourceLoc Loc);
  Token lexNumber(SourceLoc Loc);
  Token lexString(SourceLoc Loc);
  void storeSpellings(TokenBuffer &Buffer);

  std::string_view Source;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  size_t LineStart = 0; ///< Pos of the current line's first byte
  /// Bytes the spellings that differ from their source text need.
  size_t SpellingBytes = 0;
};

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_LEXER_H
