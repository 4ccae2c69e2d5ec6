//===- Lexer.cpp - Pascal lexer -------------------------------------------===//

#include "pascal/Lexer.h"

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <unordered_map>

using namespace gadt;
using namespace gadt::pascal;

char Lexer::advance() {
  if (Pos >= Source.size())
    return '\0';
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipTrivia() {
  for (;;) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    // (* ... *) comment.
    if (C == '(' && peek(1) == '*') {
      SourceLoc Loc = currentLoc();
      advance();
      advance();
      bool Closed = false;
      while (peek() != '\0') {
        if (peek() == '*' && peek(1) == ')') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Loc, "unterminated comment");
      continue;
    }
    // { ... } comment.
    if (C == '{') {
      SourceLoc Loc = currentLoc();
      advance();
      bool Closed = false;
      while (peek() != '\0') {
        if (advance() == '}') {
          Closed = true;
          break;
        }
      }
      if (!Closed)
        Diags.error(Loc, "unterminated comment");
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc, std::string Text) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  T.Text = std::move(Text);
  return T;
}

Token Lexer::lexIdentifierOrKeyword(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    advance();
  std::string Spelling(Source.substr(Start, Pos - Start));
  std::string Lower = toLower(Spelling);

  static const std::unordered_map<std::string, TokenKind> Keywords = {
      {"program", TokenKind::KwProgram},
      {"procedure", TokenKind::KwProcedure},
      {"function", TokenKind::KwFunction},
      {"var", TokenKind::KwVar},
      {"const", TokenKind::KwConst},
      {"type", TokenKind::KwType},
      {"label", TokenKind::KwLabel},
      {"begin", TokenKind::KwBegin},
      {"end", TokenKind::KwEnd},
      {"if", TokenKind::KwIf},
      {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"do", TokenKind::KwDo},
      {"repeat", TokenKind::KwRepeat},
      {"until", TokenKind::KwUntil},
      {"for", TokenKind::KwFor},
      {"to", TokenKind::KwTo},
      {"downto", TokenKind::KwDownto},
      {"goto", TokenKind::KwGoto},
      {"array", TokenKind::KwArray},
      {"of", TokenKind::KwOf},
      {"div", TokenKind::KwDiv},
      {"mod", TokenKind::KwMod},
      {"and", TokenKind::KwAnd},
      {"or", TokenKind::KwOr},
      {"not", TokenKind::KwNot},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"in", TokenKind::KwIn},
      {"out", TokenKind::KwOut},
  };

  auto It = Keywords.find(Lower);
  if (It != Keywords.end())
    return makeToken(It->second, Loc, std::move(Lower));
  // Identifiers are stored case-normalized; Pascal is case-insensitive.
  return makeToken(TokenKind::Identifier, Loc, std::move(Lower));
}

Token Lexer::lexNumber(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    advance();
  std::string_view Digits = Source.substr(Start, Pos - Start);
  Token T = makeToken(TokenKind::IntLiteral, Loc, std::string(Digits));
  if (std::from_chars(Digits.data(), Digits.data() + Digits.size(),
                      T.IntValue)
          .ec != std::errc())
    Diags.error(Loc, "integer literal out of range");
  return T;
}

Token Lexer::lexString(SourceLoc Loc) {
  // Pascal strings: 'text', with '' as an escaped quote.
  std::string Value;
  for (;;) {
    char C = peek();
    if (C == '\0' || C == '\n') {
      Diags.error(Loc, "unterminated string literal");
      break;
    }
    advance();
    if (C == '\'') {
      if (peek() == '\'') {
        advance();
        Value.push_back('\'');
        continue;
      }
      break;
    }
    Value.push_back(C);
  }
  return makeToken(TokenKind::StringLiteral, Loc, std::move(Value));
}

Token Lexer::next() {
  skipTrivia();
  SourceLoc Loc = currentLoc();
  char C = peek();
  if (C == '\0')
    return makeToken(TokenKind::Eof, Loc);

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdentifierOrKeyword(Loc);
  if (std::isdigit(static_cast<unsigned char>(C)))
    return lexNumber(Loc);

  advance();
  switch (C) {
  case '\'':
    return lexString(Loc);
  case '(':
    return makeToken(TokenKind::LParen, Loc);
  case ')':
    return makeToken(TokenKind::RParen, Loc);
  case '[':
    return makeToken(TokenKind::LBracket, Loc);
  case ']':
    return makeToken(TokenKind::RBracket, Loc);
  case ',':
    return makeToken(TokenKind::Comma, Loc);
  case ';':
    return makeToken(TokenKind::Semicolon, Loc);
  case ':':
    return makeToken(match('=') ? TokenKind::Assign : TokenKind::Colon, Loc);
  case '.':
    return makeToken(match('.') ? TokenKind::DotDot : TokenKind::Dot, Loc);
  case '+':
    return makeToken(TokenKind::Plus, Loc);
  case '-':
    return makeToken(TokenKind::Minus, Loc);
  case '*':
    return makeToken(TokenKind::Star, Loc);
  case '=':
    return makeToken(TokenKind::Equal, Loc);
  case '<':
    if (match('>'))
      return makeToken(TokenKind::NotEqual, Loc);
    if (match('='))
      return makeToken(TokenKind::LessEqual, Loc);
    return makeToken(TokenKind::Less, Loc);
  case '>':
    return makeToken(match('=') ? TokenKind::GreaterEqual : TokenKind::Greater,
                     Loc);
  default:
    Diags.error(Loc, std::string("stray character '") + C + "' in input");
    return makeToken(TokenKind::Unknown, Loc, std::string(1, C));
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  for (;;) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokenKind::Eof))
      return Tokens;
  }
}
