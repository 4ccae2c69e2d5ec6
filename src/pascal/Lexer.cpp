//===- Lexer.cpp - Pascal lexer -------------------------------------------===//

#include "pascal/Lexer.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>

using namespace gadt;
using namespace gadt::pascal;

namespace {

// Character classes of the "C" locale, which the program never leaves: a
// byte >= 0x80 is in none of them.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isUpper(char C) { return C >= 'A' && C <= 'Z'; }
bool isLetter(char C) { return (C >= 'a' && C <= 'z') || isUpper(C); }
bool isIdentStart(char C) { return isLetter(C) || C == '_'; }
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }
/// ' ', '\t', '\n', '\v', '\f' and '\r'.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }
char toLowerAscii(char C) { return isUpper(C) ? static_cast<char>(C + 32) : C; }

struct Keyword {
  std::string_view Spelling;
  TokenKind Kind;
};

/// The 31 keywords, grouped by length.
constexpr Keyword Keywords[] = {
    {"do", TokenKind::KwDo},          {"if", TokenKind::KwIf},
    {"in", TokenKind::KwIn},          {"of", TokenKind::KwOf},
    {"or", TokenKind::KwOr},          {"to", TokenKind::KwTo},
    {"and", TokenKind::KwAnd},        {"div", TokenKind::KwDiv},
    {"end", TokenKind::KwEnd},        {"for", TokenKind::KwFor},
    {"mod", TokenKind::KwMod},        {"not", TokenKind::KwNot},
    {"out", TokenKind::KwOut},        {"var", TokenKind::KwVar},
    {"else", TokenKind::KwElse},      {"goto", TokenKind::KwGoto},
    {"then", TokenKind::KwThen},      {"true", TokenKind::KwTrue},
    {"type", TokenKind::KwType},      {"array", TokenKind::KwArray},
    {"begin", TokenKind::KwBegin},    {"const", TokenKind::KwConst},
    {"false", TokenKind::KwFalse},    {"label", TokenKind::KwLabel},
    {"until", TokenKind::KwUntil},    {"while", TokenKind::KwWhile},
    {"downto", TokenKind::KwDownto},  {"repeat", TokenKind::KwRepeat},
    {"program", TokenKind::KwProgram}, {"function", TokenKind::KwFunction},
    {"procedure", TokenKind::KwProcedure},
};
constexpr size_t MaxKeywordLength = 9;
/// The keywords of length L are Keywords[FirstOfLength[L]] up to
/// Keywords[FirstOfLength[L + 1]].
constexpr uint8_t FirstOfLength[MaxKeywordLength + 2] = {0,  0,  0,  6,
                                                         14, 19, 26, 28,
                                                         29, 30, 31};
static_assert(std::size(Keywords) == FirstOfLength[MaxKeywordLength + 1]);

/// The keyword \p S spells in any case, or null. \p S is an identifier, so
/// it holds letters, digits and '_': setting bit 0x20 lower-cases a letter
/// and turns no digit or '_' into one.
const Keyword *findKeyword(std::string_view S) {
  if (S.size() > MaxKeywordLength)
    return nullptr;
  for (unsigned I = FirstOfLength[S.size()], E = FirstOfLength[S.size() + 1];
       I != E; ++I) {
    std::string_view K = Keywords[I].Spelling;
    size_t J = 0;
    while (J != S.size() && (S[J] | 0x20) == K[J])
      ++J;
    if (J == S.size())
      return &Keywords[I];
  }
  return nullptr;
}

} // namespace

char Lexer::advance() {
  if (Pos >= Source.size())
    return '\0';
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    LineStart = Pos;
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
    if (isSpace(C)) {
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

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc, std::string_view Text) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  T.Text = Text;
  return T;
}

Token Lexer::lexIdentifierOrKeyword(SourceLoc Loc) {
  size_t Start = Pos;
  bool HasUpper = false;
  size_t End = Start;
  while (End != Source.size() && isIdentChar(Source[End]))
    HasUpper |= isUpper(Source[End++]);
  Pos = End;
  std::string_view Spelling = Source.substr(Start, End - Start);
  if (const Keyword *K = findKeyword(Spelling))
    return makeToken(K->Kind, Loc, K->Spelling);
  // Identifiers are stored case-normalized; Pascal is case-insensitive.
  if (HasUpper)
    SpellingBytes += Spelling.size();
  return makeToken(TokenKind::Identifier, Loc, Spelling);
}

Token Lexer::lexNumber(SourceLoc Loc) {
  size_t Start = Pos;
  size_t End = Start;
  while (End != Source.size() && isDigit(Source[End]))
    ++End;
  Pos = End;
  std::string_view Digits = Source.substr(Start, End - Start);
  Token T = makeToken(TokenKind::IntLiteral, Loc, Digits);
  if (std::from_chars(Digits.data(), Digits.data() + Digits.size(),
                      T.IntValue)
          .ec != std::errc())
    Diags.error(Loc, "integer literal out of range");
  return T;
}

Token Lexer::lexString(SourceLoc Loc) {
  // Pascal strings: 'text', with '' as an escaped quote. The token views
  // the text between the quotes, escapes and all.
  size_t Start = Pos;
  size_t Escapes = 0;
  for (;;) {
    char C = peek();
    if (C == '\0' || C == '\n') {
      Diags.error(Loc, "unterminated string literal");
      break;
    }
    advance();
    if (C == '\'') {
      if (peek() != '\'') {
        // The closing quote is not part of the text.
        Token T = makeToken(TokenKind::StringLiteral, Loc,
                            Source.substr(Start, Pos - 1 - Start));
        if (Escapes)
          SpellingBytes += T.Text.size() - Escapes;
        return T;
      }
      advance();
      ++Escapes;
    }
  }
  if (Escapes)
    SpellingBytes += Pos - Start - Escapes;
  return makeToken(TokenKind::StringLiteral, Loc,
                   Source.substr(Start, Pos - Start));
}

Token Lexer::next() {
  skipTrivia();
  SourceLoc Loc = currentLoc();
  char C = peek();
  if (C == '\0')
    return makeToken(TokenKind::Eof, Loc);

  if (isIdentStart(C))
    return lexIdentifierOrKeyword(Loc);
  if (isDigit(C))
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
    return makeToken(TokenKind::Unknown, Loc, Source.substr(Pos - 1, 1));
  }
}

static_assert(std::is_trivially_copyable_v<Token>,
              "TokenBuffer moves tokens with realloc");

void TokenBuffer::push_back(const Token &T) {
  if (Size == Capacity) {
    size_t NewCapacity = Capacity ? 2 * Capacity : 1;
    void *Grown = std::realloc(Tokens.get(), NewCapacity * sizeof(Token));
    if (!Grown)
      throw std::bad_alloc();
    (void)Tokens.release();
    Tokens.reset(static_cast<Token *>(Grown));
    Capacity = NewCapacity;
  }
  new (Tokens.get() + Size++) Token(T);
}

void Lexer::storeSpellings(TokenBuffer &Buffer) {
  Buffer.Spellings = std::make_unique_for_overwrite<char[]>(SpellingBytes);
  char *Out = Buffer.Spellings.get();
  for (Token &T : std::span(Buffer.Tokens.get(), Buffer.Size)) {
    std::string_view S = T.Text;
    char *Begin = Out;
    if (T.is(TokenKind::Identifier)) {
      if (std::none_of(S.begin(), S.end(), isUpper))
        continue;
      for (char C : S)
        *Out++ = toLowerAscii(C);
    } else if (T.is(TokenKind::StringLiteral)) {
      // Quotes in the text come in escaped pairs; keep one of each.
      if (S.find('\'') == std::string_view::npos)
        continue;
      for (size_t I = 0; I != S.size(); ++I) {
        *Out++ = S[I];
        if (S[I] == '\'')
          ++I;
      }
    } else {
      continue;
    }
    T.Text = std::string_view(Begin, static_cast<size_t>(Out - Begin));
  }
  SpellingBytes = 0;
}

TokenBuffer Lexer::lexAll() {
  TokenBuffer Buffer;
  do
    Buffer.push_back(next());
  while (Buffer.back().isNot(TokenKind::Eof));
  if (SpellingBytes != 0)
    storeSpellings(Buffer);
  return Buffer;
}
