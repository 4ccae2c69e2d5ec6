//===- LexerTest.cpp - Lexer unit tests -----------------------------------===//

#include "pascal/Lexer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>

using namespace gadt;
using namespace gadt::pascal;

namespace {

/// The tokens view \p Src and the returned buffer; the caller keeps both.
TokenBuffer lex(std::string_view Src, DiagnosticsEngine &Diags) {
  Lexer L(Src, Diags);
  return L.lexAll();
}

std::vector<TokenKind> kindsOf(std::string_view Src) {
  DiagnosticsEngine Diags;
  std::vector<TokenKind> Kinds;
  for (const Token &T : lex(Src, Diags))
    Kinds.push_back(T.Kind);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Kinds;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("", Diags);
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Eof);
}

TEST(LexerTest, Keywords) {
  auto Kinds = kindsOf("program procedure function var begin end if then "
                       "else while do repeat until for to downto goto label "
                       "array of div mod and or not true false in out");
  std::vector<TokenKind> Expected = {
      TokenKind::KwProgram,  TokenKind::KwProcedure, TokenKind::KwFunction,
      TokenKind::KwVar,      TokenKind::KwBegin,     TokenKind::KwEnd,
      TokenKind::KwIf,       TokenKind::KwThen,      TokenKind::KwElse,
      TokenKind::KwWhile,    TokenKind::KwDo,        TokenKind::KwRepeat,
      TokenKind::KwUntil,    TokenKind::KwFor,       TokenKind::KwTo,
      TokenKind::KwDownto,   TokenKind::KwGoto,      TokenKind::KwLabel,
      TokenKind::KwArray,    TokenKind::KwOf,        TokenKind::KwDiv,
      TokenKind::KwMod,      TokenKind::KwAnd,       TokenKind::KwOr,
      TokenKind::KwNot,      TokenKind::KwTrue,      TokenKind::KwFalse,
      TokenKind::KwIn,       TokenKind::KwOut,       TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto Kinds = kindsOf("BEGIN End WhIlE");
  std::vector<TokenKind> Expected = {TokenKind::KwBegin, TokenKind::KwEnd,
                                     TokenKind::KwWhile, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, IdentifiersAreLowercased) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("ArrSum X9 under_score", Diags);
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].Text, "arrsum");
  EXPECT_EQ(Tokens[1].Text, "x9");
  EXPECT_EQ(Tokens[2].Text, "under_score");
}

TEST(LexerTest, IntegerLiterals) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("0 42 123456789 9223372036854775807", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 123456789);
  EXPECT_EQ(Tokens[3].IntValue, INT64_MAX);
}

TEST(LexerTest, IntegerLiteralPastInt64MaxIsDiagnosed) {
  for (const char *Src : {"9223372036854775808", "99999999999999999999"}) {
    DiagnosticsEngine Diags;
    auto Tokens = lex(std::string("x := ") + Src, Diags);
    ASSERT_EQ(Diags.errorCount(), 1u) << Src;
    EXPECT_NE(Diags.str().find("1:6: error: integer literal out of range"),
              std::string::npos)
        << Diags.str();
    // Lexing goes on past the literal, as after any other lexical error.
    EXPECT_EQ(Tokens[2].Kind, TokenKind::IntLiteral);
    EXPECT_EQ(Tokens[3].Kind, TokenKind::Eof);
  }
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto Kinds = kindsOf("( ) [ ] , ; : . .. := + - * = <> < <= > >=");
  std::vector<TokenKind> Expected = {
      TokenKind::LParen,    TokenKind::RParen,   TokenKind::LBracket,
      TokenKind::RBracket,  TokenKind::Comma,    TokenKind::Semicolon,
      TokenKind::Colon,     TokenKind::Dot,      TokenKind::DotDot,
      TokenKind::Assign,    TokenKind::Plus,     TokenKind::Minus,
      TokenKind::Star,      TokenKind::Equal,    TokenKind::NotEqual,
      TokenKind::Less,      TokenKind::LessEqual, TokenKind::Greater,
      TokenKind::GreaterEqual, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, AssignVersusColon) {
  auto Kinds = kindsOf("x := y : z");
  std::vector<TokenKind> Expected = {TokenKind::Identifier, TokenKind::Assign,
                                     TokenKind::Identifier, TokenKind::Colon,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, ParenStarComments) {
  auto Kinds = kindsOf("x (* a comment \n spanning lines *) y");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, BraceComments) {
  auto Kinds = kindsOf("x { comment } y");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, UnterminatedCommentIsAnError) {
  DiagnosticsEngine Diags;
  lex("x (* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, StringLiteralsWithEscapedQuote) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("'hello' 'it''s'", Diags);
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Tokens[0].Text, "hello");
  EXPECT_EQ(Tokens[1].Text, "it's");
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LexerTest, UnterminatedStringIsAnError) {
  DiagnosticsEngine Diags;
  lex("'oops", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, StrayCharacterIsAnError) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("x # y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Unknown);
}

TEST(LexerTest, LocationsTrackLinesAndColumns) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("a\n  b", Diags);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Column, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Column, 3u);
}

TEST(LexerTest, IdentifiersThatLookLikeKeywords) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("ends iff dot _begin programs do1 Procedures BEGIN", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  const char *Identifiers[] = {"ends",     "iff", "dot",       "_begin",
                               "programs", "do1", "procedures"};
  ASSERT_EQ(Tokens.size(), std::size(Identifiers) + 2);
  for (size_t I = 0; I != std::size(Identifiers); ++I) {
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << Identifiers[I];
    EXPECT_EQ(Tokens[I].Text, Identifiers[I]);
  }
  // A keyword's text is its lower-case spelling, whatever the source case.
  EXPECT_EQ(Tokens[7].Kind, TokenKind::KwBegin);
  EXPECT_EQ(Tokens[7].Text, "begin");
}

TEST(LexerTest, BytesAbove0x7FAreStrayCharacters) {
  DiagnosticsEngine Diags;
  // U+00E9 in UTF-8: two bytes, each its own stray character and column.
  auto Tokens = lex("x \xC3\xA9 y", Diags);
  EXPECT_EQ(Diags.errorCount(), 2u);
  EXPECT_NE(Diags.str().find("1:3: error: stray character '\xC3' in input"),
            std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("1:4: error: stray character '\xA9' in input"),
            std::string::npos)
      << Diags.str();
  ASSERT_EQ(Tokens.size(), 5u);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Unknown);
  EXPECT_EQ(Tokens[1].Text, "\xC3");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Unknown);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[3].Loc.Column, 6u);
}

TEST(LexerTest, VerticalTabAndFormFeedAreWhitespace) {
  DiagnosticsEngine Diags;
  auto Tokens = lex("a\vb\fc", Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_EQ(Tokens.size(), 4u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier);
    EXPECT_EQ(Tokens[I].Loc.Column, 1 + 2 * I);
  }
}

TEST(LexerTest, RewrittenSpellingsSurviveAMoveOfTheBuffer) {
  DiagnosticsEngine Diags;
  std::string Src = "MixedCase 'it''s' plain 'x''''y' UPPER 'ab''cd\n";
  TokenBuffer Lexed = lex(Src, Diags);
  TokenBuffer Tokens = std::move(Lexed);
  ASSERT_EQ(Tokens.size(), 7u);
  EXPECT_EQ(Tokens[0].Text, "mixedcase");
  EXPECT_EQ(Tokens[1].Text, "it's");
  EXPECT_EQ(Tokens[2].Text, "plain");
  EXPECT_EQ(Tokens[3].Text, "x''y");
  EXPECT_EQ(Tokens[4].Text, "upper");
  // An unterminated string keeps its text up to the end of the line.
  EXPECT_EQ(Tokens[5].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Tokens[5].Text, "ab'cd");
  EXPECT_EQ(Diags.errorCount(), 1u);
}

TEST(LexerTest, DotDotVersusDot) {
  auto Kinds = kindsOf("1..2 end.");
  std::vector<TokenKind> Expected = {TokenKind::IntLiteral, TokenKind::DotDot,
                                     TokenKind::IntLiteral, TokenKind::KwEnd,
                                     TokenKind::Dot, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

} // namespace
