//===- SpecParser.cpp - Parser for T-GEN specifications -------------------===//

#include "tgen/SpecParser.h"

#include "pascal/Lexer.h"
#include "pascal/Parser.h"
#include "support/StringUtils.h"

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::pascal;

namespace {

class SpecParserImpl {
public:
  SpecParserImpl(std::string_view Source, DiagnosticsEngine &Diags)
      : Diags(Diags), EntryErrors(Diags.errorCount()) {
    Lexer Lex(Source, Diags);
    Tokens = Lex.lexAll();
  }

  std::unique_ptr<TestSpec> parse();
  ExprPtr parseStandaloneExpr();

private:
  const Token &tok() const { return Tokens[Index]; }
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
  /// True when the current token is the identifier \p Word.
  bool isWord(const char *Word) const {
    return tok().is(TokenKind::Identifier) && tok().Text == Word;
  }
  bool consumeWord(const char *Word) {
    if (!isWord(Word))
      return false;
    consume();
    return true;
  }
  void error(const std::string &Msg) { Diags.error(tok().Loc, Msg); }
  bool expect(TokenKind K, const char *Context) {
    if (consumeIf(K))
      return true;
    error(std::string("expected ") + tokenKindName(K) + " " + Context);
    return false;
  }

  /// Restores the nesting depth on scope exit; descend() opens one level.
  /// Levels count as in the Pascal parser (pascal/Parser.h): each
  /// expression or selector (so each parenthesis), each `not` or unary
  /// minus and each binary operator opens one. Past
  /// Parser::MaxNestingDepth descend() reports an error and returns false,
  /// before the recursion can exhaust the stack.
  class NestingScope {
  public:
    explicit NestingScope(SpecParserImpl &P) : P(P), Entry(P.Depth) {}
    ~NestingScope() { P.Depth = Entry; }
    bool descend() {
      if (++P.Depth <= Parser::MaxNestingDepth)
        return true;
      P.error("expression nests deeper than the limit of " +
              std::to_string(Parser::MaxNestingDepth) + " levels");
      return false;
    }

  private:
    SpecParserImpl &P;
    unsigned Entry;
  };

  bool parseCategory(TestSpec &Spec);
  bool parseChoice(Category &Cat);
  bool parseBuckets(std::vector<Bucket> &Out);
  bool parseSelector(Selector &Out);
  bool parseSelTerm(Selector &Out);
  bool parseSelFactor(Selector &Out);

  // Classifier (when) expressions: a Pascal expression subset.
  ExprPtr parseWhenExpr();
  ExprPtr parseWhenOr();
  ExprPtr parseWhenAnd();
  ExprPtr parseWhenRel();
  ExprPtr parseWhenAdd();
  ExprPtr parseWhenMul();
  ExprPtr parseWhenFactor();

  TokenBuffer Tokens;
  size_t Index = 0;
  DiagnosticsEngine &Diags;
  /// Errors Diags held before this parse (parseStandaloneExpr fails only
  /// on its own).
  unsigned EntryErrors;
  unsigned Depth = 0; ///< nesting levels open (see NestingScope)
};

std::unique_ptr<TestSpec> SpecParserImpl::parse() {
  auto Spec = std::make_unique<TestSpec>();
  if (!consumeWord("test")) {
    error("specification must start with 'test <routine>;'");
    return nullptr;
  }
  if (!tok().is(TokenKind::Identifier)) {
    error("expected routine name after 'test'");
    return nullptr;
  }
  Spec->TestName = tok().Text;
  consume();
  if (!expect(TokenKind::Semicolon, "after test name"))
    return nullptr;

  if (consumeWord("params")) {
    for (;;) {
      ParamSpec P;
      if (consumeIf(TokenKind::KwOut))
        P.IsOut = true;
      if (!tok().is(TokenKind::Identifier)) {
        error("expected parameter name in params section");
        return nullptr;
      }
      P.Name = tok().Text;
      consume();
      Spec->Params.push_back(std::move(P));
      if (consumeIf(TokenKind::Comma))
        continue;
      if (!expect(TokenKind::Semicolon, "after params section"))
        return nullptr;
      break;
    }
  }

  while (isWord("category"))
    if (!parseCategory(*Spec))
      return nullptr;
  if (consumeWord("scripts"))
    if (!parseBuckets(Spec->Scripts))
      return nullptr;
  if (consumeWord("result"))
    if (!parseBuckets(Spec->Results))
      return nullptr;
  if (!consumeIf(TokenKind::KwEnd)) {
    error("expected 'end.' at end of specification");
    return nullptr;
  }
  if (!expect(TokenKind::Dot, "after 'end'"))
    return nullptr;
  if (Spec->Categories.empty()) {
    error("specification declares no categories");
    return nullptr;
  }
  if (Diags.hasErrors())
    return nullptr;
  return Spec;
}

bool SpecParserImpl::parseCategory(TestSpec &Spec) {
  consume(); // 'category'
  if (!tok().is(TokenKind::Identifier)) {
    error("expected category name");
    return false;
  }
  Category Cat;
  Cat.Name = tok().Text;
  consume();
  if (!expect(TokenKind::Semicolon, "after category name"))
    return false;
  // Choices run until the next section keyword.
  while (tok().is(TokenKind::Identifier) && !isWord("category") &&
         !isWord("scripts") && !isWord("result")) {
    if (!parseChoice(Cat))
      return false;
  }
  if (Cat.Choices.empty()) {
    error("category '" + Cat.Name + "' has no choices");
    return false;
  }
  Spec.Categories.push_back(std::move(Cat));
  return true;
}

bool SpecParserImpl::parseChoice(Category &Cat) {
  Choice Ch;
  Ch.Name = tok().Text;
  consume();
  if (!expect(TokenKind::Colon, "after choice name"))
    return false;
  for (;;) {
    if (consumeIf(TokenKind::KwIf)) {
      Selector Sel = Selector::alwaysTrue();
      if (!parseSelector(Sel))
        return false;
      Ch.If = std::move(Sel);
      continue;
    }
    if (consumeWord("property")) {
      for (;;) {
        if (!tok().is(TokenKind::Identifier)) {
          error("expected property name");
          return false;
        }
        std::string_view Prop = tok().Text;
        consume();
        if (Prop == "single")
          Ch.Single = true;
        else if (Prop == "error")
          Ch.Error = true;
        else
          Ch.Properties.emplace_back(Prop);
        if (!consumeIf(TokenKind::Comma))
          break;
      }
      continue;
    }
    if (consumeWord("when")) {
      Ch.When = parseWhenExpr();
      if (!Ch.When)
        return false;
      continue;
    }
    if (consumeWord("gen")) {
      for (;;) {
        if (!tok().is(TokenKind::Identifier)) {
          error("expected name in gen binding");
          return false;
        }
        std::string Name(tok().Text);
        consume();
        if (!expect(TokenKind::Assign, "in gen binding"))
          return false;
        ExprPtr Value = parseWhenExpr();
        if (!Value)
          return false;
        Ch.Gens.push_back({std::move(Name), std::move(Value)});
        if (!consumeIf(TokenKind::Comma))
          break;
      }
      continue;
    }
    break;
  }
  if (!expect(TokenKind::Semicolon, "at end of choice"))
    return false;
  Cat.Choices.push_back(std::move(Ch));
  return true;
}

bool SpecParserImpl::parseBuckets(std::vector<Bucket> &Out) {
  while (tok().is(TokenKind::Identifier) && !isWord("category") &&
         !isWord("scripts") && !isWord("result")) {
    Bucket B;
    B.Name = tok().Text;
    consume();
    if (!expect(TokenKind::Colon, "after name"))
      return false;
    if (consumeIf(TokenKind::KwIf)) {
      Selector Sel = Selector::alwaysTrue();
      if (!parseSelector(Sel))
        return false;
      B.If = std::move(Sel);
    }
    if (!expect(TokenKind::Semicolon, "at end of entry"))
      return false;
    Out.push_back(std::move(B));
  }
  if (Out.empty()) {
    error("section declares no entries");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Selector expressions
//===----------------------------------------------------------------------===//

bool SpecParserImpl::parseSelector(Selector &Out) {
  NestingScope Nesting(*this);
  if (!Nesting.descend() || !parseSelTerm(Out))
    return false;
  while (consumeIf(TokenKind::KwOr)) {
    if (!Nesting.descend())
      return false;
    Selector RHS = Selector::alwaysTrue();
    if (!parseSelTerm(RHS))
      return false;
    Out = Selector::orOf(std::move(Out), std::move(RHS));
  }
  return true;
}

bool SpecParserImpl::parseSelTerm(Selector &Out) {
  NestingScope Nesting(*this);
  if (!parseSelFactor(Out))
    return false;
  while (consumeIf(TokenKind::KwAnd)) {
    if (!Nesting.descend())
      return false;
    Selector RHS = Selector::alwaysTrue();
    if (!parseSelFactor(RHS))
      return false;
    Out = Selector::andOf(std::move(Out), std::move(RHS));
  }
  return true;
}

bool SpecParserImpl::parseSelFactor(Selector &Out) {
  NestingScope Nesting(*this);
  if (consumeIf(TokenKind::KwNot)) {
    if (!Nesting.descend())
      return false;
    Selector Sub = Selector::alwaysTrue();
    if (!parseSelFactor(Sub))
      return false;
    Out = Selector::notOf(std::move(Sub));
    return true;
  }
  if (consumeIf(TokenKind::LParen)) {
    if (!parseSelector(Out))
      return false;
    return expect(TokenKind::RParen, "after selector");
  }
  if (tok().is(TokenKind::Identifier)) {
    Out = Selector::prop(std::string(tok().Text));
    consume();
    return true;
  }
  error("expected property name in selector expression");
  return false;
}

//===----------------------------------------------------------------------===//
// Classifier (when) expressions
//===----------------------------------------------------------------------===//

ExprPtr SpecParserImpl::parseWhenExpr() {
  NestingScope Nesting(*this);
  if (!Nesting.descend())
    return nullptr;
  return parseWhenOr();
}

ExprPtr SpecParserImpl::parseWhenOr() {
  NestingScope Nesting(*this);
  ExprPtr LHS = parseWhenAnd();
  if (!LHS)
    return nullptr;
  while (tok().is(TokenKind::KwOr)) {
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseWhenAnd();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, BinaryOp::Or, std::move(LHS),
                                       std::move(RHS));
  }
  return LHS;
}

ExprPtr SpecParserImpl::parseWhenAnd() {
  NestingScope Nesting(*this);
  ExprPtr LHS = parseWhenRel();
  if (!LHS)
    return nullptr;
  while (tok().is(TokenKind::KwAnd)) {
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseWhenRel();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, BinaryOp::And, std::move(LHS),
                                       std::move(RHS));
  }
  return LHS;
}

ExprPtr SpecParserImpl::parseWhenRel() {
  ExprPtr LHS = parseWhenAdd();
  if (!LHS)
    return nullptr;
  BinaryOp Op;
  switch (tok().Kind) {
  case TokenKind::Equal:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEqual:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEqual:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEqual:
    Op = BinaryOp::Ge;
    break;
  default:
    return LHS;
  }
  SourceLoc Loc = tok().Loc;
  consume();
  ExprPtr RHS = parseWhenAdd();
  if (!RHS)
    return nullptr;
  return std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                      std::move(RHS));
}

ExprPtr SpecParserImpl::parseWhenAdd() {
  NestingScope Nesting(*this);
  ExprPtr LHS = parseWhenMul();
  if (!LHS)
    return nullptr;
  for (;;) {
    BinaryOp Op;
    if (tok().is(TokenKind::Plus))
      Op = BinaryOp::Add;
    else if (tok().is(TokenKind::Minus))
      Op = BinaryOp::Sub;
    else
      return LHS;
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseWhenMul();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                       std::move(RHS));
  }
}

ExprPtr SpecParserImpl::parseWhenMul() {
  NestingScope Nesting(*this);
  ExprPtr LHS = parseWhenFactor();
  if (!LHS)
    return nullptr;
  for (;;) {
    BinaryOp Op;
    if (tok().is(TokenKind::Star))
      Op = BinaryOp::Mul;
    else if (tok().is(TokenKind::KwDiv))
      Op = BinaryOp::Div;
    else if (tok().is(TokenKind::KwMod))
      Op = BinaryOp::Mod;
    else
      return LHS;
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseWhenFactor();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                       std::move(RHS));
  }
}

ExprPtr SpecParserImpl::parseWhenFactor() {
  NestingScope Nesting(*this);
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::IntLiteral: {
    int64_t V = tok().IntValue;
    consume();
    return std::make_unique<IntLiteralExpr>(Loc, V);
  }
  case TokenKind::KwTrue:
    consume();
    return std::make_unique<BoolLiteralExpr>(Loc, true);
  case TokenKind::KwFalse:
    consume();
    return std::make_unique<BoolLiteralExpr>(Loc, false);
  case TokenKind::KwNot: {
    if (!Nesting.descend())
      return nullptr;
    consume();
    ExprPtr Sub = parseWhenFactor();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Not, std::move(Sub));
  }
  case TokenKind::Minus: {
    if (!Nesting.descend())
      return nullptr;
    consume();
    ExprPtr Sub = parseWhenFactor();
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Neg, std::move(Sub));
  }
  case TokenKind::LParen: {
    consume();
    ExprPtr Inner = parseWhenExpr();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen, "after expression"))
      return nullptr;
    return Inner;
  }
  case TokenKind::Identifier: {
    std::string_view Name = tok().Text;
    consume();
    // Generator builtins (`fill`, `max`, `min`, `abs`) use call syntax.
    if (consumeIf(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!tok().is(TokenKind::RParen)) {
        for (;;) {
          ExprPtr Arg = parseWhenExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
          if (!consumeIf(TokenKind::Comma))
            break;
        }
      }
      if (!expect(TokenKind::RParen, "after generator arguments"))
        return nullptr;
      return std::make_unique<CallExpr>(Loc, std::string(Name),
                                        std::move(Args));
    }
    return std::make_unique<VarRefExpr>(Loc, std::string(Name));
  }
  default:
    error("expected classifier expression");
    return nullptr;
  }
}

} // namespace

ExprPtr SpecParserImpl::parseStandaloneExpr() {
  ExprPtr E = parseWhenExpr();
  if (!E)
    return nullptr;
  if (!tok().is(TokenKind::Eof)) {
    error("unexpected trailing input after expression");
    return nullptr;
  }
  if (Diags.errorCount() != EntryErrors)
    return nullptr; // the lexer diagnosed a token
  return E;
}

std::unique_ptr<TestSpec> gadt::tgen::parseSpec(std::string_view Source,
                                                DiagnosticsEngine &Diags) {
  SpecParserImpl P(Source, Diags);
  return P.parse();
}

ExprPtr gadt::tgen::parseClassifierExpr(std::string_view Source,
                                        DiagnosticsEngine &Diags) {
  SpecParserImpl P(Source, Diags);
  return P.parseStandaloneExpr();
}
