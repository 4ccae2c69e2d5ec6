//===- SpecParser.cpp - Parser for T-GEN specifications -------------------===//

#include "tgen/SpecParser.h"

#include "pascal/Parser.h"
#include "support/Casting.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::pascal;

namespace {

/// The sections of a specification, over the Pascal parser's token cursor;
/// every expression is a Pascal expression (Parser::parseExpr). No const
/// scope is open, so no name is substituted as a constant.
class SpecParserImpl : public Parser {
public:
  SpecParserImpl(std::string_view Source, DiagnosticsEngine &Diags)
      : Parser(Source, Diags) {
    InputKind = "expression"; // only expressions nest in a spec
  }

  std::unique_ptr<TestSpec> parse();
  ExprPtr parseStandaloneExpr();

private:
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

  bool parseCategory(TestSpec &Spec);
  bool parseChoice(Category &Cat);
  bool parseBuckets(std::vector<Bucket> &Out);
  bool parseSelector(Selector &Out);
};

/// An upper bound on the frames generateFrames enumerates for \p Spec: the
/// product of each category's ordinary choices plus one frame per SINGLE or
/// ERROR choice, saturating just past MaxFramesPerSpec.
uint64_t frameBound(const TestSpec &Spec) {
  constexpr uint64_t Cap = MaxFramesPerSpec + 1;
  uint64_t Product = 1, Marked = 0;
  for (const Category &Cat : Spec.Categories) {
    uint64_t Ordinary = 0;
    for (const Choice &Ch : Cat.Choices) {
      if (Ch.Single || Ch.Error)
        ++Marked;
      else
        ++Ordinary;
    }
    // Product <= Cap before the multiply, and Ordinary is at most the
    // token count, so the multiply cannot overflow.
    Product = std::min(Product * Ordinary, Cap);
  }
  return std::min(Product + Marked, Cap);
}

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

  while (isWord("category")) {
    if (Spec->Categories.size() == MaxCategoriesPerSpec) {
      error("specification declares more than the limit of " +
            std::to_string(MaxCategoriesPerSpec) + " categories");
      return nullptr;
    }
    if (!parseCategory(*Spec))
      return nullptr;
  }
  if (frameBound(*Spec) > MaxFramesPerSpec) {
    error("specification can generate more than the limit of " +
          std::to_string(MaxFramesPerSpec) + " frames");
    return nullptr;
  }
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
      if (!parseSelector(Ch.If))
        return false;
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
      Ch.When = parseExpr();
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
        ExprPtr Value = parseExpr();
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
    if (consumeIf(TokenKind::KwIf) && !parseSelector(B.If))
      return false;
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

/// The first node of \p E that is not a property name, `and`, `or` or
/// `not`; null when there is none.
const Expr *firstNonSelectorNode(const Expr *E) {
  if (isa<VarRefExpr>(E))
    return nullptr;
  if (const auto *UE = dyn_cast<UnaryExpr>(E))
    return UE->getOp() == UnaryOp::Not
               ? firstNonSelectorNode(UE->getOperand())
               : E;
  const auto *BE = dyn_cast<BinaryExpr>(E);
  if (!BE || (BE->getOp() != BinaryOp::And && BE->getOp() != BinaryOp::Or))
    return E;
  if (const Expr *Bad = firstNonSelectorNode(BE->getLHS()))
    return Bad;
  return firstNonSelectorNode(BE->getRHS());
}

bool SpecParserImpl::parseSelector(Selector &Out) {
  ExprPtr E = parseExpr();
  if (!E)
    return false;
  if (const Expr *Bad = firstNonSelectorNode(E.get())) {
    Diags.error(Bad->getLoc(), "expected property name in selector expression");
    return false;
  }
  Out = Selector(std::move(E));
  return true;
}

ExprPtr SpecParserImpl::parseStandaloneExpr() {
  ExprPtr E = parseExpr();
  if (E && !tok().is(TokenKind::Eof)) {
    error("unexpected trailing input after expression");
    return nullptr;
  }
  return E;
}

} // namespace

std::unique_ptr<TestSpec> gadt::tgen::parseSpec(std::string_view Source,
                                                DiagnosticsEngine &Diags) {
  SpecParserImpl P(Source, Diags);
  return P.parse();
}

ExprPtr gadt::tgen::parseClassifierExpr(std::string_view Source,
                                        DiagnosticsEngine &Diags) {
  // Counted before the lexer runs, so a token it diagnoses fails the parse.
  unsigned EntryErrors = Diags.errorCount();
  SpecParserImpl P(Source, Diags);
  ExprPtr E = P.parseStandaloneExpr();
  if (Diags.errorCount() != EntryErrors)
    return nullptr;
  return E;
}
