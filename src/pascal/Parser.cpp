//===- Parser.cpp - Pascal recursive-descent parser -----------------------===//

#include "pascal/Parser.h"

using namespace gadt;
using namespace gadt::pascal;

Parser::Parser(std::string_view Source, DiagnosticsEngine &Diags)
    : Diags(Diags) {
  Lexer Lex(Source, Diags);
  Tokens = Lex.lexAll();
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (consumeIf(K))
    return true;
  error(std::string("expected ") + tokenKindName(K) + " " + Context +
        ", found " + tokenKindName(tok().Kind));
  return false;
}

void Parser::error(const std::string &Message) {
  Diags.error(tok().Loc, Message);
}

bool Parser::NestingScope::descend() {
  if (++P.Depth <= MaxNestingDepth)
    return true;
  P.error(std::string(P.InputKind) + " nests deeper than the limit of " +
          std::to_string(MaxNestingDepth) + " levels");
  return false;
}

std::unique_ptr<Program> Parser::parseProgram() {
  Prog = std::make_unique<Program>();
  TypeTable.clear();
  TypeTable.emplace("integer", Prog->types().getIntegerType());
  TypeTable.emplace("boolean", Prog->types().getBooleanType());

  if (!expect(TokenKind::KwProgram, "at start of program"))
    return nullptr;
  if (!tok().is(TokenKind::Identifier)) {
    error("expected program name");
    return nullptr;
  }
  SourceLoc Loc = tok().Loc;
  std::string_view Name = tok().Text;
  consume();
  if (!expect(TokenKind::Semicolon, "after program name"))
    return nullptr;

  auto Main = std::make_unique<RoutineDecl>(Loc, std::string(Name),
                                            /*IsFunction=*/false,
                                            /*ReturnType=*/nullptr);
  if (!parseBlock(*Main))
    return nullptr;
  if (!expect(TokenKind::Dot, "after final 'end'"))
    return nullptr;

  Prog->setMain(std::move(Main));
  if (Diags.hasErrors())
    return nullptr;
  return std::move(Prog);
}

bool Parser::parseBlock(RoutineDecl &R) {
  NestingScope Nesting(*this);
  if (!Nesting.descend())
    return false;
  ConstScopes.push_back(ConstScope());
  // Names declared in this routine shadow outer constants.
  for (const auto &P : R.getParams())
    shadow(P->getName());
  shadow(R.getName());

  bool Ok = [&] {
    for (;;) {
      switch (tok().Kind) {
      case TokenKind::KwLabel:
        if (!parseLabelSection(R))
          return false;
        continue;
      case TokenKind::KwType:
        if (!parseTypeSection())
          return false;
        continue;
      case TokenKind::KwConst:
        if (!parseConstSection())
          return false;
        continue;
      case TokenKind::KwVar:
        if (!parseVarSection(R))
          return false;
        continue;
      case TokenKind::KwProcedure:
      case TokenKind::KwFunction: {
        std::unique_ptr<RoutineDecl> Sub = parseRoutineDecl(R);
        if (!Sub)
          return false;
        shadow(Sub->getName());
        // A body arriving for an earlier `forward` declaration completes
        // it; the fresh declaration replaces the placeholder.
        if (RoutineDecl *Fwd = R.findNested(Sub->getName())) {
          if (Fwd->getBody()) {
            error("redeclaration of routine '" + Sub->getName() + "'");
            return false;
          }
          if (!Sub->getBody()) {
            error("duplicate forward declaration of '" + Sub->getName() +
                  "'");
            return false;
          }
          // `procedure f;` after `procedure f(x: ...); forward;` inherits
          // the forward heading; a repeated heading must agree.
          if (Sub->getParams().empty() && !Fwd->getParams().empty())
            Sub->getParams() = std::move(Fwd->getParams());
          else if (Fwd->getParams().size() != Sub->getParams().size()) {
            error("definition of '" + Sub->getName() +
                  "' disagrees with its forward declaration");
            return false;
          }
          for (auto &N : R.getNested())
            if (N.get() == Fwd) {
              Sub->setParent(&R);
              N = std::move(Sub);
              break;
            }
          continue;
        }
        Sub->setParent(&R);
        R.addNested(std::move(Sub));
        continue;
      }
      default:
        break;
      }
      break;
    }
    std::unique_ptr<CompoundStmt> Body = parseCompound();
    if (!Body)
      return false;
    R.setBody(std::move(Body));
    // Every forward declaration must have been completed by now.
    for (const auto &N : R.getNested())
      if (!N->getBody()) {
        error("routine '" + N->getName() +
              "' was declared forward but never defined");
        return false;
      }
    return true;
  }();
  VisibleConsts -=
      ConstScopes.back().Ints.size() + ConstScopes.back().Bools.size();
  ConstScopes.pop_back();
  return Ok;
}

bool Parser::parseConstSection() {
  consume(); // 'const'
  bool SawOne = false;
  while (tok().is(TokenKind::Identifier) &&
         peekTok().is(TokenKind::Equal)) {
    std::string_view Name = tok().Text;
    consume();
    consume(); // '='
    ConstScope &Scope = ConstScopes.back();
    auto Define = [&](auto &Map, auto Value) {
      VisibleConsts += Map.insert_or_assign(std::string(Name), Value).second;
    };
    bool Negative = consumeIf(TokenKind::Minus);
    if (tok().is(TokenKind::IntLiteral)) {
      Define(Scope.Ints, Negative ? -tok().IntValue : tok().IntValue);
      consume();
    } else if (!Negative && tok().is(TokenKind::KwTrue)) {
      Define(Scope.Bools, true);
      consume();
    } else if (!Negative && tok().is(TokenKind::KwFalse)) {
      Define(Scope.Bools, false);
      consume();
    } else {
      int64_t Referenced;
      if (!Negative && tok().is(TokenKind::Identifier) &&
          lookupConstInt(tok().Text, Referenced)) {
        Define(Scope.Ints, Referenced);
        consume();
      } else {
        error("expected integer, boolean or constant name after '='");
        return false;
      }
    }
    if (auto It = Scope.Shadowed.find(Name); It != Scope.Shadowed.end())
      Scope.Shadowed.erase(It);
    if (!expect(TokenKind::Semicolon, "after constant definition"))
      return false;
    SawOne = true;
  }
  if (!SawOne) {
    error("expected constant definition after 'const'");
    return false;
  }
  return true;
}

ExprPtr Parser::lookupConst(std::string_view Name, SourceLoc Loc) const {
  if (VisibleConsts == 0)
    return nullptr;
  for (auto It = ConstScopes.rbegin(); It != ConstScopes.rend(); ++It) {
    auto IntIt = It->Ints.find(Name);
    if (IntIt != It->Ints.end())
      return std::make_unique<IntLiteralExpr>(Loc, IntIt->second);
    auto BoolIt = It->Bools.find(Name);
    if (BoolIt != It->Bools.end())
      return std::make_unique<BoolLiteralExpr>(Loc, BoolIt->second);
    if (It->Shadowed.count(Name))
      return nullptr;
  }
  return nullptr;
}

bool Parser::lookupConstInt(std::string_view Name, int64_t &Out) const {
  if (VisibleConsts == 0)
    return false;
  for (auto It = ConstScopes.rbegin(); It != ConstScopes.rend(); ++It) {
    auto IntIt = It->Ints.find(Name);
    if (IntIt != It->Ints.end()) {
      Out = IntIt->second;
      return true;
    }
    if (It->Shadowed.count(Name))
      return false;
  }
  return false;
}

bool Parser::parseLabelSection(RoutineDecl &R) {
  consume(); // 'label'
  for (;;) {
    if (!tok().is(TokenKind::IntLiteral)) {
      error("expected label number in label declaration");
      return false;
    }
    R.getLabels().push_back(static_cast<int>(tok().IntValue));
    consume();
    if (consumeIf(TokenKind::Comma))
      continue;
    return expect(TokenKind::Semicolon, "after label declaration");
  }
}

bool Parser::parseTypeSection() {
  consume(); // 'type'
  // One or more `name = type;` definitions.
  bool SawOne = false;
  while (tok().is(TokenKind::Identifier) &&
         peekTok().is(TokenKind::Equal)) {
    std::string_view Name = tok().Text;
    consume();
    consume(); // '='
    const Type *Ty = parseType();
    if (!Ty)
      return false;
    if (!expect(TokenKind::Semicolon, "after type definition"))
      return false;
    if (TypeTable.contains(Name)) {
      error("redefinition of type '" + std::string(Name) + "'");
      return false;
    }
    TypeTable.emplace(Name, Ty);
    Prog->getTypeDefs().push_back({std::string(Name), Ty});
    SawOne = true;
  }
  if (!SawOne) {
    error("expected type definition after 'type'");
    return false;
  }
  return true;
}

bool Parser::parseVarSection(RoutineDecl &R) {
  consume(); // 'var'
  bool SawOne = false;
  while (tok().is(TokenKind::Identifier)) {
    std::vector<std::pair<std::string_view, SourceLoc>> Names;
    for (;;) {
      if (!tok().is(TokenKind::Identifier)) {
        error("expected variable name");
        return false;
      }
      Names.push_back({tok().Text, tok().Loc});
      consume();
      if (!consumeIf(TokenKind::Comma))
        break;
    }
    if (!expect(TokenKind::Colon, "after variable names"))
      return false;
    const Type *Ty = parseType();
    if (!Ty)
      return false;
    if (!expect(TokenKind::Semicolon, "after variable declaration"))
      return false;
    for (auto &[Name, Loc] : Names) {
      R.addLocal(std::make_unique<VarDecl>(Loc, std::string(Name), Ty,
                                           VarDecl::VarKind::Local));
      shadow(Name);
    }
    SawOne = true;
  }
  if (!SawOne) {
    error("expected variable declaration after 'var'");
    return false;
  }
  return true;
}

std::unique_ptr<RoutineDecl> Parser::parseRoutineDecl(RoutineDecl &Parent) {
  (void)Parent;
  bool IsFunction = tok().is(TokenKind::KwFunction);
  consume(); // 'procedure' / 'function'
  if (!tok().is(TokenKind::Identifier)) {
    error("expected routine name");
    return nullptr;
  }
  SourceLoc Loc = tok().Loc;
  std::string_view Name = tok().Text;
  consume();

  auto R = std::make_unique<RoutineDecl>(Loc, std::string(Name), IsFunction,
                                         /*ReturnType=*/nullptr);
  if (tok().is(TokenKind::LParen) && !parseParamList(*R))
    return nullptr;

  if (IsFunction) {
    if (!expect(TokenKind::Colon, "before function result type"))
      return nullptr;
    const Type *RetTy = parseType();
    if (!RetTy)
      return nullptr;
    // Rebuild with the return type (it is immutable on RoutineDecl).
    auto WithRet =
        std::make_unique<RoutineDecl>(Loc, R->getName(), true, RetTy);
    WithRet->getParams() = std::move(R->getParams());
    R = std::move(WithRet);
  }
  if (!expect(TokenKind::Semicolon, "after routine heading"))
    return nullptr;
  // `forward;` defers the body to a later declaration (required in Pascal
  // for mutual recursion).
  if (tok().is(TokenKind::Identifier) && tok().Text == "forward") {
    consume();
    if (!expect(TokenKind::Semicolon, "after 'forward'"))
      return nullptr;
    return R;
  }
  if (!parseBlock(*R))
    return nullptr;
  if (!expect(TokenKind::Semicolon, "after routine body"))
    return nullptr;
  return R;
}

bool Parser::parseParamList(RoutineDecl &R) {
  consume(); // '('
  if (consumeIf(TokenKind::RParen))
    return true;
  for (;;) {
    ParamMode Mode = ParamMode::Value;
    if (consumeIf(TokenKind::KwVar))
      Mode = ParamMode::Var;
    else if (consumeIf(TokenKind::KwIn))
      Mode = ParamMode::In;
    else if (consumeIf(TokenKind::KwOut))
      Mode = ParamMode::Out;

    std::vector<std::pair<std::string_view, SourceLoc>> Names;
    for (;;) {
      if (!tok().is(TokenKind::Identifier)) {
        error("expected parameter name");
        return false;
      }
      Names.push_back({tok().Text, tok().Loc});
      consume();
      if (!consumeIf(TokenKind::Comma))
        break;
    }
    if (!expect(TokenKind::Colon, "after parameter names"))
      return false;
    const Type *Ty = parseType();
    if (!Ty)
      return false;
    for (auto &[Name, Loc] : Names)
      R.addParam(std::make_unique<VarDecl>(Loc, std::string(Name), Ty,
                                           VarDecl::VarKind::Param, Mode));
    if (consumeIf(TokenKind::Semicolon))
      continue;
    return expect(TokenKind::RParen, "at end of parameter list");
  }
}

int64_t Parser::parseArrayBound(bool &Ok) {
  bool Negative = consumeIf(TokenKind::Minus);
  int64_t Value;
  if (tok().is(TokenKind::IntLiteral)) {
    Value = tok().IntValue;
  } else if (tok().is(TokenKind::Identifier) &&
             lookupConstInt(tok().Text, Value)) {
    // Constant array bounds: `array[1..maxsize] of integer`.
  } else {
    error("expected integer or constant array bound");
    Ok = false;
    return 0;
  }
  consume();
  Ok = true;
  return Negative ? -Value : Value;
}

const Type *Parser::parseType() {
  if (tok().is(TokenKind::Identifier)) {
    auto It = TypeTable.find(tok().Text);
    if (It == TypeTable.end()) {
      error("unknown type name '" + std::string(tok().Text) + "'");
      return nullptr;
    }
    consume();
    return It->second;
  }
  if (consumeIf(TokenKind::KwArray)) {
    if (!expect(TokenKind::LBracket, "after 'array'"))
      return nullptr;
    bool Ok = false;
    int64_t Lo = parseArrayBound(Ok);
    if (!Ok)
      return nullptr;
    if (!expect(TokenKind::DotDot, "between array bounds"))
      return nullptr;
    int64_t Hi = parseArrayBound(Ok);
    if (!Ok)
      return nullptr;
    if (Lo > Hi) {
      error("array lower bound exceeds upper bound");
      return nullptr;
    }
    // Hi - Lo + 1 elements; with Lo <= Hi the difference is exact in
    // uint64_t, where int64_t could overflow.
    if (static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo) >=
        static_cast<uint64_t>(MaxArrayElements)) {
      error("array type has more elements than the limit of " +
            std::to_string(MaxArrayElements));
      return nullptr;
    }
    if (!expect(TokenKind::RBracket, "after array bounds"))
      return nullptr;
    if (!expect(TokenKind::KwOf, "in array type"))
      return nullptr;
    const Type *Elem = parseType();
    if (!Elem)
      return nullptr;
    if (Elem->isArray()) {
      error("arrays of arrays are not supported");
      return nullptr;
    }
    return Prog->types().getArrayType(Elem, Lo, Hi);
  }
  error(std::string("expected type, found ") + tokenKindName(tok().Kind));
  return nullptr;
}

std::unique_ptr<CompoundStmt> Parser::parseCompound() {
  SourceLoc Loc = tok().Loc;
  if (!expect(TokenKind::KwBegin, "at start of compound statement"))
    return nullptr;
  std::vector<StmtPtr> Body;
  if (!consumeIf(TokenKind::KwEnd)) {
    for (;;) {
      StmtPtr S = parseStatement();
      if (!S)
        return nullptr;
      if (!isa<EmptyStmt>(S.get()))
        Body.push_back(std::move(S));
      if (consumeIf(TokenKind::Semicolon)) {
        if (consumeIf(TokenKind::KwEnd))
          break;
        continue;
      }
      if (consumeIf(TokenKind::KwEnd))
        break;
      error(std::string("expected ';' or 'end', found ") +
            tokenKindName(tok().Kind));
      return nullptr;
    }
  }
  return std::make_unique<CompoundStmt>(Loc, std::move(Body));
}

StmtPtr Parser::parseStatement() {
  NestingScope Nesting(*this);
  if (!Nesting.descend())
    return nullptr;
  // Optional label prefix `9: stmt`.
  if (tok().is(TokenKind::IntLiteral) && peekTok().is(TokenKind::Colon)) {
    SourceLoc Loc = tok().Loc;
    int Label = static_cast<int>(tok().IntValue);
    consume();
    consume(); // ':'
    StmtPtr Sub = parseStatement();
    if (!Sub)
      return nullptr;
    return std::make_unique<LabeledStmt>(Loc, Label, std::move(Sub));
  }
  return parseUnlabeledStatement();
}

StmtPtr Parser::parseUnlabeledStatement() {
  switch (tok().Kind) {
  case TokenKind::KwBegin:
    return parseCompound();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwRepeat:
    return parseRepeat();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwGoto: {
    SourceLoc Loc = tok().Loc;
    consume();
    if (!tok().is(TokenKind::IntLiteral)) {
      error("expected label number after 'goto'");
      return nullptr;
    }
    int Label = static_cast<int>(tok().IntValue);
    consume();
    return std::make_unique<GotoStmt>(Loc, Label);
  }
  case TokenKind::Identifier:
    return parseAssignOrCall();
  case TokenKind::Semicolon:
  case TokenKind::KwEnd:
  case TokenKind::KwUntil:
    return std::make_unique<EmptyStmt>(tok().Loc);
  default:
    error(std::string("expected statement, found ") +
          tokenKindName(tok().Kind));
    return nullptr;
  }
}

StmtPtr Parser::parseIf() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'if'
  ExprPtr Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::KwThen, "in if statement"))
    return nullptr;
  StmtPtr Then = parseStatement();
  if (!Then)
    return nullptr;
  StmtPtr Else;
  if (consumeIf(TokenKind::KwElse)) {
    Else = parseStatement();
    if (!Else)
      return nullptr;
  }
  return std::make_unique<IfStmt>(Loc, std::move(Cond), std::move(Then),
                                  std::move(Else));
}

StmtPtr Parser::parseWhile() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'while'
  ExprPtr Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::KwDo, "in while statement"))
    return nullptr;
  StmtPtr Body = parseStatement();
  if (!Body)
    return nullptr;
  return std::make_unique<WhileStmt>(Loc, std::move(Cond), std::move(Body));
}

StmtPtr Parser::parseRepeat() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'repeat'
  std::vector<StmtPtr> Body;
  for (;;) {
    StmtPtr S = parseStatement();
    if (!S)
      return nullptr;
    if (!isa<EmptyStmt>(S.get()))
      Body.push_back(std::move(S));
    if (consumeIf(TokenKind::Semicolon))
      continue;
    break;
  }
  if (!expect(TokenKind::KwUntil, "at end of repeat statement"))
    return nullptr;
  ExprPtr Cond = parseExpr();
  if (!Cond)
    return nullptr;
  return std::make_unique<RepeatStmt>(Loc, std::move(Body), std::move(Cond));
}

StmtPtr Parser::parseFor() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'for'
  if (!tok().is(TokenKind::Identifier)) {
    error("expected loop variable after 'for'");
    return nullptr;
  }
  auto LoopVar =
      std::make_unique<VarRefExpr>(tok().Loc, std::string(tok().Text));
  consume();
  if (!expect(TokenKind::Assign, "after for-loop variable"))
    return nullptr;
  ExprPtr From = parseExpr();
  if (!From)
    return nullptr;
  bool Downward;
  if (consumeIf(TokenKind::KwTo))
    Downward = false;
  else if (consumeIf(TokenKind::KwDownto))
    Downward = true;
  else {
    error("expected 'to' or 'downto' in for statement");
    return nullptr;
  }
  ExprPtr To = parseExpr();
  if (!To)
    return nullptr;
  if (!expect(TokenKind::KwDo, "in for statement"))
    return nullptr;
  StmtPtr Body = parseStatement();
  if (!Body)
    return nullptr;
  return std::make_unique<ForStmt>(Loc, std::move(LoopVar), std::move(From),
                                   std::move(To), Downward, std::move(Body));
}

StmtPtr Parser::parseAssignOrCall() {
  SourceLoc Loc = tok().Loc;
  std::string_view Name = tok().Text;
  consume();

  // read/readln/write/writeln are builtin statements.
  bool IsRead = Name == "read" || Name == "readln";
  bool IsWrite = Name == "write" || Name == "writeln";
  if ((IsRead || IsWrite) && tok().is(TokenKind::LParen)) {
    consume();
    std::vector<ExprPtr> Args;
    if (!tok().is(TokenKind::RParen)) {
      for (;;) {
        ExprPtr Arg = parseExpr();
        if (!Arg)
          return nullptr;
        Args.push_back(std::move(Arg));
        if (!consumeIf(TokenKind::Comma))
          break;
      }
    }
    if (!expect(TokenKind::RParen, "after argument list"))
      return nullptr;
    if (IsRead)
      return std::make_unique<ReadStmt>(Loc, std::move(Args));
    return std::make_unique<WriteStmt>(Loc, std::move(Args),
                                       Name == "writeln");
  }
  if (IsWrite && !tok().is(TokenKind::LParen)) {
    // `writeln` with no arguments.
    return std::make_unique<WriteStmt>(Loc, std::vector<ExprPtr>(),
                                       Name == "writeln");
  }

  // Assignment to a variable or array element.
  if (tok().is(TokenKind::LBracket)) {
    consume();
    ExprPtr Idx = parseExpr();
    if (!Idx)
      return nullptr;
    if (!expect(TokenKind::RBracket, "after array index"))
      return nullptr;
    auto Base = std::make_unique<VarRefExpr>(Loc, std::string(Name));
    auto Target =
        std::make_unique<IndexExpr>(Loc, std::move(Base), std::move(Idx));
    if (!expect(TokenKind::Assign, "in assignment"))
      return nullptr;
    ExprPtr Value = parseExpr();
    if (!Value)
      return nullptr;
    return std::make_unique<AssignStmt>(Loc, std::move(Target),
                                        std::move(Value));
  }
  if (consumeIf(TokenKind::Assign)) {
    if (lookupConst(Name, Loc)) {
      Diags.error(Loc, "cannot assign to constant '" + std::string(Name) +
                           "'");
      return nullptr;
    }
    auto Target = std::make_unique<VarRefExpr>(Loc, std::string(Name));
    ExprPtr Value = parseExpr();
    if (!Value)
      return nullptr;
    return std::make_unique<AssignStmt>(Loc, std::move(Target),
                                        std::move(Value));
  }

  // Procedure call, with or without arguments.
  std::vector<ExprPtr> Args;
  if (consumeIf(TokenKind::LParen)) {
    if (!tok().is(TokenKind::RParen)) {
      for (;;) {
        ExprPtr Arg = parseExpr();
        if (!Arg)
          return nullptr;
        Args.push_back(std::move(Arg));
        if (!consumeIf(TokenKind::Comma))
          break;
      }
    }
    if (!expect(TokenKind::RParen, "after argument list"))
      return nullptr;
  }
  return std::make_unique<ProcCallStmt>(Loc, std::string(Name),
                                        std::move(Args));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() {
  NestingScope Nesting(*this);
  if (!Nesting.descend())
    return nullptr;
  ExprPtr LHS = parseSimpleExpr();
  if (!LHS)
    return nullptr;
  for (;;) {
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
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseSimpleExpr();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                       std::move(RHS));
  }
}

ExprPtr Parser::parseSimpleExpr() {
  NestingScope Nesting(*this);
  // Optional leading sign.
  if (tok().is(TokenKind::Minus)) {
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr Operand = parseTerm();
    if (!Operand)
      return nullptr;
    ExprPtr LHS = std::make_unique<UnaryExpr>(Loc, UnaryOp::Neg,
                                              std::move(Operand));
    for (;;) {
      BinaryOp Op;
      if (tok().is(TokenKind::Plus))
        Op = BinaryOp::Add;
      else if (tok().is(TokenKind::Minus))
        Op = BinaryOp::Sub;
      else if (tok().is(TokenKind::KwOr))
        Op = BinaryOp::Or;
      else
        return LHS;
      if (!Nesting.descend())
        return nullptr;
      SourceLoc OpLoc = tok().Loc;
      consume();
      ExprPtr RHS = parseTerm();
      if (!RHS)
        return nullptr;
      LHS = std::make_unique<BinaryExpr>(OpLoc, Op, std::move(LHS),
                                         std::move(RHS));
    }
  }
  consumeIf(TokenKind::Plus); // A leading '+' is a no-op.

  ExprPtr LHS = parseTerm();
  if (!LHS)
    return nullptr;
  for (;;) {
    BinaryOp Op;
    if (tok().is(TokenKind::Plus))
      Op = BinaryOp::Add;
    else if (tok().is(TokenKind::Minus))
      Op = BinaryOp::Sub;
    else if (tok().is(TokenKind::KwOr))
      Op = BinaryOp::Or;
    else
      return LHS;
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseTerm();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                       std::move(RHS));
  }
}

ExprPtr Parser::parseTerm() {
  NestingScope Nesting(*this);
  ExprPtr LHS = parseFactor();
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
    else if (tok().is(TokenKind::KwAnd))
      Op = BinaryOp::And;
    else
      return LHS;
    if (!Nesting.descend())
      return nullptr;
    SourceLoc Loc = tok().Loc;
    consume();
    ExprPtr RHS = parseFactor();
    if (!RHS)
      return nullptr;
    LHS = std::make_unique<BinaryExpr>(Loc, Op, std::move(LHS),
                                       std::move(RHS));
  }
}

ExprPtr Parser::parseFactor() {
  NestingScope Nesting(*this);
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case TokenKind::IntLiteral: {
    int64_t Value = tok().IntValue;
    consume();
    return std::make_unique<IntLiteralExpr>(Loc, Value);
  }
  case TokenKind::StringLiteral: {
    std::string Value(tok().Text);
    consume();
    return std::make_unique<StringLiteralExpr>(Loc, std::move(Value));
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
    ExprPtr Operand = parseFactor();
    if (!Operand)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Not, std::move(Operand));
  }
  case TokenKind::Minus: {
    if (!Nesting.descend())
      return nullptr;
    consume();
    ExprPtr Operand = parseFactor();
    if (!Operand)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Neg, std::move(Operand));
  }
  case TokenKind::LParen: {
    consume();
    ExprPtr Inner = parseExpr();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen, "after parenthesized expression"))
      return nullptr;
    return Inner;
  }
  case TokenKind::LBracket: {
    // Array constructor `[e1, e2, ...]`.
    consume();
    std::vector<ExprPtr> Elements;
    if (!tok().is(TokenKind::RBracket)) {
      for (;;) {
        ExprPtr E = parseExpr();
        if (!E)
          return nullptr;
        Elements.push_back(std::move(E));
        if (!consumeIf(TokenKind::Comma))
          break;
      }
    }
    if (!expect(TokenKind::RBracket, "after array constructor"))
      return nullptr;
    if (Elements.empty()) {
      error("array constructor must have at least one element");
      return nullptr;
    }
    return std::make_unique<ArrayLiteralExpr>(Loc, std::move(Elements));
  }
  case TokenKind::Identifier: {
    std::string_view Name = tok().Text;
    consume();
    if (tok().is(TokenKind::LParen)) {
      consume();
      std::vector<ExprPtr> Args;
      if (!tok().is(TokenKind::RParen)) {
        for (;;) {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
          if (!consumeIf(TokenKind::Comma))
            break;
        }
      }
      if (!expect(TokenKind::RParen, "after call arguments"))
        return nullptr;
      return std::make_unique<CallExpr>(Loc, std::string(Name),
                                        std::move(Args));
    }
    if (tok().is(TokenKind::LBracket)) {
      consume();
      ExprPtr Idx = parseExpr();
      if (!Idx)
        return nullptr;
      if (!expect(TokenKind::RBracket, "after array index"))
        return nullptr;
      auto Base = std::make_unique<VarRefExpr>(Loc, std::string(Name));
      return std::make_unique<IndexExpr>(Loc, std::move(Base),
                                         std::move(Idx));
    }
    if (ExprPtr Const = lookupConst(Name, Loc))
      return Const;
    return std::make_unique<VarRefExpr>(Loc, std::string(Name));
  }
  default:
    error(std::string("expected expression, found ") +
          tokenKindName(tok().Kind));
    return nullptr;
  }
}
