//===- Fingerprint.cpp - Per-routine structural fingerprints --------------===//

#include "pascal/Fingerprint.h"

#include "pascal/AST.h"
#include "pascal/Type.h"
#include "support/Casting.h"
#include "support/Hashing.h"

using namespace gadt;
using namespace gadt::pascal;

namespace {

/// Incremental FNV-1a sink: the body fingerprint folds the AST structure
/// directly instead of materializing the canonical print — the print is a
/// pure function of the structure folded here (node kinds, operators,
/// names, literal values) and vice versa, so the hash discriminates exactly
/// as well, without the recursive string building.
struct FnvStream {
  uint64_t H = FnvOffsetBasis;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  void bytes(std::string_view S) {
    H = hashBytes(S, H);
    byte(0); // terminator: names/literals never contain NUL
  }
  void u32(uint32_t V) {
    for (unsigned Shift = 0; Shift < 32; Shift += 8)
      byte((V >> Shift) & 0xff);
  }
  void u64(uint64_t V) {
    for (unsigned Shift = 0; Shift < 64; Shift += 8)
      byte((V >> Shift) & 0xff);
  }
};

void foldExpr(FnvStream &S, const pascal::Expr *E) {
  using pascal::Expr;
  if (!E) {
    S.byte(0xff);
    return;
  }
  S.byte(static_cast<uint8_t>(E->getKind()));
  switch (E->getKind()) {
  case Expr::Kind::IntLiteral:
    S.u64(static_cast<uint64_t>(
        cast<pascal::IntLiteralExpr>(E)->getValue()));
    break;
  case Expr::Kind::BoolLiteral:
    S.byte(cast<pascal::BoolLiteralExpr>(E)->getValue() ? 1 : 0);
    break;
  case Expr::Kind::StringLiteral:
    S.bytes(cast<pascal::StringLiteralExpr>(E)->getValue());
    break;
  case Expr::Kind::ArrayLiteral: {
    const auto *AL = cast<pascal::ArrayLiteralExpr>(E);
    S.u32(static_cast<uint32_t>(AL->getElements().size()));
    for (const auto &El : AL->getElements())
      foldExpr(S, El.get());
    break;
  }
  case Expr::Kind::VarRef:
    S.bytes(cast<pascal::VarRefExpr>(E)->getName());
    break;
  case Expr::Kind::Index: {
    const auto *IE = cast<pascal::IndexExpr>(E);
    foldExpr(S, IE->getBase());
    foldExpr(S, IE->getIndex());
    break;
  }
  case Expr::Kind::Call: {
    const auto *CE = cast<pascal::CallExpr>(E);
    S.bytes(CE->getCalleeName());
    S.u32(static_cast<uint32_t>(CE->getArgs().size()));
    for (const auto &Arg : CE->getArgs())
      foldExpr(S, Arg.get());
    break;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<pascal::UnaryExpr>(E);
    S.byte(static_cast<uint8_t>(UE->getOp()));
    foldExpr(S, UE->getOperand());
    break;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<pascal::BinaryExpr>(E);
    S.byte(static_cast<uint8_t>(BE->getOp()));
    foldExpr(S, BE->getLHS());
    foldExpr(S, BE->getRHS());
    break;
  }
  }
}

void foldStmt(FnvStream &S, const pascal::Stmt *St) {
  using pascal::Stmt;
  if (!St) {
    S.byte(0xfe);
    return;
  }
  S.byte(static_cast<uint8_t>(St->getKind()));
  switch (St->getKind()) {
  case Stmt::Kind::Assign: {
    const auto *AS = cast<pascal::AssignStmt>(St);
    foldExpr(S, AS->getTarget());
    foldExpr(S, AS->getValue());
    break;
  }
  case Stmt::Kind::Compound: {
    const auto *CS = cast<pascal::CompoundStmt>(St);
    S.u32(static_cast<uint32_t>(CS->getBody().size()));
    for (const auto &Sub : CS->getBody())
      foldStmt(S, Sub.get());
    break;
  }
  case Stmt::Kind::If: {
    const auto *IS = cast<pascal::IfStmt>(St);
    foldExpr(S, IS->getCond());
    foldStmt(S, IS->getThen());
    foldStmt(S, IS->getElse());
    break;
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<pascal::WhileStmt>(St);
    foldExpr(S, WS->getCond());
    foldStmt(S, WS->getBody());
    break;
  }
  case Stmt::Kind::Repeat: {
    const auto *RS = cast<pascal::RepeatStmt>(St);
    S.u32(static_cast<uint32_t>(RS->getBody().size()));
    for (const auto &Sub : RS->getBody())
      foldStmt(S, Sub.get());
    foldExpr(S, RS->getCond());
    break;
  }
  case Stmt::Kind::For: {
    const auto *FS = cast<pascal::ForStmt>(St);
    foldExpr(S, FS->getLoopVar());
    foldExpr(S, FS->getFrom());
    foldExpr(S, FS->getTo());
    S.byte(FS->isDownward() ? 1 : 0);
    foldStmt(S, FS->getBody());
    break;
  }
  case Stmt::Kind::ProcCall: {
    const auto *PC = cast<pascal::ProcCallStmt>(St);
    S.bytes(PC->getCalleeName());
    S.u32(static_cast<uint32_t>(PC->getArgs().size()));
    for (const auto &Arg : PC->getArgs())
      foldExpr(S, Arg.get());
    break;
  }
  case Stmt::Kind::Goto:
    S.u64(static_cast<uint64_t>(
        cast<pascal::GotoStmt>(St)->getLabel()));
    break;
  case Stmt::Kind::Labeled: {
    const auto *LS = cast<pascal::LabeledStmt>(St);
    S.u64(static_cast<uint64_t>(LS->getLabel()));
    foldStmt(S, LS->getSub());
    break;
  }
  case Stmt::Kind::Read: {
    const auto *RS = cast<pascal::ReadStmt>(St);
    S.u32(static_cast<uint32_t>(RS->getTargets().size()));
    for (const auto &T : RS->getTargets())
      foldExpr(S, T.get());
    break;
  }
  case Stmt::Kind::Write: {
    const auto *WS = cast<pascal::WriteStmt>(St);
    S.byte(WS->isWriteln() ? 1 : 0);
    S.u32(static_cast<uint32_t>(WS->getArgs().size()));
    for (const auto &Arg : WS->getArgs())
      foldExpr(S, Arg.get());
    break;
  }
  case Stmt::Kind::Empty:
    break;
  }
}

void foldVarDecl(std::string &Out, const pascal::VarDecl *V) {
  Out += V->getName();
  Out += ':';
  if (V->getType())
    Out += V->getType()->str();
  Out += ';';
}

uint64_t headerHashOf(const pascal::RoutineDecl *R) {
  std::string H;
  H += R->getName();
  H += R->isFunction() ? "|f|" : "|p|";
  if (R->isFunction() && R->getReturnType())
    H += R->getReturnType()->str();
  H += '(';
  for (const auto &P : R->getParams()) {
    H += pascal::paramModeSpelling(P->getMode());
    H += ' ';
    foldVarDecl(H, P.get());
  }
  H += ')';
  return hashBytes(H);
}

uint64_t frameHashOf(const pascal::RoutineDecl *R) {
  std::string F;
  for (const auto &P : R->getParams()) {
    F += pascal::paramModeSpelling(P->getMode());
    F += ' ';
    foldVarDecl(F, P.get());
  }
  F += '|';
  for (const auto &L : R->getLocals())
    foldVarDecl(F, L.get());
  F += '|';
  if (const pascal::VarDecl *Res = R->getResultVar())
    foldVarDecl(F, Res);
  F += '|';
  for (int Label : R->getLabels()) {
    F += std::to_string(Label);
    F += ',';
  }
  return hashBytes(F);
}

} // namespace

std::vector<RoutineFingerprint>
gadt::pascal::fingerprintRoutines(const Program &P) {
  std::vector<RoutineFingerprint> Out;
  pascal::forEachRoutine(P.getMain(), [&](pascal::RoutineDecl *R) {
    RoutineFingerprint FP;
    FP.Routine = R;
    FP.QualifiedName = R->qualifiedName();
    FP.HeaderHash = headerHashOf(R);
    FP.FrameHash = frameHashOf(R);
    // The body hash folds the statement tree directly (no nested routine
    // declarations, no sema-assigned loop unit names), so it tracks exactly
    // the statements this routine executes — equal iff the canonical body
    // prints are equal, computed without building the print.
    if (R->getBody()) {
      FnvStream S;
      foldStmt(S, R->getBody());
      FP.BodyHash = S.H;
    } else {
      FP.BodyHash = FnvOffsetBasis;
    }
    FP.FullHash = hashCombine(FP.HeaderHash,
                              hashCombine(FP.FrameHash, FP.BodyHash));
    Out.push_back(std::move(FP));
  });
  return Out;
}
