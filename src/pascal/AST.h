//===- AST.h - Pascal abstract syntax tree ----------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax tree for the Pascal subset. The design follows the
/// LLVM style: kind-enum RTTI with classof/isa/cast, unique_ptr ownership of
/// children, raw non-owning cross references filled in by Sema.
///
/// A whole program is modeled as a tree of RoutineDecls: the program itself
/// is the root routine (its "locals" are the global variables, its "nested"
/// routines are the top-level procedures), which makes every analysis and
/// transformation uniform over units — exactly the granularity at which the
/// paper performs algorithmic debugging.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_AST_H
#define GADT_PASCAL_AST_H

#include "pascal/Type.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gadt {
namespace pascal {

class Expr;
class Stmt;
class VarDecl;
class RoutineDecl;

using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions. Sema annotates each expression with its
/// type; the parser leaves \c Ty null.
class Expr {
public:
  enum class Kind : uint8_t {
    IntLiteral,
    BoolLiteral,
    StringLiteral,
    ArrayLiteral,
    VarRef,
    Index,
    Call,
    Unary,
    Binary,
  };

  virtual ~Expr() = default;

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }
  const Type *getType() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  /// Stable id within a numbered program (see assignNodeIds); 0 = unassigned.
  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Deep copy; cross references (resolved decls) are copied verbatim and
  /// remain valid only while the referenced declarations are alive.
  virtual ExprPtr clone() const = 0;

  /// Renders the expression as Pascal source.
  std::string str() const;

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
  const Type *Ty = nullptr;
  unsigned Id = 0;
};

/// An integer literal such as `42`.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, int64_t Value)
      : Expr(Kind::IntLiteral, Loc), Value(Value) {}

  int64_t getValue() const { return Value; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLiteral; }

private:
  int64_t Value;
};

/// `true` or `false`.
class BoolLiteralExpr : public Expr {
public:
  BoolLiteralExpr(SourceLoc Loc, bool Value)
      : Expr(Kind::BoolLiteral, Loc), Value(Value) {}

  bool getValue() const { return Value; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::BoolLiteral;
  }

private:
  bool Value;
};

/// A string literal; permitted only as a write() argument.
class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(SourceLoc Loc, std::string Value)
      : Expr(Kind::StringLiteral, Loc), Value(std::move(Value)) {}

  const std::string &getValue() const { return Value; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::StringLiteral;
  }

private:
  std::string Value;
};

/// `[e1, e2, ...]` — an array constructor with bounds [1..n]. Not standard
/// Pascal, but the paper's examples call `sqrtest([1,2], 2, isok)`.
class ArrayLiteralExpr : public Expr {
public:
  ArrayLiteralExpr(SourceLoc Loc, std::vector<ExprPtr> Elements)
      : Expr(Kind::ArrayLiteral, Loc), Elements(std::move(Elements)) {}

  const std::vector<ExprPtr> &getElements() const { return Elements; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::ArrayLiteral;
  }

private:
  std::vector<ExprPtr> Elements;
};

/// A reference to a variable, parameter or (inside a function body) the
/// function-result pseudo-variable.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, std::string Name)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  /// Renames the reference (transformation passes re-bind globals to the
  /// parameters that replace them; Sema re-resolves afterwards).
  void setName(std::string N) { Name = std::move(N); }

  /// The declaration this reference resolves to; filled in by Sema. For a
  /// function-result assignment target this is the function's result
  /// pseudo-variable (RoutineDecl::getResultVar()).
  VarDecl *getDecl() const { return Decl; }
  void setDecl(VarDecl *D) { Decl = D; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  std::string Name;
  VarDecl *Decl = nullptr;
};

/// An array element access `base[index]`.
class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, ExprPtr Base, ExprPtr Index)
      : Expr(Kind::Index, Loc), Base(std::move(Base)),
        IndexE(std::move(Index)) {}

  Expr *getBase() const { return Base.get(); }
  Expr *getIndex() const { return IndexE.get(); }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Index; }

private:
  ExprPtr Base;
  ExprPtr IndexE;
};

/// A function call in expression position.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, std::string CalleeName, std::vector<ExprPtr> Args)
      : Expr(Kind::Call, Loc), CalleeName(std::move(CalleeName)),
        Args(std::move(Args)) {}

  const std::string &getCalleeName() const { return CalleeName; }
  RoutineDecl *getCallee() const { return Callee; }
  void setCallee(RoutineDecl *R) { Callee = R; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  std::vector<ExprPtr> &getArgs() { return Args; }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  std::string CalleeName;
  RoutineDecl *Callee = nullptr;
  std::vector<ExprPtr> Args;
};

/// Unary operators.
enum class UnaryOp : uint8_t { Neg, Not };

class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, ExprPtr Operand)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp getOp() const { return Op; }
  Expr *getOperand() const { return Operand.get(); }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  ExprPtr Operand;
};

/// Binary operators of the subset.
enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div, // Pascal `div` (integer division)
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

/// Returns the Pascal spelling of \p Op ("+", "div", "<=", ...).
const char *binaryOpSpelling(BinaryOp Op);

class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS.get(); }
  Expr *getRHS() const { return RHS.get(); }

  ExprPtr clone() const override;
  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  ExprPtr LHS;
  ExprPtr RHS;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt {
public:
  enum class Kind : uint8_t {
    Assign,
    Compound,
    If,
    While,
    Repeat,
    For,
    ProcCall,
    Goto,
    Labeled,
    Read,
    Write,
    Empty,
  };

  virtual ~Stmt() = default;

  Kind getKind() const { return K; }
  SourceLoc getLoc() const { return Loc; }

  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Deep copy (see Expr::clone for the cross-reference caveat).
  virtual StmtPtr clone() const = 0;

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
  unsigned Id = 0;
};

/// `target := value` where target is a VarRef or Index expression.
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, ExprPtr Target, ExprPtr Value)
      : Stmt(Kind::Assign, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}

  Expr *getTarget() const { return Target.get(); }
  Expr *getValue() const { return Value.get(); }
  ExprPtr takeValue() { return std::move(Value); }
  void setValue(ExprPtr V) { Value = std::move(V); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  ExprPtr Target;
  ExprPtr Value;
};

/// `begin s1; s2; ... end`.
class CompoundStmt : public Stmt {
public:
  CompoundStmt(SourceLoc Loc, std::vector<StmtPtr> Body)
      : Stmt(Kind::Compound, Loc), Body(std::move(Body)) {}

  const std::vector<StmtPtr> &getBody() const { return Body; }
  std::vector<StmtPtr> &getBody() { return Body; }

  StmtPtr clone() const override;
  /// Typed deep copy for the common "clone a body" case.
  std::unique_ptr<CompoundStmt> cloneCompound() const;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Compound; }

private:
  std::vector<StmtPtr> Body;
};

/// `if cond then s1 [else s2]`.
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Then, StmtPtr Else)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  Expr *getCond() const { return Cond.get(); }
  Stmt *getThen() const { return Then.get(); }
  Stmt *getElse() const { return Else.get(); }
  /// Mutable child slots for transformation passes.
  StmtPtr &thenSlot() { return Then; }
  StmtPtr &elseSlot() { return Else; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else; // may be null
};

/// `while cond do body`. Loops are debugging units in the paper, so each
/// loop carries a synthesized unit name ("p.while@12") assigned by Sema.
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Body)
      : Stmt(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}

  Expr *getCond() const { return Cond.get(); }
  void setCond(ExprPtr C) { Cond = std::move(C); }
  Stmt *getBody() const { return Body.get(); }
  /// Mutable body slot for transformation passes.
  StmtPtr &bodySlot() { return Body; }

  const std::string &getUnitName() const { return UnitName; }
  void setUnitName(std::string N) { UnitName = std::move(N); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  ExprPtr Cond;
  StmtPtr Body;
  std::string UnitName;
};

/// `repeat s1; ... until cond`.
class RepeatStmt : public Stmt {
public:
  RepeatStmt(SourceLoc Loc, std::vector<StmtPtr> Body, ExprPtr Cond)
      : Stmt(Kind::Repeat, Loc), Body(std::move(Body)), Cond(std::move(Cond)) {}

  const std::vector<StmtPtr> &getBody() const { return Body; }
  std::vector<StmtPtr> &getBody() { return Body; }
  Expr *getCond() const { return Cond.get(); }

  const std::string &getUnitName() const { return UnitName; }
  void setUnitName(std::string N) { UnitName = std::move(N); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Repeat; }

private:
  std::vector<StmtPtr> Body;
  ExprPtr Cond;
  std::string UnitName;
};

/// `for v := from to|downto to do body`.
class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, ExprPtr LoopVar, ExprPtr From, ExprPtr To,
          bool Downward, StmtPtr Body)
      : Stmt(Kind::For, Loc), LoopVar(std::move(LoopVar)),
        From(std::move(From)), To(std::move(To)), Downward(Downward),
        Body(std::move(Body)) {}

  /// The control variable reference (always a VarRefExpr).
  Expr *getLoopVar() const { return LoopVar.get(); }
  Expr *getFrom() const { return From.get(); }
  Expr *getTo() const { return To.get(); }
  bool isDownward() const { return Downward; }
  Stmt *getBody() const { return Body.get(); }
  /// Mutable body slot for transformation passes.
  StmtPtr &bodySlot() { return Body; }

  const std::string &getUnitName() const { return UnitName; }
  void setUnitName(std::string N) { UnitName = std::move(N); }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }

private:
  ExprPtr LoopVar;
  ExprPtr From;
  ExprPtr To;
  bool Downward;
  StmtPtr Body;
  std::string UnitName;
};

/// A procedure call statement.
class ProcCallStmt : public Stmt {
public:
  ProcCallStmt(SourceLoc Loc, std::string CalleeName, std::vector<ExprPtr> Args)
      : Stmt(Kind::ProcCall, Loc), CalleeName(std::move(CalleeName)),
        Args(std::move(Args)) {}

  const std::string &getCalleeName() const { return CalleeName; }
  RoutineDecl *getCallee() const { return Callee; }
  void setCallee(RoutineDecl *R) { Callee = R; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }
  std::vector<ExprPtr> &getArgs() { return Args; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::ProcCall; }

private:
  std::string CalleeName;
  RoutineDecl *Callee = nullptr;
  std::vector<ExprPtr> Args;
};

/// `goto L`. Sema records whether the target label is declared in the
/// current routine (local) or in an enclosing one (a *global goto* in the
/// paper's terminology, subject to the breaking transformation).
class GotoStmt : public Stmt {
public:
  GotoStmt(SourceLoc Loc, int Label) : Stmt(Kind::Goto, Loc), Label(Label) {}

  int getLabel() const { return Label; }

  /// Routine whose scope declares the target label; set by Sema.
  RoutineDecl *getTargetRoutine() const { return TargetRoutine; }
  void setTargetRoutine(RoutineDecl *R) { TargetRoutine = R; }
  /// True when the goto leaves the routine it occurs in.
  bool isNonLocal() const { return NonLocal; }
  void setNonLocal(bool V) { NonLocal = V; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Goto; }

private:
  int Label;
  RoutineDecl *TargetRoutine = nullptr;
  bool NonLocal = false;
};

/// `L: stmt`.
class LabeledStmt : public Stmt {
public:
  LabeledStmt(SourceLoc Loc, int Label, StmtPtr Sub)
      : Stmt(Kind::Labeled, Loc), Label(Label), Sub(std::move(Sub)) {}

  int getLabel() const { return Label; }
  Stmt *getSub() const { return Sub.get(); }
  /// Mutable substatement slot for transformation passes.
  StmtPtr &subSlot() { return Sub; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Labeled; }

private:
  int Label;
  StmtPtr Sub;
};

/// `read(v1, v2, ...)` — reads integers from the program input stream.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, std::vector<ExprPtr> Targets)
      : Stmt(Kind::Read, Loc), Targets(std::move(Targets)) {}

  const std::vector<ExprPtr> &getTargets() const { return Targets; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Read; }

private:
  std::vector<ExprPtr> Targets;
};

/// `write(...)` / `writeln(...)`.
class WriteStmt : public Stmt {
public:
  WriteStmt(SourceLoc Loc, std::vector<ExprPtr> Args, bool Newline)
      : Stmt(Kind::Write, Loc), Args(std::move(Args)), Newline(Newline) {}

  const std::vector<ExprPtr> &getArgs() const { return Args; }
  bool isWriteln() const { return Newline; }

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Write; }

private:
  std::vector<ExprPtr> Args;
  bool Newline;
};

/// The empty statement (between stray semicolons).
class EmptyStmt : public Stmt {
public:
  explicit EmptyStmt(SourceLoc Loc) : Stmt(Kind::Empty, Loc) {}

  StmtPtr clone() const override;
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Empty; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// Parameter passing modes. `In` and `Out` appear in programs produced by
/// the paper's transformation phase (Section 6); `In` behaves like a value
/// parameter and `Out` like a var parameter whose input value is unspecified.
enum class ParamMode : uint8_t { Value, Var, In, Out };

const char *paramModeSpelling(ParamMode Mode);

/// A variable: global, routine-local, parameter, or the result
/// pseudo-variable of a function.
class VarDecl {
public:
  enum class VarKind : uint8_t { Local, Param, Result };

  VarDecl(SourceLoc Loc, std::string Name, const Type *Ty, VarKind VK,
          ParamMode Mode = ParamMode::Value)
      : Loc(Loc), Name(std::move(Name)), Ty(Ty), VK(VK), Mode(Mode) {}

  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }
  const Type *getType() const { return Ty; }
  VarKind getVarKind() const { return VK; }
  bool isResult() const { return VK == VarKind::Result; }
  ParamMode getMode() const { return Mode; }
  /// True for var/out parameters (callee writes flow back to the caller).
  bool isReference() const {
    return VK == VarKind::Param &&
           (Mode == ParamMode::Var || Mode == ParamMode::Out);
  }

  /// The routine whose scope declares this variable; set by Sema. Globals
  /// belong to the root (program) routine.
  RoutineDecl *getOwner() const { return Owner; }
  void setOwner(RoutineDecl *R) { Owner = R; }

  /// Storage coordinates assigned by assignStorageSlots: the index of this
  /// variable in its owner's activation frame, and the owner's static
  /// nesting depth (program = 0). Together they let the interpreter reach
  /// any variable with (depth hops, array index) instead of map lookups.
  uint32_t getSlot() const { return Slot; }
  uint32_t getDepth() const { return Depth; }
  void setStorage(uint32_t S, uint32_t D) {
    Slot = S;
    Depth = D;
  }

private:
  SourceLoc Loc;
  std::string Name;
  const Type *Ty;
  VarKind VK;
  ParamMode Mode;
  RoutineDecl *Owner = nullptr;
  uint32_t Slot = 0;
  uint32_t Depth = 0;
};

/// A procedure, function, or the program itself (the root routine).
///
/// The root routine has isProgram() == true: its locals are the program's
/// global variables and its body is the main block.
class RoutineDecl {
public:
  RoutineDecl(SourceLoc Loc, std::string Name, bool IsFunction,
              const Type *ReturnType)
      : Loc(Loc), Name(std::move(Name)), IsFunction(IsFunction),
        ReturnType(ReturnType) {}

  RoutineDecl(const RoutineDecl &) = delete;
  RoutineDecl &operator=(const RoutineDecl &) = delete;

  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }
  bool isFunction() const { return IsFunction; }
  const Type *getReturnType() const { return ReturnType; }
  bool isProgram() const { return Parent == nullptr; }

  RoutineDecl *getParent() const { return Parent; }
  void setParent(RoutineDecl *P) { Parent = P; }

  const std::vector<std::unique_ptr<VarDecl>> &getParams() const {
    return Params;
  }
  std::vector<std::unique_ptr<VarDecl>> &getParams() { return Params; }
  const std::vector<std::unique_ptr<VarDecl>> &getLocals() const {
    return Locals;
  }
  std::vector<std::unique_ptr<VarDecl>> &getLocals() { return Locals; }
  const std::vector<int> &getLabels() const { return Labels; }
  std::vector<int> &getLabels() { return Labels; }
  const std::vector<std::unique_ptr<RoutineDecl>> &getNested() const {
    return Nested;
  }
  std::vector<std::unique_ptr<RoutineDecl>> &getNested() { return Nested; }

  CompoundStmt *getBody() const { return Body.get(); }
  void setBody(std::unique_ptr<CompoundStmt> B) { Body = std::move(B); }

  /// Function-result pseudo-variable (functions only); created by Sema.
  VarDecl *getResultVar() const { return ResultVar.get(); }
  void setResultVar(std::unique_ptr<VarDecl> V) { ResultVar = std::move(V); }

  VarDecl *addParam(std::unique_ptr<VarDecl> P) {
    Params.push_back(std::move(P));
    return Params.back().get();
  }
  VarDecl *addLocal(std::unique_ptr<VarDecl> L) {
    Locals.push_back(std::move(L));
    return Locals.back().get();
  }
  RoutineDecl *addNested(std::unique_ptr<RoutineDecl> R) {
    Nested.push_back(std::move(R));
    return Nested.back().get();
  }

  /// Fully qualified name, e.g. "main.p.q" — unique within a program.
  std::string qualifiedName() const;

  /// Looks up a parameter or local (not enclosing scopes) by lowercase name.
  VarDecl *findLocal(const std::string &Name) const;
  /// Looks up an immediately nested routine by lowercase name.
  RoutineDecl *findNested(const std::string &Name) const;

  /// Deep copy of the whole routine tree. Cross references inside the clone
  /// (VarRef decls, call targets, var owners) are remapped to the cloned
  /// declarations, so the result is a self-contained program tree.
  std::unique_ptr<RoutineDecl> cloneTree() const;

  /// Node-id block assigned by assignNodeIds: this routine's statements and
  /// expressions occupy the contiguous id range [First, First + Count), the
  /// statements first. Two routines with equal canonical bodies have equal
  /// (Stmts, Count), and the k-th id of one corresponds to the k-th id of
  /// the other — the incremental matcher maps clean routines by this block
  /// arithmetic instead of re-walking their bodies.
  unsigned getNodeIdFirst() const { return NodeIdFirst; }
  unsigned getNodeIdStmts() const { return NodeIdStmts; }
  unsigned getNodeIdCount() const { return NodeIdCount; }
  void setNodeIdRange(unsigned First, unsigned Stmts, unsigned Count) {
    NodeIdFirst = First;
    NodeIdStmts = Stmts;
    NodeIdCount = Count;
  }

  /// Storage layout assigned by assignStorageSlots: static nesting depth
  /// (program = 0) and the declarations backing each frame slot, in slot
  /// order (params, then locals, then the function result).
  uint32_t getStorageDepth() const { return StorageDepth; }
  uint32_t getNumSlots() const {
    return static_cast<uint32_t>(SlotDecls.size());
  }
  const std::vector<const VarDecl *> &getSlotDecls() const {
    return SlotDecls;
  }
  void setStorageLayout(uint32_t Depth, std::vector<const VarDecl *> Decls) {
    StorageDepth = Depth;
    SlotDecls = std::move(Decls);
  }

private:
  SourceLoc Loc;
  std::string Name;
  bool IsFunction;
  const Type *ReturnType; // null for procedures and the program
  RoutineDecl *Parent = nullptr;
  std::vector<std::unique_ptr<VarDecl>> Params;
  std::vector<std::unique_ptr<VarDecl>> Locals;
  std::vector<int> Labels;
  std::vector<std::unique_ptr<RoutineDecl>> Nested;
  std::unique_ptr<CompoundStmt> Body;
  std::unique_ptr<VarDecl> ResultVar;
  uint32_t StorageDepth = 0;
  std::vector<const VarDecl *> SlotDecls;
  unsigned NodeIdFirst = 0, NodeIdStmts = 0, NodeIdCount = 0;
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// A named type definition (`type intarray = array[1..10] of integer;`).
struct TypeDef {
  std::string Name;
  const Type *Ty = nullptr;
};

/// A parsed (and, after Sema, checked) program: the type table plus the root
/// routine. Owns the TypeContext that all Type pointers point into.
class Program {
public:
  Program() : Types(std::make_unique<TypeContext>()) {}

  const std::vector<TypeDef> &getTypeDefs() const { return TypeDefs; }
  std::vector<TypeDef> &getTypeDefs() { return TypeDefs; }

  RoutineDecl *getMain() const { return Main.get(); }
  void setMain(std::unique_ptr<RoutineDecl> M) { Main = std::move(M); }

  const std::string &getName() const { return Main->getName(); }

  /// Deep copy sharing the TypeContext of this program. The clone keeps a
  /// non-owning pointer to our TypeContext, so the original must outlive it;
  /// transformations clone, mutate, and hand both back to the caller.
  /// Clones start with storage slots unassigned (they are re-analyzed after
  /// mutation, which reassigns them).
  std::unique_ptr<Program> clone() const;

  /// Whether assignStorageSlots has run on the current shape of the tree.
  bool areSlotsAssigned() const { return SlotsAssigned; }
  void setSlotsAssigned(bool B) { SlotsAssigned = B; }

  /// Id -> node table filled by assignNodeIds ([0] is null; statements and
  /// expressions share the numbering). Lets id-keyed consumers (the
  /// incremental matcher) reach any node without re-walking the tree; the
  /// typed pointer is recovered from the querying side's static type.
  const std::vector<const void *> &getNodeTable() const { return NodeTable; }
  void setNodeTable(std::vector<const void *> T) { NodeTable = std::move(T); }

private:
  std::unique_ptr<TypeContext> Types;
  TypeContext *SharedTypes = nullptr; // set on clones
  std::vector<TypeDef> TypeDefs;
  std::unique_ptr<RoutineDecl> Main;
  bool SlotsAssigned = false;
  std::vector<const void *> NodeTable;

public:
  /// The context actually used for type creation (shared for clones).
  TypeContext &types() { return SharedTypes ? *SharedTypes : *Types; }
};

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

/// Assigns dense, deterministic ids (1-based, preorder) to every statement
/// and expression in \p P. Returns the number of nodes numbered.
unsigned assignNodeIds(Program &P);

/// Assigns frame-storage coordinates to every variable of \p P: each
/// routine gets its static nesting depth and a slot-ordered declaration
/// table (params, locals, function result), and each VarDecl the matching
/// (slot, depth) pair. Sema runs this after every successful analysis;
/// re-running after tree mutation is safe and required. Returns the
/// largest frame size.
uint32_t assignStorageSlots(Program &P);

/// Calls \p Fn on every routine of the tree rooted at \p Root (preorder,
/// including \p Root itself).
void forEachRoutine(RoutineDecl *Root,
                    const std::function<void(RoutineDecl *)> &Fn);

/// The routine of \p P that \p Name names. A dotted name is a path from
/// the program, as RoutineDecl::qualifiedName() prints it (`p.b.helper`);
/// a plain name resolves only when exactly one routine has it. Null when
/// nothing matches, or when a plain name is shared — then \p Ambiguous,
/// if given, is set.
RoutineDecl *findRoutine(const Program &P, const std::string &Name,
                         bool *Ambiguous = nullptr);

/// Calls \p Fn on every statement in \p S (preorder, including \p S),
/// without descending into nested routines (statements own no routines, so
/// that cannot happen anyway).
void forEachStmt(Stmt *S, const std::function<void(Stmt *)> &Fn);

/// Calls \p Fn on every expression in \p S (preorder).
void forEachExpr(Stmt *S, const std::function<void(Expr *)> &Fn);

/// Calls \p Fn on \p E and every sub-expression (preorder).
void forEachExprIn(Expr *E, const std::function<void(Expr *)> &Fn);

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_AST_H
