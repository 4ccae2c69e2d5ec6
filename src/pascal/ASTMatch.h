//===- ASTMatch.h - Old→new AST correspondence across edits -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Old→new node correspondence across an edit. The incremental runtime
/// commits every edit as a fresh parse of the whole source; cached
/// per-routine artifacts (PDG arenas, compiled bytecode, call sites,
/// effect sets) hold pointers into the *old* AST. For routines whose body fingerprint
/// did not change, the old and new ASTs are structurally identical, so
/// their sema-assigned preorder id blocks align one-to-one: the k-th id of
/// the old block corresponds to the k-th id of the new one. AstMap records
/// that correspondence as a flat id-indexed pointer table — filled by block
/// arithmetic from the programs' node tables (pascal/AST.h assignNodeIds),
/// no body re-walk — and the replay paths rewrite cached pointers through
/// it.
///
/// Matching is defensive where it is cheap: routine pairing, header/local
/// variable mapping and the id-block shape (statement and total counts) are
/// verified; the per-node correspondence itself is carried by fingerprint
/// equality (the caller's precondition) and re-checked at replay time,
/// where call records and variable bindings are compared node-by-node. Any
/// mismatch makes the routine non-replayable; the transaction then falls
/// back to rebuilding it, so a matcher miss can cost time but never
/// correctness.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_ASTMATCH_H
#define GADT_PASCAL_ASTMATCH_H

#include "pascal/AST.h"

#include <unordered_map>
#include <vector>

namespace gadt {
namespace pascal {

class AstMap {
public:
  /// Binds the edit's new program; mapBody copies slices of its node table.
  /// Must be called before the first mapBody.
  void bindNewProgram(const Program &P) { NewProg = &P; }

  /// The new-AST counterpart of an old node, or null when unmapped.
  /// Statements and expressions index a flat table by the old node's
  /// program-wide id (assigned by sema's assignNodeIds pass) — replay
  /// rewrites every cached pointer through these, so the lookup must not
  /// hash. Id 0 means "never numbered" and stays unmapped.
  const Stmt *stmt(const Stmt *S) const {
    return static_cast<const Stmt *>(node(S));
  }
  const Expr *expr(const Expr *E) const {
    return static_cast<const Expr *>(node(E));
  }
  const VarDecl *var(const VarDecl *V) const { return find(Vars, V); }
  const RoutineDecl *routine(const RoutineDecl *R) const {
    return find(Routines, R);
  }

  /// Pairs two routines by identity (no body/var mapping yet).
  void addRoutine(const RoutineDecl *OldR, const RoutineDecl *NewR) {
    Routines[OldR] = NewR;
  }

  /// Maps the caller-visible variables (parameters and the function result
  /// slot). Valid when the routines' header fingerprints are equal; returns
  /// false on any shape mismatch.
  bool mapHeaderVars(const RoutineDecl *OldR, const RoutineDecl *NewR);

  /// Maps the locals. Valid when the frame fingerprints are equal.
  bool mapLocalVars(const RoutineDecl *OldR, const RoutineDecl *NewR);

  /// Maps the two bodies' nodes by id-block arithmetic: both routines'
  /// statements and expressions occupy contiguous sema-assigned id blocks,
  /// and equal body fingerprints (the caller's precondition) mean the
  /// blocks align index-for-index, so the old block's slice of the node
  /// map is filled straight from the new program's node table. Verifies the
  /// block shape (statement and total counts); returns false on mismatch —
  /// callers then treat the routine as dirty, which never consults the
  /// entries. Requires bindNewProgram.
  bool mapBody(const RoutineDecl *OldR, const RoutineDecl *NewR);

private:
  template <typename Node>
  static const Node *find(const std::unordered_map<const Node *, const Node *> &M,
                          const Node *K) {
    if (!K)
      return nullptr;
    auto It = M.find(K);
    return It == M.end() ? nullptr : It->second;
  }

  template <typename Node> const void *node(const Node *K) const {
    if (!K)
      return nullptr;
    unsigned Id = K->getId();
    return Id < Nodes.size() ? Nodes[Id] : nullptr;
  }

  /// Old stmt/expr id -> new node. Stmt and expr ids share one numbering
  /// space, so one table serves both; the typed accessors above recover
  /// the static type from the query key.
  std::vector<const void *> Nodes;
  const Program *NewProg = nullptr;
  std::unordered_map<const VarDecl *, const VarDecl *> Vars;
  std::unordered_map<const RoutineDecl *, const RoutineDecl *> Routines;
};

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_ASTMATCH_H
