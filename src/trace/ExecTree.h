//===- ExecTree.h - Execution trees -----------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution tree of the paper's tracing phase (Section 5.2): one node
/// per unit execution (procedure/function call, local loop, iteration),
/// annotated with input and output bindings. The algorithmic debugger
/// traverses this tree; the slicing subsystem prunes it.
///
/// The tree is an arena: one flat array of nodes indexed by the
/// interpreter-assigned unit id (dense, preorder by entry time, 1-based —
/// slot 0 is unused). Preorder ids make every subtree a contiguous id
/// interval [id, id + size): subtree weight is O(1) from the size stored at
/// build time, pruning skips a discarded subtree by jumping over its
/// interval, and child/sibling/parent navigation is pointer arithmetic —
/// no per-node unique_ptr, child vector, or recursive destructor.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TRACE_EXECTREE_H
#define GADT_TRACE_EXECTREE_H

#include "interp/Interpreter.h"
#include "support/NodeSet.h"

#include <functional>
#include <string>
#include <vector>

namespace gadt {
namespace trace {

class ExecTree;
class ExecTreeBuilder;

/// One unit execution, stored inline in the tree's node array. Nodes are
/// created only by ExecTreeBuilder; navigation relies on the node living
/// at index Id of a preorder-contiguous arena.
class ExecNode {
public:
  uint32_t getId() const { return Id; }
  interp::UnitKind getKind() const { return Kind; }
  const std::string &getName() const { return Name.str(); }
  support::Symbol getNameSymbol() const { return Name; }
  const pascal::RoutineDecl *getRoutine() const { return Routine; }
  const pascal::Stmt *getCallStmt() const { return CallStmt; }
  const pascal::Expr *getCallExpr() const { return CallExpr; }
  const pascal::Stmt *getLoopStmt() const { return LoopStmt; }
  uint32_t getIterIndex() const { return IterIndex; }
  SourceLoc getLoc() const { return Loc; }

  const std::vector<interp::Binding> &getInputs() const { return Inputs; }
  const std::vector<interp::Binding> &getOutputs() const { return Outputs; }
  /// The dependence set of output binding \p Out (an element of
  /// getOutputs()): the units whose results flowed into its value. Null
  /// when the tree was traced without InterpOptions::TrackDeps.
  const interp::DepSet *getOutputDeps(const interp::Binding &Out) const {
    return OutputDeps.empty() ? nullptr : &OutputDeps[&Out - Outputs.data()];
  }

  /// Number of nodes in this subtree (including this node) — O(1), stored
  /// when the unit exited during tracing.
  unsigned subtreeSize() const { return Size; }
  /// This subtree occupies exactly the id interval [getId(), subtreeEnd()).
  uint32_t subtreeEnd() const { return Id + Size; }

  ExecNode *getParent() const {
    return ParentId ? const_cast<ExecNode *>(this) - (Id - ParentId) : nullptr;
  }
  uint32_t getParentId() const { return ParentId; }

  /// First child, or null for a leaf. A node's first child, if any, is its
  /// immediate preorder successor.
  ExecNode *firstChild() const {
    return Size > 1 ? const_cast<ExecNode *>(this) + 1 : nullptr;
  }
  /// Next sibling under the same parent, or null. The sibling starts right
  /// after this subtree's interval, if the parent's interval extends there.
  ExecNode *nextSibling() const {
    if (!ParentId)
      return nullptr;
    const ExecNode *P = getParent();
    if (Id + Size >= P->Id + P->Size)
      return nullptr;
    return const_cast<ExecNode *>(this) + Size;
  }

  /// The node with id \p OtherId of the same tree (arena index; \p OtherId
  /// must be a valid id of this node's tree).
  ExecNode *nodeAt(uint32_t OtherId) const {
    return const_cast<ExecNode *>(this) + (static_cast<int64_t>(OtherId) -
                                           static_cast<int64_t>(Id));
  }

  /// Lazy child sequence over the sibling chain. Iteration yields
  /// ExecNode*; size()/operator[] walk the chain (children are not stored,
  /// they are derived from subtree intervals).
  class ChildRange {
  public:
    class iterator {
    public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ExecNode *;
      using difference_type = std::ptrdiff_t;
      using pointer = ExecNode *const *;
      using reference = ExecNode *;

      explicit iterator(ExecNode *N) : N(N) {}
      ExecNode *operator*() const { return N; }
      iterator &operator++() {
        N = N->nextSibling();
        return *this;
      }
      bool operator==(const iterator &O) const { return N == O.N; }
      bool operator!=(const iterator &O) const { return N != O.N; }

    private:
      ExecNode *N;
    };

    explicit ChildRange(ExecNode *First) : First(First) {}
    iterator begin() const { return iterator(First); }
    iterator end() const { return iterator(nullptr); }
    bool empty() const { return First == nullptr; }
    size_t size() const {
      size_t N = 0;
      for (ExecNode *C = First; C; C = C->nextSibling())
        ++N;
      return N;
    }
    ExecNode *operator[](size_t I) const {
      ExecNode *C = First;
      while (I--)
        C = C->nextSibling();
      return C;
    }
    ExecNode *front() const { return First; }

  private:
    ExecNode *First;
  };

  ChildRange getChildren() const {
    return ChildRange(firstChild());
  }

  /// Finds the output binding with the given name; null when absent.
  const interp::Binding *findOutput(const std::string &Name) const;
  /// Finds the input binding with the given name; null when absent.
  const interp::Binding *findInput(const std::string &Name) const;

  /// Renders the node in the paper's dialogue notation, e.g.
  /// "computs(In y: 3, Out r1: 12, Out r2: 9)" or "decrement(In y: 3)=4".
  std::string signature() const;

private:
  friend class ExecTree;
  friend class ExecTreeBuilder;

  uint32_t Id = 0;
  uint32_t ParentId = 0;
  uint32_t Size = 1; ///< subtree size including self; finalized at unit exit
  uint32_t IterIndex = 0;
  interp::UnitKind Kind = interp::UnitKind::Call;
  support::Symbol Name;
  const pascal::RoutineDecl *Routine = nullptr;
  const pascal::Stmt *CallStmt = nullptr;
  const pascal::Expr *CallExpr = nullptr;
  const pascal::Stmt *LoopStmt = nullptr;
  SourceLoc Loc;
  std::vector<interp::Binding> Inputs;
  std::vector<interp::Binding> Outputs;
  /// Parallel to Outputs on tracked runs, empty otherwise.
  std::vector<interp::DepSet> OutputDeps;
};

/// The whole tree: a flat preorder arena, index == unit id.
class ExecTree {
public:
  /// The root (id 1), or null for an empty tree.
  ExecNode *getRoot() const {
    return Nodes.size() > 1 ? const_cast<ExecNode *>(&Nodes[1]) : nullptr;
  }

  /// Node lookup by interpreter unit id; null when unknown. O(1).
  ExecNode *node(uint32_t Id) const {
    return Id >= 1 && Id < Nodes.size() ? const_cast<ExecNode *>(&Nodes[Id])
                                        : nullptr;
  }

  /// Number of nodes.
  unsigned size() const {
    return Nodes.empty() ? 0 : static_cast<unsigned>(Nodes.size() - 1);
  }
  /// Ids are exactly 1 .. maxNodeId().
  uint32_t maxNodeId() const { return size(); }

  /// Calls \p Fn on every node, preorder. Preorder is id order, so this is
  /// a linear sweep — no stack, no recursion.
  void forEachNode(const std::function<void(ExecNode *)> &Fn) const;

  /// Renders the tree as an indented listing of node signatures, matching
  /// the paper's Figures 7-9 presentation. Iterative: tree depth only
  /// bounds a small id stack, never the C++ call stack.
  std::string str() const;

  /// Renders the tree in Graphviz DOT syntax. When \p Kept is non-null,
  /// nodes outside the set are drawn dashed/grey — visualizing exactly what
  /// a slice pruned (Figures 8/9 as pictures). Signatures are escaped, so
  /// string-valued bindings produce valid DOT.
  std::string dot(const support::NodeSet *Kept = nullptr) const;

  /// Approximate heap footprint of the arena and its bindings: nodes,
  /// bindings, array payload bytes once per binding that references them,
  /// and the output dependence sets of a tracked run.
  size_t memoryBytes() const;

private:
  friend class ExecTreeBuilder;

  std::vector<ExecNode> Nodes; ///< [0] is an unused dummy slot
};

} // namespace trace
} // namespace gadt

#endif // GADT_TRACE_EXECTREE_H
