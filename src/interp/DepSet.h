//===- DepSet.h - Dependence sets -------------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence set of a runtime value: the ids of the execution-tree
/// nodes (unit executions) whose results flowed into it. This is the
/// substrate of the dynamic slicer (paper Section 7 / [Kamkar-91b]).
///
/// Values do not carry their dependences. A run with
/// InterpOptions::TrackDeps keeps one set per VM register and per cell in
/// side arrays beside them, and the execution tree stores one per output
/// binding; untracked runs hold none at all.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_DEPSET_H
#define GADT_INTERP_DEPSET_H

#include <cstdint>
#include <memory>
#include <vector>

namespace gadt {
namespace interp {

/// A set of execution-tree node ids, stored as sorted, disjoint runs
/// [Lo, Hi] of consecutive ids.
///
/// Dependence sets are copied every time a value flows — into an expression
/// result, across a unit boundary, into a control stack — so representation
/// cost dominates TrackDeps runs. Runs fit the data: node ids are preorder,
/// the units one call executes form one contiguous id interval (its
/// subtree), so a dependence set of hundreds of ids is typically a handful
/// of runs, and a merge is one pass over the runs of both sides.
///
///  - up to InlineRuns runs live inline (no allocation at all), and
///  - more runs are a shared heap vector. Copying a DepSet is then a
///    refcount bump, and mergeWith takes the other side's handle outright
///    when this set is a subset of it.
///
/// Runs are coalesced: no two runs overlap or touch, so every set has one
/// representation and equality compares runs.
///
/// Mutation is copy-on-write with one exception: when this set is the
/// *sole* owner of its heap vector (use_count == 1), a merge rewrites the
/// vector in place instead of reallocating. Sets under construction are
/// confined to the executing thread, so the uniqueness check is race-free;
/// once a handle has been shared — into the execution tree, the slicer,
/// another register or cell — the count exceeds one and the storage is
/// never edited again.
class DepSet {
public:
  /// An inclusive run of consecutive ids.
  struct Run {
    uint32_t Lo, Hi;
  };

  DepSet() = default;

  bool empty() const { return Count == 0; }
  size_t size() const { return static_cast<size_t>(Count); }
  /// The ids in ascending order, expanded from the runs. Returns by value;
  /// callers are tests and diagnostics (hot paths read forEachRun).
  std::vector<uint32_t> ids() const;

  /// Calls \p Fn(Lo, Hi) for every run, in ascending order.
  template <typename FnT> void forEachRun(FnT Fn) const {
    const Run *R = runs();
    for (size_t I = 0, N = numRuns(); I != N; ++I)
      Fn(R[I].Lo, R[I].Hi);
  }

  bool contains(uint32_t Id) const;
  /// Adds \p Id: a merge with the one-run set [Id, Id].
  void insert(uint32_t Id);
  void mergeWith(const DepSet &Other);

  /// Empties the set: drops the heap handle (refcount decrement at most)
  /// or just zeroes the inline count.
  void clear() {
    Heap.reset();
    Count = 0;
    SmallRuns = 0;
  }

  friend bool operator==(const DepSet &A, const DepSet &B) {
    size_t N = A.numRuns();
    if (A.Count != B.Count || N != B.numRuns())
      return false;
    const Run *RA = A.runs(), *RB = B.runs();
    if (RA == RB)
      return true;
    for (size_t I = 0; I != N; ++I)
      if (RA[I].Lo != RB[I].Lo || RA[I].Hi != RB[I].Hi)
        return false;
    return true;
  }

private:
  static constexpr size_t InlineRuns = 2;

  const Run *runs() const { return Heap ? Heap->data() : Small; }
  size_t numRuns() const { return Heap ? Heap->size() : SmallRuns; }

  /// Replaces the contents with the \p N coalesced runs at \p R, holding
  /// \p Ids ids: inline when they fit, else in the heap vector (rewritten in
  /// place when this set is its sole owner).
  void assign(const Run *R, size_t N, uint64_t Ids);

  /// Logically immutable once shared; see the class comment for the
  /// sole-owner in-place update.
  std::shared_ptr<std::vector<Run>> Heap;
  Run Small[InlineRuns] = {};
  /// Number of ids (a full 32-bit universe holds 2^32, hence 64 bits).
  uint64_t Count : 62 = 0;
  /// Runs used in Small; meaningful only when !Heap.
  uint64_t SmallRuns : 2 = 0;
};

// Tracked registers, cells and output bindings each hold one DepSet.
static_assert(sizeof(DepSet) <= 40, "DepSet must stay within 40 bytes");

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_DEPSET_H
