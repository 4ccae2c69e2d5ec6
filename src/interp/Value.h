//===- Value.h - Runtime values ---------------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values of the Pascal interpreter. Every value optionally carries
/// a *dependence set*: the ids of the execution-tree nodes (unit executions)
/// whose results flowed into it. This is the substrate of the dynamic
/// slicer (paper Section 7 / [Kamkar-91b]).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_VALUE_H
#define GADT_INTERP_VALUE_H

#include <cstdint>
#include <memory>
#include <string>
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
/// another value — the count exceeds one and the storage is never edited
/// again.
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

// Every Value and Binding holds one DepSet inline.
static_assert(sizeof(DepSet) <= 40, "DepSet must not grow Value");

/// An array value: inclusive bounds plus elements. Pascal arrays have value
/// semantics (copied on assignment and on value-parameter passing).
struct ArrayVal {
  int64_t Lo = 1;
  int64_t Hi = 0;
  std::vector<int64_t> Elems;

  int64_t size() const { return Hi - Lo + 1; }
  bool inBounds(int64_t Index) const { return Index >= Lo && Index <= Hi; }
  int64_t &at(int64_t Index) { return Elems[static_cast<size_t>(Index - Lo)]; }
  int64_t at(int64_t Index) const {
    return Elems[static_cast<size_t>(Index - Lo)];
  }

  friend bool operator==(const ArrayVal &A, const ArrayVal &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi && A.Elems == B.Elems;
  }
};

/// A runtime value: unset, integer, boolean, array or string.
class Value {
public:
  enum class Kind : uint8_t { Unset, Int, Bool, Array, Str };

  Value() = default;
  static Value makeInt(int64_t V) {
    Value Val;
    Val.K = Kind::Int;
    Val.Int = V;
    return Val;
  }
  static Value makeBool(bool V) {
    Value Val;
    Val.K = Kind::Bool;
    Val.Bool = V;
    return Val;
  }
  static Value makeArray(ArrayVal V) {
    Value Val;
    Val.K = Kind::Array;
    Val.Array = std::move(V);
    return Val;
  }
  static Value makeStr(std::string V) {
    Value Val;
    Val.K = Kind::Str;
    Val.Str = std::move(V);
    return Val;
  }

  /// In-place scalar mutation for register reuse: releases any array/string
  /// payload left behind by a previous occupant but keeps the DepSet (the
  /// caller assigns dependences explicitly when tracking is on).
  void setInt(int64_t V) {
    if (K == Kind::Array)
      Array = ArrayVal();
    else if (K == Kind::Str)
      Str.clear();
    K = Kind::Int;
    Int = V;
  }
  void setBool(bool V) {
    if (K == Kind::Array)
      Array = ArrayVal();
    else if (K == Kind::Str)
      Str.clear();
    K = Kind::Bool;
    Bool = V;
  }

  /// Returns the value to the unset state, releasing every heap-owning
  /// payload (array/string storage, shared dependence vectors). Equivalent
  /// to `*this = Value()` but without constructing and destroying a
  /// temporary — this runs once per cell returned to the interpreter's
  /// pool, where scalars with inline deps (the common case) pay nothing.
  void poolReset() {
    if (K == Kind::Array)
      Array = ArrayVal();
    else if (K == Kind::Str)
      Str = std::string();
    K = Kind::Unset;
    Deps.clear();
  }

  Kind kind() const { return K; }
  bool isUnset() const { return K == Kind::Unset; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isArray() const { return K == Kind::Array; }
  bool isStr() const { return K == Kind::Str; }

  int64_t asInt() const { return Int; }
  bool asBool() const { return Bool; }
  const ArrayVal &asArray() const { return Array; }
  ArrayVal &asArray() { return Array; }
  const std::string &asStr() const { return Str; }

  DepSet &deps() { return Deps; }
  const DepSet &deps() const { return Deps; }

  /// Structural equality; dependence sets do not participate.
  bool equals(const Value &Other) const;

  /// Renders in the paper's notation: integers as-is, booleans as
  /// true/false, arrays as "[1, 2]".
  std::string str() const;

private:
  Kind K = Kind::Unset;
  int64_t Int = 0;
  bool Bool = false;
  ArrayVal Array;
  std::string Str;
  DepSet Deps;
};

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_VALUE_H
