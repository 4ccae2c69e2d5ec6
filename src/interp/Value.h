//===- Value.h - Runtime values ---------------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values of the Pascal interpreter, and the integer arithmetic
/// every evaluator shares.
///
/// A Value is 16 bytes: a kind tag and one 64-bit payload. Integers and
/// booleans live inline. Arrays and strings live behind one pointer to an
/// immutable, atomically refcounted payload, so copying any value — into a
/// register, a cell, a binding, an oracle argument — is two words plus at
/// most one refcount increment. Dependence sets are not part of a value;
/// see interp/DepSet.h.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_VALUE_H
#define GADT_INTERP_VALUE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gadt {
namespace interp {

/// The subject language's integer operations, as every evaluator (the VM's
/// Add/Sub/Mul/NegI handlers and T-GEN's ConstEval) defines them.
enum class IntOp : uint8_t { Add, Sub, Mul, Neg };

/// Applies \p Op to \p L and \p R (Neg ignores \p R). Overflow wraps in
/// two's complement: the operation runs in uint64_t, where wrap-around is
/// defined, and the conversion back to int64_t is modulo 2^64 (defined
/// since C++20). This is the one place that decides what an overflowing
/// operation yields; checked arithmetic would change it here.
constexpr int64_t intArith(IntOp Op, int64_t L, int64_t R = 0) {
  uint64_t A = static_cast<uint64_t>(L), B = static_cast<uint64_t>(R);
  switch (Op) {
  case IntOp::Add:
    return static_cast<int64_t>(A + B);
  case IntOp::Sub:
    return static_cast<int64_t>(A - B);
  case IntOp::Mul:
    return static_cast<int64_t>(A * B);
  case IntOp::Neg:
    return static_cast<int64_t>(0 - A);
  }
  return 0;
}

/// Applies `div` (\p Mod false) or `mod` (\p Mod true) to \p L and \p R as
/// every evaluator (the VM's DivOp/ModOp handlers and T-GEN's ConstEval)
/// defines them: the quotient truncates toward zero and the remainder has
/// the sign of \p L. Stores the result in \p Out and returns null, or
/// returns the VM's runtime error when there is no result: a zero divisor,
/// or INT64_MIN div -1, the one quotient int64 cannot hold.
constexpr const char *intDivMod(bool Mod, int64_t L, int64_t R,
                                int64_t &Out) {
  if (R == 0)
    return Mod ? "modulo by zero" : "division by zero";
  // The hardware divide traps on INT64_MIN / -1; x mod -1 is 0 for every x.
  if (R == -1 && L == INT64_MIN) {
    if (!Mod)
      return "integer overflow";
    Out = 0;
    return nullptr;
  }
  Out = Mod ? L % R : L / R;
  return nullptr;
}

/// An array value: inclusive bounds plus elements. Pascal arrays have value
/// semantics (copied on assignment and on value-parameter passing); inside
/// a Value the copy is deferred until one holder writes an element.
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
///
/// Array and string payloads are shared by every copy of a value and never
/// change while shared, so the execution tree's snapshots (first reads,
/// bindings) stay valid however the program later writes the variable.
/// Their refcount is atomic: compiled constants and report databases share
/// payloads across batch threads.
class Value {
public:
  enum class Kind : uint8_t { Unset, Int, Bool, Array, Str };

  Value() = default;
  Value(const Value &O) : K(O.K), U(O.U) { retain(); }
  Value(Value &&O) noexcept : K(O.K), U(O.U) { O.K = Kind::Unset; }
  Value &operator=(const Value &O) {
    O.retain(); // before release(): self-assignment keeps its payload
    release();
    K = O.K;
    U = O.U;
    return *this;
  }
  Value &operator=(Value &&O) noexcept {
    Value Old(std::move(*this));
    K = O.K;
    U = O.U;
    O.K = Kind::Unset;
    return *this;
  }
  ~Value() { release(); }

  static Value makeInt(int64_t V) {
    Value Val;
    Val.K = Kind::Int;
    Val.U.Int = V;
    return Val;
  }
  static Value makeBool(bool V) {
    Value Val;
    Val.K = Kind::Bool;
    Val.U.Bool = V;
    return Val;
  }
  static Value makeArray(ArrayVal V);
  static Value makeStr(std::string V);

  Kind kind() const { return K; }
  bool isUnset() const { return K == Kind::Unset; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isArray() const { return K == Kind::Array; }
  bool isStr() const { return K == Kind::Str; }

  int64_t asInt() const { return U.Int; }
  bool asBool() const { return U.Bool; }
  const ArrayVal &asArray() const {
    return static_cast<const ArrayPayload *>(U.P)->A;
  }
  const std::string &asStr() const {
    return static_cast<const StrPayload *>(U.P)->S;
  }

  /// The one way to modify an array in place (an element store). When this
  /// value holds the payload's only reference it is edited where it is;
  /// otherwise it is copied first, so every other holder keeps the old
  /// contents. Requires isArray().
  ArrayVal &arrayForWrite() {
    if (U.P->Refs.load(std::memory_order_acquire) != 1)
      unshareArray();
    return static_cast<ArrayPayload *>(U.P)->A;
  }

  /// Structural equality: arrays and strings compare by content.
  bool equals(const Value &Other) const;

  /// Renders in the paper's notation: integers as-is, booleans as
  /// true/false, arrays as "[1, 2]".
  std::string str() const;

private:
  struct Payload {
    std::atomic<uint32_t> Refs{1};
  };
  struct ArrayPayload : Payload {
    explicit ArrayPayload(ArrayVal A) : A(std::move(A)) {}
    ArrayVal A;
  };
  struct StrPayload : Payload {
    explicit StrPayload(std::string S) : S(std::move(S)) {}
    std::string S;
  };

  bool onHeap() const { return K >= Kind::Array; }
  void retain() const {
    if (onHeap())
      U.P->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (onHeap() && U.P->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      destroyPayload();
  }
  /// Frees the payload whose last reference was just dropped.
  void destroyPayload();
  /// Replaces a shared array payload with a private copy.
  void unshareArray();

  Kind K = Kind::Unset;
  union Rep {
    int64_t Int;
    bool Bool;
    Payload *P;
  } U = {0};
};

static_assert(sizeof(Value) == 16, "a Value is a tag plus one 64-bit word");

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_VALUE_H
