//===- Value.cpp - Runtime values -----------------------------------------===//

#include "interp/Value.h"

using namespace gadt;
using namespace gadt::interp;

Value Value::makeArray(ArrayVal V) {
  Value Val;
  Val.K = Kind::Array;
  Val.U.P = new ArrayPayload(std::move(V));
  return Val;
}

Value Value::makeStr(std::string V) {
  Value Val;
  Val.K = Kind::Str;
  Val.U.P = new StrPayload(std::move(V));
  return Val;
}

void Value::destroyPayload() {
  if (K == Kind::Array)
    delete static_cast<ArrayPayload *>(U.P);
  else
    delete static_cast<StrPayload *>(U.P);
}

void Value::unshareArray() {
  auto *Copy = new ArrayPayload(static_cast<ArrayPayload *>(U.P)->A);
  release();
  U.P = Copy;
}

bool Value::equals(const Value &Other) const {
  if (K != Other.K)
    return false;
  switch (K) {
  case Kind::Unset:
    return true;
  case Kind::Int:
    return U.Int == Other.U.Int;
  case Kind::Bool:
    return U.Bool == Other.U.Bool;
  case Kind::Array:
    return U.P == Other.U.P || asArray() == Other.asArray();
  case Kind::Str:
    return U.P == Other.U.P || asStr() == Other.asStr();
  }
  return false;
}

std::string Value::str() const {
  switch (K) {
  case Kind::Unset:
    return "<unset>";
  case Kind::Int:
    return std::to_string(U.Int);
  case Kind::Bool:
    return U.Bool ? "true" : "false";
  case Kind::Str:
    return "'" + asStr() + "'";
  case Kind::Array: {
    const std::vector<int64_t> &Elems = asArray().Elems;
    std::string Out = "[";
    for (size_t I = 0, N = Elems.size(); I != N; ++I) {
      if (I != 0)
        Out += ", ";
      Out += std::to_string(Elems[I]);
    }
    Out += "]";
    return Out;
  }
  }
  return "<invalid>";
}
