//===- JSON.h - Minimal JSON writer and parser ------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON implementation the repo shares: a streaming writer used by
/// the span tracer (src/obs/Trace.h) and the benches' --json exports, plus
/// a small recursive-descent parser so tests can round-trip what the
/// writer (and the JSONL trace exporter) produced. Header-only; no
/// dependencies beyond the standard library.
///
/// The writer manages commas itself: interleave beginObject()/key()/value()
/// calls freely and the punctuation comes out right. Numbers are emitted
/// losslessly for integers; doubles use enough digits to round-trip.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SUPPORT_JSON_H
#define GADT_SUPPORT_JSON_H

#include <cassert>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gadt {
namespace json {

/// Escapes \p S for inclusion in a JSON string literal (quotes excluded).
inline std::string escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

/// Streaming writer appending to a caller-owned string.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  Writer &beginObject() {
    separate();
    Out += '{';
    Stack.push_back(State::FirstInObject);
    return *this;
  }
  Writer &endObject() {
    assert(!Stack.empty() && "endObject outside an object");
    Stack.pop_back();
    Out += '}';
    return *this;
  }
  Writer &beginArray() {
    separate();
    Out += '[';
    Stack.push_back(State::FirstInArray);
    return *this;
  }
  Writer &endArray() {
    assert(!Stack.empty() && "endArray outside an array");
    Stack.pop_back();
    Out += ']';
    return *this;
  }

  /// Writes the member key; the next value/container is its value.
  Writer &key(std::string_view K) {
    separate();
    Out += '"';
    Out += escape(K);
    Out += "\":";
    AfterKey = true;
    return *this;
  }

  Writer &value(std::string_view V) {
    separate();
    Out += '"';
    Out += escape(V);
    Out += '"';
    return *this;
  }
  Writer &value(const char *V) { return value(std::string_view(V)); }
  Writer &value(bool V) {
    separate();
    Out += V ? "true" : "false";
    return *this;
  }
  Writer &value(int64_t V) {
    separate();
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, V);
    Out += Buf;
    return *this;
  }
  Writer &value(uint64_t V) {
    separate();
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
    Out += Buf;
    return *this;
  }
  Writer &value(int V) { return value(static_cast<int64_t>(V)); }
  Writer &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  Writer &value(double V) {
    separate();
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += Buf;
    return *this;
  }
  Writer &null() {
    separate();
    Out += "null";
    return *this;
  }

  /// Appends \p Raw verbatim where a value is expected (for pre-rendered
  /// fragments, e.g. one trace event rendered per JSONL line).
  Writer &raw(std::string_view Raw) {
    separate();
    Out += Raw;
    return *this;
  }

private:
  enum class State : uint8_t { FirstInObject, InObject, FirstInArray, InArray };

  /// Emits the comma that precedes this element, if one is due.
  void separate() {
    if (AfterKey) {
      AfterKey = false;
      return;
    }
    if (Stack.empty())
      return;
    State &S = Stack.back();
    if (S == State::FirstInObject)
      S = State::InObject;
    else if (S == State::FirstInArray)
      S = State::InArray;
    else
      Out += ',';
  }

  std::string &Out;
  std::vector<State> Stack;
  bool AfterKey = false;
};

/// A parsed JSON value. Object member order is preserved.
struct Value {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// The member named \p Name of an object, or null when absent.
  const Value *find(std::string_view Name) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Key, V] : Obj)
      if (Key == Name)
        return &V;
    return nullptr;
  }

  /// Convenience accessors returning a fallback on kind mismatch / absence.
  std::string getString(std::string_view Name,
                        std::string Default = "") const {
    const Value *V = find(Name);
    return V && V->isString() ? V->Str : Default;
  }
  double getNumber(std::string_view Name, double Default = 0) const {
    const Value *V = find(Name);
    return V && V->isNumber() ? V->Num : Default;
  }
  bool getBool(std::string_view Name, bool Default = false) const {
    const Value *V = find(Name);
    return V && V->isBool() ? V->B : Default;
  }
};

/// The deepest nesting of arrays and objects parse() accepts. The parser
/// recurses once per level, so the bound keeps hostile input (a trace file
/// handed to gadt_report) from exhausting the stack; the traces and bench
/// captures this repo writes nest a few levels at most.
constexpr unsigned MaxNestingDepth = 512;

namespace detail {

class Parser {
public:
  explicit Parser(std::string_view S) : S(S) {}

  std::optional<Value> parse() {
    std::optional<Value> V = parseValue();
    if (!V)
      return std::nullopt;
    skipWs();
    if (Pos != S.size())
      return std::nullopt; // trailing garbage
    return V;
  }

private:
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Lit) {
    if (S.substr(Pos, Lit.size()) == Lit) {
      Pos += Lit.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parseString() {
    if (!consume('"'))
      return std::nullopt;
    std::string Out;
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"')
        return Out;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= S.size())
        return std::nullopt;
      char E = S[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > S.size())
          return std::nullopt;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = S[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return std::nullopt;
        }
        // Encode the code point as UTF-8 (surrogate pairs are passed
        // through as-is; the writer never produces them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return std::nullopt;
      }
    }
    return std::nullopt; // unterminated
  }

  std::optional<Value> parseValue() {
    skipWs();
    if (Pos >= S.size())
      return std::nullopt;
    char C = S[Pos];
    if (C == '{' || C == '[') {
      if (Depth == MaxNestingDepth)
        return std::nullopt;
      ++Depth;
      std::optional<Value> V = C == '{' ? parseObject() : parseArray();
      --Depth;
      return V;
    }
    Value V;
    if (C == '"') {
      std::optional<std::string> Str = parseString();
      if (!Str)
        return std::nullopt;
      V.K = Value::Kind::String;
      V.Str = std::move(*Str);
      return V;
    }
    if (literal("true")) {
      V.K = Value::Kind::Bool;
      V.B = true;
      return V;
    }
    if (literal("false")) {
      V.K = Value::Kind::Bool;
      V.B = false;
      return V;
    }
    if (literal("null"))
      return V;
    // Number.
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return std::nullopt;
    std::string Num(S.substr(Start, Pos - Start));
    char *End = nullptr;
    V.K = Value::Kind::Number;
    V.Num = std::strtod(Num.c_str(), &End);
    // strtod reads a number past DBL_MAX as infinity, which is not JSON
    // and which Writer could not write back.
    if (End != Num.c_str() + Num.size() || !std::isfinite(V.Num))
      return std::nullopt;
    return V;
  }

  std::optional<Value> parseObject() {
    ++Pos;
    Value V;
    V.K = Value::Kind::Object;
    skipWs();
    if (consume('}'))
      return V;
    for (;;) {
      std::optional<std::string> Key = [&]() {
        skipWs();
        return parseString();
      }();
      if (!Key || !consume(':'))
        return std::nullopt;
      std::optional<Value> Member = parseValue();
      if (!Member)
        return std::nullopt;
      V.Obj.emplace_back(std::move(*Key), std::move(*Member));
      if (consume(','))
        continue;
      if (consume('}'))
        return V;
      return std::nullopt;
    }
  }

  std::optional<Value> parseArray() {
    ++Pos;
    Value V;
    V.K = Value::Kind::Array;
    skipWs();
    if (consume(']'))
      return V;
    for (;;) {
      std::optional<Value> Elem = parseValue();
      if (!Elem)
        return std::nullopt;
      V.Arr.push_back(std::move(*Elem));
      if (consume(','))
        continue;
      if (consume(']'))
        return V;
      return std::nullopt;
    }
  }

  std::string_view S;
  size_t Pos = 0;
  /// Arrays and objects open around the value being parsed.
  unsigned Depth = 0;
};

} // namespace detail

/// Parses one JSON document. Returns nullopt on any syntax error, trailing
/// garbage, a number out of double's range or nesting deeper than
/// MaxNestingDepth.
inline std::optional<Value> parse(std::string_view S) {
  return detail::Parser(S).parse();
}

} // namespace json
} // namespace gadt

#endif // GADT_SUPPORT_JSON_H
