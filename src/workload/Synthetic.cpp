//===- Synthetic.cpp - Synthetic program generator ------------------------===//

#include "workload/Synthetic.h"

#include <cassert>
#include <vector>

using namespace gadt;
using namespace gadt::workload;

//===----------------------------------------------------------------------===//
// Chain
//===----------------------------------------------------------------------===//

ProgramPair gadt::workload::chainProgram(unsigned N, unsigned BugIndex) {
  assert(N >= 1 && BugIndex >= 1 && BugIndex <= N);
  auto Emit = [&](bool Buggy) {
    std::string S = "program chain;\nvar r: integer;\n";
    for (unsigned I = N; I >= 1; --I) {
      std::string Name = 'p' + std::to_string(I);
      S += "procedure " + Name + "(x: integer; var y: integer);\n";
      bool Bug = Buggy && I == BugIndex;
      if (I == N) {
        S += "begin\n  y := x + " + std::to_string(I) +
             (Bug ? " + 1" : "") + ";\nend;\n";
      } else {
        S += "var t: integer;\nbegin\n  p" + std::to_string(I + 1) + "(x + " +
             std::to_string(I) + ", t);\n  y := t + " + std::to_string(I) +
             (Bug ? " + 1" : "") + ";\nend;\n";
      }
    }
    S += "begin\n  p1(1, r);\n  writeln(r);\nend.\n";
    return S;
  };
  return {Emit(false), Emit(true), "p" + std::to_string(BugIndex)};
}

//===----------------------------------------------------------------------===//
// Tree
//===----------------------------------------------------------------------===//

ProgramPair gadt::workload::treeProgram(unsigned Depth) {
  assert(Depth >= 1 && Depth <= 12);
  unsigned NumNodes = (1u << Depth) - 1;
  unsigned FirstLeaf = 1u << (Depth - 1);
  unsigned BuggyNode = NumNodes; // rightmost leaf

  auto Emit = [&](bool Buggy) {
    std::string S = "program tree;\nvar r: integer;\n";
    for (unsigned I = NumNodes; I >= 1; --I) {
      std::string Name = 'n' + std::to_string(I);
      S += "procedure " + Name + "(x: integer; var y: integer);\n";
      bool Bug = Buggy && I == BuggyNode;
      if (I >= FirstLeaf) {
        S += "begin\n  y := x * 2" + std::string(Bug ? " + 1" : "") +
             ";\nend;\n";
      } else {
        S += "var l, rr: integer;\nbegin\n  n" + std::to_string(2 * I) +
             "(x + 1, l);\n  n" + std::to_string(2 * I + 1) +
             "(x + 2, rr);\n  y := l + rr" + (Bug ? " + 1" : "") +
             ";\nend;\n";
      }
    }
    S += "begin\n  n1(1, r);\n  writeln(r);\nend.\n";
    return S;
  };
  return {Emit(false), Emit(true), "n" + std::to_string(BuggyNode)};
}

//===----------------------------------------------------------------------===//
// Wide (Figure 5)
//===----------------------------------------------------------------------===//

ProgramPair gadt::workload::wideIrrelevantProgram(unsigned N) {
  assert(N >= 1);
  auto Emit = [&](bool Buggy) {
    std::string S = "program wide;\nvar x, y: integer;\n";
    for (unsigned I = 1; I < N; ++I)
      S += "procedure q" + std::to_string(I) +
           "(a: integer; var b: integer);\nbegin\n  b := a * " +
           std::to_string(I) + ";\nend;\n";
    S += "procedure target(a: integer; var b: integer);\nbegin\n"
         "  b := a * 10 + " +
         std::string(Buggy ? "2" : "1") + ";\nend;\n";
    S += "procedure p(a: integer; var b: integer);\nvar\n";
    for (unsigned I = 1; I < N; ++I)
      S += "  d" + std::to_string(I) + ": integer;\n";
    if (N == 1)
      S += "  dd: integer;\n";
    S += "begin\n";
    for (unsigned I = 1; I < N; ++I)
      S += "  q" + std::to_string(I) + "(a, d" + std::to_string(I) + ");\n";
    S += "  target(a, b);\nend;\n";
    S += "begin\n  x := 3;\n  p(x, y);\n  writeln(y);\nend.\n";
    return S;
  };
  return {Emit(false), Emit(true), "target"};
}

//===----------------------------------------------------------------------===//
// Summary mesh
//===----------------------------------------------------------------------===//

ProgramPair gadt::workload::summaryMeshProgram(unsigned Layers,
                                               unsigned Width) {
  assert(Layers >= 1 && Width >= 1);
  auto Name = [](unsigned L, unsigned W) {
    return 'm' + std::to_string(L) + '_' + std::to_string(W);
  };
  auto Emit = [&](bool Buggy) {
    std::string S = "program mesh;\nvar g1, g2, r1, r2: integer;\n";
    // Bottom-up so every callee is declared before its callers.
    for (unsigned L = Layers; L >= 1; --L) {
      for (unsigned W = 1; W <= Width; ++W) {
        bool Bug = Buggy && L == Layers && W == 1;
        S += "procedure " + Name(L, W) +
             "(a, b: integer; var u, v: integer);\n";
        if (L == Layers) {
          S += "begin\n  u := a + b + " + std::to_string(W) +
               (Bug ? " + 1" : "") + ";\n  v := a - b;\n  g1 := g1 + a;\nend;\n";
        } else {
          S += "var t1, t2, s1, s2: integer;\nbegin\n  t1 := a;\n  t2 := b;\n";
          for (unsigned C = 1; C <= Width; ++C) {
            S += "  " + Name(L + 1, C) + "(t1 + " + std::to_string(C) +
                 ", t2, s1, s2);\n  t1 := t1 + s1;\n  t2 := t2 + s2;\n";
          }
          S += "  u := t1;\n  v := t2 + g2;\n  g2 := g2 + b;\nend;\n";
        }
      }
    }
    S += "begin\n  g1 := 1;\n  g2 := 2;\n";
    for (unsigned W = 1; W <= Width; ++W)
      S += "  " + Name(1, W) + "(" + std::to_string(W) +
           ", 2, r1, r2);\n  g1 := g1 + r1 + r2;\n";
    S += "  writeln(g1, ' ', g2);\nend.\n";
    return S;
  };
  return {Emit(false), Emit(true), Name(Layers, 1)};
}

//===----------------------------------------------------------------------===//
// Incremental-edit workload
//===----------------------------------------------------------------------===//

std::string gadt::workload::incrementalEditProgram(unsigned Leaves,
                                                   unsigned EditedLeaf,
                                                   unsigned Variant,
                                                   unsigned Rounds) {
  assert(Leaves >= 1);
  if (Rounds == 0)
    Rounds = 1;
  std::string S = "program incr;\nvar r: integer;\n";
  for (unsigned I = 1; I <= Leaves; ++I) {
    bool Edited = Variant != 0 && I == EditedLeaf;
    std::string K = std::to_string(I);
    // Statement-dense bodies on purpose: reaching-defs and postdominator
    // rows are bitsets over the routine's definitions/CFG nodes, so the
    // per-routine analysis cost grows quadratically with body size while
    // parsing stays linear — exactly the regime where replaying a clean
    // routine's PDG beats rebuilding it. Every value is bounded with `mod`
    // and every loop has a small trip count, so the differential tests can
    // execute these under full tracing without blowing up.
    S += "procedure leaf" + K + "(x: integer; var y: integer);\n";
    S += "var t, u, v, w, m, k, p, q, i, j: integer;\nbegin\n";
    S += "  t := 0;\n  u := 1;\n  v := 2;\n  w := 3;\n";
    S += "  p := x mod 5;\n  q := x mod 3;\n";
    for (unsigned R = 0; R != Rounds; ++R) {
      // Round-varied small constants keep the rounds from being literal
      // copies of each other (each round reads the previous round's
      // final values, so the def-use web spans the whole body).
      std::string C1 = std::to_string(R % 3 + 1), C2 = std::to_string(R % 5 + 2);
      S += "  for j := 1 to 4 do\n  begin\n";
      S += "    k := (x + j * " + K + " + " + C1 + ") mod 13 + 3;\n";
      S += "    if k > 7 then\n    begin\n"
           "      t := (t + k * " + C2 + " - u) mod 23;\n"
           "      u := (u + t + p) mod 17;\n"
           "      q := (q + u - v) mod 29;\n    end\n"
           "    else\n    begin\n"
           "      t := (t - k + v) mod 23;\n"
           "      v := (v + t - w) mod 19;\n"
           "      p := (p + v + j) mod 7;\n    end;\n";
      S += "    while k > 0 do\n    begin\n      k := k - 2;\n"
           "      w := (w + k + u - v) mod 11;\n"
           "      p := (p + w * " + C1 + " - q) mod 7;\n"
           "      for i := 1 to 2 do\n      begin\n"
           "        q := (q + p + i - t) mod 29;\n"
           "        if q > 11 then\n        begin\n"
           "          m := (q - i) mod 4;\n"
           "          while m > 0 do\n          begin\n"
           "            m := m - 1;\n"
           "            u := (u + m + q) mod 17;\n"
           "            repeat\n              u := (u + 1) mod 17;\n"
           "            until u mod 3 = 0;\n          end;\n"
           "        end\n        else\n"
           "          u := (u + q - w) mod 17;\n      end;\n"
           "    end;\n";
      S += "    for i := 1 to 3 do\n    begin\n"
           "      v := (v + i * u - q) mod 19;\n"
           "      w := (w + v + p) mod 11;\n"
           "      t := (t + u - v + w) mod 23;\n    end;\n";
      S += "    m := (t + u) mod 6 + 4;\n    repeat\n      m := m - 3;\n"
           "      q := (q + m + j) mod 29;\n"
           "      p := (p + q - u) mod 7;\n"
           "      t := (t + p + v) mod 23;\n    until m < 1;\n";
      S += "  end;\n";
    }
    S += "  for j := 1 to 3 do\n    if t > j then\n    begin\n"
         "      t := (t - j + q) mod 23;\n"
         "      u := (u + t - p) mod 17;\n    end;\n";
    if (Edited)
      S += "  t := t + " + std::to_string(Variant) + ";\n";
    S += "  y := t + u + v + w + p + q + " + K + ";\nend;\n";
  }
  S += "procedure hub(a: integer; var b: integer);\nvar s, t: integer;\n"
       "begin\n  s := 0;\n";
  for (unsigned I = 1; I <= Leaves; ++I)
    S += "  leaf" + std::to_string(I) + "(a + " + std::to_string(I) +
         ", t);\n  s := s + t;\n";
  S += "  b := s;\nend;\n";
  S += "begin\n  hub(2, r);\n  writeln(r);\nend.\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Random structured programs
//===----------------------------------------------------------------------===//

namespace {

/// Small deterministic linear-congruential generator.
class Rng {
public:
  explicit Rng(uint32_t Seed) : State(Seed * 2654435761u + 12345u) {}

  unsigned next(unsigned Bound) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<unsigned>((State >> 33) % Bound);
  }

private:
  uint64_t State;
};

/// Emits one random program; \p Buggy perturbs the designated routine.
class RandomEmitter {
public:
  RandomEmitter(const SyntheticOptions &Opts, unsigned BuggyRoutine)
      : Opts(Opts), BuggyRoutine(BuggyRoutine) {}

  std::string emit(bool Buggy) {
    R = Rng(Opts.Seed);
    Out.clear();
    Out += "program rnd;\n";
    if (Opts.UseGotos)
      Out += "label 99;\n";
    Out += "var\n";
    for (unsigned G = 1; G <= Opts.NumGlobals; ++G)
      Out += "  g" + std::to_string(G) + ": integer;\n";
    Out += "  res: integer;\n";
    for (unsigned I = 1; I <= Opts.NumRoutines; ++I)
      emitRoutine(I, Buggy && I == BuggyRoutine);
    emitMain();
    return Out;
  }

private:
  /// A random atom visible inside routine bodies.
  std::string atom() {
    switch (R.next(5)) {
    case 0:
      return "a";
    case 1:
      return "t1";
    case 2:
      return "t2";
    case 3:
      if (Opts.NumGlobals > 0)
        return "g" + std::to_string(1 + R.next(Opts.NumGlobals));
      return "t1";
    default:
      return std::to_string(1 + R.next(9));
    }
  }

  std::string expr(unsigned Depth = 2) {
    if (Depth == 0 || R.next(3) == 0)
      return atom();
    const char *Ops[] = {" + ", " - ", " * "};
    return "(" + expr(Depth - 1) + Ops[R.next(3)] + expr(Depth - 1) + ")";
  }

  std::string condition() {
    const char *Rel[] = {" > ", " < ", " = ", " <= ", " >= ", " <> "};
    return expr(1) + Rel[R.next(6)] + expr(1);
  }

  std::string simpleStmt(unsigned RoutineIndex) {
    // No trailing separator: callers place ';' (none before 'else').
    switch (R.next(4)) {
    case 0:
      return "t1 := " + expr();
    case 1:
      return "t2 := " + expr();
    case 2:
      if (Opts.NumGlobals > 0)
        return "g" + std::to_string(1 + R.next(Opts.NumGlobals)) + " := " +
               expr();
      return "t1 := " + expr();
    default:
      if (RoutineIndex > 1) {
        unsigned Callee = 1 + R.next(RoutineIndex - 1);
        return "r" + std::to_string(Callee) + "(" + expr(1) + ", t2)";
      }
      return "t2 := " + expr();
    }
  }

  void emitRoutine(unsigned I, bool Bug) {
    Out += "procedure r" + std::to_string(I) +
           "(a: integer; var b: integer);\nvar t1, t2: integer;\nbegin\n";
    for (unsigned S = 0; S < Opts.StmtsPerRoutine; ++S) {
      switch (R.next(6)) {
      case 0:
        Out += "  if " + condition() + " then\n    " + simpleStmt(I) +
               "\n  else\n    " + simpleStmt(I) + ";\n";
        break;
      case 1:
        if (Opts.UseLoops) {
          Out += "  for t1 := 1 to " + std::to_string(2 + R.next(3)) +
                 " do\n    t2 := " + expr() + ";\n";
          break;
        }
        [[fallthrough]];
      case 2:
        if (Opts.UseGotos && R.next(4) == 0) {
          // A rarely-firing non-local escape to the end of the program.
          Out += "  if " + expr(1) + " > " + std::to_string(500 + R.next(500)) +
                 " then\n    goto 99;\n";
          break;
        }
        [[fallthrough]];
      default:
        Out += "  " + simpleStmt(I) + ";\n";
        break;
      }
    }
    Out += "  b := " + expr() + (Bug ? " + 1" : "") + ";\nend;\n";
  }

  void emitMain() {
    Out += "begin\n";
    for (unsigned G = 1; G <= Opts.NumGlobals; ++G)
      Out += "  g" + std::to_string(G) + " := " +
             std::to_string(1 + R.next(5)) + ";\n";
    // Call the top few routines so every part of the program is live.
    unsigned Calls = Opts.NumRoutines < 3 ? Opts.NumRoutines : 3;
    for (unsigned C = 0; C < Calls; ++C) {
      unsigned Callee = Opts.NumRoutines - C;
      Out += "  r" + std::to_string(Callee) + "(" +
             std::to_string(1 + R.next(7)) + ", res);\n";
      if (Opts.NumGlobals > 0)
        Out += "  g" + std::to_string(1 + C % Opts.NumGlobals) +
               " := g" + std::to_string(1 + C % Opts.NumGlobals) +
               " + res;\n";
    }
    if (Opts.UseGotos)
      Out += "  99:\n";
    Out += "  writeln(res";
    for (unsigned G = 1; G <= Opts.NumGlobals; ++G)
      Out += ", ' ', g" + std::to_string(G);
    Out += ");\nend.\n";
  }

  SyntheticOptions Opts;
  unsigned BuggyRoutine;
  Rng R{1};
  std::string Out;
};

} // namespace

ProgramPair gadt::workload::randomProgram(const SyntheticOptions &Opts) {
  Rng Pick(Opts.Seed ^ 0x9e3779b9u);
  unsigned BuggyRoutine = 1 + Pick.next(Opts.NumRoutines);
  RandomEmitter E(Opts, BuggyRoutine);
  ProgramPair Pair;
  Pair.Fixed = E.emit(false);
  Pair.Buggy = E.emit(true);
  Pair.BuggyRoutine = "r" + std::to_string(BuggyRoutine);
  return Pair;
}
