//===- FuzzTest.cpp - Seeded mutation fuzzing -----------------------------===//
//
// Two drivers, each with a fixed seed sequence. The mutators use the
// generator's raw output (no std distributions), so every standard library
// produces the same mutants.
//
// The pipeline driver mutates the sample programs and the paper's Figure 4
// and drives every mutant through the pipeline: parse and check; for a
// program that checks, the transformation phase, the bytecode compiler and
// a bounded run of the original and the transformed program. A mutant may
// be rejected anywhere, but never crash. For both the original and the
// transformed program, print -> parse and check -> print must be a fixed
// point, and when both runs finish they must print the same output.
//
// The JSON driver mutates the committed bench trajectory and a span trace
// byte by byte and feeds the mutants to json::parse and to gadt_report's
// trajectory reader and trace fold (tools/Report.h). It passes when the
// process survives and json::Writer -> parse -> Writer is a fixed point,
// on generated documents and on every mutant that parses.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "bytecode/Bytecode.h"
#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "support/JSON.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace gadt;

namespace {

/// Two escaping gotos in one loop: the loop-escape rewrite once replaced
/// its own fresh goto over and over until the stack ran out.
const char *const TwoGotoLoop = R"(program lg;
label 9;
var i: integer;
begin
  i := 0;
  while i < 3 do begin
    goto 9;
    goto 9
  end;
  9: writeln(i)
end.
)";

const char *const Fragments[] = {
    "goto 9", "goto 9;", "9: ", "label 9;", "begin", "end", "end;", ":=",
    ";", "(", ")", "and", "or", "not ", " div 0", " mod ", "-", "*",
    "while i < 3 do ", "if ", " then ", " else ", "repeat ", " until ",
    "for i := 1 to 3 do ", "writeln(", "read(", "i", "0",
    "9223372036854775807", "var", "procedure q; begin end;", "[", "]", ",",
    "'s'", "true", "x"};

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

std::vector<std::string> corpus() {
  std::vector<std::string> Out = {workload::Figure4Buggy, TwoGotoLoop};
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(GADT_SAMPLES_DIR))
    if (Entry.path().extension() == ".pas")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end()); // directory order is unspecified
  for (const auto &P : Paths)
    Out.push_back(readFile(P));
  return Out;
}

/// Applies one random edit to \p S: insert a fragment, delete up to 12
/// characters, duplicate up to 20, or replace one.
void mutate(std::string &S, std::mt19937_64 &Rng) {
  auto Below = [&Rng](size_t N) { return N ? Rng() % N : 0; };
  size_t At = Below(S.size() + 1);
  switch (Rng() % 4) {
  case 0:
    S.insert(At, Fragments[Below(std::size(Fragments))]);
    break;
  case 1:
    S.erase(At, 1 + Below(12));
    break;
  case 2:
    S.insert(At, S.substr(At, 1 + Below(20)));
    break;
  default: {
    static const char Chars[] = " ;:=()+-*<>019aeix\n";
    if (At < S.size())
      S[At] = Chars[Below(sizeof(Chars) - 1)];
    break;
  }
  }
}

interp::ExecResult
runBounded(const pascal::Program &P,
           std::shared_ptr<const bytecode::CompiledProgram> Code) {
  interp::InterpOptions Opts;
  Opts.MaxSteps = 20000;
  Opts.Code = std::move(Code);
  interp::Interpreter I(P, Opts);
  I.setInput({3, 1, 4, 1, 5, 9, 2, 6});
  return I.run();
}

/// Whether printing \p P, checking the text and printing that again gives
/// the same text.
bool printsToAFixedPoint(const pascal::Program &P) {
  std::string Printed = pascal::printProgram(P);
  DiagnosticsEngine Diags;
  std::unique_ptr<pascal::Program> Again =
      pascal::parseAndCheck(Printed, Diags);
  return Again && pascal::printProgram(*Again) == Printed;
}

/// Sends \p Src as far down the pipeline as it gets; counts full runs and
/// the full runs whose two programs both finished.
void drive(const std::string &Src, unsigned &Ran, unsigned &BothOk) {
  DiagnosticsEngine Diags;
  std::unique_ptr<pascal::Program> P = pascal::parseAndCheck(Src, Diags);
  if (!P)
    return;
  EXPECT_TRUE(printsToAFixedPoint(*P)) << Src;
  transform::TransformResult X = transform::transformProgram(*P, Diags);
  if (!X.Transformed)
    return;
  EXPECT_TRUE(printsToAFixedPoint(*X.Transformed))
      << Src << "\ntransformed:\n" << pascal::printProgram(*X.Transformed);
  auto Code = bytecode::compile(*P, /*Checked=*/false);
  auto XCode = bytecode::compile(*X.Transformed, /*Checked=*/false);
  if (!Code || !XCode)
    return;
  interp::ExecResult Original = runBounded(*P, std::move(Code));
  interp::ExecResult Transformed =
      runBounded(*X.Transformed, std::move(XCode));
  ++Ran;
  if (Original.Ok && Transformed.Ok) {
    ++BothOk;
    EXPECT_EQ(Original.Output, Transformed.Output) << Src;
  }
}

TEST(PipelineFuzz, SeededMutantsRoundTripAndKeepTheirOutput) {
  std::vector<std::string> Seeds = corpus();
  ASSERT_GE(Seeds.size(), 3u) << "no samples under " << GADT_SAMPLES_DIR;
  unsigned Ran = 0, BothOk = 0;
  for (const std::string &S : Seeds)
    drive(S, Ran, BothOk); // the unmutated inputs, the two-goto loop too
  constexpr unsigned Mutants = 12000;
  for (unsigned Seed = 1; Seed <= Mutants; ++Seed) {
    std::mt19937_64 Rng(Seed);
    std::string Src = Seeds[Rng() % Seeds.size()];
    mutate(Src, Rng);
    drive(Src, Ran, BothOk);
  }
  // Every stage must see real traffic, or the test proves nothing: about
  // one mutant in fourteen checks, each of those runs, and almost every
  // run finishes on both sides.
  EXPECT_GT(Ran, Mutants / 20);
  EXPECT_GT(BothOk, Ran * 9 / 10);
}

//===----------------------------------------------------------------------===//
// JSON as gadt_report reads it
//===----------------------------------------------------------------------===//

/// Span-trace lines: complete events with and without a parent, an instant
/// and the drop marker as the tracer writes them, plus the thread-name,
/// flow and sid-less events that older traces carry.
const char *const TraceLines = R"({"name":"thread_name","cat":"__metadata","ph":"M","pid":1,"tid":2,"ts":0.000,"args":{"name":"gadt-worker-0"}}
{"name":"session.flow","cat":"runtime","ph":"s","pid":1,"tid":1,"ts":0.500,"id":7}
{"name":"session","cat":"runtime","ph":"X","pid":1,"tid":2,"ts":1.000,"dur":100.125,"sid":1,"args":{"fp":"9e3779b97f4a7c15"}}
{"name":"sdg","cat":"gadt","ph":"X","pid":1,"tid":2,"ts":3.000,"dur":25.001,"sid":2,"psid":1}
{"name":"judgement","cat":"debug","ph":"i","pid":1,"tid":2,"ts":51.000,"s":"t","psid":1,"args":{"answer":"correct","by":"assertion"}}
{"name":"session.flow","cat":"runtime","ph":"f","pid":1,"tid":2,"ts":1.100,"id":7,"bp":"e","psid":1}
{"name":"queue.wait","cat":"runtime","ph":"X","pid":1,"tid":2,"ts":0.600,"dur":0.400}
{"name":"trace.dropped","cat":"obs","ph":"i","pid":1,"tid":0,"ts":90.000,"s":"t","args":{"events":3}}
)";

const char *const JsonFragments[] = {
    "{", "}", "[", "]", "\"", ",", ":", "\\", "\\n", "\\u00e9", "\\ud83d",
    "-", ".", "0", "19", "e999", "E-400", "true", "null", " ", "\n", "\x01",
    "\xc3"};

/// Applies one random edit to \p S: insert a fragment, delete up to 8
/// bytes, duplicate up to 64, or replace one byte.
void mutateJson(std::string &S, std::mt19937_64 &Rng) {
  static const char Bytes[] = "{}[]\",:\\-.019eE \n\x01\xc3";
  auto Below = [&Rng](size_t N) { return N ? Rng() % N : 0; };
  size_t At = Below(S.size() + 1);
  switch (Rng() % 4) {
  case 0:
    S.insert(At, JsonFragments[Below(std::size(JsonFragments))]);
    break;
  case 1:
    S.erase(At, 1 + Below(8));
    break;
  case 2:
    S.insert(At, S.substr(At, 1 + Below(64)));
    break;
  default:
    if (At < S.size())
      S[At] = Bytes[Below(sizeof(Bytes) - 1)];
    break;
  }
}

/// Writes \p V back out with json::Writer: integral numbers below 2^53 in
/// magnitude through the integer overload, the rest through the double one.
void write(json::Writer &W, const json::Value &V) {
  switch (V.K) {
  case json::Value::Kind::Null:
    W.null();
    break;
  case json::Value::Kind::Bool:
    W.value(V.B);
    break;
  case json::Value::Kind::Number:
    if (std::fabs(V.Num) < 9007199254740992.0 && V.Num == std::trunc(V.Num))
      W.value(static_cast<int64_t>(V.Num));
    else
      W.value(V.Num);
    break;
  case json::Value::Kind::String:
    W.value(V.Str);
    break;
  case json::Value::Kind::Array:
    W.beginArray();
    for (const json::Value &E : V.Arr)
      write(W, E);
    W.endArray();
    break;
  case json::Value::Kind::Object:
    W.beginObject();
    for (const auto &[Key, E] : V.Obj) {
      W.key(Key);
      write(W, E);
    }
    W.endObject();
    break;
  }
}

std::string written(const json::Value &V) {
  std::string Out;
  json::Writer W(Out);
  write(W, V);
  return Out;
}

/// A random document: any bytes in strings and keys, finite numbers from
/// small integers to raw bit patterns, nesting at most five deep.
json::Value generate(std::mt19937_64 &Rng, unsigned Depth) {
  auto Text = [&Rng] {
    std::string S(Rng() % 12, ' ');
    for (char &C : S)
      C = static_cast<char>(Rng());
    return S;
  };
  json::Value V;
  switch (Rng() % (Depth < 5 ? 6 : 4)) {
  case 0:
    break;
  case 1:
    V.K = json::Value::Kind::Bool;
    V.B = Rng() % 2;
    break;
  case 2: {
    V.K = json::Value::Kind::Number;
    uint64_t Bits = Rng();
    std::memcpy(&V.Num, &Bits, sizeof(V.Num));
    if (Rng() % 2 || !std::isfinite(V.Num))
      V.Num = static_cast<double>(static_cast<int64_t>(Rng() % 200001) -
                                  100000);
    break;
  }
  case 3:
    V.K = json::Value::Kind::String;
    V.Str = Text();
    break;
  case 4:
    V.K = json::Value::Kind::Array;
    for (unsigned I = Rng() % 5; I; --I)
      V.Arr.push_back(generate(Rng, Depth + 1));
    break;
  default:
    V.K = json::Value::Kind::Object;
    for (unsigned I = Rng() % 5; I; --I)
      V.Obj.emplace_back(Text(), generate(Rng, Depth + 1));
    break;
  }
  return V;
}

/// Whether writing \p Text's parse and parsing that again writes the same.
bool roundTrips(const std::string &Text) {
  std::optional<json::Value> Again = json::parse(Text);
  return Again && written(*Again) == Text;
}

TEST(JsonFuzz, SeededMutantsNeverCrashAndRoundTrip) {
  // The trajectory is 90 KB, so its mutants are few; the trace's are many.
  const std::string Trajectory = readFile(GADT_TRAJECTORY);
  ASSERT_TRUE(json::parse(Trajectory)) << "cannot read " << GADT_TRAJECTORY;
  auto Mutant = [](std::string Text, unsigned Seed) {
    std::mt19937_64 Rng(Seed);
    for (unsigned Edits = 1 + Rng() % 4; Edits; --Edits)
      mutateJson(Text, Rng);
    return Text;
  };

  constexpr unsigned TrajectoryMutants = 120;
  unsigned Rendered = 0;
  for (unsigned Seed = 1; Seed <= TrajectoryMutants; ++Seed) {
    std::string Text = Mutant(Trajectory, Seed);
    if (std::optional<json::Value> V = json::parse(Text)) {
      EXPECT_TRUE(roundTrips(written(*V))) << "trajectory seed " << Seed;
    }
    std::string Md;
    Rendered += report::renderTrajectory(Text, Md);
  }

  constexpr unsigned TraceMutants = 4000;
  unsigned Folded = 0, Lines = 0;
  for (unsigned Seed = 1; Seed <= TraceMutants; ++Seed) {
    std::string Text = Mutant(TraceLines, Seed);
    std::istringstream In(Text);
    for (std::string Line; std::getline(In, Line);)
      if (std::optional<json::Value> V = json::parse(Line)) {
        ++Lines;
        EXPECT_TRUE(roundTrips(written(*V)))
            << "trace seed " << Seed << ": " << Line;
      }
    Folded += report::foldTrace(Text).Events > 0;
  }
  // Each reader must see real traffic, or the test proves nothing: about
  // one trajectory mutant in five still renders, and six or seven of a
  // mutated trace's eight lines parse.
  EXPECT_GT(Rendered, TrajectoryMutants / 10);
  EXPECT_GT(Folded, TraceMutants / 2);
  EXPECT_GT(Lines, 4 * TraceMutants);

  for (unsigned Seed = 1; Seed <= 2000; ++Seed) {
    std::mt19937_64 Rng(Seed);
    std::string Text = written(generate(Rng, 0));
    EXPECT_TRUE(roundTrips(Text)) << "document seed " << Seed << ": " << Text;
  }
}

} // namespace
