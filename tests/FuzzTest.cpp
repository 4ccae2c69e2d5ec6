//===- FuzzTest.cpp - Seeded mutation fuzzing of the Pascal pipeline -------===//
//
// Mutates the sample programs and the paper's Figure 4 with a fixed seed
// sequence and drives every mutant through the pipeline: parse and check;
// for a program that checks, the transformation phase, the bytecode
// compiler and a bounded run of the original and the transformed program.
// The pass condition is that the process survives: a mutant may be
// rejected anywhere, but never crash. The mutator uses the generator's raw
// output (no std distributions), so every standard library produces the
// same mutants.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
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

std::vector<std::string> corpus() {
  std::vector<std::string> Out = {workload::Figure4Buggy, TwoGotoLoop};
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry :
       std::filesystem::directory_iterator(GADT_SAMPLES_DIR))
    if (Entry.path().extension() == ".pas")
      Paths.push_back(Entry.path());
  std::sort(Paths.begin(), Paths.end()); // directory order is unspecified
  for (const auto &P : Paths) {
    std::ifstream In(P);
    std::ostringstream Text;
    Text << In.rdbuf();
    Out.push_back(Text.str());
  }
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

void runBounded(const pascal::Program &P,
                std::shared_ptr<const bytecode::CompiledProgram> Code) {
  interp::InterpOptions Opts;
  Opts.MaxSteps = 20000;
  Opts.Code = std::move(Code);
  interp::Interpreter I(P, Opts);
  I.setInput({3, 1, 4, 1, 5, 9, 2, 6});
  I.run();
}

/// Sends \p Src as far down the pipeline as it gets; counts full runs.
void drive(const std::string &Src, unsigned &Ran) {
  DiagnosticsEngine Diags;
  std::unique_ptr<pascal::Program> P = pascal::parseAndCheck(Src, Diags);
  if (!P)
    return;
  transform::TransformResult X = transform::transformProgram(*P, Diags);
  if (!X.Transformed)
    return;
  auto Code = bytecode::compile(*P, /*Checked=*/false);
  auto XCode = bytecode::compile(*X.Transformed, /*Checked=*/false);
  if (!Code || !XCode)
    return;
  runBounded(*P, std::move(Code));
  runBounded(*X.Transformed, std::move(XCode));
  ++Ran;
}

TEST(PipelineFuzz, SeededMutantsNeverCrash) {
  std::vector<std::string> Seeds = corpus();
  ASSERT_GE(Seeds.size(), 3u) << "no samples under " << GADT_SAMPLES_DIR;
  unsigned Ran = 0;
  for (const std::string &S : Seeds)
    drive(S, Ran); // the unmutated inputs, the two-goto loop among them
  constexpr unsigned Mutants = 12000;
  for (unsigned Seed = 1; Seed <= Mutants; ++Seed) {
    std::mt19937_64 Rng(Seed);
    std::string Src = Seeds[Rng() % Seeds.size()];
    mutate(Src, Rng);
    drive(Src, Ran);
  }
  // Every stage must see real traffic, or the test proves nothing: about
  // one mutant in fourteen checks, and each of those runs.
  EXPECT_GT(Ran, Mutants / 20);
}

} // namespace
