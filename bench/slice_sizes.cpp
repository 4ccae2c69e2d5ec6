//===- slice_sizes.cpp - "a slice is often much smaller" (Section 1/4) ----===//
//
// Experiment X5: the paper motivates slicing with "in practice, a slice is
// often much smaller than the original program, especially for
// block-structured languages". We slice every global of every program in
// a random corpus (plus the paper's programs) at program exit and report
// the slice-to-program statement ratio.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/SDG.h"
#include "slicing/StaticSlicer.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"
#include "workload/Synthetic.h"

#include <string>
#include <vector>

using namespace gadt;
using namespace gadt::slicing;

namespace {

/// The statements of \p P, or only those in \p Slice when it is given.
unsigned countStatements(const pascal::Program &P,
                         const StaticSlice *Slice = nullptr) {
  unsigned Count = 0;
  pascal::forEachRoutine(P.getMain(), [&](pascal::RoutineDecl *R) {
    if (R->getBody())
      pascal::forEachStmt(R->getBody(), [&](pascal::Stmt *S) {
        Count += !Slice || Slice->containsStmt(S);
      });
  });
  return Count;
}

} // namespace

int main() {
  bench::Expectations E;
  std::printf("X5: static slice size vs program size (criterion: one "
              "global at program exit)\n\n");
  std::printf("%-16s %-10s %8s %8s %8s\n", "program", "criterion", "stmts",
              "sliced", "ratio");

  struct Subject {
    std::string Name;
    std::string Source;
    std::vector<std::string> Criteria;
  };
  std::vector<Subject> Subjects = {
      {"figure2", workload::Figure2, {"mul", "sum"}},
      {"figure4", workload::Figure4Buggy, {"isok"}},
      {"payroll", workload::PayrollCorrect,
       {"totalnet", "totaltax", "highest"}},
  };
  for (uint32_t Seed = 1; Seed <= 10; ++Seed) {
    workload::SyntheticOptions Opts;
    Opts.Seed = Seed * 97 + 1;
    Opts.NumRoutines = 4 + Seed % 5;
    Opts.NumGlobals = 2 + Seed % 2;
    Subjects.push_back({"random-" + std::to_string(Seed),
                        workload::randomProgram(Opts).Fixed,
                        {"g1", "g2"}});
  }

  double SumRatio = 0;
  unsigned Measurements = 0, ProperSubsets = 0;
  for (const Subject &S : Subjects) {
    auto Prog = bench::compileOrDie(S.Source);
    analysis::SDG G(*Prog);
    unsigned Total = countStatements(*Prog);
    for (const std::string &Criterion : S.Criteria) {
      StaticSlice Slice = sliceOnProgramVar(G, *Prog, Criterion);
      if (Slice.size() == 0)
        continue;
      unsigned Sliced = countStatements(*Prog, &Slice);
      double Ratio = static_cast<double>(Sliced) / Total;
      SumRatio += Ratio;
      ++Measurements;
      ProperSubsets += Sliced < Total;
      std::printf("%-16s %-10s %8u %8u %8.2f\n", S.Name.c_str(),
                  Criterion.c_str(), Total, Sliced, Ratio);
    }
  }
  std::printf("\nmean ratio: %.2f over %u slices; %u/%u are proper "
              "subsets\n",
              SumRatio / Measurements, Measurements, ProperSubsets,
              Measurements);

  E.expect(Measurements >= 20, "corpus yields enough slice measurements");
  E.expect(SumRatio / Measurements < 0.9,
           "slices are on average much smaller than the program");
  E.expect(ProperSubsets * 2 > Measurements,
           "most slices drop statements");
  return E.finish("slice_sizes");
}
