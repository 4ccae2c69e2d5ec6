//===- export_samples.cpp - Write the bundled workloads to disk -----------===//
//
// Dumps the paper's programs, the payroll application, and the T-GEN
// specifications as plain files, ready for use with the gadt_session CLI:
//
//   $ ./export_samples samples/
//   $ ./gadt_session samples/figure4_buggy.pas
//         --intended samples/figure4_fixed.pas
//         --spec samples/arrsum.tspec
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "workload/ArrsumFixture.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace gadt;

int main(int argc, char **argv) {
  std::string Dir = argc > 1 ? argv[1] : "samples";
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    obs::logError("export_samples",
                  "cannot create " + Dir + ": " + EC.message());
    return 1;
  }

  struct Sample {
    const char *Name;
    const char *Text;
  };
  const Sample Samples[] = {
      {"figure4_buggy.pas", workload::Figure4Buggy},
      {"figure4_fixed.pas", workload::Figure4Fixed},
      {"figure2.pas", workload::Figure2},
      {"section6_globals.pas", workload::Section6Globals},
      {"section6_global_goto.pas", workload::Section6GlobalGoto},
      {"section6_loop_goto.pas", workload::Section6LoopGoto},
      {"payroll_correct.pas", workload::PayrollCorrect},
      {"payroll_taxbug.pas", workload::PayrollTaxBug},
      {"payroll_overtimebug.pas", workload::PayrollOvertimeBug},
      {"arrsum.tspec", workload::ArrsumSpecWithGens},
      {"taxfor.tspec", workload::TaxforSpec},
      {"overtimepay.tspec", workload::OvertimeSpec},
  };
  for (const Sample &S : Samples) {
    std::string Path = Dir + "/" + S.Name;
    std::ofstream Out(Path);
    if (!Out) {
      obs::logError("export_samples", "cannot write " + Path);
      return 1;
    }
    Out << S.Text;
    std::printf("wrote %s\n", Path.c_str());
  }
  return 0;
}
