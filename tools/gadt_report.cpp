//===- gadt_report.cpp - Fold telemetry into one ops report ---------------===//
//
// Folds a span trace (GADT_TRACE) and the committed benchmark trajectory
// into a single markdown ops report:
//
//   $ gadt_report --trace t.jsonl --bench bench/trajectory.json
//                 --out report.md
//
// Every input is optional; sections for absent inputs are omitted. The
// span table gives each span's exact self time (Report.h). Exits 1 when a
// named input cannot be read or the --bench file is not a trajectory.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

int main(int argc, char **argv) {
  return gadt::report::runReport({argv + 1, argv + argc});
}
