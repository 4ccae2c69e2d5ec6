//===- Report.h - The ops report behind gadt_report -------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fold from a span trace (GADT_TRACE's JSONL) to per-span exact self
/// time, and the report driver built on it. gadt_report's main() calls
/// runReport(); the tests compile this file too, so the fold and the exit
/// status are checked without a library API.
///
/// Self time: a complete event's duration minus the durations of the
/// complete events whose `psid` is its `sid`. Roots are complete events
/// without a `sid` (older traces carry caller-measured intervals) and
/// events whose parent is absent from the trace. Every non-root event is
/// subtracted from exactly one parent, so the self times sum to the roots'
/// total. Instants carry a `psid` but no duration, so they subtract
/// nothing; events of any other phase (older traces' flow and metadata
/// events) count as events and fold into nothing else. Durations are
/// folded in integer nanoseconds, so that sum is exact.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TOOLS_REPORT_H
#define GADT_TOOLS_REPORT_H

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace gadt {
namespace report {

/// One span name's totals over a trace.
struct SpanRow {
  std::string Name;
  uint64_t Count = 0;
  int64_t TotalNs = 0; ///< inclusive
  int64_t SelfNs = 0;  ///< exclusive of direct children
  int64_t MaxNs = 0;   ///< longest single inclusive duration
};

/// What a span trace says, folded.
struct TraceFold {
  uint64_t Events = 0;   ///< parsed lines, the trace.dropped marker excluded
  uint64_t Instants = 0;
  uint64_t Unparsed = 0;
  uint64_t Dropped = 0;  ///< events the tracer dropped at its cap
  std::set<int> Threads; ///< the tids of the parsed events
  std::vector<SpanRow> Spans; ///< by self time, largest first
  int64_t RootNs = 0;         ///< summed durations of the root events
};

/// Folds a JSONL span trace.
TraceFold foldTrace(const std::string &Jsonl);

/// Appends the benchmark-trajectory section for the text of a trajectory
/// file (bench/trajectory.json): one column per entry, one row per
/// benchmark, min-of-N real time. Returns false and appends nothing when
/// the text does not parse, holds no entries, or an entry lacks a label
/// or a results array.
bool renderTrajectory(std::string_view Json, std::string &Md);

/// gadt_report's command line, after the program name. Writes the report
/// to --out (or stdout) and returns the exit status: 1 when an input named
/// on the command line cannot be read, the --bench file is not a benchmark
/// trajectory, or the report cannot be written; 0 otherwise.
int runReport(const std::vector<std::string> &Args);

} // namespace report
} // namespace gadt

#endif // GADT_TOOLS_REPORT_H
