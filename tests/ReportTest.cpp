//===- ReportTest.cpp - gadt_report's trace fold and exit status ----------===//
//
// The ops report's contract (tools/Report.h):
//  - the fold gives every span name its exact self time — its duration
//    minus its direct children's — across threads, repeated names at
//    different depths, caller-measured events without a sid, spans whose
//    parent is absent, and instants that carry a psid;
//  - older traces' flow and thread-name events count as events and fold
//    into nothing else;
//  - the self column sums to the roots' total, to the nanosecond;
//  - a trace cut at the tracer's cap says so, and a line nested past the
//    JSON parser's depth limit is counted as unparsed, not followed;
//  - the bench section puts the entries of a trajectory file side by side;
//  - gadt_report exits 1 when a named input cannot be read or the --bench
//    file is not a trajectory with entries.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace gadt::report;

namespace {

/// A hand-written trace. Thread 1 runs a session three spans deep; thread
/// 2 runs another one, plus a `debug` span whose parent (sid 42) is not in
/// the trace. `sdg` appears at depth 3 (under cache.sdg) and depth 2 (under
/// debug). The thread name, the flow events and the queue.wait interval
/// without a sid are foreign events, as older traces carry them. Durations
/// in microseconds; the self time of each span is noted below.
const char *const Fixture = R"(
{"name":"thread_name","cat":"__metadata","ph":"M","pid":1,"tid":2,"ts":0.000,"args":{"name":"worker-0"}}
{"name":"session.flow","cat":"runtime","ph":"s","pid":1,"tid":3,"ts":0.500,"id":7}
{"name":"session","cat":"runtime","ph":"X","pid":1,"tid":1,"ts":1.000,"dur":100.125,"sid":1}
{"name":"cache.sdg","cat":"cache","ph":"X","pid":1,"tid":1,"ts":2.000,"dur":40.000,"sid":2,"psid":1}
{"name":"sdg","cat":"gadt","ph":"X","pid":1,"tid":1,"ts":3.000,"dur":25.001,"sid":3,"psid":2}
{"name":"debug","cat":"debug","ph":"X","pid":1,"tid":1,"ts":50.000,"dur":30.000,"sid":4,"psid":1}
{"name":"judgement","cat":"debug","ph":"i","pid":1,"tid":1,"ts":51.000,"s":"t","psid":4}
{"name":"sdg","cat":"gadt","ph":"X","pid":1,"tid":1,"ts":60.000,"dur":10.000,"sid":5,"psid":4}
{"name":"queue.wait","cat":"runtime","ph":"X","pid":1,"tid":2,"ts":0.600,"dur":12.000}
{"name":"session.flow","cat":"runtime","ph":"t","pid":1,"tid":2,"ts":12.700,"id":7}
{"name":"session","cat":"runtime","ph":"X","pid":1,"tid":2,"ts":13.000,"dur":50.000,"sid":6}
{"name":"session.flow","cat":"runtime","ph":"f","pid":1,"tid":2,"ts":13.100,"id":7,"bp":"e","psid":6}
{"name":"exectree","cat":"gadt","ph":"X","pid":1,"tid":2,"ts":14.000,"dur":20.000,"sid":7,"psid":6}
{"name":"trace","cat":"gadt","ph":"X","pid":1,"tid":2,"ts":15.000,"dur":5.500,"sid":8,"psid":7}
{"name":"debug","cat":"debug","ph":"X","pid":1,"tid":2,"ts":70.000,"dur":8.000,"sid":9,"psid":42}
{"name":"trace.dropped","cat":"obs","ph":"i","pid":1,"tid":0,"ts":90.000,"s":"t","args":{"events":3}}
)";
// session  #1: 100.125 - 40 - 30   = 30.125
// cache.sdg#2:  40     - 25.001    = 14.999
// sdg      #3:  25.001
// debug    #4:  30     - 10        = 20
// sdg      #5:  10
// session  #6:  50     - 20        = 30
// exectree #7:  20     - 5.5       = 14.5
// trace    #8:   5.5
// queue.wait:   12     (root: no sid)
// debug    #9:   8     (root: parent absent)

TEST(TraceFoldTest, SelfTimeIsExact) {
  TraceFold F = foldTrace(Fixture);

  struct Want {
    const char *Name;
    uint64_t Count;
    int64_t TotalNs, SelfNs, MaxNs;
  } Wants[] = {
      {"session", 2, 150125, 60125, 100125},
      {"sdg", 2, 35001, 35001, 25001},
      {"debug", 2, 38000, 28000, 30000},
      {"cache.sdg", 1, 40000, 14999, 40000},
      {"exectree", 1, 20000, 14500, 20000},
      {"queue.wait", 1, 12000, 12000, 12000},
      {"trace", 1, 5500, 5500, 5500},
  };
  // Rows come largest self time first.
  ASSERT_EQ(F.Spans.size(), std::size(Wants));
  for (size_t I = 0; I < std::size(Wants); ++I) {
    const Want &W = Wants[I];
    const SpanRow &R = F.Spans[I];
    ASSERT_EQ(R.Name, W.Name) << "row " << I;
    EXPECT_EQ(R.Count, W.Count) << W.Name;
    EXPECT_EQ(R.TotalNs, W.TotalNs) << W.Name;
    EXPECT_EQ(R.SelfNs, W.SelfNs) << W.Name;
    EXPECT_EQ(R.MaxNs, W.MaxNs) << W.Name;
  }
}

TEST(TraceFoldTest, SelfTimesSumToTheRoots) {
  TraceFold F = foldTrace(Fixture);
  // Roots: both sessions, queue.wait (no sid) and the orphaned debug span.
  EXPECT_EQ(F.RootNs, 100125 + 50000 + 12000 + 8000);
  int64_t SelfSum = 0;
  for (const SpanRow &R : F.Spans)
    SelfSum += R.SelfNs;
  EXPECT_EQ(SelfSum, F.RootNs);
}

TEST(TraceFoldTest, CountsEventsThreadsFlowsAndDrops) {
  TraceFold F = foldTrace(Fixture);
  // The trace.dropped marker is not an event; the metadata event and the
  // three flow events are.
  EXPECT_EQ(F.Events, 15u);
  EXPECT_EQ(F.Instants, 1u);
  EXPECT_EQ(F.Unparsed, 0u);
  EXPECT_EQ(F.Dropped, 3u);
  EXPECT_EQ(F.Threads, (std::set<int>{1, 2, 3}));
}

TEST(TraceFoldTest, DeeplyNestedLineIsUnparsed) {
  // Without the parser's depth limit this line overflows the stack.
  std::string Deep = std::string(100000, '[') + std::string(100000, ']');
  TraceFold F = foldTrace(
      "{\"name\":\"parse\",\"cat\":\"frontend\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":1.000,\"dur\":2.000,\"sid\":1}\n" +
      Deep + "\n");
  EXPECT_EQ(F.Unparsed, 1u);
  EXPECT_EQ(F.Events, 1u);
  ASSERT_EQ(F.Spans.size(), 1u);
  EXPECT_EQ(F.Spans[0].Name, "parse");
  EXPECT_EQ(F.Spans[0].SelfNs, 2000);
}

TEST(TraceFoldTest, OutOfRangeFieldsAreClamped) {
  // Converting these doubles to the fold's integers unclamped would be
  // undefined behaviour (lines like the JSON fuzz driver's mutants).
  TraceFold F = foldTrace(
      R"({"name":"a","ph":"X","pid":1,"tid":-5e10,"ts":1,"dur":100e125,)"
      R"("sid":1e300})"
      "\n"
      R"({"name":"b","ph":"X","pid":1,"tid":-5e10,"ts":2,"dur":1e127,)"
      R"("sid":2,"psid":1e300})"
      "\n");
  ASSERT_EQ(F.Spans.size(), 2u);
  EXPECT_EQ(F.Threads.size(), 1u);
  EXPECT_EQ(F.RootNs, int64_t(1) << 53); // a, clamped; b is its child
  int64_t SelfSum = 0;
  for (const SpanRow &R : F.Spans)
    SelfSum += R.SelfNs;
  EXPECT_EQ(SelfSum, F.RootNs);
}

//===----------------------------------------------------------------------===//
// Exit status
//===----------------------------------------------------------------------===//

std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream(Path, std::ios::trunc) << Text;
  return Path;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(ReportTest, ReadableInputsExitZero) {
  std::string Trace = writeTemp("gadt_report_trace.jsonl", Fixture);
  std::string Bench = writeTemp(
      "gadt_report_bench.json",
      R"({"gates":[],"entries":[
          {"label":"PR1","from":"a.json","results":[
            {"name":"BM_X","real_ns":1500}]},
          {"label":"PR2","from":"b.json","results":[
            {"name":"BM_X","real_ns":1000},{"name":"BM_Y","real_ns":2000}]}]})");
  std::string Out = ::testing::TempDir() + "gadt_report_ok.md";
  EXPECT_EQ(runReport({"--trace", Trace, "--bench", Bench, "--out", Out}), 0);
  std::string Md = readAll(Out);
  EXPECT_NE(Md.find("| span | count | self | total | mean | max |"),
            std::string::npos)
      << Md;
  EXPECT_NE(Md.find("dropped 3 events"), std::string::npos) << Md;
  EXPECT_NE(Md.find("- threads: 3\n"), std::string::npos) << Md;
  EXPECT_NE(Md.find("| benchmark | PR1 | PR2 |\n"), std::string::npos) << Md;
  EXPECT_NE(Md.find("| `BM_X` | 1.5 us | 1.0 us |\n"), std::string::npos)
      << Md;
  EXPECT_NE(Md.find("| `BM_Y` | — | 2.0 us |\n"), std::string::npos) << Md;
  std::remove(Trace.c_str());
  std::remove(Bench.c_str());
  std::remove(Out.c_str());
}

TEST(ReportTest, MissingTraceExitsOne) {
  std::string Out = ::testing::TempDir() + "gadt_report_missing.md";
  EXPECT_EQ(runReport({"--trace", "/nonexistent/gadt_trace.jsonl", "--out",
                       Out}),
            1);
  std::remove(Out.c_str());
}

TEST(ReportTest, CommittedTrajectoryRendersEveryEntry) {
  std::string Md;
  ASSERT_TRUE(renderTrajectory(readAll(GADT_TRAJECTORY), Md));
  EXPECT_NE(Md.find("| benchmark | PR3-parent | PR3 | PR4-parent | PR4 | "
                    "PR5-parent | PR5 | PR6-parent | PR6 | PR8-tree | PR8 | "
                    "PR9 | PR10-tree | PR10 |\n"),
            std::string::npos)
      << Md;
  EXPECT_NE(Md.find("| `BM_CalibrationKernel` |"), std::string::npos);
}

TEST(ReportTest, BenchThatIsNotACaptureExitsOne) {
  // The one bench input is a trajectory file; a raw perf_micro export, a
  // trajectory without entries and an entry without results are not.
  std::string Out = ::testing::TempDir() + "gadt_report_notbench.md";
  const char *const NotTrajectories[] = {
      "just a hostname\n",
      R"({"bench":"perf_micro"})",
      R"({"bench":"perf_micro","results":[{"name":"BM_X","real_ns":1}]})",
      R"({"gates":[],"entries":[]})",
      R"({"entries":[{"label":"PR1","from":"a.json"}]})",
      R"({"entries":[{"from":"a.json","results":[]}]})",
  };
  for (const char *Text : NotTrajectories) {
    std::string Path = writeTemp("gadt_report_notbench.json", Text);
    EXPECT_EQ(runReport({"--bench", Path, "--out", Out}), 1) << Text;
    std::remove(Path.c_str());
  }
  EXPECT_EQ(runReport({"--bench", "/nonexistent/trajectory.json", "--out",
                       Out}),
            1);
  std::remove(Out.c_str());
}

} // namespace
