//===- Report.cpp - The ops report behind gadt_report ---------------------===//
//
// Folds the span trace a traced run leaves behind (GADT_TRACE) plus the
// committed benchmark trajectory (bench/trajectory.json) into a single
// markdown ops report. The report answers the questions an operator asks
// first: where did the time go (exact self time per span), on how many
// threads, did the tracer drop anything — and how do the numbers compare
// with the committed benchmark trajectory.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "obs/Log.h"
#include "support/JSON.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

using namespace gadt;
using namespace gadt::report;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    obs::logError("gadt_report", "cannot open " + Path);
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    if (Nl > Pos)
      Lines.push_back(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

std::string fmtMicros(double Us) {
  char Buf[32];
  if (Us >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2f s", Us / 1e6);
  else if (Us >= 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms", Us / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.1f us", Us);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Trace section
//===----------------------------------------------------------------------===//

/// A rendered fractional-microsecond field, as integer nanoseconds,
/// clamped to 2^53 ns (104 days): the conversion of a hostile trace's
/// duration is defined, and 1,024 of them still sum within int64_t.
int64_t nanos(double Us) {
  constexpr double Max = 9007199254740992.0;
  return std::llround(std::clamp(Us * 1000.0, -Max, Max));
}

/// A numeric field as an integer of type T: 0 when absent, truncated, and
/// clamped to T's range, since converting a double outside it is undefined.
template <typename T> T intField(const json::Value &V, std::string_view Name) {
  double D = V.getNumber(Name);
  if (!(D > static_cast<double>(std::numeric_limits<T>::min())))
    return std::numeric_limits<T>::min();
  if (D >= static_cast<double>(std::numeric_limits<T>::max()))
    return std::numeric_limits<T>::max();
  return static_cast<T>(D);
}

bool traceSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  TraceFold F = foldTrace(Text);

  Md += "## Span trace\n\n";
  Md += "- events: " + std::to_string(F.Events) + " (" +
        std::to_string(F.Instants) + " instants";
  if (F.Unparsed)
    Md += ", " + std::to_string(F.Unparsed) + " unparsed lines";
  Md += ")\n- threads: " + std::to_string(F.Threads.size()) + "\n";
  Md += "- root spans: " + fmtMicros(F.RootNs / 1000.0) +
        " in total; the self column sums to it\n";
  if (F.Dropped)
    Md += "\n> **Warning:** the tracer dropped " +
          std::to_string(F.Dropped) +
          " events at its per-thread cap. Their spans are missing below, "
          "and their time counts as their parents' self time.\n";

  Md += "\n| span | count | self | total | mean | max |\n";
  Md += "|---|---:|---:|---:|---:|---:|\n";
  for (const SpanRow &R : F.Spans)
    Md += "| `" + R.Name + "` | " + std::to_string(R.Count) + " | " +
          fmtMicros(R.SelfNs / 1000.0) + " | " +
          fmtMicros(R.TotalNs / 1000.0) + " | " +
          fmtMicros(R.TotalNs / 1000.0 / R.Count) + " | " +
          fmtMicros(R.MaxNs / 1000.0) + " |\n";
  Md += "\n";
  return true;
}

bool benchSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return false;
  if (renderTrajectory(Text, Md))
    return true;
  obs::logError("gadt_report", "not a benchmark trajectory: " + Path);
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// The fold
//===----------------------------------------------------------------------===//

TraceFold gadt::report::foldTrace(const std::string &Jsonl) {
  struct Complete {
    std::string Name;
    uint64_t Sid = 0, Psid = 0;
    int64_t DurNs = 0;
  };
  TraceFold F;
  std::vector<Complete> Spans;
  for (const std::string &Line : splitLines(Jsonl)) {
    std::optional<json::Value> V = json::parse(Line);
    if (!V || !V->isObject()) {
      ++F.Unparsed;
      continue;
    }
    std::string Ph = V->getString("ph");
    std::string Name = V->getString("name");
    if (Ph == "i" && Name == "trace.dropped") {
      if (const json::Value *Args = V->find("args"))
        F.Dropped += intField<uint64_t>(*Args, "events");
      continue;
    }
    ++F.Events;
    F.Threads.insert(intField<int>(*V, "tid"));
    if (Ph == "X") {
      Spans.push_back({std::move(Name),
                       intField<uint64_t>(*V, "sid"),
                       intField<uint64_t>(*V, "psid"),
                       nanos(V->getNumber("dur"))});
    } else if (Ph == "i") {
      ++F.Instants;
    }
  }

  // Self time: every complete event whose parent is in the trace is
  // subtracted from that parent; the rest are roots.
  std::map<uint64_t, size_t> BySid;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Sid)
      BySid[Spans[I].Sid] = I;
  std::vector<int64_t> Self;
  for (const Complete &S : Spans)
    Self.push_back(S.DurNs);
  for (const Complete &S : Spans) {
    auto Parent = S.Sid ? BySid.find(S.Psid) : BySid.end();
    if (Parent == BySid.end())
      F.RootNs += S.DurNs;
    else
      Self[Parent->second] -= S.DurNs;
  }

  std::map<std::string, SpanRow> ByName;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SpanRow &R = ByName[Spans[I].Name];
    R.Name = Spans[I].Name;
    ++R.Count;
    R.TotalNs += Spans[I].DurNs;
    R.SelfNs += Self[I];
    R.MaxNs = std::max(R.MaxNs, Spans[I].DurNs);
  }
  for (auto &[Name, R] : ByName)
    F.Spans.push_back(std::move(R));
  std::stable_sort(F.Spans.begin(), F.Spans.end(),
                   [](const SpanRow &A, const SpanRow &B) {
                     return A.SelfNs > B.SelfNs;
                   });
  return F;
}

//===----------------------------------------------------------------------===//
// The bench trajectory
//===----------------------------------------------------------------------===//

bool gadt::report::renderTrajectory(std::string_view Json, std::string &Md) {
  std::optional<json::Value> V = json::parse(Json);
  const json::Value *Entries = V ? V->find("entries") : nullptr;
  if (!Entries || !Entries->isArray() || Entries->Arr.empty())
    return false;
  struct Column {
    std::string Label;
    std::map<std::string, double> RealNs;
  };
  std::vector<Column> Columns;
  std::vector<std::string> Names; // first-seen order
  for (const json::Value &E : Entries->Arr) {
    const json::Value *Label = E.find("label");
    const json::Value *Results = E.find("results");
    if (!Label || !Label->isString() || !Results || !Results->isArray())
      return false;
    Column C{Label->Str, {}};
    for (const json::Value &R : Results->Arr) {
      std::string Name = R.getString("name");
      C.RealNs.emplace(Name, R.getNumber("real_ns"));
      if (std::find(Names.begin(), Names.end(), Name) == Names.end())
        Names.push_back(Name);
    }
    Columns.push_back(std::move(C));
  }

  Md += "## Benchmark trajectory\n\nmin-of-N real time per iteration, one "
        "column per entry.\n\n| benchmark |";
  for (const Column &C : Columns)
    Md += " " + C.Label + " |";
  Md += "\n|---|";
  for (size_t I = 0; I < Columns.size(); ++I)
    Md += "---:|";
  Md += "\n";
  for (const std::string &Name : Names) {
    Md += "| `" + Name + "` |";
    for (const Column &C : Columns) {
      auto It = C.RealNs.find(Name);
      if (It == C.RealNs.end()) {
        Md += " — |";
        continue;
      }
      Md += ' ';
      Md += fmtMicros(It->second / 1000.0);
      Md += " |";
    }
    Md += "\n";
  }
  Md += "\n";
  return true;
}

//===----------------------------------------------------------------------===//
// The driver
//===----------------------------------------------------------------------===//

int gadt::report::runReport(const std::vector<std::string> &Args) {
  std::string TracePath, BenchPath, OutPath;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    bool HasValue = I + 1 < Args.size();
    if (Arg == "--trace" && HasValue)
      TracePath = Args[++I];
    else if (Arg == "--bench" && HasValue)
      BenchPath = Args[++I];
    else if (Arg == "--out" && HasValue)
      OutPath = Args[++I];
    else {
      std::printf("usage: gadt_report [--trace t.jsonl] "
                  "[--bench trajectory.json] [--out report.md]\n");
      return Arg == "--help" ? 0 : 1;
    }
  }

  std::string Md = "# GADT ops report\n\nInputs:";
  if (!TracePath.empty())
    Md += " trace=`" + TracePath + "`";
  if (!BenchPath.empty())
    Md += " bench=`" + BenchPath + "`";
  Md += "\n\n";

  bool Ok = true;
  if (!TracePath.empty())
    Ok &= traceSection(TracePath, Md);
  if (!BenchPath.empty())
    Ok &= benchSection(BenchPath, Md);

  if (OutPath.empty()) {
    std::fputs(Md.c_str(), stdout);
    return Ok ? 0 : 1;
  }
  std::ofstream Out(OutPath, std::ios::trunc);
  if (!Out) {
    obs::logError("gadt_report", "cannot write " + OutPath);
    return 1;
  }
  Out << Md;
  std::printf("wrote %s\n", OutPath.c_str());
  return Ok ? 0 : 1;
}
