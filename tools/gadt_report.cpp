//===- gadt_report.cpp - Merge telemetry into one ops report --------------===//
//
// Folds the telemetry a traced run leaves behind — the span trace
// (GADT_TRACE), the structured log (GADT_LOG), the metric series
// (GADT_METRICS), the collapsed profile (GADT_PROFILE) — plus any number
// of committed BENCH_*.json captures into a single markdown ops report:
//
//   $ gadt_report --trace t.jsonl --log l.jsonl --metrics m.jsonl
//                 --profile p.collapsed --bench BENCH_PR5.json
//                 --bench BENCH_PR6.json --out report.md
//
// Every input is optional; sections for absent inputs are omitted. The
// report answers the questions an operator asks first: where did the time
// go (span totals, profile), did sessions cross threads cleanly (flow
// accounting), what did the caches retain (gauges), did anything get
// dropped or logged at warn+ — and how do the numbers compare with the
// committed benchmark trajectory.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "support/JSON.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace gadt;

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

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
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

struct SpanAgg {
  uint64_t Count = 0;
  double TotalUs = 0;
  double MaxUs = 0;
};

struct FlowAgg {
  int StartTid = -1, FinishTid = -1;
  bool Stepped = false;
};

void traceSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return;
  std::map<std::string, SpanAgg> Spans;
  std::map<uint64_t, FlowAgg> Flows;
  std::map<int, std::string> ThreadNames;
  std::set<int> Tids;
  uint64_t Events = 0, Instants = 0, Unparsed = 0;

  for (const std::string &Line : splitLines(Text)) {
    std::optional<json::Value> V = json::parse(Line);
    if (!V || !V->isObject()) {
      ++Unparsed;
      continue;
    }
    ++Events;
    std::string Ph = V->getString("ph");
    int Tid = static_cast<int>(V->getNumber("tid"));
    std::string Name = V->getString("name");
    Tids.insert(Tid);
    if (Ph == "X") {
      SpanAgg &A = Spans[Name];
      A.Count++;
      double Us = V->getNumber("dur");
      A.TotalUs += Us;
      A.MaxUs = std::max(A.MaxUs, Us);
    } else if (Ph == "i") {
      ++Instants;
    } else if (Ph == "s" || Ph == "t" || Ph == "f") {
      FlowAgg &F = Flows[static_cast<uint64_t>(V->getNumber("id"))];
      if (Ph == "s")
        F.StartTid = Tid;
      else if (Ph == "f")
        F.FinishTid = Tid;
      else
        F.Stepped = true;
    } else if (Ph == "M" && Name == "thread_name") {
      if (const json::Value *Args = V->find("args"))
        ThreadNames[Tid] = Args->getString("name");
    }
  }

  Md += "## Span trace\n\n";
  Md += "- events: " + std::to_string(Events) + " (" +
        std::to_string(Instants) + " instants";
  if (Unparsed)
    Md += ", " + std::to_string(Unparsed) + " unparsed lines";
  Md += ")\n- threads: " + std::to_string(Tids.size());
  if (!ThreadNames.empty()) {
    Md += " (";
    bool First = true;
    for (const auto &[Tid, N] : ThreadNames) {
      if (!First)
        Md += ", ";
      First = false;
      Md += N;
    }
    Md += ")";
  }
  Md += "\n";

  uint64_t CrossThread = 0, Complete = 0;
  for (const auto &[Id, F] : Flows) {
    if (F.StartTid >= 0 && F.FinishTid >= 0) {
      ++Complete;
      if (F.StartTid != F.FinishTid)
        ++CrossThread;
    }
  }
  if (!Flows.empty()) {
    Md += "- session flows: " + std::to_string(Flows.size()) + " started, " +
          std::to_string(Complete) + " completed, " +
          std::to_string(CrossThread) + " crossed threads\n";
  }
  Md += "\n| span | count | total | mean | max |\n";
  Md += "|---|---:|---:|---:|---:|\n";
  std::vector<std::pair<std::string, SpanAgg>> Rows(Spans.begin(),
                                                    Spans.end());
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.second.TotalUs > B.second.TotalUs;
  });
  for (const auto &[Name, A] : Rows) {
    Md += "| `" + Name + "` | " + std::to_string(A.Count) + " | " +
          fmtMicros(A.TotalUs) + " | " + fmtMicros(A.TotalUs / A.Count) +
          " | " + fmtMicros(A.MaxUs) + " |\n";
  }
  Md += "\n";
}

//===----------------------------------------------------------------------===//
// Structured-log section
//===----------------------------------------------------------------------===//

void logSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return;
  std::map<std::string, uint64_t> ByLevel;
  std::map<std::string, uint64_t> ByComponent;
  std::vector<std::string> Notable; // warn+ messages, capped
  uint64_t Records = 0;
  for (const std::string &Line : splitLines(Text)) {
    std::optional<json::Value> V = json::parse(Line);
    if (!V || !V->isObject())
      continue;
    ++Records;
    std::string Level = V->getString("level", "?");
    ByLevel[Level]++;
    ByComponent[V->getString("component", "?")]++;
    if ((Level == "warn" || Level == "error") && Notable.size() < 8)
      Notable.push_back("[" + Level + "] " + V->getString("component") +
                        ": " + V->getString("msg"));
  }
  Md += "## Structured log\n\n- records: " + std::to_string(Records);
  Md += " (";
  bool First = true;
  for (const auto &[L, N] : ByLevel) {
    if (!First)
      Md += ", ";
    First = false;
    Md += L + " " + std::to_string(N);
  }
  Md += ")\n- components: ";
  First = true;
  for (const auto &[C, N] : ByComponent) {
    if (!First)
      Md += ", ";
    First = false;
    Md += "`" + C + "` (" + std::to_string(N) + ")";
  }
  Md += "\n";
  if (!Notable.empty()) {
    Md += "\nWarnings and errors:\n\n";
    for (const std::string &N : Notable)
      Md += "- " + N + "\n";
  }
  Md += "\n";
}

//===----------------------------------------------------------------------===//
// Metrics section
//===----------------------------------------------------------------------===//

void metricsSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return;
  std::vector<json::Value> Ticks;
  for (const std::string &Line : splitLines(Text)) {
    std::optional<json::Value> V = json::parse(Line);
    if (V && V->isObject())
      Ticks.push_back(std::move(*V));
  }
  Md += "## Metric series\n\n- ticks: " + std::to_string(Ticks.size());
  if (Ticks.empty()) {
    Md += "\n\n";
    return;
  }
  const json::Value &First = Ticks.front();
  const json::Value &Last = Ticks.back();
  Md += " spanning " +
        fmtMicros(Last.getNumber("ts") - First.getNumber("ts")) + "\n";

  Md += "\n| counter | total | over the series |\n|---|---:|---:|\n";
  if (const json::Value *Counters = Last.find("counters")) {
    const json::Value *FirstCounters = First.find("counters");
    for (const auto &[Name, V] : Counters->Obj) {
      uint64_t Total = static_cast<uint64_t>(V.getNumber("total"));
      uint64_t Before =
          FirstCounters
              ? static_cast<uint64_t>(
                    FirstCounters->find(Name)
                        ? FirstCounters->find(Name)->getNumber("total")
                        : 0)
              : 0;
      Md += "| `" + Name + "` | " + std::to_string(Total) + " | +" +
            std::to_string(Total - Before) + " |\n";
    }
  }
  Md += "\n| gauge | final |\n|---|---:|\n";
  if (const json::Value *Gauges = Last.find("gauges"))
    for (const auto &[Name, V] : Gauges->Obj)
      Md += "| `" + Name + "` | " +
            std::to_string(static_cast<int64_t>(V.Num)) + " |\n";
  Md += "\n| histogram | count | p50 | p95 | p99 |\n|---|---:|---:|---:|---:|\n";
  if (const json::Value *Hists = Last.find("histograms"))
    for (const auto &[Name, V] : Hists->Obj) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "| `%s` | %llu | %.1f | %.1f | %.1f |\n",
                    Name.c_str(),
                    static_cast<unsigned long long>(V.getNumber("count")),
                    V.getNumber("p50"), V.getNumber("p95"),
                    V.getNumber("p99"));
      Md += Buf;
    }
  Md += "\n";
}

//===----------------------------------------------------------------------===//
// Profile section
//===----------------------------------------------------------------------===//

void profileSection(const std::string &Path, std::string &Md) {
  std::string Text;
  if (!readFile(Path, Text))
    return;
  std::vector<std::pair<uint64_t, std::string>> Stacks;
  uint64_t Total = 0;
  for (const std::string &Line : splitLines(Text)) {
    size_t Space = Line.find_last_of(' ');
    if (Space == std::string::npos)
      continue;
    uint64_t N = std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
    if (!N)
      continue;
    Total += N;
    Stacks.emplace_back(N, Line.substr(0, Space));
  }
  Md += "## Sampling profile\n\n- samples attributed to spans: " +
        std::to_string(Total) + " across " +
        std::to_string(Stacks.size()) + " distinct span paths\n\n";
  if (!Total) {
    return;
  }
  std::sort(Stacks.rbegin(), Stacks.rend());
  Md += "| span path | samples | share |\n|---|---:|---:|\n";
  size_t Shown = std::min<size_t>(Stacks.size(), 15);
  for (size_t I = 0; I < Shown; ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f%%",
                  100.0 * double(Stacks[I].first) / double(Total));
    Md += "| `" + Stacks[I].second + "` | " +
          std::to_string(Stacks[I].first) + " | " + Buf + " |\n";
  }
  if (Stacks.size() > Shown)
    Md += "\n(" + std::to_string(Stacks.size() - Shown) +
          " colder paths omitted)\n";
  Md += "\n";
}

//===----------------------------------------------------------------------===//
// Bench-trajectory section
//===----------------------------------------------------------------------===//

void benchSection(const std::vector<std::string> &Paths, std::string &Md) {
  struct Capture {
    std::string Label;
    std::map<std::string, double> RealNs;
  };
  std::vector<Capture> Captures;
  std::vector<std::string> AllNames; // first-seen order
  for (const std::string &Path : Paths) {
    std::string Text;
    if (!readFile(Path, Text))
      continue;
    std::optional<json::Value> V = json::parse(Text);
    if (!V || !V->isObject()) {
      obs::logError("gadt_report", "not a bench capture: " + Path);
      continue;
    }
    Capture C;
    C.Label = baseName(Path);
    if (const json::Value *Results = V->find("results"))
      for (const json::Value &R : Results->Arr) {
        std::string Name = R.getString("name");
        C.RealNs[Name] = R.getNumber("real_ns");
        if (std::find(AllNames.begin(), AllNames.end(), Name) ==
            AllNames.end())
          AllNames.push_back(Name);
      }
    Captures.push_back(std::move(C));
  }
  if (Captures.empty())
    return;
  Md += "## Benchmark trajectory\n\nmin-of-N real time per iteration.\n\n";
  Md += "| benchmark |";
  for (const Capture &C : Captures)
    Md += " " + C.Label + " |";
  if (Captures.size() >= 2)
    Md += " last vs first |";
  Md += "\n|---|";
  for (size_t I = 0; I < Captures.size(); ++I)
    Md += "---:|";
  if (Captures.size() >= 2)
    Md += "---:|";
  Md += "\n";
  for (const std::string &Name : AllNames) {
    Md += "| `" + Name + "` |";
    for (const Capture &C : Captures) {
      auto It = C.RealNs.find(Name);
      if (It == C.RealNs.end()) {
        Md += " — |";
        continue;
      }
      Md += ' ';
      Md += fmtMicros(It->second / 1000.0);
      Md += " |";
    }
    if (Captures.size() >= 2) {
      auto FirstIt = Captures.front().RealNs.find(Name);
      auto LastIt = Captures.back().RealNs.find(Name);
      if (FirstIt != Captures.front().RealNs.end() &&
          LastIt != Captures.back().RealNs.end() && FirstIt->second > 0) {
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), " %+.1f%% |",
                      100.0 * (LastIt->second - FirstIt->second) /
                          FirstIt->second);
        Md += Buf;
      } else {
        Md += " — |";
      }
    }
    Md += "\n";
  }
  Md += "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::string TracePath, LogPath, MetricsPath, ProfilePath, OutPath;
  std::vector<std::string> BenchPaths;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg(argv[I]);
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--trace" && (V = Next()))
      TracePath = V;
    else if (Arg == "--log" && (V = Next()))
      LogPath = V;
    else if (Arg == "--metrics" && (V = Next()))
      MetricsPath = V;
    else if (Arg == "--profile" && (V = Next()))
      ProfilePath = V;
    else if (Arg == "--bench" && (V = Next()))
      BenchPaths.push_back(V);
    else if (Arg == "--out" && (V = Next()))
      OutPath = V;
    else {
      std::printf("usage: %s [--trace t.jsonl] [--log l.jsonl] "
                  "[--metrics m.jsonl] [--profile p.collapsed] "
                  "[--bench BENCH.json]... [--out report.md]\n",
                  argv[0]);
      return Arg == "--help" ? 0 : 1;
    }
  }

  std::string Md = "# GADT ops report\n\n";
  Md += "Inputs:";
  for (const auto &[Flag, Path] :
       std::initializer_list<std::pair<const char *, const std::string &>>{
           {"trace", TracePath},
           {"log", LogPath},
           {"metrics", MetricsPath},
           {"profile", ProfilePath}})
    if (!Path.empty())
      Md += std::string(" ") + Flag + "=`" + Path + "`";
  for (const std::string &B : BenchPaths)
    Md += " bench=`" + B + "`";
  Md += "\n\n";

  if (!TracePath.empty())
    traceSection(TracePath, Md);
  if (!LogPath.empty())
    logSection(LogPath, Md);
  if (!MetricsPath.empty())
    metricsSection(MetricsPath, Md);
  if (!ProfilePath.empty())
    profileSection(ProfilePath, Md);
  if (!BenchPaths.empty())
    benchSection(BenchPaths, Md);

  if (OutPath.empty()) {
    std::fputs(Md.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(OutPath, std::ios::trunc);
  if (!Out) {
    obs::logError("gadt_report", "cannot write " + OutPath);
    return 1;
  }
  Out << Md;
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
