//===- batch_throughput.cpp - Batch-debugging runtime throughput ----------===//
//
// Measures sessions/second of the parallel batch-debugging runtime at
// 1/2/4/8 worker threads, cold cache vs warm cache, over a mixed workload
// of chain, tree, random and paper programs. Verifies the runtime's core
// guarantees as paper-shape checks:
//
//   - every thread count produces byte-identical results to the serial
//     reference (determinism);
//   - a warm context rebuilds nothing (exact miss counters);
//   - warm-cache throughput beats cold-cache throughput;
//   - with >= 4 hardware threads, 4 workers achieve >= 2x the sessions/sec
//     of 1 worker on a cold cache (skipped on smaller machines — the
//     container this grows in has one core).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "runtime/BatchRunner.h"
#include "support/JSON.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

using namespace gadt;
using namespace gadt::bench;
using namespace gadt::runtime;
using namespace gadt::workload;

namespace {

std::vector<SessionRequest> makeWorkload(unsigned N) {
  std::vector<ProgramPair> Pairs;
  for (unsigned K = 1; K <= 4; ++K)
    Pairs.push_back(chainProgram(10, 2 * K));
  Pairs.push_back(treeProgram(3));
  for (uint32_t Seed : {2u, 5u, 9u}) {
    SyntheticOptions Opts;
    Opts.Seed = Seed;
    Opts.NumRoutines = 8;
    Opts.StmtsPerRoutine = 6;
    Pairs.push_back(randomProgram(Opts));
  }
  Pairs.push_back({Figure4Fixed, Figure4Buggy, "decrement"});

  std::vector<SessionRequest> Reqs;
  for (unsigned I = 0; I < N; ++I) {
    const ProgramPair &P = Pairs[I % Pairs.size()];
    SessionRequest R;
    R.Source = P.Buggy;
    R.Intended = P.Fixed;
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

std::vector<std::string> summaries(const std::vector<SessionResult> &Rs) {
  std::vector<std::string> Out;
  for (const SessionResult &R : Rs)
    Out.push_back(R.summary());
  return Out;
}

double secondsOf(std::chrono::steady_clock::time_point T0,
                 std::chrono::steady_clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

/// One measured row of the throughput table, kept for --json export.
struct Row {
  unsigned Threads = 0;
  double ColdRate = 0, WarmRate = 0;
  RuntimeStats Warm;
};

void writeJson(const std::string &Path, unsigned NumSessions,
               const std::vector<Row> &Rows, const Expectations &E) {
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject();
  W.key("bench").value("batch_throughput");
  W.key("schema").value(1);
  W.key("sessions").value(NumSessions);
  W.key("hardware_threads").value(std::thread::hardware_concurrency());
  W.key("results").beginArray();
  for (const Row &R : Rows) {
    W.beginObject();
    W.key("threads").value(R.Threads);
    W.key("cold_sessions_per_sec").value(R.ColdRate);
    W.key("warm_sessions_per_sec").value(R.WarmRate);
    W.key("cache_misses").beginObject();
    W.key("program").value(R.Warm.ProgramMisses);
    W.key("transform").value(R.Warm.TransformMisses);
    W.key("sdg").value(R.Warm.SdgMisses);
    W.key("slice").value(R.Warm.SliceMisses);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("checks").beginObject();
  W.key("passed").value(E.passed());
  W.key("total").value(E.total());
  W.endObject();
  W.endObject();
  std::ofstream Out(Path);
  Out << Buf << "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) == "--json" && I + 1 < argc) {
      JsonPath = argv[++I];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const unsigned NumSessions = 54;
  std::vector<SessionRequest> Reqs = makeWorkload(NumSessions);
  Expectations E;

  std::printf("Batch-debugging throughput: %u sessions, mixed workload "
              "(chains, tree, random, Figure 4)\n",
              NumSessions);
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%8s %14s %14s %12s\n", "threads", "cold (sess/s)",
              "warm (sess/s)", "warm/cold");

  // Serial reference for the byte-identical check.
  std::vector<std::string> Reference;
  {
    RuntimeContext Ctx;
    std::vector<SessionResult> Rs;
    for (const SessionRequest &R : Reqs)
      Rs.push_back(runSession(Ctx, R));
    Reference = summaries(Rs);
  }

  double Cold1 = 0, Cold4 = 0;
  std::vector<Row> Rows;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    RuntimeContext Ctx;

    auto T0 = std::chrono::steady_clock::now();
    std::vector<SessionResult> Cold = runBatch(Ctx, Reqs, Threads);
    auto T1 = std::chrono::steady_clock::now();
    RuntimeStats AfterCold = Ctx.stats();

    auto T2 = std::chrono::steady_clock::now();
    std::vector<SessionResult> Warm = runBatch(Ctx, Reqs, Threads);
    auto T3 = std::chrono::steady_clock::now();
    RuntimeStats AfterWarm = Ctx.stats();

    double ColdRate = NumSessions / secondsOf(T0, T1);
    double WarmRate = NumSessions / secondsOf(T2, T3);
    std::printf("%8u %14.1f %14.1f %11.2fx\n", Threads, ColdRate, WarmRate,
                WarmRate / ColdRate);
    Rows.push_back({Threads, ColdRate, WarmRate, AfterWarm});

    E.expect(summaries(Cold) == Reference,
             std::to_string(Threads) +
                 " threads, cold: byte-identical to serial reference");
    E.expect(summaries(Warm) == Reference,
             std::to_string(Threads) +
                 " threads, warm: byte-identical to serial reference");
    E.expect(AfterWarm.TransformMisses == AfterCold.TransformMisses &&
                 AfterWarm.SdgMisses == AfterCold.SdgMisses &&
                 AfterWarm.SliceMisses == AfterCold.SliceMisses &&
                 AfterWarm.ProgramMisses == AfterCold.ProgramMisses,
             std::to_string(Threads) +
                 " threads: warm run rebuilds no artifact");
    if (Threads == 1) {
      Cold1 = ColdRate;
      std::printf("         %s\n", AfterWarm.str().c_str());
      E.expect(WarmRate > ColdRate,
               "warm cache beats cold cache at 1 thread");
    }
    if (Threads == 4)
      Cold4 = ColdRate;
  }

  if (std::thread::hardware_concurrency() >= 4) {
    E.expect(Cold4 >= 2.0 * Cold1,
             "4 threads >= 2x sessions/sec of 1 thread (cold cache)");
  } else {
    std::printf("\nSKIPPED: 4-vs-1 thread speedup check needs >= 4 hardware "
                "threads (found %u); measured ratio %.2fx\n",
                std::thread::hardware_concurrency(), Cold4 / Cold1);
  }

  int Exit = E.finish("batch_throughput");
  if (!JsonPath.empty())
    writeJson(JsonPath, NumSessions, Rows, E);
  return Exit;
}
