//===- main.cpp - GADT session benchmark ----------------------------------===//
//
// Runs whole debugging sessions of one workload as a single closed-loop
// client (each op starts when the previous one has finished), checks every
// op's result, and prints one JSON summary as the last line of stdout.
//
//   gadt_perfbench --workload cold_corpus|warm_repeat|edit_relocalize
//                  [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                  [--rows FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer breakdown of a composed, timed session (and writes one row per
// traced op to --rows). See README.md beside this file.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Corpus.h"
#include "Sessions.h"

#include "core/ReferenceOracle.h"
#include "pascal/Frontend.h"
#include "support/JSON.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string Rows;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "gadt_perfbench: %s\nusage: gadt_perfbench --workload "
               "cold_corpus|warm_repeat|edit_relocalize [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--rows FILE]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + K).c_str());
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = Value();
    else if (K == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(Value().c_str());
    else if (K == "--trace")
      A.Trace = Value() == "1";
    else if (K == "--smoke")
      A.Smoke = true;
    else if (K == "--rows")
      A.Rows = Value();
    else
      usage(("unknown argument " + K).c_str());
  }
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  return A;
}

Workload workloadNamed(const std::string &N) {
  if (N == "cold_corpus")
    return Workload::ColdCorpus;
  if (N == "warm_repeat")
    return Workload::WarmRepeat;
  if (N == "edit_relocalize")
    return Workload::EditRelocalize;
  usage(("unknown workload '" + N + "'").c_str());
}

/// Nearest-rank percentile of \p V (sorted in place).
double percentile(std::vector<double> &V, double P, size_t *Above = nullptr) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  size_t Idx = Rank ? Rank - 1 : 0;
  if (Above)
    *Above = V.size() - 1 - Idx;
  return V[Idx];
}

double median(std::vector<double> V) { return percentile(V, 0.5); }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Every op's verdict against its planted routine and reference transcript.
struct Checker {
  unsigned Attempted = 0, Failed = 0, WrongUnit = 0, Errors = 0,
           Diverged = 0;
  std::string FirstFailure;

  void check(const Subject &S, const OpOutcome &Got, const OpOutcome &Ref,
             const char *Mode) {
    ++Attempted;
    const char *Why = nullptr;
    if (!Got.Error.empty()) {
      ++Errors;
      Why = "error";
    } else if (Got.Unit != S.Expected) {
      ++WrongUnit;
      Why = "wrong unit";
    } else if (Got.Transcript != Ref.Transcript) {
      ++Diverged;
      Why = "transcript differs from the reference";
    }
    if (!Why)
      return;
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = std::string(Mode) + " op on " + S.Name + ": " + Why +
                     " (expected " + S.Expected + ", got '" + Got.Unit +
                     "'" + (Got.Error.empty() ? "" : ": " + Got.Error) + ")";
  }
};

/// One set-up of the workload: corpus, runner and the reference pass that
/// also warms every cache the measured ops will hit.
struct Setup {
  Corpus C;
  std::unique_ptr<SessionRunner> Runner;
  std::vector<OpOutcome> Ref; ///< per subject
  double Seconds = 0;
};

std::unique_ptr<Setup> setUp(Workload W, const Args &A) {
  uint64_t T0 = nowNs();
  auto S = std::make_unique<Setup>();
  S->C = buildCorpus(W, A.Seed, A.Smoke);
  S->Runner = std::make_unique<SessionRunner>(S->C);
  S->Ref.resize(S->C.Subjects.size());
  std::vector<bool> Seen(S->C.Subjects.size());
  for (size_t I : S->C.Schedule)
    if (!Seen[I] || W == Workload::EditRelocalize) {
      Seen[I] = true;
      S->Ref[I] = S->Runner->run(I, nullptr);
    }
  if (W == Workload::EditRelocalize) {
    // The reference of an edit is a cold session over the edited program:
    // incremental commit plus re-localization must reproduce it exactly.
    std::map<std::string, std::pair<std::string, std::string>> Cold;
    for (size_t I = 0; I != S->C.Subjects.size(); ++I) {
      const Subject &Sub = S->C.Subjects[I];
      auto &[Unit, Transcript] = Cold[Sub.Buggy];
      if (Unit.empty()) {
        gadt::DiagnosticsEngine Diags;
        auto Buggy = gadt::pascal::parseAndCheck(Sub.Buggy, Diags);
        auto Intended = gadt::pascal::parseAndCheck(Sub.Intended, Diags);
        gadt::core::GADTSession Session(*Buggy, Sub.Opts, Diags);
        gadt::core::IntendedProgramOracle User(*Intended);
        Unit = Session.debug(User).UnitName;
        Transcript = Session.stats().transcript();
      }
      if (Unit != S->Ref[I].Unit || Transcript != S->Ref[I].Transcript)
        S->Ref[I].Error =
            "differs from a cold session, which localized " + Unit;
    }
  }
  S->Seconds = (nowNs() - T0) / 1e9;
  return S;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-32s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit);
}

double ratio(uint64_t Hits, uint64_t Misses) {
  return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
}

/// Writes one JSON object per traced op.
void writeRows(const std::string &Path, const Corpus &C,
               const std::vector<std::pair<size_t, LayerRow>> &Rows) {
  std::string Out;
  gadt::json::Writer J(Out);
  J.beginArray();
  for (const auto &[I, R] : Rows) {
    auto Us = [&](const char *Key, double Ns) { J.key(Key).value(Ns / 1e3); };
    J.beginObject().key("subject").value(C.Subjects[I].Name);
    Us("wall_us", R.WallNs);
    Us("pascal_us", R.ParseNs);
    Us("transform_us", R.TransformNs);
    Us("sdg_us", R.SdgNs);
    Us("compile_us", R.CompileNs);
    Us("prepare_us", R.PrepareNs);
    Us("begin_us", R.BeginNs);
    Us("commit_us", R.CommitNs);
    Us("exec_us", R.ExecNs);
    Us("oracle_us", R.oracleNs());
    Us("lookup_us", R.LookupNs);
    Us("slicing_us", R.SliceNs);
    Us("search_us", R.searchNs());
    Us("other_us", R.otherNs());
    J.key("tree_nodes").value(R.TreeNodes);
    J.key("oracle_calls").value(R.OracleCalls);
    J.endObject();
  }
  J.endArray();
  std::ofstream(Path) << Out << "\n";
}

/// Mean over \p Rows of \p F.
template <typename F>
double meanOf(const std::vector<std::pair<size_t, LayerRow>> &Rows, F Fn) {
  double Sum = 0;
  for (const auto &[I, R] : Rows)
    Sum += Fn(R);
  return Rows.empty() ? 0 : Sum / Rows.size();
}

/// The per-layer metrics: times are means over the timed traced ops, counts
/// are means over the census pass (one traced op per scheduled subject, so
/// they are exact for a seed).
std::vector<Metric>
layerMetrics(const std::vector<std::pair<size_t, LayerRow>> &Timed,
             const std::vector<std::pair<size_t, LayerRow>> &Census,
             const Corpus &C, const gadt::runtime::RuntimeStats &Cache,
             double UntracedP50, double TracedP50, double CalibUs) {
  auto T = [&](uint64_t LayerRow::*M) {
    return meanOf(Timed, [&](const LayerRow &R) { return (R.*M) / 1e3; });
  };
  auto N = [&](auto Fn) { return meanOf(Census, Fn); };
  double Nodes = N([](const LayerRow &R) { return double(R.TreeNodes); });
  double Bytes = N([](const LayerRow &R) { return double(R.TreeBytes); });
  double Calls = meanOf(Timed, [](const LayerRow &R) {
    return double(R.OracleCalls);
  });
  double OracleUs =
      meanOf(Timed, [](const LayerRow &R) { return R.oracleNs() / 1e3; });
  return {
      {"pascal.parse_check_us", T(&LayerRow::ParseNs), "us"},
      {"pascal.source_bytes",
       N([](const LayerRow &R) { return double(R.SourceBytes); }), "bytes"},
      {"transform.us", T(&LayerRow::TransformNs), "us"},
      {"transform.gotos_broken",
       N([](const LayerRow &R) { return double(R.GotosBroken); }), "count"},
      {"transform.globals_converted",
       N([](const LayerRow &R) { return double(R.GlobalsConverted); }),
       "count"},
      {"analysis.sdg_build_us", T(&LayerRow::SdgNs), "us"},
      {"analysis.sdg_edges",
       N([](const LayerRow &R) { return double(R.SdgEdges); }), "count"},
      {"analysis.summary_edges",
       N([](const LayerRow &R) { return double(R.SummaryEdges); }), "count"},
      {"bytecode.compile_us", T(&LayerRow::CompileNs), "us"},
      {"bytecode.rejected_frac",
       N([](const LayerRow &R) { return R.CompileRejected ? 1.0 : 0.0; }),
       "ratio"},
      {"trace.exec_us", T(&LayerRow::ExecNs), "us"},
      {"trace.nodes", Nodes, "count"},
      {"trace.bytes_per_node", Nodes ? Bytes / Nodes : 0, "bytes"},
      {"interp.steps", N([](const LayerRow &R) { return double(R.Steps); }),
       "count"},
      {"core.oracle_us", OracleUs, "us"},
      {"core.oracle_calls",
       N([](const LayerRow &R) { return double(R.OracleCalls); }), "count"},
      {"core.oracle_us_per_call", Calls ? OracleUs / Calls : 0, "us"},
      {"core.answers.user",
       N([](const LayerRow &R) { return double(R.AnsUser); }), "count"},
      {"core.answers.test-db",
       N([](const LayerRow &R) { return double(R.AnsTestDb); }), "count"},
      {"core.answers.assertion",
       N([](const LayerRow &R) { return double(R.AnsAssertion); }), "count"},
      {"core.answers.memo",
       N([](const LayerRow &R) { return double(R.MemoHits); }), "count"},
      {"core.search_us",
       meanOf(Timed, [](const LayerRow &R) { return R.searchNs() / 1e3; }),
       "us"},
      {"core.memo_hits",
       N([](const LayerRow &R) { return double(R.MemoHits); }), "count"},
      {"slicing.static_us", T(&LayerRow::SliceNs), "us"},
      {"slicing.calls",
       N([](const LayerRow &R) { return double(R.SliceCalls); }), "count"},
      {"slicing.nodes_pruned",
       N([](const LayerRow &R) { return double(R.NodesPruned); }), "count"},
      {"tgen.suite_us",
       (C.TgenSuiteNs ? C.TgenSuiteNs : emptyRegionNs()) / 1e3, "us"},
      {"tgen.lookup_us", T(&LayerRow::LookupNs), "us"},
      {"runtime.prepare_us", T(&LayerRow::PrepareNs), "us"},
      {"runtime.hit_ratio.program",
       ratio(Cache.ProgramHits, Cache.ProgramMisses), "ratio"},
      {"runtime.hit_ratio.transform",
       ratio(Cache.TransformHits, Cache.TransformMisses), "ratio"},
      {"runtime.hit_ratio.sdg", ratio(Cache.SdgHits, Cache.SdgMisses),
       "ratio"},
      {"runtime.hit_ratio.code", ratio(Cache.CodeHits, Cache.CodeMisses),
       "ratio"},
      {"runtime.hit_ratio.slice", ratio(Cache.SliceHits, Cache.SliceMisses),
       "ratio"},
      {"runtime.begin_us", T(&LayerRow::BeginNs), "us"},
      {"runtime.commit_us", T(&LayerRow::CommitNs), "us"},
      {"runtime.routines_total",
       N([](const LayerRow &R) { return double(R.Inc.RoutinesTotal); }),
       "count"},
      {"runtime.routines_dirty",
       N([](const LayerRow &R) { return double(R.Inc.RoutinesDirty); }),
       "count"},
      {"runtime.pdg_rebuilt",
       N([](const LayerRow &R) { return double(R.Inc.PdgRebuilt); }),
       "count"},
      {"runtime.code_recompiled",
       N([](const LayerRow &R) { return double(R.Inc.CodeRecompiled); }),
       "count"},
      {"layers.wall_us", T(&LayerRow::WallNs), "us"},
      {"other_us",
       meanOf(Timed, [](const LayerRow &R) { return R.otherNs() / 1e3; }),
       "us"},
      {"trace_overhead_frac",
       UntracedP50 > 0 ? TracedP50 / UntracedP50 - 1 : 0, "ratio"},
      {"calib.kernel_us", CalibUs, "us"},
  };
}

/// End-to-end times are reported at the machine speed where the
/// calibration kernel takes this long: roughly its time on a quiet 4-vCPU
/// KVM guest of a Sapphire Rapids Xeon host. The constant only sets the
/// scale; changing it would rescale every committed figure.
constexpr double ReferenceKernelUs = 5000.0;

/// Tracks the machine's speed: the calibration kernel is timed before the
/// set-ups, after each one and every 100 ms between ops. On a shared host
/// the CPU slows and recovers over seconds (turbo frequency, neighbours on
/// the same cores and caches), and every layer slows with it; scaling each
/// timing by the kernel's speed around it takes that drift out of the
/// end-to-end figures.
struct MachineSpeed {
  std::vector<double> Micros;
  std::vector<uint64_t> At;
  uint64_t Checksum = 0;

  void sample() {
    Micros.push_back(kernelMicros(Checksum));
    At.push_back(nowNs());
  }
  void sampleEvery100ms() {
    if (nowNs() - At.back() >= 100'000'000)
      sample();
  }
  /// Reference-speed equivalent of \p Us measured around time \p T:
  /// scaled by the median kernel time of the samples within 250 ms of T.
  double normalize(double Us, uint64_t T) const {
    const uint64_t Window = 250'000'000;
    auto Lo = std::lower_bound(At.begin(), At.end(), T - std::min(T, Window));
    auto Hi = std::upper_bound(At.begin(), At.end(), T + Window);
    std::vector<double> Near(Micros.begin() + (Lo - At.begin()),
                             Micros.begin() + (Hi - At.begin()));
    return Us * ReferenceKernelUs / median(Near.empty() ? Micros : Near);
  }
  double medianMicros() const { return median(Micros); }
};

int runBenchmark(const Args &A) {
  const Workload W = workloadNamed(A.Workload);
  MachineSpeed Speed;
  for (int K = 0; K != 11; ++K)
    Speed.sample();

  // Set up several times; report the median and require every set-up to
  // produce the same reference sessions (determinism within a seed).
  const unsigned Setups = A.Smoke ? 2 : 3;
  std::vector<double> SetupSeconds, RawSetupSeconds;
  std::unique_ptr<Setup> S;
  bool SetupsAgree = true;
  for (unsigned K = 0; K != Setups; ++K) {
    std::unique_ptr<Setup> Next = setUp(W, A);
    for (int J = 0; J != 5; ++J)
      Speed.sample();
    RawSetupSeconds.push_back(Next->Seconds);
    SetupSeconds.push_back(Speed.normalize(Next->Seconds, Speed.At.back()));
    if (S)
      for (size_t I = 0; I != S->Ref.size(); ++I)
        SetupsAgree &= S->Ref[I].Transcript == Next->Ref[I].Transcript &&
                       S->Ref[I].Unit == Next->Ref[I].Unit;
    S = std::move(Next);
  }
  const Corpus &C = S->C;
  SessionRunner &Runner = *S->Runner;

  Checker Refs;
  for (size_t I = 0; I != C.Subjects.size(); ++I)
    Refs.check(C.Subjects[I], S->Ref[I], S->Ref[I], "reference");

  // Census: one traced op per scheduled subject, for the exact counts.
  std::vector<std::pair<size_t, LayerRow>> Census, Timed;
  Checker Ops;
  const size_t L = C.Schedule.size();
  if (A.Trace)
    for (size_t I : C.Schedule) {
      LayerRow Row;
      Ops.check(C.Subjects[I], Runner.run(I, &Row), S->Ref[I], "traced");
      Census.emplace_back(I, Row);
    }

  Runner.resetCacheStats();
  std::vector<double> Untraced, Traced; // op wall times, µs
  std::vector<uint64_t> UntracedAt;      // op start times
  const uint64_t Start = nowNs();
  const uint64_t Budget = static_cast<uint64_t>(A.Seconds * 1e9);
  auto RunOne = [&](size_t I, bool Trace) {
    LayerRow Row;
    uint64_t T0 = nowNs();
    OpOutcome O = Runner.run(I, Trace ? &Row : nullptr);
    uint64_t Dt = nowNs() - T0;
    Ops.check(C.Subjects[I], O, S->Ref[I], Trace ? "traced" : "untraced");
    if (Trace) {
      Row.WallNs = Dt;
      Timed.emplace_back(I, Row);
      Traced.push_back(Dt / 1e3);
    } else {
      Untraced.push_back(Dt / 1e3);
      UntracedAt.push_back(T0);
    }
  };
  // Cold and warm ops are independent, so each pass takes a fresh seeded
  // order: an op's cost depends on what ran before it (allocator and cache
  // state), and a fixed cycle would pin every subject to one predecessor.
  // Edits depend on the previous commit and keep their cycle.
  std::vector<size_t> Order = C.Schedule;
  std::mt19937_64 Reorder(A.Seed ^ 0x5eed5eed5eed5eedULL);
  for (size_t K = 0;; ++K) {
    if (nowNs() - Start >= Budget && !Untraced.empty() &&
        (!A.Trace || !Traced.empty()))
      break;
    if (K % L == 0 && W != Workload::EditRelocalize)
      std::shuffle(Order.begin(), Order.end(), Reorder);
    size_t I = Order[K % L];
    if (!A.Trace) {
      RunOne(I, false);
    } else if (W == Workload::EditRelocalize) {
      // Edits depend on the previous commit, so traced and untraced ops
      // alternate along the (odd-length) schedule instead of repeating.
      RunOne(I, K % 2 == 1);
    } else {
      RunOne(I, K % 2 == 1);
      RunOne(I, K % 2 == 0);
    }
    Speed.sampleEvery100ms();
  }
  const double Elapsed = (nowNs() - Start) / 1e9;
  const gadt::runtime::RuntimeStats &Cache = Runner.cacheStats();

  // Exact figures of merit: means over one pass of the schedule.
  double UserQ = 0, Judg = 0;
  for (size_t I : C.Schedule) {
    UserQ += S->Ref[I].UserQueries;
    Judg += S->Ref[I].Judgements;
  }
  UserQ /= L;
  Judg /= L;

  struct rusage Ru;
  getrusage(RUSAGE_SELF, &Ru);
  const double PeakMb = Ru.ru_maxrss / 1024.0;

  std::vector<std::pair<std::string, bool>> Checks = {
      {"reference sessions localize the planted routine", Refs.Failed == 0},
      {"set-ups agree on every reference session", SetupsAgree},
      {"every op localizes the planted routine with the reference transcript",
       Ops.Failed == 0},
  };
  if (W == Workload::WarmRepeat)
    Checks.push_back({"measured ops hit every cache",
                      Cache.ProgramMisses + Cache.TransformMisses +
                              Cache.SdgMisses + Cache.CodeMisses +
                              Cache.SliceMisses ==
                          0});

  std::vector<Metric> Ms;
  size_t Above = 0;
  std::vector<double> Sorted = Untraced;
  const double P50 = median(Untraced);
  const double P99 = percentile(Sorted, 0.99, &Above);
  if (A.Trace) {
    const double TracedP50 = median(Traced);
    Ms = layerMetrics(Timed, Census, C, Cache, P50, TracedP50,
                      Speed.medianMicros());
    // The layers must explain the op: what no layer call covers stays a
    // few percent of the traced wall time.
    double Wall =
        meanOf(Timed, [](const LayerRow &R) { return R.WallNs / 1e3; });
    double Other =
        meanOf(Timed, [](const LayerRow &R) { return R.otherNs() / 1e3; });
    Checks.push_back({"layer times sum to op wall time within 5%",
                      std::fabs(Other) <= 0.05 * Wall});
    if (W == Workload::EditRelocalize) {
      // Only the commits that change the routine list rebuild everything.
      bool Surgical = true;
      for (const auto &[I, R] : Census)
        Surgical &=
            R.Inc.FullRebuild || R.Inc.PdgRebuilt < R.Inc.RoutinesTotal;
      Checks.push_back(
          {"same-shape commits rebuild fewer PDGs than routines", Surgical});
    }
    if (!A.Rows.empty())
      writeRows(A.Rows, C, Timed);
  } else {
    std::vector<double> Norm;
    double NormSum = 0;
    for (size_t K = 0; K != Untraced.size(); ++K) {
      Norm.push_back(Speed.normalize(Untraced[K], UntracedAt[K]));
      NormSum += Norm.back();
    }
    std::vector<double> NormSorted = Norm;
    Ms = {
        {"session_p50_us", median(Norm), "us"},
        {"session_p99_us", percentile(NormSorted, 0.99), "us"},
        {"sessions_per_s", Norm.size() / (NormSum / 1e6), "1/s"},
        {"user_queries_per_bug", UserQ, "count"},
        {"judgements_per_bug", Judg, "count"},
        {"ok_frac",
         Ops.Attempted ? 1.0 - double(Ops.Failed) / Ops.Attempted : 0.0,
         "ratio"},
        {"setup_s", median(SetupSeconds), "s"},
        {"peak_rss_mb", PeakMb, "MB"},
    };
  }

  unsigned Passed = 0;
  for (const auto &[Name, Ok] : Checks)
    Passed += Ok;
  const bool Correct = Passed == Checks.size();

  std::printf("perfbench %s seed=%llu trace=%d%s: %zu subjects, %zu "
              "scheduled; pairs dropped: %u non-manifesting, %u unjudgeable\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Trace ? 1 : 0,
              A.Smoke ? " smoke" : "", C.Subjects.size(), L, C.Discarded,
              C.Unjudged);
  std::printf("  ops: %u attempted, %u failed (failed_frac %.4f: %u errors, "
              "%u wrong units, %u transcript mismatches); untraced samples "
              "%zu, %zu above p99; traced samples %zu\n",
              Ops.Attempted, Ops.Failed,
              Ops.Attempted ? double(Ops.Failed) / Ops.Attempted : 0.0,
              Ops.Errors, Ops.WrongUnit, Ops.Diverged, Untraced.size(), Above,
              Traced.size());
  printMetrics(Ms);
  std::printf("  calibration kernel: median %.1f us over %zu samples, "
              "reference %.0f us (checksum %llu)\n",
              Speed.medianMicros(), Speed.Micros.size(), ReferenceKernelUs,
              (unsigned long long)(Speed.Checksum % 1000));
  if (!A.Trace)
    std::printf("  as measured, before scaling to reference speed: p50 %.1f "
                "us, p99 %.1f us, %.2f sessions/s, setup %.4f s\n",
                P50, P99, Untraced.size() / Elapsed, median(RawSetupSeconds));
  for (const auto &[Name, Ok] : Checks) {
    std::printf("  check %s: %s\n", Ok ? "ok  " : "FAIL", Name.c_str());
    // Failures also go to stderr, which a caller capturing only the
    // summary line still sees.
    if (!Ok)
      std::fprintf(stderr, "gadt_perfbench %s seed=%llu: check failed: %s\n",
                   A.Workload.c_str(), (unsigned long long)A.Seed,
                   Name.c_str());
  }
  if (!Ops.FirstFailure.empty())
    std::fprintf(stderr, "gadt_perfbench: first failure: %s\n",
                 Ops.FirstFailure.c_str());
  if (!Refs.FirstFailure.empty())
    std::fprintf(stderr, "gadt_perfbench: first reference failure: %s\n",
                 Refs.FirstFailure.c_str());
  if (!Ops.FirstFailure.empty())
    std::printf("  first failure: %s\n", Ops.FirstFailure.c_str());
  if (!Refs.FirstFailure.empty())
    std::printf("  first reference failure: %s\n",
                Refs.FirstFailure.c_str());
  std::printf("  checks: %u/%zu passed\n", Passed, Checks.size());

  std::string Json;
  gadt::json::Writer J(Json);
  J.beginObject()
      .key("correct")
      .value(Correct)
      .key("attempted")
      .value(Ops.Attempted)
      .key("failed")
      .value(Ops.Failed)
      .key("metrics")
      .beginObject();
  for (const Metric &M : Ms)
    J.key(M.Name).beginObject().key("value").value(M.Value).key("unit").value(
        M.Unit).endObject();
  J.endObject().endObject();
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  if (A.Workload.empty())
    usage("--workload is required");
  try {
    return runBenchmark(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "gadt_perfbench: %s\n", E.what());
    return 2;
  }
}
