//===- Sessions.h - Untraced and traced debugging-session ops ---*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark op per call. The untraced op drives the public session
/// API exactly as a user would: runtime::RuntimeContext::prepare plus
/// runtime::runSession (a fresh context per op on cold_corpus, one shared
/// context on warm_repeat), or EditSession begin/commit plus a re-localizing
/// search on edit_relocalize. The traced op composes the same session from
/// the public layer calls — parse, transform, SDG, compile (or prepare when
/// warm), tree build, then the search over an assertion -> test-db -> user
/// oracle chain — with a timer around each call, mirroring
/// core::GADTSession::debug. Its transcript must be byte-identical to the
/// untraced op's, or it would be timing a different session.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PERFBENCH_SESSIONS_H
#define GADT_PERFBENCH_SESSIONS_H

#include "Corpus.h"

#include "runtime/BatchRunner.h"
#include "runtime/EditSession.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The duration of an empty timed region: what a layer the op never calls
/// reports, so that no time metric is a constant zero.
inline uint64_t emptyRegionNs() {
  uint64_t T0 = nowNs();
  return nowNs() - T0;
}

/// What one op produced, traced or not.
struct OpOutcome {
  std::string Error; ///< non-empty when the session did not run to a report
  std::string Unit;  ///< the localized unit
  std::string Transcript;
  unsigned UserQueries = 0;
  unsigned Judgements = 0; ///< dialogue entries: every source, memo included
};

/// Self times (ns) and counts of one traced op. Times are exclusive: the
/// oracle time excludes the test-db lookups inside it, the search time
/// excludes the oracle and slice-provider calls inside it.
struct LayerRow {
  uint64_t WallNs = 0;
  uint64_t ParseNs = 0, TransformNs = 0, SdgNs = 0, CompileNs = 0;
  uint64_t PrepareNs = 0, BeginNs = 0, CommitNs = 0;
  uint64_t ExecNs = 0, ChainNs = 0, LookupNs = 0, SliceNs = 0, RunNs = 0;

  uint64_t SourceBytes = 0;
  unsigned GotosBroken = 0, GlobalsConverted = 0;
  uint64_t SdgEdges = 0, SummaryEdges = 0;
  bool CompileRejected = false;
  uint64_t TreeNodes = 0, TreeBytes = 0, Steps = 0;
  unsigned OracleCalls = 0, SliceCalls = 0, NodesPruned = 0, MemoHits = 0;
  unsigned AnsUser = 0, AnsTestDb = 0, AnsAssertion = 0;
  gadt::runtime::IncrementalStats Inc;

  uint64_t oracleNs() const { return ChainNs - LookupNs; }
  int64_t searchNs() const {
    return int64_t(RunNs) - int64_t(ChainNs) - int64_t(SliceNs);
  }
  /// Op wall time not inside any layer call. The oracle, lookup, slicing
  /// and search times partition RunNs, so RunNs stands for all four.
  int64_t otherNs() const {
    return int64_t(WallNs) -
           int64_t(ParseNs + TransformNs + SdgNs + CompileNs + PrepareNs +
                   BeginNs + CommitNs + ExecNs + RunNs);
  }
};

/// Runs ops of one corpus. Holds the state ops share: the warm context,
/// the edit session and the parsed intended programs.
class SessionRunner {
public:
  explicit SessionRunner(const Corpus &C);
  ~SessionRunner();

  /// Runs \p Subjects[I] once. \p Row non-null selects the traced
  /// composition and receives its breakdown (WallNs excepted).
  OpOutcome run(size_t I, LayerRow *Row);

  /// Cache counters accumulated over the untraced ops since the last reset
  /// (zero for edit_relocalize, which has no RuntimeContext).
  const gadt::runtime::RuntimeStats &cacheStats() const { return Cache; }
  void resetCacheStats() { Cache = {}; }

private:
  OpOutcome runUntraced(size_t I);
  OpOutcome runTraced(size_t I, LayerRow &Row);
  OpOutcome runEdit(size_t I, LayerRow *Row);

  const Corpus &C;
  std::vector<gadt::runtime::SessionRequest> Requests;
  /// Intended programs parsed once, for oracles built outside runSession.
  std::vector<std::shared_ptr<const gadt::pascal::Program>> Intended;
  std::unique_ptr<gadt::runtime::RuntimeContext> Shared;
  std::unique_ptr<gadt::runtime::EditSession> Edits;
  gadt::runtime::RuntimeStats Cache;
};

} // namespace perfbench

#endif // GADT_PERFBENCH_SESSIONS_H
