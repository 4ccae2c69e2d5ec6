//===- Corpus.h - Seeded corpora of the session benchmark -------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the session benchmark, each generated from the
/// benchmark's seed. A subject is one (buggy, intended) program pair plus
/// the routine the bug was planted in and the session options to debug it
/// with. Pairs whose outputs do not differ are dropped at generation time:
/// a planted bug that never shows cannot be localized, and keeping it
/// would make the corpus measure something other than a debugging session.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PERFBENCH_CORPUS_H
#define GADT_PERFBENCH_CORPUS_H

#include "core/GADT.h"
#include "tgen/ReportDB.h"
#include "tgen/TestSpec.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { ColdCorpus, WarmRepeat, EditRelocalize };

/// One (specification, report database) pair attached to a session's
/// test-lookup component.
struct TestDb {
  std::shared_ptr<const gadt::tgen::TestSpec> Spec;
  std::shared_ptr<const gadt::tgen::TestReportDB> DB;
};

struct Subject {
  std::string Name; ///< generator and parameters, for the per-op rows
  std::string Buggy;
  std::string Intended;
  std::string Expected; ///< the routine the bug was planted in
  gadt::core::GADTOptions Opts;
  std::vector<TestDb> Dbs;
};

struct Corpus {
  Workload W = Workload::ColdCorpus;
  /// cold_corpus: the pool of distinct subjects; warm_repeat: the repeated
  /// subjects; edit_relocalize: one subject per scheduled edit (Buggy is
  /// the edited hub, Intended the unedited one).
  std::vector<Subject> Subjects;
  /// Op order as indices into Subjects; measurement cycles through it.
  std::vector<size_t> Schedule;
  /// Generated pairs dropped because their outputs did not differ.
  unsigned Discarded = 0;
  /// Generated pairs dropped because a cold session did not localize the
  /// planted bug (typically the intended program could not judge a call
  /// the search needed).
  unsigned Unjudged = 0;
  /// Wall time of the T-GEN suite runs that built the report databases.
  uint64_t TgenSuiteNs = 0;
};

/// Generates \p W's corpus from \p Seed. \p Smoke selects tiny sizes.
Corpus buildCorpus(Workload W, uint64_t Seed, bool Smoke);

} // namespace perfbench

#endif // GADT_PERFBENCH_CORPUS_H
