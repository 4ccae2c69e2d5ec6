//===- TestOracle.h - Test-database-backed oracle ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-case-lookup component (paper Section 5.3.2): for a queried
/// call, classify the concrete inputs into a test frame and look the frame
/// up in the report database. "In the case of a good test report the
/// debugger skips this procedure"; an absent or failing frame leaves the
/// query unanswered and debugging goes on inside the procedure.
///
/// Trusting a passing frame is exactly as reliable as the test suite
/// ("the reliability of testing is largely dependent on the tester"); a
/// session that should not trust it simply registers no database.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_TESTORACLE_H
#define GADT_CORE_TESTORACLE_H

#include "core/Oracle.h"
#include "tgen/Classifier.h"
#include "tgen/ReportDB.h"
#include "tgen/TestSpec.h"

#include <map>
#include <memory>

namespace gadt {
namespace core {

/// Oracle over one or more (specification, report database) pairs, keyed by
/// the routine under test.
class TestDatabaseOracle : public Oracle {
public:
  /// Registers a tested routine. \p Spec and \p DB are shared with the
  /// caller (the session may keep extending the database).
  void addDatabase(std::shared_ptr<const tgen::TestSpec> Spec,
                   std::shared_ptr<const tgen::TestReportDB> DB);

  Judgement judge(const trace::ExecNode &N) override;

private:
  struct Registered {
    std::shared_ptr<const tgen::TestSpec> Spec;
    std::shared_ptr<const tgen::TestReportDB> DB;
  };
  std::map<std::string, Registered> ByRoutine;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_TESTORACLE_H
