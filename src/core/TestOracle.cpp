//===- TestOracle.cpp - Test-database-backed oracle -----------------------===//

#include "core/TestOracle.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::tgen;
using namespace gadt::trace;

void TestDatabaseOracle::addDatabase(std::shared_ptr<const TestSpec> Spec,
                                     std::shared_ptr<const TestReportDB> DB) {
  std::string Name = Spec->TestName;
  ByRoutine[Name] = {std::move(Spec), std::move(DB)};
}

Judgement TestDatabaseOracle::judge(const ExecNode &N) {
  if (N.getKind() != interp::UnitKind::Call)
    return Judgement::dontKnow();
  auto It = ByRoutine.find(N.getName());
  if (It == ByRoutine.end())
    return Judgement::dontKnow();

  std::optional<TestFrame> Frame =
      classifyInputs(*It->second.Spec, N.getInputs());
  if (!Frame)
    return Judgement::dontKnow(); // no automatic selector function applies

  switch (It->second.DB->verdict(Frame->encode())) {
  case Verdict::Pass:
    // A good test report for this frame: skip the procedure.
    return Judgement::correct("test-db");
  case Verdict::Fail:
  case Verdict::Untested:
    // The paper: "the debugging must go on inside the procedure".
    return Judgement::dontKnow();
  }
  return Judgement::dontKnow();
}
