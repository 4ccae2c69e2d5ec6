//===- ReportDB.cpp - Test case execution and report database -------------===//

#include "tgen/ReportDB.h"

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::interp;
using namespace gadt::pascal;

void TestReportDB::record(TestCaseRecord R) {
  auto &Counts = ByFrame[R.FrameCode];
  if (R.Pass) {
    ++Counts.first;
    ++Passes;
  } else {
    ++Counts.second;
    ++Fails;
  }
  Records.push_back(std::move(R));
}

Verdict TestReportDB::verdict(const std::string &FrameCode) const {
  auto It = ByFrame.find(FrameCode);
  if (It == ByFrame.end())
    return Verdict::Untested;
  if (It->second.second > 0)
    return Verdict::Fail;
  return It->second.first > 0 ? Verdict::Pass : Verdict::Untested;
}

std::string TestReportDB::str() const {
  std::string Out;
  for (const auto &[Frame, Counts] : ByFrame) {
    Out += Frame;
    Out += ": ";
    Out += Counts.second > 0 ? "fail" : "pass";
    Out += " (" + std::to_string(Counts.first + Counts.second) + " case";
    if (Counts.first + Counts.second != 1)
      Out += 's';
    Out += ")\n";
  }
  return Out;
}

TestReportDB gadt::tgen::runTestSuite(const Program &P, const TestSpec &Spec,
                                      const FrameSet &Frames,
                                      const FrameInstantiator &Instantiate,
                                      const OutcomeChecker &Check) {
  TestReportDB DB;
  // One interpreter for the whole suite: the program compiles once.
  Interpreter I(P);
  for (size_t FI = 0; FI != Frames.Frames.size(); ++FI) {
    const TestFrame &Frame = Frames.Frames[FI];
    std::optional<std::vector<Value>> Args = Instantiate(Frame);
    if (!Args)
      continue; // stays Untested

    std::string Script;
    for (const auto &[Name, Indices] : Frames.Scripts)
      for (size_t Index : Indices)
        if (Index == FI)
          Script = Name;

    CallOutcome Out = I.callRoutine(Spec.TestName, *Args);

    TestCaseRecord Rec;
    Rec.FrameCode = Frame.encode();
    Rec.Script = Script;
    if (!Out.Ok) {
      // A runtime error is a pass for ERROR frames (the input is supposed
      // to be rejected) and a failure otherwise.
      Rec.Pass = Frame.IsError;
      Rec.Detail = Out.Error.Message;
    } else {
      Rec.Pass = Check(*Args, Out);
      if (!Rec.Pass)
        Rec.Detail = "outcome check failed";
    }
    DB.record(std::move(Rec));
  }
  return DB;
}
