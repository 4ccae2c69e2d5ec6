//===- Oracle.h - Oracles for algorithmic debugging -------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle abstraction of algorithmic debugging (paper Section 3): the
/// debugger asks whether a unit execution matches the *intended* program
/// behaviour. Before involving the user, GADT consults "two existing
/// sources of information": previously supplied assertions and the test
/// database (Section 5.3.1) — modeled here as an ordered OracleChain.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_ORACLE_H
#define GADT_CORE_ORACLE_H

#include "trace/ExecTree.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace gadt {
namespace core {

/// The possible answers about one unit execution.
enum class Answer : uint8_t { Correct, Incorrect, DontKnow };

/// A judgement, with provenance and (optionally, paper Section 5.3.3) the
/// specific output variable the answerer flagged as wrong — the trigger for
/// slicing.
struct Judgement {
  Answer A = Answer::DontKnow;
  /// Name of the erroneous output binding; empty when unspecified.
  std::string WrongOutput;
  /// Which oracle produced the answer ("user", "assertion", "test-db", ...).
  std::string Source;

  static Judgement correct(std::string Source) {
    return {Answer::Correct, "", std::move(Source)};
  }
  static Judgement incorrect(std::string Source, std::string WrongOutput = "") {
    return {Answer::Incorrect, std::move(WrongOutput), std::move(Source)};
  }
  static Judgement dontKnow() { return {Answer::DontKnow, "", ""}; }
};

/// Judges unit executions.
class Oracle {
public:
  virtual ~Oracle();
  virtual Judgement judge(const trace::ExecNode &N) = 0;
};

/// Wraps a callable.
class LambdaOracle : public Oracle {
public:
  using Fn = std::function<Judgement(const trace::ExecNode &)>;
  explicit LambdaOracle(Fn F, std::string Source = "lambda")
      : F(std::move(F)), Source(std::move(Source)) {}

  Judgement judge(const trace::ExecNode &N) override;

private:
  Fn F;
  std::string Source;
};

/// Replays scripted answers keyed by unit name — used to reproduce the
/// paper's Section 8 dialogue deterministically. Repeated queries about the
/// same unit consume successive entries (the last entry repeats).
class ScriptedOracle : public Oracle {
public:
  void add(const std::string &UnitName, Judgement J) {
    Script[UnitName].push_back(std::move(J));
  }
  /// Shorthand: yes / no / no-with-wrong-output.
  void answerYes(const std::string &UnitName) {
    add(UnitName, Judgement::correct("user"));
  }
  void answerNo(const std::string &UnitName, std::string WrongOutput = "") {
    add(UnitName, Judgement::incorrect("user", std::move(WrongOutput)));
  }

  Judgement judge(const trace::ExecNode &N) override;

private:
  std::map<std::string, std::vector<Judgement>> Script;
  std::map<std::string, size_t> Cursor;
};

/// Asks a list of oracles in order; the first non-DontKnow answer wins.
/// The answer's Source names the oracle that gave it, which the debugger
/// counts per session (SessionStats::AnswersBySource).
class OracleChain : public Oracle {
public:
  /// Oracles are not owned; order is consultation order.
  void append(Oracle *O) { Oracles.push_back(O); }

  Judgement judge(const trace::ExecNode &N) override;

private:
  std::vector<Oracle *> Oracles;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_ORACLE_H
