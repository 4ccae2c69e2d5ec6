//===- Debugger.h - The algorithmic debugger --------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bug-localization search over the execution tree (paper Sections 3,
/// 5.3, 7): traverse the tree asking the oracle about unit executions until
/// a unit is found whose own behaviour is wrong while all the units it
/// invoked behaved correctly — the bug is then inside that unit's body.
///
/// When an answer pinpoints one incorrect output variable, the slicing
/// subsystem prunes the execution tree to the units that can affect that
/// variable (statically via the system dependence graph, or dynamically via
/// the dependences gathered while tracing), and the search continues on the
/// pruned tree ("a smaller and smaller set of procedures").
///
/// Three search strategies are provided: the paper's top-down traversal,
/// Shapiro's divide-and-query, and an exhaustive bottom-up baseline.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_DEBUGGER_H
#define GADT_CORE_DEBUGGER_H

#include "analysis/SDG.h"
#include "core/Oracle.h"
#include "trace/ExecTree.h"
#include "support/NodeSet.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

namespace gadt {

namespace slicing {
class StaticSlice;
} // namespace slicing

namespace core {

/// Supplies the static slice for (routine, output-variable) criteria. The
/// batch runtime installs a provider backed by a shared cross-session memo
/// (keyed on interned symbol ids); without one the debugger computes each
/// slice itself. A provider may return null to fall back to local
/// computation.
using SliceProvider = std::function<std::shared_ptr<const slicing::StaticSlice>(
    const pascal::RoutineDecl *, support::Symbol)>;

/// How the execution tree is searched.
enum class SearchStrategy : uint8_t {
  TopDown,         ///< the paper's left-to-right descent
  TopDownHeaviest, ///< descend into larger subtrees first
  DivideAndQuery,  ///< Shapiro's weight-halving strategy
  BottomUp,        ///< exhaustive postorder baseline
};

/// How error indications on specific outputs are exploited.
enum class SliceMode : uint8_t { None, Static, Dynamic };

struct DebuggerOptions {
  SearchStrategy Strategy = SearchStrategy::TopDown;
  SliceMode Slicing = SliceMode::Static;
  /// Remember answers: two executions of the same unit with the same
  /// inputs and outputs behave identically, so they are asked only once
  /// (Shapiro: the debugger "acquires knowledge about the expected
  /// behavior ... and uses this knowledge to localize errors").
  bool MemoizeJudgements = true;
};

/// Where the search ended.
struct BugReport {
  bool Found = false;
  const trace::ExecNode *Node = nullptr;
  std::string UnitName;
  SourceLoc Loc;
  std::string Message;
  /// The output variable flagged as wrong when the buggy unit was judged
  /// (empty when the answer was a plain "no").
  std::string WrongOutput;
  /// Statements of the buggy unit's own body that can affect the wrong
  /// output (intersection of the static slice with the unit body) — the
  /// places to inspect first. Empty without an SDG or wrong-output report.
  std::vector<const pascal::Stmt *> CandidateStmts;
};

/// One exchange of the debugging dialogue, in the order it happened.
struct DialogueEntry {
  std::string Query;       ///< node signature, paper notation
  Answer A = Answer::DontKnow;
  std::string WrongOutput; ///< set when the answer singled out an output
  std::string Source;      ///< "user", "assertion", "test-db", ...
  bool FromMemo = false;   ///< answered from an earlier identical query

  /// Renders the exchange in the paper's Section 8 style:
  /// "computs(In y: 3, ...)? no, error on output r1".
  std::string str() const;
};

/// Interaction accounting — the paper's figure of merit.
struct SessionStats {
  /// Total judgements requested from the oracle (by any source).
  unsigned Judgements = 0;
  /// Judgements per answering source ("user", "assertion", "test-db").
  std::map<std::string, unsigned> AnswersBySource;
  /// Queries nobody could answer (treated as "correct", conservatively).
  unsigned Unanswered = 0;
  /// Queries answered from the memo of earlier identical queries.
  unsigned MemoHits = 0;
  unsigned SlicingActivations = 0;
  /// Execution-tree nodes removed from the search by slicing.
  unsigned NodesPruned = 0;
  /// The full dialogue, in order (memo hits included, marked as such).
  std::vector<DialogueEntry> Dialogue;

  /// Renders the whole session as the paper prints it.
  std::string transcript() const;

  unsigned userQueries() const {
    auto It = AnswersBySource.find("user");
    return It == AnswersBySource.end() ? 0 : It->second;
  }
};

/// One debugging search over one execution tree.
class AlgorithmicDebugger {
public:
  /// \p Tree and \p UserOracle must outlive the debugger.
  AlgorithmicDebugger(trace::ExecTree &Tree, Oracle &O,
                      DebuggerOptions Opts = DebuggerOptions());

  /// Supplies the dependence graph required by SliceMode::Static (the graph
  /// must describe the program the tree was traced from).
  void setSDG(const analysis::SDG *G) { Sdg = G; }

  /// Installs a shared slice memo; slices it returns must come from the
  /// same SDG supplied via setSDG.
  void setSliceProvider(SliceProvider P) { Slices = std::move(P); }

  /// Runs the search to completion.
  BugReport run();

  const SessionStats &stats() const { return Stats; }

private:
  Judgement ask(const trace::ExecNode &N);
  /// The static slice for (R, Output): from the provider when installed,
  /// computed locally otherwise. Null without an SDG.
  std::shared_ptr<const slicing::StaticSlice>
  staticSliceFor(const pascal::RoutineDecl *R,
                 const std::string &Output) const;
  void applySliceIfPossible(const trace::ExecNode &N,
                            const std::string &WrongOutput);
  unsigned activeSubtreeSize(const trace::ExecNode *N) const;
  BugReport bugAt(const trace::ExecNode *N) const;

  BugReport runTopDown(const trace::ExecNode *Root, bool HeaviestFirst);
  BugReport runDivideAndQuery(const trace::ExecNode *Root);
  BugReport runBottomUp(const trace::ExecNode *Root);

  trace::ExecTree &Tree;
  Oracle &O;
  DebuggerOptions Opts;
  const analysis::SDG *Sdg = nullptr;
  SliceProvider Slices;
  support::NodeSet Active;
  /// Judgement memo. Two unit executions get one verdict when their
  /// dialogue signatures coincide; instead of keying on the rendered
  /// string, entries are hashed over the interned unit name, iteration
  /// index and binding names/values, and verified structurally against a
  /// representative node — no string keys, no tree rebalancing.
  struct MemoEntry {
    const trace::ExecNode *Rep;
    Judgement J;
  };
  std::unordered_map<uint64_t, std::vector<MemoEntry>> Memo;
  /// Wrong-output variable recorded per judged-incorrect node.
  std::map<const trace::ExecNode *, std::string> WrongOutputOf;
  SessionStats Stats;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_DEBUGGER_H
