//===- SDG.h - System dependence graph (Horwitz-Reps-Binkley) ---*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system dependence graph of Horwitz, Reps and Binkley ("Interprocedural
/// Slicing using Dependence Graphs", TOPLAS 1990) — the interprocedural
/// slicing machinery the paper builds on (it cites [Horwitz, et al-88]).
///
/// Per routine: an entry vertex, formal-in/out vertices for parameters and
/// for the globals in GREF/GMOD (globals are modeled as additional
/// parameters, exactly the paper's globals-to-parameters view), statement
/// and predicate vertices with control- and flow-dependence edges. Per call
/// site: actual-in/out vertices linked to the callee's formals, plus
/// *summary edges* (actual-in -> actual-out) computed with the standard
/// worklist algorithm, which make the two-phase slicer context-sensitive.
///
/// Storage is an arena/CSR layout: every vertex is a dense `uint32_t` id
/// into one flat node array, each routine owning a contiguous id range
/// (per-routine bases are assigned up front in call-graph preorder, so ids
/// are deterministic no matter how many threads built the per-routine
/// PDGs), and the in/out adjacency lives in kind-tagged compressed arrays
/// produced by a finalize pass that preserves per-vertex insertion order.
/// Per-routine PDG construction (CFG, control dependence, reaching defs,
/// intra-routine edges) is embarrassingly parallel; call linkage and the
/// summary-edge fixpoint then run serially over the merged arena, so a
/// parallel build is bit-for-bit identical to a serial one.
///
/// A built graph keeps only itself and its program indexes (routine ->
/// id range, statement -> vertex, expression call -> call record), not
/// the call graph and effect sets its build reads.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_ANALYSIS_SDG_H
#define GADT_ANALYSIS_SDG_H

#include "analysis/CallGraph.h"
#include "analysis/SideEffects.h"
#include "pascal/AST.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace gadt {

namespace pascal {
class AstMap;
} // namespace pascal

namespace analysis {

class SDG;
struct SDGCallRecord;
namespace detail {
struct SDGBuilder;
}

/// Dense SDG vertex id: an index into SDG::nodes().
using SDGNodeId = uint32_t;
/// Sentinel for "no such vertex".
inline constexpr SDGNodeId SDGNoNode = 0xFFFFFFFFu;

/// Dependence edge kinds.
enum class SDGEdgeKind : uint8_t {
  Control,  ///< control dependence (or call-vertex membership for actuals)
  Flow,     ///< data (flow) dependence
  Call,     ///< call vertex -> callee entry
  ParamIn,  ///< actual-in -> formal-in
  ParamOut, ///< formal-out -> actual-out
  Summary,  ///< actual-in -> actual-out (transitive callee dependence)
};

/// One adjacency entry: the far endpoint plus the edge kind.
struct SDGEdge {
  SDGNodeId N;
  SDGEdgeKind K;
};

/// A contiguous, non-owning run of adjacency entries (one vertex's ins or
/// outs inside the CSR arrays).
class SDGEdgeList {
public:
  SDGEdgeList(const SDGEdge *B, const SDGEdge *E) : Begin(B), End_(E) {}
  const SDGEdge *begin() const { return Begin; }
  const SDGEdge *end() const { return End_; }
  size_t size() const { return static_cast<size_t>(End_ - Begin); }
  bool empty() const { return Begin == End_; }
  const SDGEdge &operator[](size_t I) const { return Begin[I]; }

private:
  const SDGEdge *Begin, *End_;
};

/// One SDG vertex — a plain value in the SDG's flat node array.
class SDGNode {
public:
  enum class Kind : uint8_t {
    Entry,
    FormalIn,
    FormalOut,
    Stmt,      ///< atomic statement (also serves as the call vertex)
    Predicate,
    ActualIn,
    ActualOut,
  };

  Kind getKind() const { return K; }
  SDGNodeId getId() const { return Id; }
  const pascal::RoutineDecl *getRoutine() const { return Routine; }
  /// The source statement this vertex belongs to: the statement itself for
  /// Stmt/Predicate, the call-site statement for actuals, null for entry
  /// and formal vertices.
  const pascal::Stmt *getStmt() const { return S; }
  /// Formal/actual variable (null for result vertices and non-var nodes).
  const pascal::VarDecl *getVar() const { return Var; }
  /// Parameter position for param-actuals/formals; -1 for globals/result.
  int getArgIndex() const { return ArgIndex; }
  bool isResult() const { return Result; }
  const SDGCallRecord *getCall() const { return Call; }

  /// Human-readable label for dumps and tests.
  std::string label() const;

private:
  friend class SDG;
  friend struct detail::SDGBuilder;
  SDGNode(Kind K, SDGNodeId Id) : K(K), Id(Id) {}

  Kind K;
  SDGNodeId Id;
  const pascal::RoutineDecl *Routine = nullptr;
  const pascal::Stmt *S = nullptr;
  const pascal::VarDecl *Var = nullptr;
  int ArgIndex = -1;
  bool Result = false;
  const SDGCallRecord *Call = nullptr;
};

/// Book-keeping for one call site's actual vertices. All formal/actual
/// correspondences are precomputed index tables, so the summary-edge
/// worklist and the slicer resolve them in O(1).
struct SDGCallRecord {
  CallSite Site;
  SDGNodeId CallVertex = SDGNoNode; // the Stmt/Predicate vertex of the site
  std::vector<SDGNodeId> ActualIns;
  std::vector<SDGNodeId> ActualOuts;

  /// Actual-in/out per parameter position (SDGNoNode when absent).
  std::vector<SDGNodeId> InByArg;
  std::vector<SDGNodeId> OutByArg;
  /// Actual-in/out per global variable modeled as a parameter.
  std::unordered_map<const pascal::VarDecl *, SDGNodeId> InByGlobal;
  std::unordered_map<const pascal::VarDecl *, SDGNodeId> OutByGlobal;
  /// Actual-out of the function result (SDGNoNode for procedures).
  SDGNodeId ResultOut = SDGNoNode;
  /// Callee formal ordinal -> actual id, filled during call linkage; the
  /// summary fixpoint indexes these on every worklist pop.
  std::vector<SDGNodeId> AIByFormalIn;
  std::vector<SDGNodeId> AOByFormalOut;

  SDGNodeId actualInForArg(int Index) const {
    return Index >= 0 && static_cast<size_t>(Index) < InByArg.size()
               ? InByArg[static_cast<size_t>(Index)]
               : SDGNoNode;
  }
  SDGNodeId actualInForGlobal(const pascal::VarDecl *G) const {
    auto It = InByGlobal.find(G);
    return It == InByGlobal.end() ? SDGNoNode : It->second;
  }
  SDGNodeId actualOutForArg(int Index) const {
    return Index >= 0 && static_cast<size_t>(Index) < OutByArg.size()
               ? OutByArg[static_cast<size_t>(Index)]
               : SDGNoNode;
  }
  SDGNodeId actualOutForGlobal(const pascal::VarDecl *G) const {
    auto It = OutByGlobal.find(G);
    return It == OutByGlobal.end() ? SDGNoNode : It->second;
  }
  SDGNodeId actualOutForResult() const { return ResultOut; }
};

namespace detail {

/// One directed edge during construction, before the CSR finalize.
struct PendingEdge {
  SDGNodeId From, To;
  SDGEdgeKind K;
};

/// The routine-local PDG one worker produces: nodes and edges under local
/// ids (0-based within the routine), merged into the global arena with a
/// per-routine base offset. Everything in here is routine-local state, so
/// workers never touch shared data. An SDG built with KeepReplayData keeps
/// a pre-merge snapshot of these per routine — the unit the incremental
/// rebuild replays (pointer-remapped onto the new AST) for clean routines.
struct RoutinePdg {
  const pascal::RoutineDecl *R = nullptr;
  std::vector<SDGNode> Nodes;       ///< local ids = index
  std::vector<PendingEdge> Edges;   ///< local ids, chronological, deduped
  std::vector<SDGCallRecord> Calls; ///< all vertex ids local
  std::vector<std::pair<const pascal::Stmt *, uint32_t>> StmtNodes;
  uint32_t EntryLocal = SDGNoNode;
};

} // namespace detail

/// A summary pair (formal-in ordinal, formal-out ordinal) of one routine:
/// "this formal-in reaches that formal-out along a realizable same-level
/// path". The per-routine pair sets are the portable form of the summary
/// fixpoint — call-site summary edges are materialized from them in call
/// record order, and an incremental rebuild replays them for routines whose
/// fixpoint support didn't change.
using SummaryPairList = std::vector<std::pair<uint32_t, uint32_t>>;

/// Instructions for rebuilding an SDG after an edit, reusing per-routine
/// artifacts of the previous build (which must have been constructed with
/// KeepReplayData). Index I everywhere refers to the I-th routine of the
/// *new* program's call-graph preorder; the planner guarantees the old
/// program has the same routine list, so indices align.
struct SDGReusePlan {
  /// The previous build to replay from.
  const SDG *Old = nullptr;
  /// Old-AST -> new-AST node correspondence for all clean routines.
  const pascal::AstMap *Map = nullptr;
  /// Replay[I] != 0: copy routine I's PDG from the old build (pointers
  /// remapped through Map) instead of rebuilding it.
  std::vector<char> Replay;
  /// SummaryAffected[I] != 0: routine I's summary pairs must be recomputed
  /// (the routine is dirty or transitively calls a dirty routine... more
  /// precisely: dirty or a transitive *caller* of a dirty routine, the
  /// upward closure). Unaffected routines replay their cached pairs. Must
  /// be closed under "callers of": the partial fixpoint only seeds
  /// affected routines' formal-outs.
  std::vector<char> SummaryAffected;
};

/// Counters an incremental build reports back to the transaction.
struct SDGRebuildStats {
  unsigned PdgBuilt = 0;        ///< routines whose PDG was rebuilt
  unsigned PdgReplayed = 0;     ///< routines replayed from the old build
  unsigned SummaryRecomputed = 0; ///< routines in the partial fixpoint
  bool ReplayFellBack = false;  ///< a planned replay failed verification
};

/// Construction options.
struct SDGBuildOptions {
  /// Worker threads for the per-routine PDG phase: 1 builds serially on
  /// the calling thread (the default), 0 uses one thread per hardware
  /// thread. Node ids, edges and all renderings are identical for every
  /// value — linkage and summary edges always run serially.
  unsigned Threads = 1;
  /// Keep the pre-merge per-routine PDG snapshots and the per-routine
  /// summary pair sets, so a later build can reuse them via SDGReusePlan.
  bool KeepReplayData = false;
  /// Reuse plan from a previous build (null: build everything cold).
  const SDGReusePlan *Reuse = nullptr;
  /// When non-null, filled with what the build actually did.
  SDGRebuildStats *Stats = nullptr;
  /// Pre-built whole-program analyses over the same program, adopted
  /// instead of recomputing them (the transaction layer already needs
  /// both for its dirty rules, so rebuilding here would double the cost
  /// of every commit). Null: the constructor builds its own. Either way
  /// only the constructor reads them; the graph keeps neither.
  std::shared_ptr<const CallGraph> SharedCG = nullptr;
  std::shared_ptr<const SideEffectAnalysis> SharedSEA = nullptr;
};

/// The whole-program dependence graph.
class SDG {
public:
  explicit SDG(const pascal::Program &P, SDGBuildOptions Opts = {});
  ~SDG();

  SDG(const SDG &) = delete;
  SDG &operator=(const SDG &) = delete;

  const std::vector<SDGNode> &nodes() const { return NodesV; }
  const SDGNode &node(SDGNodeId Id) const { return NodesV[Id]; }
  const std::vector<SDGCallRecord> &calls() const { return CallsV; }

  /// Outgoing/incoming adjacency of \p Id (CSR slices; insertion order).
  SDGEdgeList outs(SDGNodeId Id) const {
    return {OutE.data() + OutOff[Id], OutE.data() + OutOff[Id + 1]};
  }
  SDGEdgeList ins(SDGNodeId Id) const {
    return {InE.data() + InOff[Id], InE.data() + InOff[Id + 1]};
  }
  /// Membership test over the CSR out-slice of \p From.
  bool hasEdge(SDGNodeId From, SDGNodeId To, SDGEdgeKind K) const;

  /// The contiguous id range a routine's vertices occupy.
  struct RoutineRange {
    SDGNodeId Begin = 0, End = 0;
  };
  /// The id range of \p R's vertices; empty for a routine not in the graph.
  RoutineRange routineRange(const pascal::RoutineDecl *R) const;

  SDGNodeId entryOf(const pascal::RoutineDecl *R) const;
  /// The vertex of \p S (a labeled statement has its own join vertex);
  /// SDGNoNode for a compound statement.
  SDGNodeId stmtNode(const pascal::Stmt *S) const;
  /// The record of the expression-position call \p E; null when \p E is
  /// no call of a routine in the graph.
  const SDGCallRecord *callOf(const pascal::Expr *E) const;
  /// Formal-out vertex of variable \p Name (parameter or global) of \p R.
  SDGNodeId formalOut(const pascal::RoutineDecl *R,
                      const std::string &Name) const;
  /// Formal-out vertex of the function result of \p R.
  SDGNodeId formalOutResult(const pascal::RoutineDecl *R) const;
  /// Formal-in vertex of variable \p Name of \p R.
  SDGNodeId formalIn(const pascal::RoutineDecl *R,
                     const std::string &Name) const;

  unsigned numEdges() const { return NumEdges; }
  unsigned numSummaryEdges() const { return NumSummary; }

  /// Whether this build retained replay data (KeepReplayData was set).
  bool hasReplayData() const { return !Pdgs.empty(); }

  /// Renders all vertices and edges, for debugging.
  std::string str() const;

  /// Renders the graph in Graphviz DOT syntax: vertices clustered per
  /// routine, edge styles per dependence kind (control solid, flow dashed,
  /// interprocedural bold, summary dotted).
  std::string dot() const;

private:
  friend struct detail::SDGBuilder;

  std::vector<SDGNode> NodesV;
  std::vector<SDGCallRecord> CallsV;
  /// Per-routine id ranges in call-graph preorder, plus the routine ->
  /// index map.
  std::vector<RoutineRange> Ranges;
  std::unordered_map<const pascal::RoutineDecl *, uint32_t> RoutineIdx;
  std::unordered_map<const pascal::RoutineDecl *, SDGNodeId> Entries;
  std::unordered_map<const pascal::Stmt *, SDGNodeId> StmtMap;
  /// Expression-position call -> index into CallsV.
  std::unordered_map<const pascal::Expr *, uint32_t> CallExprMap;
  /// CSR adjacency: per-vertex offset arrays (size nodes+1) into the flat
  /// edge arrays, built by a stable counting-sort finalize pass.
  std::vector<uint32_t> OutOff, InOff;
  std::vector<SDGEdge> OutE, InE;
  unsigned NumEdges = 0;
  unsigned NumSummary = 0;
  /// Replay data (KeepReplayData builds only): pre-merge per-routine PDG
  /// snapshots and the per-routine summary pair sets.
  std::vector<detail::RoutinePdg> Pdgs;
  std::vector<SummaryPairList> SummaryPairsV;
};

} // namespace analysis
} // namespace gadt

#endif // GADT_ANALYSIS_SDG_H
