//===- EditSession.h - Incremental, transactional recompute -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional edit-and-recompute over one evolving program. An
/// EditSession holds the committed "master" state — the checked (and
/// optionally transformed) program, its per-routine fingerprints and effect
/// signatures, the system dependence graph with replay data, the compiled
/// bytecode, and a static-slice memo. begin() stages an edit as an
/// EditTransaction: the new source is parsed and checked (and transformed)
/// up front, so a broken edit produces an invalid transaction and the
/// session is untouched — commit is all-or-nothing.
///
/// commit() diffs the staged program against the master at routine
/// granularity (support/Hashing.h fingerprints) and invalidates surgically:
///
///  - a routine whose full fingerprint changed rebuilds its own PDG arena
///    and bytecode segment;
///  - a header (caller-visible signature) change additionally dirties the
///    routine's callers;
///  - a frame (locals layout) change dirties the routine's whole lexical
///    subtree — nested routines address outer frames by (depth, slot);
///  - a side-effect signature change of a callee re-derives its callers'
///    PDGs (formal/actual vertices for globals depend on GREF/GMOD), but
///    not their bytecode, which never bakes callee effect sets;
///  - summary edges are re-solved only for dirtied routines and their
///    transitive callers (analysis/SDG.h partial fixpoint);
///  - memoized slices are dropped only when their node set intersects the
///    perturbed region of the old graph; survivors are remapped id-by-id
///    onto the new graph.
///
/// Everything else replays from cache against the freshly parsed AST via
/// lockstep old->new pointer matching (pascal/ASTMatch.h). Equal canonical
/// prints guarantee identical AST shape, so replay is exact; any matcher or
/// replay mismatch falls back to rebuilding the routine (or the whole
/// artifact) — slower, never wrong. A commit is observable through the
/// returned IncrementalStats and an `incremental.commit` span.
///
/// Sessions are single-threaded by contract, and a commit rebuilds its
/// PDGs serially on the calling thread. Artifacts handed out (sdg(),
/// slices) are valid until the next successful commit; program() and
/// code() are shared_ptr-pinned and survive it.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_RUNTIME_EDITSESSION_H
#define GADT_RUNTIME_EDITSESSION_H

#include "analysis/SDG.h"
#include "bytecode/Bytecode.h"
#include "slicing/StaticSlicer.h"
#include "support/Hashing.h"
#include "transform/Transform.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gadt {
namespace runtime {

/// Construction-time knobs of an EditSession.
struct EditSessionOptions {
  /// Run the GADT transformation phase on every staged parse. Transform
  /// output is cached at whole-program granularity only (its passes rewrite
  /// call sites program-wide), so edits still pay a full transform run.
  bool Transform = false;
  /// Compile bytecode with use-before-assign checking.
  bool Checked = false;
  /// Disable all reuse: every commit is a cold rebuild. For baseline
  /// measurement (bench/perf_micro.cpp) and differential testing.
  bool ForceFullRebuild = false;
};

/// What one commit did. Counters are per-commit (not cumulative).
struct IncrementalStats {
  bool Committed = false;   ///< false: the transaction was invalid
  bool FullRebuild = false; ///< first commit, forced, or routine list changed
  unsigned RoutinesTotal = 0;
  unsigned RoutinesDirty = 0; ///< routines with any artifact invalidated
  unsigned PdgRebuilt = 0, PdgReplayed = 0;
  unsigned SummaryRecomputed = 0; ///< routines whose summary pairs re-solved
  unsigned SlicesInvalidated = 0, SlicesRemapped = 0;
  unsigned CodeRecompiled = 0, CodeReplayed = 0;
};

class EditSession;

/// A staged edit: parsed, checked and (optionally) transformed, but not yet
/// committed. Invalid when the frontend or transform failed — errors() has
/// the diagnostics and commit() refuses, leaving the session untouched.
class EditTransaction {
public:
  EditTransaction(EditTransaction &&) = default;
  EditTransaction &operator=(EditTransaction &&) = default;

  bool valid() const { return Prog != nullptr; }
  const std::string &errors() const { return Errors; }
  const transform::TransformStats &transformStats() const {
    return TransformInfo;
  }

  /// Diffs against the session master, invalidates surgically, swaps the
  /// staged state in atomically. Consumes the transaction. Returns what was
  /// done; Committed is false when the transaction was invalid.
  IncrementalStats commit();

private:
  friend class EditSession;
  EditTransaction() = default;

  EditSession *Session = nullptr;
  std::shared_ptr<const pascal::Program> Prog;
  transform::TransformStats TransformInfo;
  std::string Errors;
};

/// The session. See the file comment.
class EditSession {
public:
  explicit EditSession(EditSessionOptions Opts = EditSessionOptions());
  ~EditSession();

  EditSession(const EditSession &) = delete;
  EditSession &operator=(const EditSession &) = delete;

  /// Stages \p Source as a transaction (parse + check + transform now).
  EditTransaction begin(const std::string &Source);

  /// The committed program; null before the first successful commit.
  const pascal::Program *program() const { return St.Prog.get(); }
  std::shared_ptr<const pascal::Program> programPtr() const {
    return St.Prog;
  }
  /// The committed dependence graph; valid until the next commit.
  const analysis::SDG *sdg() const { return St.Graph.get(); }
  /// The committed bytecode; null when the compiler rejected the program.
  std::shared_ptr<const bytecode::CompiledProgram> code() const {
    return St.Code;
  }

  /// Memoized static slice on (routine, output variable). \p Routine
  /// matches a routine's qualified name (or plain name). The slice is valid
  /// until the next commit; commits keep it memoized when the edit provably
  /// cannot change it.
  std::shared_ptr<const slicing::StaticSlice>
  sliceOnOutput(const std::string &Routine, const std::string &Var);

  const IncrementalStats &lastStats() const { return Last; }
  const EditSessionOptions &options() const { return Opts; }

private:
  friend class EditTransaction;

  /// Master state, swapped wholesale by a successful commit.
  struct State {
    std::shared_ptr<const pascal::Program> Prog;
    std::vector<RoutineFingerprint> Fps;
    /// Per-routine hash of (GREF, GMOD, RefParams, ModParams), aligned
    /// with Fps.
    std::vector<uint64_t> EffectSigs;
    /// The program's call graph, shared with Graph; kept here so the next
    /// commit's slice-perturbation pass reads the old call sites without
    /// rebuilding the graph, and so clean routines' sites can be translated
    /// instead of re-collected.
    std::shared_ptr<const analysis::CallGraph> CG;
    /// The program's side-effect analysis, shared with Graph; kept so the
    /// next commit can seed clean routines' direct access sets from it.
    std::shared_ptr<const analysis::SideEffectAnalysis> SEA;
    std::unique_ptr<analysis::SDG> Graph; ///< built with KeepReplayData
    std::shared_ptr<const bytecode::CompiledProgram> Code;
    std::map<std::pair<std::string, std::string>,
             std::shared_ptr<const slicing::StaticSlice>>
        Slices;
  };

  IncrementalStats commitStaged(std::shared_ptr<const pascal::Program> P);
  void coldBuild(State &Staged,
                 std::shared_ptr<const analysis::SideEffectAnalysis> SEA,
                 IncrementalStats &S);

  State St;
  /// The state the last commit replaced, kept until the next begin().
  /// Destroying a whole master state (AST, replay arenas, bytecode) is
  /// linear in program size; deferring it keeps commit latency down to the
  /// surgical work, and begin() — which already pays a full parse — absorbs
  /// the reclamation.
  State Retired;
  IncrementalStats Last;
  EditSessionOptions Opts;
};

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_EDITSESSION_H
