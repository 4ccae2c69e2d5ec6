//===- EditSession.h - Incremental, transactional recompute -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactional edit-and-recompute over one evolving program. An
/// EditSession holds the committed "master" state — the checked program,
/// its per-routine fingerprints and effect signatures, the system
/// dependence graph with replay data, the compiled bytecode, and a
/// static-slice memo. begin() stages an edit as an EditTransaction: the new
/// source is parsed and checked up front, so a broken edit produces an
/// invalid transaction and the session is untouched — commit is
/// all-or-nothing. The session compiles unchecked bytecode and does not
/// run the transformation phase.
///
/// commit() diffs the staged program against the master at routine
/// granularity (pascal/Fingerprint.h) and invalidates surgically:
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
///    transitive callers (analysis/SDG.h partial fixpoint).
///
/// Everything else replays from cache against the freshly parsed AST
/// through an old->new node map (pascal/ASTMatch.h): a routine whose
/// fingerprints are equal has the same structure in both parses, so its
/// sema-assigned preorder id blocks align one-to-one and the map is filled
/// by id-block arithmetic. Any matcher or replay mismatch falls back to
/// rebuilding the routine (or the whole artifact) — slower, never wrong.
/// The commit destroys the state it replaces and starts an empty slice
/// memo, which sliceOnOutput() refills on demand. A commit is observable
/// through the returned IncrementalStats and an `incremental.commit` span.
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
#include "pascal/Fingerprint.h"
#include "slicing/StaticSlicer.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gadt {
namespace runtime {

/// What one commit did. Counters are per-commit (not cumulative).
struct IncrementalStats {
  bool Committed = false;   ///< false: the transaction was invalid
  bool FullRebuild = false; ///< first commit, or the routine list changed
  unsigned RoutinesTotal = 0;
  unsigned RoutinesDirty = 0; ///< routines with any artifact invalidated
  unsigned PdgRebuilt = 0, PdgReplayed = 0;
  unsigned SummaryRecomputed = 0; ///< routines whose summary pairs re-solved
  unsigned CodeRecompiled = 0, CodeReplayed = 0;
};

class EditSession;

/// A staged edit: parsed and checked, but not yet committed. Invalid when
/// the frontend failed — errors() has the diagnostics and commit()
/// refuses, leaving the session untouched.
class EditTransaction {
public:
  EditTransaction(EditTransaction &&) = default;
  EditTransaction &operator=(EditTransaction &&) = default;

  bool valid() const { return Prog != nullptr; }
  const std::string &errors() const { return Errors; }

  /// Diffs against the session master, invalidates surgically, swaps the
  /// staged state in atomically. Consumes the transaction. Returns what was
  /// done; Committed is false when the transaction was invalid.
  IncrementalStats commit();

private:
  friend class EditSession;
  EditTransaction() = default;

  EditSession *Session = nullptr;
  std::shared_ptr<const pascal::Program> Prog;
  std::string Errors;
};

/// The session. See the file comment.
class EditSession {
public:
  EditSession();
  ~EditSession();

  EditSession(const EditSession &) = delete;
  EditSession &operator=(const EditSession &) = delete;

  /// Stages \p Source as a transaction (parse + check now).
  EditTransaction begin(const std::string &Source);

  /// The committed program; null before the first successful commit.
  const pascal::Program *program() const { return St.Prog.get(); }
  /// The committed dependence graph; valid until the next commit.
  const analysis::SDG *sdg() const { return St.Graph.get(); }
  /// The committed bytecode; null when the compiler rejected the program.
  std::shared_ptr<const bytecode::CompiledProgram> code() const {
    return St.Code;
  }

  /// Memoized static slice on (routine, output variable). \p Routine is
  /// resolved by pascal::findRoutine: a qualified name, or a plain name
  /// exactly one routine has (null when several share it). The slice is
  /// valid until the next commit, which starts an empty memo.
  std::shared_ptr<const slicing::StaticSlice>
  sliceOnOutput(const std::string &Routine, const std::string &Var);

private:
  friend class EditTransaction;

  /// Master state, swapped wholesale by a successful commit.
  struct State {
    std::shared_ptr<const pascal::Program> Prog;
    std::vector<pascal::RoutineFingerprint> Fps;
    /// Per-routine hash of (GREF, GMOD, RefParams, ModParams), aligned
    /// with Fps.
    std::vector<uint64_t> EffectSigs;
    /// The program's call graph, shared with Graph; kept so the next
    /// commit translates clean routines' call sites instead of
    /// re-collecting them.
    std::shared_ptr<const analysis::CallGraph> CG;
    /// The program's side-effect analysis, shared with Graph; kept so the
    /// next commit can seed clean routines' direct access sets from it.
    std::shared_ptr<const analysis::SideEffectAnalysis> SEA;
    std::unique_ptr<analysis::SDG> Graph; ///< built with KeepReplayData
    std::shared_ptr<const bytecode::CompiledProgram> Code;
    std::map<std::pair<const pascal::RoutineDecl *, std::string>,
             std::shared_ptr<const slicing::StaticSlice>>
        Slices;
  };

  IncrementalStats commitStaged(std::shared_ptr<const pascal::Program> P);
  void coldBuild(State &Staged,
                 std::shared_ptr<const analysis::SideEffectAnalysis> SEA,
                 IncrementalStats &S);

  State St;
};

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_EDITSESSION_H
