//===- RuntimeContext.h - Shared caches for batch debugging -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared, thread-safe memoization layer of the batch-debugging
/// runtime. A RuntimeContext owns five caches, consulted in order when a
/// session is prepared:
///
///  - a *program cache*: one parse+check per distinct source text;
///  - a *transform cache*: one transformation run per source text;
///  - an *SDG cache*: one system dependence graph per (source text,
///    transformed?) prepared program;
///  - a *code cache*: one bytecode compilation (src/bytecode) per
///    (source text, transformed?) program — sessions trace their subject
///    and replay their intended program on the cached code instead of
///    recompiling; a rejected program caches a null entry;
///  - a *static-slice memo*: one two-phase slice per (routine,
///    output-variable) criterion, filled lazily as debugging sessions
///    request slices.
///
/// The first four caches are keyed by the subject's fingerprint: the
/// FNV-1a hash of its source text (support/Hashing.h hashBytes), computed
/// once per lookup. Each entry therefore belongs to exactly one interned
/// program; two texts of one program (differing only in whitespace,
/// comments or case) are separate subjects with separate entries. The
/// slice memo is keyed by the criterion routine's address, which the
/// pinned programs make unique to one (source text, transformed?,
/// routine) triple.
///
/// All cached values are immutable after construction and shared by
/// std::shared_ptr; each is built exactly once (support/OnceCache.h), so
/// hit/miss counters are exact. Entries are never invalidated: keys are
/// content hashes, so a changed program is a different key. The program
/// and transform caches pin every program the other caches describe (and
/// the TypeContext a transformed clone shares) for the context's
/// lifetime. A context can outlive any number of sessions and batches.
///
/// An SDG built on a miss fans out its per-routine phase
/// (support::parallelFor) when prepare() runs outside a fan-out, as for a
/// single session; inside a multi-threaded runBatch it runs inline on the
/// session's thread, so a batch never nests one fan-out in another.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_RUNTIME_RUNTIMECONTEXT_H
#define GADT_RUNTIME_RUNTIMECONTEXT_H

#include "core/GADT.h"
#include "support/OnceCache.h"

#include <atomic>
#include <memory>
#include <string>
#include <utility>

namespace gadt {
namespace runtime {

/// Counter snapshot across all caches of a context.
struct RuntimeStats {
  uint64_t ProgramHits = 0, ProgramMisses = 0;
  uint64_t TransformHits = 0, TransformMisses = 0;
  uint64_t SdgHits = 0, SdgMisses = 0;
  uint64_t CodeHits = 0, CodeMisses = 0;
  uint64_t SliceHits = 0, SliceMisses = 0;
  /// Distinct source texts seen by the transform cache.
  uint64_t Subjects = 0;

  /// One line per cache: "programs 3/13 transforms 1/11 ..." (miss/total).
  std::string str() const;
};

/// One transformation run. The transformed clone shares the TypeContext
/// of the original, which the program cache pins.
struct TransformEntry {
  std::shared_ptr<const pascal::Program> Transformed; ///< null on failure
  transform::TransformStats Stats;
  std::string Errors; ///< diagnostics of a failed run
};

/// One bytecode compilation, pinning the program it was compiled from.
/// \c Code is null when the compiler rejected the program (cached too, so
/// the rejection is decided once per program).
struct CodeEntry {
  std::shared_ptr<const pascal::Program> Prepared;
  std::shared_ptr<const bytecode::CompiledProgram> Code;
};

/// The shared cache layer. Thread-safe; see file comment.
class RuntimeContext {
public:
  RuntimeContext();
  ~RuntimeContext();

  RuntimeContext(const RuntimeContext &) = delete;
  RuntimeContext &operator=(const RuntimeContext &) = delete;

  /// Parse-and-check with interning: repeated texts parse once. Returns
  /// null on compile errors (\p Diags explains; the failure is cached).
  std::shared_ptr<const pascal::Program>
  internProgram(const std::string &Source, DiagnosticsEngine &Diags);

  /// Prepares shareable session artifacts for \p Source under \p Opts:
  /// parse (cached), transform (cached), dependence graph (cached, when
  /// static slicing is on) and a slice provider backed by the shared memo.
  /// Returns null on compile or transform failure. The artifacts (and any
  /// session built from them) reference the context's caches and must not
  /// outlive it.
  std::shared_ptr<const core::SessionArtifacts>
  prepare(const std::string &Source, const core::GADTOptions &Opts,
          DiagnosticsEngine &Diags);

  /// \p Source parsed (interned as by internProgram) and compiled
  /// untransformed, from the code cache — how runSession hands its
  /// IntendedProgramOracle a program to replay units on. The entry's
  /// Prepared program is the interned parse of \p Source. Returns null on
  /// compile errors (\p Diags explains).
  std::shared_ptr<const CodeEntry> internCompiled(const std::string &Source,
                                                  DiagnosticsEngine &Diags);

  RuntimeStats stats() const;

private:
  struct ProgramEntry;

  /// The program cache lookup behind internProgram: the entry carries the
  /// fingerprint (source-text hash) it is cached under.
  std::shared_ptr<const ProgramEntry> internEntry(const std::string &Source,
                                                  DiagnosticsEngine &Diags);
  /// The code cache lookup for \p Prepared under (\p Fingerprint,
  /// \p Transformed); a miss compiles \p Prepared.
  std::shared_ptr<const CodeEntry>
  compiled(uint64_t Fingerprint, bool Transformed,
           std::shared_ptr<const pascal::Program> Prepared);

  /// Key of the slice memo: (routine, output-variable symbol). The
  /// context pins every program it caches, so a routine's address names
  /// the subject, its transform variant and the routine itself — two
  /// routines with one simple name are two keys.
  using SliceKey = std::pair<const pascal::RoutineDecl *, uint32_t>;

  // The program and transform caches are declared first, so the graphs,
  // code and slices that point into their programs are destroyed before
  // them.
  OnceCache<uint64_t, ProgramEntry> Programs;
  OnceCache<uint64_t, TransformEntry> Transforms;
  OnceCache<std::pair<uint64_t, bool>, analysis::SDG> Sdgs;
  OnceCache<std::pair<uint64_t, bool>, CodeEntry> Codes;
  OnceCache<SliceKey, slicing::StaticSlice> Slices;
};

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_RUNTIMECONTEXT_H
