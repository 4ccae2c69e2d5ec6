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
///  - a *program cache*: one parse+check per distinct source text (keyed by
///    the FNV-1a hash of the text);
///  - a *transform cache*: one transformation run per program fingerprint
///    (support/Hashing.h hashProgram — the canonical-print hash, so textual
///    variants of the same program share one entry);
///  - an *SDG cache*: one system dependence graph per (fingerprint,
///    transformed?) prepared program;
///  - a *code cache*: one bytecode compilation (src/bytecode) per
///    (fingerprint, transformed?) program — sessions trace their subject
///    and replay their intended program on the cached code instead of
///    recompiling; a rejected program caches a null entry;
///  - a *static-slice memo*: one two-phase slice per (fingerprint,
///    transformed?, routine, output-variable) criterion, filled lazily as
///    debugging sessions request slices.
///
/// All cached values are immutable after construction and shared by
/// std::shared_ptr; each is built exactly once (support/OnceCache.h), so
/// hit/miss counters are exact. Entries are never invalidated: keys are
/// content hashes, so a changed program is a different key. A context can
/// outlive any number of sessions and BatchRunners.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_RUNTIME_RUNTIMECONTEXT_H
#define GADT_RUNTIME_RUNTIMECONTEXT_H

#include "core/GADT.h"
#include "support/OnceCache.h"

#include <atomic>
#include <memory>
#include <string>
#include <tuple>

namespace gadt {
namespace runtime {

/// Counter snapshot across all caches of a context.
struct RuntimeStats {
  uint64_t ProgramHits = 0, ProgramMisses = 0;
  uint64_t TransformHits = 0, TransformMisses = 0;
  uint64_t SdgHits = 0, SdgMisses = 0;
  uint64_t CodeHits = 0, CodeMisses = 0;
  uint64_t SliceHits = 0, SliceMisses = 0;
  /// Distinct program fingerprints seen by the transform cache.
  uint64_t Subjects = 0;

  /// One line per cache: "programs 3/13 transforms 1/11 ..." (miss/total).
  std::string str() const;
};

/// One transformation run, pinned together with the original program whose
/// TypeContext the transformed clone shares.
struct TransformEntry {
  std::shared_ptr<const pascal::Program> Original;
  std::shared_ptr<const pascal::Program> Transformed; ///< null on failure
  transform::TransformStats Stats;
  std::string Errors; ///< diagnostics of a failed run
};

/// One dependence graph, pinning the prepared program it describes.
struct SdgEntry {
  std::shared_ptr<const pascal::Program> Prepared;
  std::shared_ptr<const pascal::Program> OriginalPin;
  std::unique_ptr<const analysis::SDG> Graph;
};

/// One bytecode compilation, pinning the program it was compiled from.
/// \c Code is null when the compiler rejected the program (cached too, so
/// the rejection is decided once per program).
struct CodeEntry {
  std::shared_ptr<const pascal::Program> Prepared;
  std::shared_ptr<const pascal::Program> OriginalPin;
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
  /// Prepared program is the one its Code was compiled from: a textual
  /// variant of \p Source when one of the same fingerprint was cached
  /// first. Returns null on compile errors (\p Diags explains).
  std::shared_ptr<const CodeEntry> internCompiled(const std::string &Source,
                                                  DiagnosticsEngine &Diags);

  RuntimeStats stats() const;

private:
  struct ProgramEntry;

  /// The program cache lookup behind internProgram: the entry carries the
  /// fingerprint computed when the source was first parsed.
  std::shared_ptr<const ProgramEntry> internEntry(const std::string &Source,
                                                  DiagnosticsEngine &Diags);
  /// The code cache lookup for \p Prepared under (\p Fingerprint,
  /// \p Transformed); a miss compiles \p Prepared and pins \p Pin.
  std::shared_ptr<const CodeEntry>
  compiled(uint64_t Fingerprint, bool Transformed,
           std::shared_ptr<const pascal::Program> Prepared,
           std::shared_ptr<const pascal::Program> Pin);

  /// Key of the slice memo: (fingerprint, transformed?, routine-name
  /// symbol, output-variable symbol). Symbol ids are process-stable for
  /// equal strings, so the key carries no string payload.
  using SliceKey = std::tuple<uint64_t, bool, uint32_t, uint32_t>;

  OnceCache<uint64_t, ProgramEntry> Programs;        // by source-text hash
  OnceCache<uint64_t, TransformEntry> Transforms;    // by program fingerprint
  OnceCache<std::pair<uint64_t, bool>, SdgEntry> Sdgs;
  OnceCache<std::pair<uint64_t, bool>, CodeEntry> Codes;
  OnceCache<SliceKey, slicing::StaticSlice> Slices;
};

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_RUNTIMECONTEXT_H
