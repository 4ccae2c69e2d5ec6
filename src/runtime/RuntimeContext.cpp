//===- RuntimeContext.cpp - Shared caches for batch debugging -------------===//

#include "runtime/RuntimeContext.h"

#include "bytecode/Bytecode.h"
#include "obs/Trace.h"
#include "pascal/Frontend.h"
#include "slicing/StaticSlicer.h"
#include "support/Hashing.h"

using namespace gadt;
using namespace gadt::runtime;

std::string RuntimeStats::str() const {
  auto Cache = [](const char *Name, uint64_t Misses, uint64_t Hits) {
    return std::string(Name) + " " + std::to_string(Misses) + "/" +
           std::to_string(Misses + Hits);
  };
  return Cache("programs", ProgramMisses, ProgramHits) + " " +
         Cache("transforms", TransformMisses, TransformHits) + " " +
         Cache("sdgs", SdgMisses, SdgHits) + " " +
         Cache("code", CodeMisses, CodeHits) + " " +
         Cache("slices", SliceMisses, SliceHits) + " subjects " +
         std::to_string(Subjects) + " (miss/total)";
}

/// One parsed program plus its fingerprint (the hash of its source text,
/// the key of every cache); parse failures cache their diagnostics so
/// repeated bad sources fail fast.
struct RuntimeContext::ProgramEntry {
  std::shared_ptr<const pascal::Program> Program; ///< null on failure
  uint64_t Fingerprint = 0;
  std::string Errors;
};

RuntimeContext::RuntimeContext() = default;
RuntimeContext::~RuntimeContext() = default;

std::shared_ptr<const RuntimeContext::ProgramEntry>
RuntimeContext::internEntry(const std::string &Source,
                            DiagnosticsEngine &Diags) {
  uint64_t SourceHash = hashBytes(Source);
  obs::Span Span("cache.program", "cache");
  bool WasMiss = false;
  std::shared_ptr<const ProgramEntry> E = Programs.getOrBuild(
      SourceHash,
      [&]() -> std::shared_ptr<const ProgramEntry> {
        auto Entry = std::make_shared<ProgramEntry>();
        DiagnosticsEngine Local;
        Entry->Program = pascal::parseAndCheck(Source, Local);
        Entry->Fingerprint = SourceHash;
        if (!Entry->Program)
          Entry->Errors = Local.str();
        return Entry;
      },
      &WasMiss);
  Span.arg("hit", !WasMiss);
  if (!E->Program)
    Diags.error(SourceLoc(), "batch runtime: cached parse failure: " +
                                 E->Errors);
  return E;
}

std::shared_ptr<const pascal::Program>
RuntimeContext::internProgram(const std::string &Source,
                              DiagnosticsEngine &Diags) {
  return internEntry(Source, Diags)->Program;
}

std::shared_ptr<const CodeEntry>
RuntimeContext::compiled(uint64_t Fingerprint, bool Transformed,
                         std::shared_ptr<const pascal::Program> Prepared) {
  std::pair<uint64_t, bool> Key{Fingerprint, Transformed};
  obs::Span Span("cache.code", "cache");
  bool WasMiss = false;
  std::shared_ptr<const CodeEntry> E = Codes.getOrBuild(
      Key,
      [&]() -> std::shared_ptr<const CodeEntry> {
        auto Entry = std::make_shared<CodeEntry>();
        Entry->Prepared = Prepared;
        Entry->Code = bytecode::compile(*Prepared, /*Checked=*/false);
        return Entry;
      },
      &WasMiss);
  Span.arg("hit", !WasMiss);
  return E;
}

std::shared_ptr<const CodeEntry>
RuntimeContext::internCompiled(const std::string &Source,
                               DiagnosticsEngine &Diags) {
  std::shared_ptr<const ProgramEntry> P = internEntry(Source, Diags);
  if (!P->Program)
    return nullptr;
  return compiled(P->Fingerprint, /*Transformed=*/false, P->Program);
}

std::shared_ptr<const core::SessionArtifacts>
RuntimeContext::prepare(const std::string &Source,
                        const core::GADTOptions &Opts,
                        DiagnosticsEngine &Diags) {
  std::shared_ptr<const ProgramEntry> Parsed = internEntry(Source, Diags);
  if (!Parsed->Program)
    return nullptr;
  std::shared_ptr<const pascal::Program> Subject = Parsed->Program;
  uint64_t Fingerprint = Parsed->Fingerprint;

  auto Artifacts = std::make_shared<core::SessionArtifacts>();
  Artifacts->Fingerprint = Fingerprint;
  Artifacts->Subject = Subject;
  Artifacts->Prepared = Subject;

  if (Opts.Transform) {
    obs::Span Span("cache.transform", "cache");
    bool WasMiss = false;
    std::shared_ptr<const TransformEntry> X = Transforms.getOrBuild(
        Fingerprint,
        [&]() -> std::shared_ptr<const TransformEntry> {
          auto Entry = std::make_shared<TransformEntry>();
          DiagnosticsEngine Local;
          transform::TransformResult R =
              transform::transformProgram(*Subject, Local);
          if (R.Transformed) {
            Entry->Transformed = std::move(R.Transformed);
            Entry->Stats = std::move(R.Stats);
          } else {
            Entry->Errors = Local.str();
          }
          return Entry;
        },
        &WasMiss);
    Span.arg("hit", !WasMiss);
    if (!X->Transformed) {
      Diags.error(SourceLoc(), "batch runtime: cached transform failure: " +
                                   X->Errors);
      return nullptr;
    }
    Artifacts->Prepared = X->Transformed;
    Artifacts->TransformInfo = X->Stats;
  }

  if (Opts.Debugger.Slicing == core::SliceMode::Static) {
    std::pair<uint64_t, bool> SdgKey{Fingerprint, Opts.Transform};
    const pascal::Program &Prepared = *Artifacts->Prepared;
    obs::Span Span("cache.sdg", "cache");
    bool WasMiss = false;
    Artifacts->Sdg = Sdgs.getOrBuild(
        SdgKey,
        [&]() -> std::shared_ptr<const analysis::SDG> {
          // Ids are identical for any thread count, so the parallel
          // per-routine build is safe to use under the shared cache. In a
          // multi-threaded runBatch it runs inline (support/Parallel.h).
          return std::make_shared<const analysis::SDG>(
              Prepared, analysis::SDGBuildOptions{0});
        },
        &WasMiss);
    Span.arg("hit", !WasMiss);
    // Hand sessions a slice provider backed by the shared memo. The
    // criterion routine belongs to the cached prepared program, so slices
    // are shared by every session over this subject.
    std::shared_ptr<const analysis::SDG> Sdg = Artifacts->Sdg;
    Artifacts->Slices =
        [this, Sdg](const pascal::RoutineDecl *R, support::Symbol Out)
        -> std::shared_ptr<const slicing::StaticSlice> {
      if (!R)
        return nullptr;
      SliceKey Key{R, Out.id()};
      obs::Span Span("cache.slice", "cache");
      bool WasMiss = false;
      std::shared_ptr<const slicing::StaticSlice> S = Slices.getOrBuild(
          Key,
          [&]() -> std::shared_ptr<const slicing::StaticSlice> {
            return std::make_shared<const slicing::StaticSlice>(
                slicing::sliceOnRoutineOutput(*Sdg, R, Out));
          },
          &WasMiss);
      Span.arg("hit", !WasMiss);
      return S;
    };
  }

  // Compile-once bytecode for the prepared program (src/bytecode).
  Artifacts->Code =
      compiled(Fingerprint, Opts.Transform, Artifacts->Prepared)->Code;
  return Artifacts;
}

RuntimeStats RuntimeContext::stats() const {
  RuntimeStats S;
  S.ProgramHits = Programs.hits();
  S.ProgramMisses = Programs.misses();
  S.TransformHits = Transforms.hits();
  S.TransformMisses = Transforms.misses();
  S.SdgHits = Sdgs.hits();
  S.SdgMisses = Sdgs.misses();
  S.CodeHits = Codes.hits();
  S.CodeMisses = Codes.misses();
  S.SliceHits = Slices.hits();
  S.SliceMisses = Slices.misses();
  S.Subjects = Transforms.size();
  return S;
}
