//===- Hashing.h - Stable hashing -------------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable (process-independent) 64-bit FNV-1a hashing. The batch runtime
/// keys its shared caches by the hash of a subject's source text
/// (runtime/RuntimeContext.h), and the edit session's per-routine
/// fingerprints fold AST structure with it (pascal/Fingerprint.h).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SUPPORT_HASHING_H
#define GADT_SUPPORT_HASHING_H

#include <cstdint>
#include <string>
#include <string_view>

namespace gadt {

/// 64-bit FNV-1a offset basis — the seed of an incremental hash.
inline constexpr uint64_t FnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds \p S into \p Seed with 64-bit FNV-1a. Stable across runs,
/// platforms and processes (unlike std::hash).
uint64_t hashBytes(std::string_view S, uint64_t Seed = FnvOffsetBasis);

/// Order-dependent combination of two hashes (for composite cache keys).
uint64_t hashCombine(uint64_t A, uint64_t B);

/// Renders a hash as 16 lowercase hex digits for logs and reports.
std::string hashHex(uint64_t H);

} // namespace gadt

#endif // GADT_SUPPORT_HASHING_H
