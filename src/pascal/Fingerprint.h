//===- Fingerprint.h - Per-routine structural fingerprints ------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-routine fingerprints, the unit of incremental invalidation in the
/// edit session (runtime/EditSession.h): two parses of a routine with
/// equal fingerprints have the same structure, so its cached artifacts
/// replay onto the new AST (pascal/ASTMatch.h).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_PASCAL_FINGERPRINT_H
#define GADT_PASCAL_FINGERPRINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace gadt {
namespace pascal {

class Program;
class RoutineDecl;

/// The three component hashes separate the ways an edit can be visible
/// from outside the routine body:
///
/// - HeaderHash covers the caller-visible interface: name, procedure vs
///   function, return type, and the parameter list (names, modes, types).
///   A change dirties every caller's PDG and code.
/// - FrameHash covers the storage frame visible to *nested* routines:
///   the slot declarations (params, locals, result) and declared labels.
///   A change dirties everything nested below the routine, whose compiled
///   cell operands and dependence nodes address this frame.
/// - BodyHash covers the body's statement tree (kinds, operators, names,
///   literals — a structural fold equal iff the canonical body prints are
///   equal); a change dirties the routine's own PDG and compiled code.
///
/// FullHash combines all three and answers "did this routine change at
/// all". Hashes are functions of the canonical form only (never of
/// pointers or layout), so they are stable across parses of equal source
/// and across processes.
struct RoutineFingerprint {
  const RoutineDecl *Routine = nullptr;
  std::string QualifiedName;
  uint64_t HeaderHash = 0;
  uint64_t FrameHash = 0;
  uint64_t BodyHash = 0;
  uint64_t FullHash = 0;
};

/// Fingerprints every routine of \p P in declaration preorder (main first),
/// the same order as analysis::CallGraph::routines() and the SDG's
/// per-routine id ranges, so the two tables index-align.
std::vector<RoutineFingerprint> fingerprintRoutines(const Program &P);

} // namespace pascal
} // namespace gadt

#endif // GADT_PASCAL_FINGERPRINT_H
