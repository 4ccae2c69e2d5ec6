//===- ReferenceOracle.h - Oracle backed by an intended program -*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An oracle that answers from an executable *intended program*: the
/// queried unit is re-run in a correct reference implementation with the
/// node's recorded inputs, and the outputs are compared. This mechanizes
/// the paper's human user (who judges against the intended behaviour in
/// their head) so that sessions, tests and scaling benchmarks run
/// deterministically; the incorrect-output report it produces ("no, error
/// on first output variable") is exactly what triggers slicing.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_REFERENCEORACLE_H
#define GADT_CORE_REFERENCEORACLE_H

#include "core/Oracle.h"
#include "interp/Interpreter.h"
#include "pascal/AST.h"

#include <memory>

namespace gadt {
namespace core {

/// Judges call units against a reference program containing routines with
/// the same names and signatures. Loop and iteration units are answered
/// DontKnow (they have no callable counterpart). Every query replays on one
/// Interpreter kept for the oracle's lifetime, so the intended program is
/// compiled at most once per oracle — and not at all when \p Code, the
/// intended program's bytecode (e.g. from the RuntimeContext code cache),
/// is supplied.
class IntendedProgramOracle : public Oracle {
public:
  /// \p Intended is not owned and must outlive the oracle.
  explicit IntendedProgramOracle(
      const pascal::Program &Intended,
      std::shared_ptr<const bytecode::CompiledProgram> Code = nullptr,
      std::string Source = "user");

  Judgement judge(const trace::ExecNode &N) override;

private:
  const pascal::Program &Intended;
  interp::Interpreter Replayer;
  std::string Source;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_REFERENCEORACLE_H
