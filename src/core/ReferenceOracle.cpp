//===- ReferenceOracle.cpp - Oracle backed by an intended program ---------===//

#include "core/ReferenceOracle.h"

#include <set>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::trace;

namespace {

interp::InterpOptions withCode(
    std::shared_ptr<const bytecode::CompiledProgram> Code) {
  interp::InterpOptions Opts;
  Opts.Code = std::move(Code);
  return Opts;
}

} // namespace

IntendedProgramOracle::IntendedProgramOracle(
    const Program &Intended,
    std::shared_ptr<const bytecode::CompiledProgram> Code, std::string Source)
    : Intended(Intended), Replayer(Intended, withCode(std::move(Code))),
      Source(std::move(Source)) {}

Judgement IntendedProgramOracle::judge(const ExecNode &N) {
  if (N.getKind() != UnitKind::Call || !N.getRoutine())
    return Judgement::dontKnow();
  // The traced routine's own path first, so that of two routines sharing a
  // simple name the right one replays; the plain name covers an intended
  // program whose nesting differs.
  const RoutineDecl *Ref =
      findRoutine(Intended, N.getRoutine()->qualifiedName());
  if (!Ref)
    Ref = findRoutine(Intended, N.getName());
  if (!Ref)
    return Judgement::dontKnow();

  // Assemble arguments by matching the node's input bindings to parameter
  // names; everything else becomes a global preset.
  std::set<std::string> ParamNames;
  std::vector<Value> Args;
  for (const auto &P : Ref->getParams()) {
    ParamNames.insert(P->getName());
    const Binding *In = N.findInput(P->getName());
    Args.push_back(In ? In->V : Value());
  }
  std::vector<Binding> Presets;
  for (const Binding &In : N.getInputs())
    if (!ParamNames.count(In.Name))
      Presets.push_back(In);

  CallOutcome Out =
      Replayer.callRoutine(Ref->qualifiedName(), std::move(Args), Presets);
  if (!Out.Ok)
    return Judgement::dontKnow();

  // Compare the traced outputs against the intended ones; the first
  // mismatching binding is reported as the wrong output variable — the
  // paper's "no, error on first output variable".
  for (const Binding &Traced : N.getOutputs()) {
    if (Traced.Name == "<output>") {
      if (Traced.V.isStr() && Traced.V.asStr() != Out.Output)
        return Judgement::incorrect(Source, Traced.Name);
      continue;
    }
    for (const Binding &RefOut : Out.Outputs)
      if (RefOut.Name == Traced.Name) {
        if (!RefOut.V.equals(Traced.V))
          return Judgement::incorrect(Source, Traced.Name);
        break;
      }
  }
  return Judgement::correct(Source);
}
