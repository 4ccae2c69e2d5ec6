//===- Frontend.cpp - Parse + analyze convenience -------------------------===//

#include "pascal/Frontend.h"

#include "obs/Trace.h"
#include "pascal/Parser.h"
#include "pascal/Sema.h"

using namespace gadt;
using namespace gadt::pascal;

std::unique_ptr<Program> gadt::pascal::parseAndCheck(std::string_view Source,
                                                     DiagnosticsEngine &Diags) {
  std::unique_ptr<Program> Prog;
  {
    obs::Span S("parse", "frontend");
    S.arg("bytes", Source.size());
    Parser P(Source, Diags);
    Prog = P.parseProgram();
    S.arg("ok", Prog != nullptr);
  }
  if (!Prog)
    return nullptr;
  obs::Span S("sema", "frontend");
  bool Ok = analyze(*Prog, Diags);
  S.arg("ok", Ok);
  if (!Ok)
    return nullptr;
  return Prog;
}
