//===- Oracle.cpp - Oracles for algorithmic debugging ---------------------===//

#include "core/Oracle.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::trace;

Oracle::~Oracle() = default;

Judgement LambdaOracle::judge(const ExecNode &N) {
  Judgement J = F(N);
  if (J.A != Answer::DontKnow && J.Source.empty())
    J.Source = Source;
  return J;
}

Judgement ScriptedOracle::judge(const ExecNode &N) {
  auto It = Script.find(N.getName());
  if (It == Script.end())
    return Judgement::dontKnow();
  size_t &Pos = Cursor[N.getName()];
  const std::vector<Judgement> &Entries = It->second;
  Judgement J = Entries[std::min(Pos, Entries.size() - 1)];
  ++Pos;
  return J;
}

Judgement OracleChain::judge(const ExecNode &N) {
  for (Oracle *O : Oracles) {
    Judgement J = O->judge(N);
    if (J.A != Answer::DontKnow)
      return J;
  }
  return Judgement::dontKnow();
}
