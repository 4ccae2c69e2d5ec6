//===- Classifier.cpp - Concrete input to test frame mapping --------------===//

#include "tgen/Classifier.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::tgen;
using namespace gadt::interp;

ValueEnv gadt::tgen::extractFeatures(const std::vector<Binding> &Inputs) {
  ValueEnv Env;
  for (const Binding &B : Inputs) {
    if (B.V.isInt() || B.V.isBool()) {
      Env[B.Name] = B.V;
      continue;
    }
    if (!B.V.isArray())
      continue;
    const ArrayVal &Arr = B.V.asArray();
    Env[B.Name] = B.V; // full array, for element classifiers
    const std::string &Name = B.Name.str();
    Env[Name + "_len"] =
        Value::makeInt(static_cast<int64_t>(Arr.Elems.size()));
    if (!Arr.Elems.empty()) {
      auto [MinIt, MaxIt] =
          std::minmax_element(Arr.Elems.begin(), Arr.Elems.end());
      Env[Name + "_min"] = Value::makeInt(*MinIt);
      Env[Name + "_max"] = Value::makeInt(*MaxIt);
      Env[Name + "_spread"] =
          Value::makeInt(intArith(IntOp::Sub, *MaxIt, *MinIt));
    }
  }
  return Env;
}

std::optional<TestFrame>
gadt::tgen::classifyFeatures(const TestSpec &Spec, const ValueEnv &Features) {
  TestFrame Frame;
  for (const Category &Cat : Spec.Categories) {
    const Choice *Picked = nullptr;
    for (const Choice &Ch : Cat.Choices) {
      if (!Ch.When)
        continue; // not automatically selectable
      if (!Ch.If.eval(Frame.Properties))
        continue;
      auto Holds = evalPredicate(Ch.When.get(), Features);
      if (Holds && *Holds) {
        Picked = &Ch;
        break;
      }
    }
    if (!Picked)
      return std::nullopt;
    Frame.ChoiceNames.push_back(Picked->Name);
    Frame.Properties.insert(Picked->Properties.begin(),
                            Picked->Properties.end());
    Frame.IsError |= Picked->Error;
    Frame.IsSingle |= Picked->Single;
  }
  return Frame;
}

std::optional<TestFrame>
gadt::tgen::classifyInputs(const TestSpec &Spec,
                           const std::vector<Binding> &Inputs) {
  return classifyFeatures(Spec, extractFeatures(Inputs));
}
