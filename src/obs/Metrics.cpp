//===- Metrics.cpp - Unified metrics registry -----------------------------===//

#include "obs/Metrics.h"

#include "support/JSON.h"

#include <algorithm>
#include <cstdio>

using namespace gadt;
using namespace gadt::obs;

Registry &Registry::global() {
  static Registry R;
  return R;
}

Counter &Registry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &Registry::gauge(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &Registry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), std::make_unique<Histogram>())
             .first;
  return *It->second;
}

uint64_t Registry::counterValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

int64_t Registry::gaugeValue(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0 : It->second->value();
}

std::string Registry::jsonSnapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("counters").beginObject();
  for (const auto &[Name, C] : Counters)
    W.key(Name).value(C->value());
  W.endObject();
  W.key("gauges").beginObject();
  for (const auto &[Name, G] : Gauges)
    W.key(Name).value(static_cast<int64_t>(G->value()));
  W.endObject();
  W.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    W.key(Name).beginObject();
    W.key("count").value(H->count());
    W.key("sum").value(H->sum());
    W.key("min").value(H->min());
    W.key("max").value(H->max());
    W.key("p50").value(H->approxQuantile(0.50));
    W.key("p95").value(H->approxQuantile(0.95));
    W.key("p99").value(H->approxQuantile(0.99));
    W.key("buckets").beginArray();
    for (unsigned I = 0; I < Histogram::NumBuckets; ++I) {
      uint64_t N = H->bucket(I);
      if (!N)
        continue;
      W.beginArray().value(Histogram::bucketBound(I)).value(N).endArray();
    }
    W.endArray();
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return Out;
}

std::string Registry::str() const {
  std::lock_guard<std::mutex> Lock(M);
  size_t Width = 0;
  for (const auto &[Name, C] : Counters)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, G] : Gauges)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, H] : Histograms)
    Width = std::max(Width, Name.size());

  std::string Out;
  auto Line = [&](const std::string &Name, const std::string &Val) {
    Out += Name;
    Out.append(Width + 2 - Name.size(), ' ');
    Out += Val;
    Out += '\n';
  };
  for (const auto &[Name, C] : Counters)
    Line(Name, std::to_string(C->value()));
  for (const auto &[Name, G] : Gauges)
    Line(Name, std::to_string(G->value()));
  for (const auto &[Name, H] : Histograms) {
    uint64_t N = H->count();
    std::string Val = "count " + std::to_string(N) + " sum " +
                      std::to_string(H->sum()) + " min " +
                      std::to_string(H->min()) + " max " +
                      std::to_string(H->max());
    if (N) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    " avg %llu p50 %.1f p95 %.1f p99 %.1f",
                    static_cast<unsigned long long>(H->sum() / N),
                    H->approxQuantile(0.50), H->approxQuantile(0.95),
                    H->approxQuantile(0.99));
      Val += Buf;
    }
    Line(Name, Val);
  }
  return Out;
}
