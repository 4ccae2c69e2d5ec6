//===- Calibrate.cpp - Machine-speed reference kernel ---------------------===//
//
// A fixed CPU kernel that calls no GADT code. On a shared host the CPU's
// speed drifts (turbo frequency, neighbours on the same cores) and every
// layer drifts with it; timing this kernel between ops tells that drift
// apart from a change in the code under test.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

double perfbench::kernelMicros(uint64_t &Checksum) {
  // Sorting stresses the core; building and probing a node-based hash map
  // stresses the allocator and the caches, as building ASTs, graphs and
  // execution trees does.
  static std::vector<uint32_t> V(1u << 15);
  auto T0 = std::chrono::steady_clock::now();
  uint32_t X = 2463534242u + static_cast<uint32_t>(Checksum);
  for (uint32_t &E : V) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
    E = X;
  }
  std::unordered_map<uint32_t, uint32_t> M;
  for (size_t I = 0; I != V.size(); ++I)
    M.emplace(V[I], static_cast<uint32_t>(I));
  std::sort(V.begin(), V.end());
  for (size_t I = 0; I < V.size(); I += 7)
    Checksum += M.count(V[I] ^ 1) + M.at(V[I]);
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}
