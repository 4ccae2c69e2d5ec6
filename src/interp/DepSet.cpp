//===- DepSet.cpp - Dependence sets ---------------------------------------===//

#include "interp/DepSet.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::interp;

namespace {

using Run = DepSet::Run;

/// Merge output for sets too large for the merge's stack buffer. One per
/// thread, so batch threads never share it.
thread_local std::vector<Run> Scratch;

/// Merges the sorted, coalesced run lists \p A and \p B into \p Out
/// (room for NA + NB runs), coalescing overlapping and touching runs.
/// Returns the number of runs written.
size_t mergeRuns(const Run *A, size_t NA, const Run *B, size_t NB, Run *Out) {
  size_t N = 0, I = 0, J = 0;
  while (I != NA || J != NB) {
    Run R = J == NB || (I != NA && A[I].Lo <= B[J].Lo) ? A[I++] : B[J++];
    // Hi + 1 in 64 bits: a run ending at UINT32_MAX touches nothing.
    if (N != 0 && uint64_t(Out[N - 1].Hi) + 1 >= R.Lo) {
      if (R.Hi > Out[N - 1].Hi)
        Out[N - 1].Hi = R.Hi;
    } else {
      Out[N++] = R;
    }
  }
  return N;
}

} // namespace

std::vector<uint32_t> DepSet::ids() const {
  std::vector<uint32_t> Out;
  Out.reserve(size());
  forEachRun([&Out](uint32_t Lo, uint32_t Hi) {
    for (uint64_t Id = Lo; Id <= Hi; ++Id)
      Out.push_back(static_cast<uint32_t>(Id));
  });
  return Out;
}

bool DepSet::contains(uint32_t Id) const {
  const Run *B = runs(), *E = B + numRuns();
  // The first run that does not end before Id.
  const Run *R = std::lower_bound(
      B, E, Id, [](const Run &X, uint32_t V) { return X.Hi < V; });
  return R != E && R->Lo <= Id;
}

void DepSet::insert(uint32_t Id) {
  DepSet One;
  One.Small[0] = {Id, Id};
  One.SmallRuns = 1;
  One.Count = 1;
  mergeWith(One);
}

void DepSet::assign(const Run *R, size_t N, uint64_t Ids) {
  if (N <= InlineRuns) {
    Heap.reset();
    std::copy(R, R + N, Small);
    SmallRuns = N;
  } else if (Heap && Heap.use_count() == 1) {
    Heap->assign(R, R + N);
  } else {
    Heap = std::make_shared<std::vector<Run>>(R, R + N);
  }
  Count = Ids;
}

void DepSet::mergeWith(const DepSet &Other) {
  if (&Other == this || Other.empty())
    return;
  if (empty()) {
    *this = Other; // inline copy or refcount bump — never an allocation
    return;
  }
  if (Heap && Heap == Other.Heap)
    return;
  size_t NA = numRuns(), NB = Other.numRuns();
  constexpr size_t LocalRuns = 16;
  Run Local[LocalRuns];
  Run *Out = Local;
  if (NA + NB > LocalRuns) {
    Scratch.resize(NA + NB);
    Out = Scratch.data();
  }
  size_t N = mergeRuns(runs(), NA, Other.runs(), NB, Out);
  uint64_t Ids = 0;
  for (size_t I = 0; I != N; ++I)
    Ids += uint64_t(Out[I].Hi) - Out[I].Lo + 1;
  if (Ids == Count)
    return; // Other is a subset of this set
  if (Ids == Other.Count) {
    *this = Other; // this set is a subset of Other: share its storage
    return;
  }
  assign(Out, N, Ids);
}
