//===- Parallel.h - Minimal parallel-for helper -----------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one thread primitive of the project: a header-only fork-join loop.
/// The batch runtime (runtime::runBatch) fans sessions out with it, and the
/// SDG fans out its per-routine build. Workers pull indices from a shared
/// atomic counter, so irregular per-item costs balance automatically; the
/// call returns only after every index has been processed. Exceptions from
/// the body are rethrown on the caller thread.
///
/// Fan-outs do not nest: a parallelFor called from inside the body of a
/// multi-threaded parallelFor, on any of its threads (the calling thread
/// included), runs inline on that thread. So a batch worker's cold SDG
/// build stays on the worker, and a top-level SDG build still fans out.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SUPPORT_PARALLEL_H
#define GADT_SUPPORT_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace gadt {
namespace support {

namespace detail {
/// True while this thread runs items of a multi-threaded parallelFor. One
/// flag for every instantiation: a function-local static inside the
/// template would be a separate flag per body type, and a nested call with
/// another body would not see the outer fan-out.
inline thread_local bool InParallelFor = false;
} // namespace detail

/// Resolves a thread-count request: 0 means "one per hardware thread",
/// anything else is taken literally, and inside a multi-threaded
/// parallelFor every request is 1 (a nested call runs inline). Always at
/// least 1.
inline unsigned resolveThreads(unsigned Requested) {
  if (detail::InParallelFor)
    return 1;
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

/// Runs Fn(I) for every I in [0, N) using up to \p Threads workers (after
/// resolveThreads). With one worker or one item, or inside another
/// parallelFor's fan-out, everything runs inline on the calling thread, so
/// serial callers pay no thread setup. \p Fn must be safe to invoke
/// concurrently on distinct indices.
template <typename FnT>
void parallelFor(unsigned Threads, size_t N, FnT Fn) {
  Threads = resolveThreads(Threads);
  if (Threads > N)
    Threads = static_cast<unsigned>(N);
  if (Threads <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::exception_ptr Error;
  std::mutex ErrorMu;
  auto Worker = [&] {
    detail::InParallelFor = true;
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        break;
      try {
        Fn(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMu);
        if (!Error)
          Error = std::current_exception();
      }
    }
    detail::InParallelFor = false;
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  try {
    for (unsigned T = 1; T != Threads; ++T)
      Pool.emplace_back(Worker);
  } catch (...) {
    // A thread that cannot start fails the call like a throwing body: the
    // threads that did start finish every index and are joined first.
    std::lock_guard<std::mutex> Lock(ErrorMu);
    if (!Error)
      Error = std::current_exception();
  }
  Worker();
  for (std::thread &T : Pool)
    T.join();
  if (Error)
    std::rethrow_exception(Error);
}

} // namespace support
} // namespace gadt

#endif // GADT_SUPPORT_PARALLEL_H
