//===- OnceCache.h - Build-once concurrent memo map -------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe map from keys to immutable, shareable values where each
/// value is built exactly once no matter how many threads request it
/// concurrently. The batch runtime's shared caches (transform results,
/// dependence graphs, static slices, compiled code) are instances of this
/// template.
///
/// Guarantees:
///  - the builder for a key runs exactly once; concurrent requesters of the
///    same key block until it finishes and then share the result;
///  - builders for *different* keys run in parallel (the map lock is never
///    held while building);
///  - hit/miss counters are exact: misses() equals the number of builder
///    invocations, hits() equals all other lookups;
///  - a builder returning null caches the failure (subsequent lookups
///    return null as hits without re-building);
///  - a builder that *throws* does not poison the slot: the exception
///    propagates to the caller that ran the builder, the slot is removed,
///    and concurrent or subsequent requesters retry the build.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SUPPORT_ONCECACHE_H
#define GADT_SUPPORT_ONCECACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

namespace gadt {

template <typename Key, typename T> class OnceCache {
public:
  using Builder = std::function<std::shared_ptr<const T>()>;

  /// Returns the value for \p K, invoking \p Build to create it if this is
  /// the first request. Thread-safe. When \p WasMiss is non-null it is set
  /// to whether *this* call ran the builder — the per-call view of the
  /// aggregate hit/miss counters, for callers that forward the outcome to
  /// telemetry.
  std::shared_ptr<const T> getOrBuild(const Key &K, const Builder &Build,
                                      bool *WasMiss = nullptr) {
    for (;;) {
      std::shared_ptr<Slot> S;
      bool Owner = false;
      {
        std::unique_lock<std::mutex> Lock(M);
        std::shared_ptr<Slot> &Entry = Slots[K];
        if (!Entry) {
          Entry = std::make_shared<Slot>();
          Owner = true;
        }
        S = Entry;
        if (!Owner && !S->Ready) {
          // Another thread is building this key. Wait until its slot is
          // published, or until it vanishes (the builder threw) — in which
          // case retry from the top.
          CV.wait(Lock, [&] {
            auto It = Slots.find(K);
            return It == Slots.end() || It->second != S || S->Ready;
          });
          auto It = Slots.find(K);
          if (It == Slots.end() || It->second != S)
            continue;
        }
      }
      if (Owner) {
        std::shared_ptr<const T> V;
        try {
          V = Build();
        } catch (...) {
          // Un-poison: drop the slot (if it is still ours) and wake the
          // waiters so they retry; the exception goes to our caller.
          {
            std::lock_guard<std::mutex> Lock(M);
            auto It = Slots.find(K);
            if (It != Slots.end() && It->second == S)
              Slots.erase(It);
          }
          CV.notify_all();
          throw;
        }
        {
          std::lock_guard<std::mutex> Lock(M);
          S->V = std::move(V);
          S->Ready = true;
        }
        CV.notify_all();
        Misses.fetch_add(1, std::memory_order_relaxed);
        if (WasMiss)
          *WasMiss = true;
        return S->V;
      }
      Hits.fetch_add(1, std::memory_order_relaxed);
      if (WasMiss)
        *WasMiss = false;
      return S->V;
    }
  }

  /// The value already cached for \p K, or null (counts as neither hit nor
  /// miss; for inspection). Entries still being built read as absent.
  std::shared_ptr<const T> peek(const Key &K) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Slots.find(K);
    return It == Slots.end() || !It->second->Ready ? nullptr : It->second->V;
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Slots.size();
  }

private:
  struct Slot {
    std::shared_ptr<const T> V;
    bool Ready = false;
  };

  mutable std::mutex M;
  mutable std::condition_variable CV;
  std::map<Key, std::shared_ptr<Slot>> Slots;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace gadt

#endif // GADT_SUPPORT_ONCECACHE_H
