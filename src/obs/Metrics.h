//===- Metrics.h - Unified metrics registry ---------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central metrics registry: named counters, gauges and duration
/// histograms under consistent dotted names. It unifies the accounting the
/// repo previously scattered over three disconnected structs —
/// transform::TransformStats, core::SessionStats and runtime::RuntimeStats
/// all still exist and still work, but their totals are now also routed
/// here, so one snapshot answers "what did this process do":
///
///   frontend.parses            transform.globals_converted
///   debug.queries.user         runtime.cache.sdg.hits
///   interp.steps               runtime.session.micros (histogram)
///
/// Instruments are created on first use and never destroyed, so references
/// returned by counter()/gauge()/histogram() are stable for the registry's
/// lifetime and may be cached by hot paths. All mutation is relaxed-atomic;
/// the registry is safe to use from any number of threads.
///
/// Snapshots render as JSON (support/JSON.h) for machine consumption or as
/// aligned text for humans.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_OBS_METRICS_H
#define GADT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace gadt {
namespace obs {

/// Monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A value that goes up and down (e.g. distinct subjects cached).
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Power-of-two-bucketed histogram of non-negative values (durations in
/// microseconds, sizes, ...). Bucket i counts values whose bit width is i,
/// i.e. values in [2^(i-1), 2^i - 1] (bucket 0 counts zeros). Exact count,
/// sum, min and max are kept alongside.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;

  void observe(uint64_t V) {
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    atomicMin(Min, V);
    atomicMax(Max, V);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// 0 when empty.
  uint64_t min() const {
    uint64_t M = Min.load(std::memory_order_relaxed);
    return M == UINT64_MAX ? 0 : M;
  }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucket(unsigned I) const {
    return I < NumBuckets ? Buckets[I].load(std::memory_order_relaxed) : 0;
  }
  /// Inclusive upper bound of bucket \p I.
  static uint64_t bucketBound(unsigned I) {
    return I == 0 ? 0 : (I >= 64 ? UINT64_MAX : (uint64_t(1) << I) - 1);
  }
  /// Inclusive lower bound of bucket \p I.
  static uint64_t bucketLowerBound(unsigned I) {
    return I <= 1 ? I : uint64_t(1) << (I - 1);
  }

  /// Approximate quantile by linear interpolation inside the bucket where
  /// the rank ceil(Q*count) lands, clamped to the exact observed [min,max]
  /// — so single-bucket populations (and Q=0/Q=1) come out exact. Returns
  /// 0 on an empty histogram. \p Q is clamped to [0,1].
  double approxQuantile(double Q) const {
    uint64_t N = count();
    if (N == 0)
      return 0.0;
    if (Q < 0.0)
      Q = 0.0;
    if (Q > 1.0)
      Q = 1.0;
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(N));
    if (Rank * 1.0 < Q * static_cast<double>(N)) // ceil without <cmath>
      ++Rank;
    if (Rank == 0)
      Rank = 1;
    uint64_t Cum = 0;
    for (unsigned I = 0; I < NumBuckets; ++I) {
      uint64_t B = bucket(I);
      if (B == 0)
        continue;
      if (Cum + B >= Rank) {
        double Lo = static_cast<double>(bucketLowerBound(I));
        double Hi = static_cast<double>(bucketBound(I));
        double Frac = static_cast<double>(Rank - Cum) /
                      static_cast<double>(B);
        double V = Lo + Frac * (Hi - Lo);
        double Mn = static_cast<double>(min());
        double Mx = static_cast<double>(max());
        return V < Mn ? Mn : (V > Mx ? Mx : V);
      }
      Cum += B;
    }
    return static_cast<double>(max());
  }

  static unsigned bucketOf(uint64_t V) {
    unsigned W = 0;
    while (V) {
      ++W;
      V >>= 1;
    }
    return W;
  }

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// Named instruments, created on first use. One process-wide default
/// (Registry::global()); independent instances for scoped accounting (the
/// batch runtime's RuntimeContext can own one, tests build private ones).
class Registry {
public:
  Registry() = default;
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  static Registry &global();

  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Current value of the named counter; 0 when it was never touched.
  uint64_t counterValue(std::string_view Name) const;
  int64_t gaugeValue(std::string_view Name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms render count/sum/min/max, approximate p50/p95/p99, and the
  /// non-empty [bound,count] bucket pairs.
  std::string jsonSnapshot() const;

  /// Aligned "name value" lines, counters then gauges then histograms.
  std::string str() const;

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;
};

} // namespace obs
} // namespace gadt

#endif // GADT_OBS_METRICS_H
