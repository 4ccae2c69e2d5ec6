//===- Trace.h - RAII span tracer with JSONL export -------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline span tracing. Every phase of the GADT pipeline (parse, sema,
/// transform, SDG construction, tracing, slicing, the debugging dialogue,
/// the runtime's cache lookups and batch sessions) opens an obs::Span; the
/// resulting events are buffered per thread and exported as JSONL in the
/// Chrome Trace Event Format — one complete JSON object per line, so the
/// stream is parseable line by line and loadable in chrome://tracing or
/// Perfetto after wrapping the lines in a JSON array (see README,
/// "Observability").
///
/// Spans form a hierarchy: each thread keeps the id of its innermost open
/// span, so every exported event carries a span id (`sid`) and its
/// parent's id (`psid`), and instants (judgement events) attach to the
/// span they occurred under. gadt_report folds these links into exact self
/// time per span. A batch session is one `session` span on the thread
/// that ran it; its pipeline phases nest under it on that thread.
///
/// Tracing is off by default and costs a single relaxed atomic load plus a
/// branch per span when disabled — no allocation, no clock read, no lock.
/// Enable it by either:
///
///  - setting GADT_TRACE=<path>[:cap] in the environment: every
///    process-lifetime event is flushed to <path> at exit (and on explicit
///    flush()); the optional numeric suffix caps buffered events per
///    thread, or
///  - calling Tracer::global().enableToFile(path) / enable() from code
///    (the latter buffers only; drain with exportJsonl()).
///
/// Per-thread buffers are bounded (setMaxEventsPerThread, default 2^20):
/// once a thread's buffer is full, further events are dropped and counted
/// instead of growing without limit under long traced batch runs. The next
/// export ends with one `trace.dropped` instant naming the count, so a cut
/// trace says so itself.
///
/// Threading: each thread appends to its own buffer under its own
/// (uncontended) mutex; the exporter takes the buffer-list lock and each
/// buffer lock briefly. Names must be static string literals. Safe to use
/// concurrently from any number of threads, including under
/// ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_OBS_TRACE_H
#define GADT_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gadt {
namespace obs {

namespace detail {
/// Whether the global tracer is recording, read on every span open. Lives
/// outside the Tracer so the disabled-path check needs no
/// function-local-static guard.
extern std::atomic<bool> TraceOn;
} // namespace detail

/// True when the global tracer is collecting events. The one branch paid on
/// the hot path when tracing is off.
inline bool enabled() {
  return detail::TraceOn.load(std::memory_order_relaxed);
}

/// One key/value annotation on an event. \c Quote distinguishes string
/// values from pre-rendered numeric/boolean JSON.
struct TraceArg {
  std::string Key;
  std::string Val;
  bool Quote = true;
};

/// One buffered trace event (Chrome Trace Event Format fields).
struct TraceEvent {
  const char *Name = ""; ///< static string: span names are literals
  const char *Cat = "";
  char Phase = 'X';      ///< 'X' complete, 'i' instant
  uint64_t TsNanos = 0;  ///< since tracer epoch
  uint64_t DurNanos = 0; ///< complete events only
  uint32_t Tid = 0;
  uint64_t SpanId = 0;   ///< rendered as "sid" (complete events)
  uint64_t ParentId = 0; ///< rendered as "psid" (enclosing span)
  std::vector<TraceArg> Args;
};

class Span;

/// Collects events from all threads and renders them as JSONL. One global
/// instance (Tracer::global()) serves the whole process; independent
/// instances are possible for tests. Buffers live as long as the tracer.
class Tracer {
public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// The process-wide tracer. Enabled at startup when GADT_TRACE=<path> is
  /// set (flushing to that path at exit).
  static Tracer &global();

  /// Starts collecting; flush() / process exit writes JSONL to \p Path.
  void enableToFile(std::string Path);
  /// Starts collecting into memory only; drain with exportJsonl().
  void enable();
  /// Stops collecting. Buffered events remain until flushed or exported.
  void disable();
  bool isEnabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Caps each thread's event buffer; once full, events are dropped and
  /// counted for the next export's `trace.dropped` instant.
  void setMaxEventsPerThread(size_t N) {
    MaxEventsPerThread.store(N, std::memory_order_relaxed);
  }
  size_t maxEventsPerThread() const {
    return MaxEventsPerThread.load(std::memory_order_relaxed);
  }

  /// Drains all buffered events, rendered one JSON object per line. When
  /// events were dropped since the last export, the last line is a
  /// `trace.dropped` instant whose `events` arg is their count.
  std::string exportJsonl();

  /// Drains buffered events to the enableToFile() path (first flush
  /// truncates, later ones append). No-op without a path.
  void flush();

  /// Buffered events across all threads (not yet flushed/exported).
  uint64_t eventCount() const;

  /// Nanoseconds since this tracer's epoch (plain clock read; works whether
  /// or not tracing is enabled).
  uint64_t nowNanos() const;

  /// Appends \p E (stamped by the caller) to the calling thread's buffer.
  void record(TraceEvent E);

  /// Records an instant event at now, attached to the calling thread's
  /// innermost open span.
  void instant(const char *Name, const char *Cat,
               std::vector<TraceArg> Args = {});

private:
  friend class Span;

  struct ThreadBuf {
    std::mutex M;
    std::vector<TraceEvent> Events;
    uint32_t Tid = 0;
  };

  ThreadBuf &threadBuf();

  /// Distinguishes tracer instances so the per-thread buffer cache never
  /// serves a stale pointer after a tracer at the same address died.
  const uint64_t Id;

  std::atomic<bool> Enabled{false};
  std::atomic<size_t> MaxEventsPerThread{size_t(1) << 20};
  /// Events dropped at the cap since the last export.
  std::atomic<uint64_t> Dropped{0};
  const std::chrono::steady_clock::time_point Epoch;

  mutable std::mutex BufsM;
  std::map<std::thread::id, std::unique_ptr<ThreadBuf>> Bufs;
  uint32_t NextTid = 1;

  std::mutex FileM;
  std::string FilePath;
  bool FileStarted = false;
};

/// RAII span: opens on construction, becomes the thread's innermost open
/// span, and records a complete event on destruction. When tracing is
/// disabled, construction is a relaxed atomic load and a branch; nothing
/// else runs and nothing is allocated.
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "gadt") {
    if (enabled())
      begin(Name, Cat);
  }
  ~Span() {
    if (Rec)
      end();
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Annotates the span (shows under "args" in trace viewers). No-ops when
  /// the span is not being recorded, so callers need not re-check
  /// enabled().
  void arg(const char *K, std::string V) {
    if (Rec)
      Args.push_back({K, std::move(V), /*Quote=*/true});
  }
  void arg(const char *K, const char *V) { arg(K, std::string(V)); }
  void arg(const char *K, uint64_t V) {
    if (Rec)
      Args.push_back({K, std::to_string(V), /*Quote=*/false});
  }
  void arg(const char *K, int64_t V) {
    if (Rec)
      Args.push_back({K, std::to_string(V), /*Quote=*/false});
  }
  void arg(const char *K, unsigned V) { arg(K, static_cast<uint64_t>(V)); }
  void arg(const char *K, int V) { arg(K, static_cast<int64_t>(V)); }
  void arg(const char *K, bool V) {
    if (Rec)
      Args.push_back({K, V ? "true" : "false", /*Quote=*/false});
  }

  /// True when the span is being recorded (tracing was on at open).
  bool active() const { return Rec; }
  /// This span's id (0 when not recorded).
  uint64_t id() const { return SpanId; }

private:
  void begin(const char *Name, const char *Cat);
  void end();

  bool Rec = false; ///< tracing was on at open: record an event at close
  const char *Name = nullptr;
  const char *Cat = nullptr;
  uint64_t StartNanos = 0;
  uint64_t SpanId = 0;
  uint64_t ParentId = 0; ///< the thread's innermost open span at open
  std::vector<TraceArg> Args;
};

/// Instant event on the global tracer; checks enabled() itself — but
/// callers that build Args should guard with obs::enabled() to keep the
/// disabled path allocation-free.
inline void instant(const char *Name, const char *Cat,
                    std::vector<TraceArg> Args = {}) {
  if (obs::enabled())
    Tracer::global().instant(Name, Cat, std::move(Args));
}

} // namespace obs
} // namespace gadt

#endif // GADT_OBS_TRACE_H
