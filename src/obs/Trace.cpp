//===- Trace.cpp - RAII span tracer with JSONL export ---------------------===//

#include "obs/Trace.h"

#include "support/JSON.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace gadt;
using namespace gadt::obs;

std::atomic<bool> gadt::obs::detail::TraceOn{false};

namespace {

std::atomic<uint64_t> NextTracerId{1};
std::atomic<uint64_t> NextSpanId{1};

/// Id of the calling thread's innermost recorded open span, 0 when none.
/// Span::begin installs its own id and Span::end restores its parent's.
thread_local uint64_t CurrentSpanId = 0;

/// Renders one event as a Chrome Trace Event Format JSON object.
/// Timestamps are microseconds with nanosecond precision (ts/dur are
/// fractional micros, the unit chrome://tracing expects).
std::string renderEvent(const TraceEvent &E) {
  std::string Line;
  Line.reserve(128);
  char Buf[64];
  Line += "{\"name\":\"";
  Line += json::escape(E.Name);
  Line += "\",\"cat\":\"";
  Line += json::escape(E.Cat);
  Line += "\",\"ph\":\"";
  Line += E.Phase;
  Line += "\",\"pid\":1,\"tid\":";
  std::snprintf(Buf, sizeof(Buf), "%u", E.Tid);
  Line += Buf;
  std::snprintf(Buf, sizeof(Buf), ",\"ts\":%llu.%03u",
                static_cast<unsigned long long>(E.TsNanos / 1000),
                static_cast<unsigned>(E.TsNanos % 1000));
  Line += Buf;
  if (E.Phase == 'X') {
    std::snprintf(Buf, sizeof(Buf), ",\"dur\":%llu.%03u",
                  static_cast<unsigned long long>(E.DurNanos / 1000),
                  static_cast<unsigned>(E.DurNanos % 1000));
    Line += Buf;
  }
  if (E.Phase == 'i')
    Line += ",\"s\":\"t\""; // thread-scoped instant
  // Span hierarchy: custom fields, ignored by viewers, consumed by
  // gadt_report and tests.
  if (E.SpanId) {
    std::snprintf(Buf, sizeof(Buf), ",\"sid\":%llu",
                  static_cast<unsigned long long>(E.SpanId));
    Line += Buf;
  }
  if (E.ParentId) {
    std::snprintf(Buf, sizeof(Buf), ",\"psid\":%llu",
                  static_cast<unsigned long long>(E.ParentId));
    Line += Buf;
  }
  if (!E.Args.empty()) {
    Line += ",\"args\":{";
    bool First = true;
    for (const TraceArg &A : E.Args) {
      if (!First)
        Line += ',';
      First = false;
      Line += '"';
      Line += json::escape(A.Key);
      Line += "\":";
      if (A.Quote) {
        Line += '"';
        Line += json::escape(A.Val);
        Line += '"';
      } else {
        Line += A.Val;
      }
    }
    Line += '}';
  }
  Line += '}';
  return Line;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Tracer()
    : Id(NextTracerId.fetch_add(1, std::memory_order_relaxed)),
      Epoch(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() {
  if (isEnabled())
    disable();
  flush();
}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

void Tracer::enableToFile(std::string Path) {
  {
    std::lock_guard<std::mutex> Lock(FileM);
    FilePath = std::move(Path);
    FileStarted = false;
  }
  enable();
}

void Tracer::enable() {
  Enabled.store(true, std::memory_order_relaxed);
  if (this == &global())
    detail::TraceOn.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  Enabled.store(false, std::memory_order_relaxed);
  if (this == &global())
    detail::TraceOn.store(false, std::memory_order_relaxed);
}

uint64_t Tracer::nowNanos() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

Tracer::ThreadBuf &Tracer::threadBuf() {
  // One-entry per-thread cache: almost every process has exactly one
  // tracer, so the map lookup below runs once per (thread, tracer).
  struct Cache {
    uint64_t TracerId = 0;
    ThreadBuf *Buf = nullptr;
  };
  thread_local Cache C;
  if (C.TracerId == Id && C.Buf)
    return *C.Buf;
  std::lock_guard<std::mutex> Lock(BufsM);
  std::unique_ptr<ThreadBuf> &Slot = Bufs[std::this_thread::get_id()];
  if (!Slot) {
    Slot = std::make_unique<ThreadBuf>();
    Slot->Tid = NextTid++;
  }
  C.TracerId = Id;
  C.Buf = Slot.get();
  return *Slot;
}

void Tracer::record(TraceEvent E) {
  ThreadBuf &B = threadBuf();
  E.Tid = B.Tid;
  size_t Max = MaxEventsPerThread.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> Lock(B.M);
  if (B.Events.size() >= Max) {
    Lock.unlock();
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  B.Events.push_back(std::move(E));
}

void Tracer::instant(const char *Name, const char *Cat,
                     std::vector<TraceArg> Args) {
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Phase = 'i';
  E.TsNanos = nowNanos();
  E.ParentId = CurrentSpanId;
  E.Args = std::move(Args);
  record(std::move(E));
}

uint64_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> Lock(BufsM);
  uint64_t N = 0;
  for (const auto &[Tid, Buf] : Bufs) {
    std::lock_guard<std::mutex> BufLock(Buf->M);
    N += Buf->Events.size();
  }
  return N;
}

std::string Tracer::exportJsonl() {
  std::vector<TraceEvent> All;
  {
    std::lock_guard<std::mutex> Lock(BufsM);
    for (auto &[Tid, Buf] : Bufs) {
      std::lock_guard<std::mutex> BufLock(Buf->M);
      All.insert(All.end(), std::make_move_iterator(Buf->Events.begin()),
                 std::make_move_iterator(Buf->Events.end()));
      Buf->Events.clear();
    }
  }
  std::stable_sort(All.begin(), All.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.TsNanos < B.TsNanos;
                   });
  if (uint64_t N = Dropped.exchange(0, std::memory_order_relaxed)) {
    TraceEvent E;
    E.Name = "trace.dropped";
    E.Cat = "obs";
    E.Phase = 'i';
    E.TsNanos = nowNanos();
    E.Args.push_back({"events", std::to_string(N), /*Quote=*/false});
    All.push_back(std::move(E));
  }
  std::string Out;
  for (const TraceEvent &E : All) {
    Out += renderEvent(E);
    Out += '\n';
  }
  return Out;
}

void Tracer::flush() {
  std::string Path;
  bool Truncate;
  {
    std::lock_guard<std::mutex> Lock(FileM);
    if (FilePath.empty())
      return;
    Path = FilePath;
    Truncate = !FileStarted;
    FileStarted = true;
  }
  std::string Lines = exportJsonl();
  std::ofstream Out(Path, Truncate ? std::ios::trunc : std::ios::app);
  Out << Lines;
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

void Span::begin(const char *N, const char *C) {
  Rec = true;
  Name = N;
  Cat = C;
  ParentId = CurrentSpanId;
  SpanId = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  CurrentSpanId = SpanId;
  StartNanos = Tracer::global().nowNanos();
}

void Span::end() {
  // Spans close in LIFO order on their thread, so restoring the parent
  // leaves the id that was current before this span opened — even when
  // tracing was switched off and on while it was open.
  CurrentSpanId = ParentId;
  Tracer &T = Tracer::global();
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.Phase = 'X';
  E.TsNanos = StartNanos;
  uint64_t Now = T.nowNanos();
  E.DurNanos = Now > StartNanos ? Now - StartNanos : 0;
  E.SpanId = SpanId;
  E.ParentId = ParentId;
  E.Args = std::move(Args);
  T.record(std::move(E));
}

namespace {

/// Reads GADT_TRACE at static-initialization time so tracing covers the
/// whole program without any code change in the traced binary. An optional
/// ":<n>" suffix (all digits) caps buffered events per thread.
struct EnvInit {
  EnvInit() {
    const char *Spec = std::getenv("GADT_TRACE");
    if (!Spec || !*Spec)
      return;
    std::string Path(Spec);
    size_t Colon = Path.rfind(':');
    if (Colon != std::string::npos && Colon + 1 < Path.size() &&
        Path.find_first_not_of("0123456789", Colon + 1) ==
            std::string::npos) {
      Tracer::global().setMaxEventsPerThread(
          std::strtoull(Path.c_str() + Colon + 1, nullptr, 10));
      Path.resize(Colon);
    }
    if (!Path.empty())
      Tracer::global().enableToFile(Path);
  }
};
EnvInit TheEnvInit;

} // namespace
