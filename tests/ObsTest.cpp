//===- ObsTest.cpp - Observability layer tests ----------------------------===//
//
// The contract of src/obs and its wiring into the pipeline:
//  - the JSON writer and parser round-trip (the trace exporter and bench
//    --json both ride on them), and the parser rejects nesting past its
//    depth limit instead of overflowing the stack;
//  - spans nest, order and annotate correctly in the exported JSONL;
//  - disabled tracing emits nothing and allocates nothing on the hot path;
//  - a traced runBatch covers every pipeline phase, with one session span
//    per request whose phases nest under it on its thread, and every line
//    of its export is independently parseable;
//  - events carry the span hierarchy (sid/psid) at any nesting depth;
//  - per-thread trace buffers are bounded and overflow is counted, not
//    grown, and reported in the export.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "runtime/BatchRunner.h"
#include "support/JSON.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::runtime;
using namespace gadt::workload;

//===----------------------------------------------------------------------===//
// Allocation accounting for the disabled-hot-path test. Sanitizers replace
// operator new themselves, so the check only runs in plain builds.
//===----------------------------------------------------------------------===//

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GADT_OBS_NO_ALLOC_CHECK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
#define GADT_OBS_NO_ALLOC_CHECK 1
#endif
#endif

#ifndef GADT_OBS_NO_ALLOC_CHECK
// The replacement operator new allocates with malloc, so the frees below
// are matched; GCC's pairing heuristic cannot see that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

static std::atomic<uint64_t> GAllocCount{0};

void *operator new(std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#endif

namespace {

//===----------------------------------------------------------------------===//
// JSON writer / parser round-trip
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterParserRoundTrip) {
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject();
  W.key("s").value("a \"quoted\"\nline\twith\\slashes");
  W.key("i").value(int64_t(-42));
  W.key("u").value(uint64_t(18446744073709551615ull));
  W.key("d").value(1.5);
  W.key("b").value(true);
  W.key("n").null();
  W.key("arr").beginArray().value(1).value(2).value(3).endArray();
  W.key("obj").beginObject().key("k").value("v").endObject();
  W.endObject();

  std::optional<json::Value> V = json::parse(Buf);
  ASSERT_TRUE(V.has_value()) << Buf;
  EXPECT_EQ(V->getString("s"), "a \"quoted\"\nline\twith\\slashes");
  EXPECT_EQ(V->getNumber("i"), -42.0);
  EXPECT_EQ(V->getNumber("d"), 1.5);
  EXPECT_TRUE(V->getBool("b"));
  ASSERT_NE(V->find("n"), nullptr);
  EXPECT_TRUE(V->find("n")->isNull());
  ASSERT_NE(V->find("arr"), nullptr);
  ASSERT_EQ(V->find("arr")->Arr.size(), 3u);
  EXPECT_EQ(V->find("arr")->Arr[1].Num, 2.0);
  ASSERT_NE(V->find("obj"), nullptr);
  EXPECT_EQ(V->find("obj")->getString("k"), "v");
}

TEST(JsonTest, ControlCharactersEscapeAndParseBack) {
  std::string Raw = "ctrl:\x01\x1f done";
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject().key("k").value(Raw).endObject();
  std::optional<json::Value> V = json::parse(Buf);
  ASSERT_TRUE(V.has_value()) << Buf;
  EXPECT_EQ(V->getString("k"), Raw);
}

TEST(JsonTest, ParserRejectsMalformed) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1,2,]").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("nul").has_value());
}

TEST(JsonTest, OutOfRangeNumbersAreRejected) {
  // strtod reads these as infinity, which Writer would write as `inf`, not
  // JSON, so the document could not round-trip (the JSON fuzz driver's
  // "dur":25.001e999).
  EXPECT_FALSE(json::parse("1e400").has_value());
  EXPECT_FALSE(json::parse("{\"dur\":-25.001e999}").has_value());
  std::optional<json::Value> Tiny = json::parse("1e-400"); // underflows to 0
  ASSERT_TRUE(Tiny.has_value());
  EXPECT_EQ(Tiny->Num, 0.0);
}

TEST(JsonTest, NestingPastTheLimitIsRejected) {
  auto Arrays = [](size_t N) {
    return std::string(N, '[') + std::string(N, ']');
  };
  // Without the limit, this overflows the recursive parser's stack.
  EXPECT_FALSE(json::parse(Arrays(100000)).has_value());
  EXPECT_TRUE(json::parse(Arrays(json::MaxNestingDepth)).has_value());
  EXPECT_FALSE(json::parse(Arrays(json::MaxNestingDepth + 1)).has_value());
  // Objects count as levels too.
  std::string Objects;
  for (unsigned I = 0; I <= json::MaxNestingDepth; ++I)
    Objects += "{\"a\":";
  Objects += "1" + std::string(json::MaxNestingDepth + 1, '}');
  EXPECT_FALSE(json::parse(Objects).has_value());
  EXPECT_TRUE(json::parse(Objects.substr(5, Objects.size() - 6)).has_value());
}

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

/// Splits JSONL into parsed objects, failing the test on any bad line.
std::vector<json::Value> parseLines(const std::string &Jsonl) {
  std::vector<json::Value> Out;
  std::istringstream In(Jsonl);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::optional<json::Value> V = json::parse(Line);
    EXPECT_TRUE(V.has_value()) << "unparseable JSONL line: " << Line;
    if (V)
      Out.push_back(std::move(*V));
  }
  return Out;
}

const json::Value *findEvent(const std::vector<json::Value> &Events,
                             const std::string &Name) {
  for (const json::Value &E : Events)
    if (E.getString("name") == Name)
      return &E;
  return nullptr;
}

TEST(TracerTest, SpansNestAndExportOrdered) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl(); // drain anything a previous test buffered
  T.enable();
  {
    obs::Span Outer("outer", "test");
    Outer.arg("label", "hello world");
    Outer.arg("n", uint64_t(42));
    Outer.arg("ok", true);
    {
      obs::Span Inner("inner", "test");
      EXPECT_TRUE(Inner.active());
    }
  }
  obs::instant("mark", "test");
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 3u);

  const json::Value *Outer = findEvent(Events, "outer");
  const json::Value *Inner = findEvent(Events, "inner");
  const json::Value *Mark = findEvent(Events, "mark");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Mark, nullptr);

  EXPECT_EQ(Outer->getString("ph"), "X");
  EXPECT_EQ(Outer->getString("cat"), "test");
  EXPECT_EQ(Mark->getString("ph"), "i");

  // The inner span lies within the outer span's interval.
  double OutT0 = Outer->getNumber("ts");
  double OutT1 = OutT0 + Outer->getNumber("dur");
  double InT0 = Inner->getNumber("ts");
  double InT1 = InT0 + Inner->getNumber("dur");
  EXPECT_GE(InT0, OutT0);
  EXPECT_LE(InT1, OutT1);

  // Export is sorted by timestamp.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].getNumber("ts"), Events[I - 1].getNumber("ts"));

  // Typed args survive the round trip.
  const json::Value *Args = Outer->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->getString("label"), "hello world");
  EXPECT_EQ(Args->getNumber("n"), 42.0);
  EXPECT_TRUE(Args->getBool("ok"));

  // Drained: a second export is empty.
  EXPECT_EQ(T.exportJsonl(), "");
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(TracerTest, DisabledEmitsNothing) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  ASSERT_FALSE(T.isEnabled());
  {
    obs::Span S("ghost", "test");
    EXPECT_FALSE(S.active());
    S.arg("k", uint64_t(1));
  }
  obs::instant("ghost.mark", "test");
  EXPECT_EQ(T.eventCount(), 0u);
  EXPECT_EQ(T.exportJsonl(), "");
}

TEST(TracerTest, DisabledHotPathDoesNotAllocate) {
#ifdef GADT_OBS_NO_ALLOC_CHECK
  GTEST_SKIP() << "allocation accounting is unavailable under sanitizers";
#else
  ASSERT_FALSE(obs::enabled());
  uint64_t Before = GAllocCount.load();
  for (int I = 0; I < 1000; ++I) {
    obs::Span S("hot", "test");
    S.arg("i", uint64_t(I));
  }
  uint64_t After = GAllocCount.load();
  EXPECT_EQ(After, Before) << "disabled spans must not allocate";
#endif
}

TEST(TracerTest, FlushWritesJsonlFile) {
  std::string Path = ::testing::TempDir() + "gadt_obs_flush_test.jsonl";
  obs::Tracer T; // private instance; spans go to the global one, so record
                 // events directly
  T.enableToFile(Path);
  T.record({.Name = "phase",
            .Cat = "test",
            .TsNanos = 1000,
            .DurNanos = 2000,
            .Args = {{"k", "v", /*Quote=*/true}}});
  T.instant("tick", "test");
  T.flush();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  std::vector<json::Value> Events = parseLines(Content);
  ASSERT_EQ(Events.size(), 2u);
  const json::Value *Phase = findEvent(Events, "phase");
  ASSERT_NE(Phase, nullptr);
  EXPECT_EQ(Phase->getNumber("ts"), 1.0); // 1000 ns == 1 microsecond
  EXPECT_EQ(Phase->getNumber("dur"), 2.0);
  EXPECT_NE(findEvent(Events, "tick"), nullptr);
  std::remove(Path.c_str());
}

TEST(TracerTest, BoundedBuffersCountDroppedEvents) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  size_t DefaultCap = T.maxEventsPerThread();

  T.setMaxEventsPerThread(4);
  T.enable();
  for (int I = 0; I < 10; ++I)
    obs::instant("overflow", "test");
  T.disable();
  T.setMaxEventsPerThread(DefaultCap);

  EXPECT_EQ(T.eventCount(), 4u);

  // The surviving events are intact, and the export ends with one marker
  // naming how many were dropped.
  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 5u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Events[I].getString("name"), "overflow");
  const json::Value &Marker = Events.back();
  EXPECT_EQ(Marker.getString("name"), "trace.dropped");
  EXPECT_EQ(Marker.getString("ph"), "i");
  ASSERT_NE(Marker.find("args"), nullptr);
  EXPECT_EQ(Marker.find("args")->getNumber("events"), 6.0);

  // The buffer drained and the drop count was reported once.
  EXPECT_EQ(T.exportJsonl(), "");
}

TEST(TracerTest, SidPsidLinkTheSpanHierarchy) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();
  {
    obs::Span Outer("h.outer", "test");
    {
      obs::Span Inner("h.inner", "test");
      obs::instant("h.mark", "test");
    }
  }
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 3u);
  const json::Value *Outer = findEvent(Events, "h.outer");
  const json::Value *Inner = findEvent(Events, "h.inner");
  const json::Value *Mark = findEvent(Events, "h.mark");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Mark, nullptr);

  // Every complete event names itself; roots have no psid field at all.
  double OuterSid = Outer->getNumber("sid");
  double InnerSid = Inner->getNumber("sid");
  EXPECT_GT(OuterSid, 0.0);
  EXPECT_GT(InnerSid, 0.0);
  EXPECT_NE(OuterSid, InnerSid);
  EXPECT_EQ(Outer->find("psid"), nullptr);

  // The child points at its parent, and the instant at its enclosing span.
  EXPECT_EQ(Inner->getNumber("psid"), OuterSid);
  EXPECT_EQ(Mark->getNumber("psid"), InnerSid);
}

/// Opens one span per level, \p Depth levels deep, each tagged with its
/// level.
void openNested(unsigned Level, unsigned Depth) {
  obs::Span S("deep", "test");
  S.arg("level", Level);
  if (Level + 1 < Depth)
    openNested(Level + 1, Depth);
}

TEST(TracerTest, SpanParentsHoldAtAnyDepth) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();
  constexpr unsigned Depth = 70;
  openNested(0, Depth);
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), Depth);
  std::map<unsigned, const json::Value *> ByLevel;
  for (const json::Value &E : Events)
    ByLevel[static_cast<unsigned>(E.find("args")->getNumber("level"))] = &E;
  ASSERT_EQ(ByLevel.size(), Depth);
  EXPECT_EQ(ByLevel[0]->find("psid"), nullptr);
  for (unsigned L = 1; L < Depth; ++L)
    EXPECT_EQ(ByLevel[L]->getNumber("psid"), ByLevel[L - 1]->getNumber("sid"))
        << "span at level " << L;
}

TEST(TracerTest, SpanOpenAcrossReenableRestoresItsParent) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();
  {
    obs::Span Outer("r.outer", "test");
    {
      obs::Span Mid("r.mid", "test");
      T.disable();
      T.enable();
    }
    obs::Span After("r.after", "test"); // Outer is current again
  }
  T.disable();
  {
    obs::Span Unrecorded("r.unrecorded", "test");
    EXPECT_FALSE(Unrecorded.active());
    T.enable();
    obs::Span Late("r.late", "test"); // no recorded span encloses it
  }
  { obs::Span Root("r.root", "test"); }
  obs::instant("r.mark", "test");
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 6u);
  EXPECT_EQ(findEvent(Events, "r.unrecorded"), nullptr);
  const json::Value *Outer = findEvent(Events, "r.outer");
  ASSERT_NE(Outer, nullptr);
  for (const char *Child : {"r.mid", "r.after"}) {
    const json::Value *E = findEvent(Events, Child);
    ASSERT_NE(E, nullptr) << Child;
    EXPECT_EQ(E->getNumber("psid"), Outer->getNumber("sid")) << Child;
  }
  // Nothing stale is left current once every span has closed.
  for (const char *Root : {"r.outer", "r.late", "r.root", "r.mark"}) {
    const json::Value *E = findEvent(Events, Root);
    ASSERT_NE(E, nullptr) << Root;
    EXPECT_EQ(E->find("psid"), nullptr) << Root;
  }
}

//===----------------------------------------------------------------------===//
// End-to-end: a traced batch run covers the whole pipeline
//===----------------------------------------------------------------------===//

std::vector<SessionRequest> smallWorkload(unsigned N) {
  std::vector<ProgramPair> Pairs;
  Pairs.push_back(chainProgram(6, 2));
  Pairs.push_back(treeProgram(3));
  Pairs.push_back({Figure4Fixed, Figure4Buggy, "decrement"});
  std::vector<SessionRequest> Reqs;
  for (unsigned I = 0; I < N; ++I) {
    const ProgramPair &P = Pairs[I % Pairs.size()];
    SessionRequest R;
    R.Source = P.Buggy;
    R.Intended = P.Fixed;
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

TEST(ObservabilityTest, BatchRunnerTraceCoversPipeline) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();

  RuntimeContext Ctx;
  std::vector<SessionRequest> Reqs = smallWorkload(6);
  std::vector<SessionResult> Rs = runBatch(Ctx, Reqs, 4);
  T.disable();

  ASSERT_EQ(Rs.size(), Reqs.size());
  for (const SessionResult &R : Rs)
    EXPECT_TRUE(R.Prepared) << R.Message;

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_FALSE(Events.empty());

  std::set<std::string> Names;
  for (const json::Value &E : Events)
    Names.insert(E.getString("name"));
  for (const char *Expected :
       {"session", "parse", "sema", "transform", "sdg",
        "exectree", "debug", "judgement", "cache.program",
        "cache.transform", "cache.sdg", "cache.slice"})
    EXPECT_TRUE(Names.count(Expected)) << "missing phase: " << Expected;

  // One session span per request, each annotated with its outcome.
  std::map<double, double> SessionTid; // sid -> tid
  for (const json::Value &E : Events) {
    if (E.getString("name") != "session")
      continue;
    SessionTid[E.getNumber("sid")] = E.getNumber("tid");
    EXPECT_EQ(E.find("psid"), nullptr) << "a session span is a root";
    const json::Value *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_TRUE(Args->getBool("prepared"));
    EXPECT_NE(Args->getString("fp"), "");
  }
  EXPECT_EQ(SessionTid.size(), Reqs.size());

  // A session's phases nest under its span, on the thread that ran it.
  unsigned Children = 0;
  for (const json::Value &E : Events) {
    auto Session = SessionTid.find(E.getNumber("psid"));
    if (Session == SessionTid.end())
      continue;
    ++Children;
    EXPECT_EQ(E.getNumber("tid"), Session->second) << E.getString("name");
  }
  EXPECT_GE(Children, Reqs.size());

  // Judgement events carry the dialogue verdicts.
  for (const json::Value &E : Events) {
    if (E.getString("name") != "judgement")
      continue;
    const json::Value *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    std::string Verdict = Args->getString("verdict");
    EXPECT_TRUE(Verdict == "correct" || Verdict == "incorrect" ||
                Verdict == "dont_know")
        << Verdict;
    EXPECT_NE(Args->getString("unit"), "");
    EXPECT_NE(Args->getString("source"), "");
  }
}

} // namespace
