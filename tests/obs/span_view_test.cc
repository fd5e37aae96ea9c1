// The span view: span records written to a TraceCollector and folded back
// into spans by BuildSpans, plus the pure helpers over the folded spans.
//
// The TracerTest cases keep the names they had when spans lived in a
// mutex-guarded store of their own; each now writes the same sequence as
// records and checks the same property of the view. The SpanViewTest
// goldens are FNV-1a fingerprints of the text and JSON dumps of fault-
// injection runs, recorded from that store, so the view must reproduce it
// byte for byte.
#include "obs/span_view.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "core/guarded_policy.h"
#include "core/recovery_manager.h"
#include "fnv.h"
#include "inject/harness.h"
#include "obs/trace_collector.h"

namespace aer::obs {
namespace {

// Writes span records the way the instrumented components do.
class SpanWriter {
 public:
  explicit SpanWriter(TraceCollector& sink) : sink_(sink) {}

  SpanId Process(SimTime time, std::string label = {},
                 std::int64_t machine = -1, TraceId trace = kNoTrace) {
    return sink_.Record({.trace_id = trace,
                         .time = time,
                         .kind = TraceEventKind::kProcessOpen,
                         .machine = machine,
                         .detail = std::move(label)});
  }
  SpanId Attempt(SimTime time, SpanId parent, std::string action = "REBOOT") {
    return sink_.Record({.time = time,
                         .kind = TraceEventKind::kAttemptOpen,
                         .detail = std::move(action),
                         .parent = parent});
  }
  SpanId Instant(SpanNote note, SimTime time, std::string label = {},
                 std::int64_t machine = -1) {
    return sink_.Record({.time = time,
                         .kind = TraceEventKind::kInstant,
                         .machine = machine,
                         .detail = std::move(label),
                         .note = note});
  }
  void Annotate(SpanId span, SimTime time, SpanNote note,
                std::string detail = {}, TraceId trace = kNoTrace) {
    sink_.Record({.trace_id = trace,
                  .time = time,
                  .kind = TraceEventKind::kAnnotation,
                  .detail = std::move(detail),
                  .span = span,
                  .note = note});
  }
  void Close(SpanId span, SimTime time, SpanNote note = SpanNote::kNone) {
    sink_.Record({.time = time,
                  .kind = TraceEventKind::kAttemptClose,
                  .span = span,
                  .note = note});
  }

 private:
  TraceCollector& sink_;
};

std::vector<Span> View(const TraceCollector& sink) {
  return BuildSpans(sink.Snapshot());
}

TEST(TracerTest, SpanLifecycle) {
  TraceCollector sink;
  SpanWriter w(sink);
  const SpanId id = w.Process(100, "Watchdog", 3, 0xabc);
  EXPECT_EQ(id, 1);
  std::size_t open = 0;
  EXPECT_TRUE(BuildSpans(sink.Snapshot(), &open).empty());
  EXPECT_EQ(open, 1u);
  w.Annotate(id, 150, SpanNote::kSymptom, "NicDown");
  w.Close(id, 200);

  const std::vector<Span> spans = BuildSpans(sink.Snapshot(), &open);
  EXPECT_EQ(open, 0u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, 1);
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[0].name, "recovery");
  EXPECT_EQ(spans[0].label, "Watchdog");
  EXPECT_EQ(spans[0].machine, 3);
  EXPECT_EQ(spans[0].trace_id, 0xabcu);
  EXPECT_EQ(spans[0].start, 100);
  EXPECT_EQ(spans[0].end, 200);
  EXPECT_EQ(spans[0].duration(), 100);
  ASSERT_EQ(spans[0].events.size(), 1u);
  EXPECT_EQ(spans[0].events[0].time, 150);
  EXPECT_EQ(spans[0].events[0].label, "symptom:NicDown");
}

TEST(TracerTest, SequentialIdsAndParentLinks) {
  TraceCollector sink;
  SpanWriter w(sink);
  const SpanId process = w.Process(0);
  w.Annotate(process, 5, SpanNote::kAdopted);  // annotations take no id
  const SpanId action = w.Attempt(10, process);
  EXPECT_EQ(process, 1);
  EXPECT_EQ(action, 2);
  w.Close(action, 20, SpanNote::kResultCured);
  w.Close(process, 30);
  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 2u);
  // View order is completion order: the action closed first.
  EXPECT_EQ(spans[0].name, "action:REBOOT");
  EXPECT_EQ(spans[0].parent, process);
  EXPECT_EQ(spans[1].name, "recovery");
}

TEST(TracerTest, UnknownIdIsNoOp) {
  TraceCollector sink;
  SpanWriter w(sink);
  w.Annotate(99, 5, SpanNote::kTraceBind, {}, 1);
  w.Annotate(99, 5, SpanNote::kAdopted);
  w.Close(99, 5);
  EXPECT_TRUE(View(sink).empty());
  // Closing twice completes once.
  const SpanId id = w.Process(0);
  w.Close(id, 1);
  w.Close(id, 2);
  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end, 1);
}

TEST(TracerTest, ClampsOutOfOrderTimes) {
  TraceCollector sink;
  SpanWriter w(sink);
  const SpanId id = w.Process(100);
  w.Annotate(id, 50, SpanNote::kAdopted);  // before the span opened
  w.Close(id, 40);                         // closes before it opened
  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].events[0].time, 100);
  EXPECT_EQ(spans[0].end, 100);
  EXPECT_EQ(spans[0].duration(), 0);
}

TEST(TracerTest, InstantIsImmediatelyComplete) {
  TraceCollector sink;
  SpanWriter w(sink);
  const SpanId id = w.Instant(SpanNote::kInjectDrop, 42, "Watchdog", 5);
  EXPECT_EQ(id, 1);
  std::size_t open = 1;
  const std::vector<Span> spans = BuildSpans(sink.Snapshot(), &open);
  EXPECT_EQ(open, 0u);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "inject:drop");
  EXPECT_EQ(spans[0].label, "Watchdog");
  EXPECT_EQ(spans[0].machine, 5);
  EXPECT_EQ(spans[0].duration(), 0);
}

// The ring bounds records: it keeps the most recent `capacity` of them and
// counts the rest dropped, and span ids stay those assigned at open.
TEST(TracerTest, RingKeepsMostRecentAndCountsDropped) {
  TraceCollector sink({.capacity = 3});
  SpanWriter w(sink);
  for (int i = 0; i < 5; ++i) {
    w.Instant(SpanNote::kBreakerTrip, i);
  }
  EXPECT_EQ(sink.recorded_count(), 5);
  EXPECT_EQ(sink.dropped_count(), 2);
  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 3u);
  // Oldest surviving span first.
  EXPECT_EQ(spans[0].start, 2);
  EXPECT_EQ(spans[0].id, 3);
  EXPECT_EQ(spans[1].start, 3);
  EXPECT_EQ(spans[2].start, 4);
}

TEST(TracerTest, FormatSpansIsStable) {
  TraceCollector sink;
  SpanWriter w(sink);
  const SpanId id = w.Process(100, "DiskError", 2);
  w.Annotate(id, 110, SpanNote::kNcapManualRepair);
  w.Close(id, 160);
  const std::string text = FormatSpans(View(sink));
  EXPECT_EQ(text,
            "span id=1 parent=0 name=recovery label=DiskError machine=2 "
            "start=100 end=160 dur=60\n"
            "  event t=110 ncap:manual_repair\n");
}

TEST(TracerTest, SpansToJsonShape) {
  TraceCollector sink;
  SpanWriter w(sink);
  w.Instant(SpanNote::kInjectHang, 7, "NicDown");
  const std::string json = SpansToJson(View(sink)).ToString();
  EXPECT_NE(json.find("\"name\": \"inject:hang\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"NicDown\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_s\": 0"), std::string::npos);
}

TEST(TracerTest, FilterByLabelExactMatch) {
  TraceCollector sink;
  SpanWriter w(sink);
  w.Instant(SpanNote::kInjectIncident, 1, "Watchdog");
  w.Instant(SpanNote::kInjectIncident, 2, "DiskError");
  w.Instant(SpanNote::kInjectIncident, 3, "Watchdog");
  w.Instant(SpanNote::kInjectIncident, 4, "WatchdogX");
  const std::vector<Span> filtered = FilterByLabel(View(sink), "Watchdog");
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].start, 1);
  EXPECT_EQ(filtered[1].start, 3);
}

TEST(TracerTest, TopSlowestSortsAndFilters) {
  TraceCollector sink;
  SpanWriter w(sink);
  SpanId a = w.Process(0);
  w.Close(a, 50);
  SpanId b = w.Process(0);
  w.Close(b, 200);
  SpanId c = w.Attempt(0, kNoSpan);
  w.Close(c, 500);
  SpanId d = w.Process(0);
  w.Close(d, 200);

  const std::vector<Span> spans = View(sink);
  const std::vector<Span> top = TopSlowest(spans, 2, "recovery");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, b);  // dur 200, lower id wins the tie with d
  EXPECT_EQ(top[1].id, d);

  const std::vector<Span> all = TopSlowest(spans, 10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].id, c);  // the action span is the slowest overall
}

// Regression for the eviction leak: once the ring drops a parent, its
// surviving children used to dump a dangling parent id that could collide
// with a newer span. The view flags them and the dumps print the explicit
// "(evicted)" sentinel.
TEST(TracerTest, EvictedParentRendersSentinel) {
  TraceCollector sink({.capacity = 6});
  SpanWriter w(sink);
  const SpanId parent = w.Process(0);
  w.Close(parent, 10);
  for (int i = 0; i < 4; ++i) {
    const SpanId child = w.Attempt(10 + i, parent);
    w.Close(child, 20 + i);
  }
  // Ten records through a 6-record ring evicted the parent's two and the
  // first child's two; the three survivors all reference the parent.
  EXPECT_EQ(sink.dropped_count(), 4);
  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& span : spans) {
    EXPECT_EQ(span.parent, parent);
    EXPECT_TRUE(span.parent_evicted) << "span " << span.id;
  }

  const std::string text = FormatSpans(spans);
  EXPECT_NE(text.find("parent=(evicted)"), std::string::npos);
  EXPECT_EQ(text.find("parent=1"), std::string::npos);
  const std::string json = SpansToJson(spans).ToString();
  EXPECT_NE(json.find("\"(evicted)\""), std::string::npos);
}

// A parent that is merely still open (or retained) must NOT be flagged.
TEST(TracerTest, LiveParentsAreNotFlaggedAsEvicted) {
  TraceCollector sink({.capacity = 8});
  SpanWriter w(sink);
  const SpanId open_parent = w.Process(0);
  const SpanId child = w.Attempt(1, open_parent);
  w.Close(child, 5);
  {
    const std::vector<Span> spans = View(sink);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_FALSE(spans[0].parent_evicted);
  }
  w.Close(open_parent, 9);
  for (const Span& span : View(sink)) {
    EXPECT_FALSE(span.parent_evicted) << "span " << span.id;
  }
}

// `aerctl trace`'s pipeline: scripted incidents through a GuardedPolicy
// into the InjectionHarness, every fault class on unless `clean`.
void RunHarness(std::uint64_t seed, bool clean, int count,
                TraceCollector& spans) {
  std::vector<HarnessIncident> incidents;
  const char* symptoms[] = {"Watchdog", "DiskError", "EventLog", "NicDown"};
  for (int i = 0; i < count; ++i) {
    HarnessIncident incident;
    incident.time = 100 + i * 700;
    incident.machine = i % 7;
    incident.symptom = symptoms[i % 4];
    incident.cure_strength = i % kNumActions;
    incidents.push_back(incident);
  }
  UserDefinedPolicy primary;
  UserDefinedPolicy fallback;
  GuardedPolicy guard(primary, fallback);
  guard.SetObservers({.spans = &spans});
  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 10 * kHour;
  manager_config.flap_threshold = 6;
  manager_config.flap_window = 12 * kHour;
  HarnessConfig harness_config;
  harness_config.seed = seed;
  if (!clean) {
    harness_config.drop_event = 0.2;
    harness_config.duplicate_event = 0.1;
    harness_config.delay_event = 0.2;
    harness_config.hang_action = 0.1;
    harness_config.false_success = 0.1;
  }
  InjectionHarness harness(guard, manager_config, harness_config);
  harness.SetObservers({.spans = &spans});
  ASSERT_TRUE(harness.Run(incidents).all_completed);
}

std::uint64_t Fingerprint(const std::string& bytes) {
  Fnv fnv;
  fnv.Bytes(bytes);
  return fnv.value();
}

struct DumpGolden {
  std::uint64_t seed;
  bool clean;
  int incidents;
  std::size_t spans;
  std::uint64_t text;  // FNV-1a of FormatSpans
  std::uint64_t json;  // FNV-1a of SpansToJson(...).ToString()
};

// Recorded from the span store the view replaced. Clean runs draw no
// injection, so their dumps do not depend on the seed.
constexpr DumpGolden kDumpGoldens[] = {
    {1, true, 6, 28, 0xb2a5ec15e85347eaULL, 0x309c3a0012c81a9cULL},
    {1, true, 40, 120, 0xff1450c4a2cfac08ULL, 0x4e9469d9e138f188ULL},
    {1, false, 6, 96, 0x7b4dc7130a8906b9ULL, 0x1c403d9c797ecfa6ULL},
    {1, false, 40, 862, 0x53fc3846adf2609bULL, 0x4882e22bac3548deULL},
    {2, true, 6, 28, 0xb2a5ec15e85347eaULL, 0x309c3a0012c81a9cULL},
    {2, true, 40, 120, 0xff1450c4a2cfac08ULL, 0x4e9469d9e138f188ULL},
    {2, false, 6, 79, 0x175e56b4ebcdb5a3ULL, 0x87fa72b647108480ULL},
    {2, false, 40, 1460, 0x89ec42c83e8b22bfULL, 0xf3640f55c6c0882eULL},
    {3, true, 6, 28, 0xb2a5ec15e85347eaULL, 0x309c3a0012c81a9cULL},
    {3, true, 40, 120, 0xff1450c4a2cfac08ULL, 0x4e9469d9e138f188ULL},
    {3, false, 6, 127, 0x91db4abdbcb67fdaULL, 0x95398fa1edd79546ULL},
    {3, false, 40, 1065, 0x1f66fe355a2c81ccULL, 0x1b5e495dabce3276ULL},
    {4, true, 6, 28, 0xb2a5ec15e85347eaULL, 0x309c3a0012c81a9cULL},
    {4, true, 40, 120, 0xff1450c4a2cfac08ULL, 0x4e9469d9e138f188ULL},
    {4, false, 6, 98, 0x2b5d095864ac965fULL, 0xfa3c457724ccc3fdULL},
    {4, false, 40, 946, 0x553d8b628081316fULL, 0x33b10ae80fb575a0ULL},
};

TEST(SpanViewTest, HarnessDumpsMatchRecordedSpanStore) {
  for (const DumpGolden& golden : kDumpGoldens) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed) +
                 (golden.clean ? " clean " : " chaos ") +
                 std::to_string(golden.incidents) + " incidents");
    TraceCollector sink;
    RunHarness(golden.seed, golden.clean, golden.incidents, sink);
    ASSERT_EQ(sink.dropped_count(), 0);
    const std::vector<Span> spans = View(sink);
    EXPECT_EQ(spans.size(), golden.spans);
    EXPECT_EQ(Fingerprint(FormatSpans(spans)), golden.text);
    EXPECT_EQ(Fingerprint(SpansToJson(spans).ToString()), golden.json);
  }
}

// Pins the record-count ring on the same pipeline: spans whose opening
// record was evicted leave the view, retained attempts of an evicted
// process render the "(evicted)" sentinel, and ids stay those of the
// unbounded run.
TEST(SpanViewTest, RingOverflowDropsOldestRecords) {
  TraceCollector full;
  RunHarness(2, /*clean=*/false, 40, full);
  TraceCollector ring({.capacity = 512});
  RunHarness(2, /*clean=*/false, 40, ring);
  EXPECT_EQ(ring.recorded_count(), full.recorded_count());
  EXPECT_EQ(ring.dropped_count(), full.recorded_count() - 512);
  EXPECT_EQ(ring.dropped_count(), 3321);

  const std::vector<Span> spans = View(ring);
  const std::string text = FormatSpans(spans);
  EXPECT_NE(text.find("parent=(evicted)"), std::string::npos);
  // Every retained span is the unbounded run's span of the same id, bar
  // the evicted-parent flag.
  std::vector<Span> all = View(full);
  for (Span span : spans) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const Span& s) {
      return s.id == span.id;
    });
    ASSERT_NE(it, all.end()) << "span " << span.id;
    span.parent_evicted = false;
    EXPECT_EQ(span, *it);
  }
  EXPECT_EQ(spans.size(), 189u);
  EXPECT_EQ(Fingerprint(text), 0x5dca18cad60c19eaULL);
  EXPECT_EQ(Fingerprint(SpansToJson(spans).ToString()),
            0xcd15edf3667ac07cULL);
}

// A trace id that arrives after the process opened binds even when the
// symptom carrying it is absorbed as a duplicate retransmission.
TEST(SpanViewTest, LateTraceIdSurvivesDuplicateSymptom) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  TraceCollector sink;
  manager.SetObservers({.spans = &sink});
  manager.OnSymptom(100, 4, "Watchdog");
  manager.OnSymptom(100, 4, "Watchdog", TraceContext{0x5eed});
  EXPECT_EQ(manager.stats().duplicate_symptoms, 1);
  ASSERT_TRUE(manager.OnRecoveryNeeded(110, 4).has_value());
  manager.OnActionResult(120, 4, /*healthy=*/true);

  const std::vector<Span> spans = View(sink);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name.rfind("action:", 0), 0u);
  EXPECT_EQ(spans[0].trace_id, 0x5eedu);  // opened after the bind
  EXPECT_EQ(spans[1].name, "recovery");
  EXPECT_EQ(spans[1].trace_id, 0x5eedu);
  EXPECT_TRUE(spans[1].events.empty());  // the duplicate adds no event
}

}  // namespace
}  // namespace aer::obs
