// Tracer unit tests: span lifecycle, the bounded completed-span ring,
// no-op behavior for unknown ids, and the pure snapshot helpers.
#include "obs/tracer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace aer::obs {
namespace {

TEST(TracerTest, SpanLifecycle) {
  Tracer tracer;
  const SpanId id =
      tracer.StartSpan("recovery", 100, "Watchdog", kNoSpan, 3, 0xabc);
  EXPECT_EQ(id, 1);
  EXPECT_EQ(tracer.open_count(), 1u);
  tracer.AddEvent(id, 150, "action_issued");
  tracer.EndSpan(id, 200);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 1);

  const std::vector<Span> spans = tracer.Snapshot();
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
  EXPECT_EQ(spans[0].events[0].label, "action_issued");
}

TEST(TracerTest, SequentialIdsAndParentLinks) {
  Tracer tracer;
  const SpanId process = tracer.StartSpan("recovery", 0);
  const SpanId action = tracer.StartSpan("action:REBOOT", 10, {}, process);
  EXPECT_EQ(process, 1);
  EXPECT_EQ(action, 2);
  tracer.EndSpan(action, 20);
  tracer.EndSpan(process, 30);
  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Ring order is completion order: the action closed first.
  EXPECT_EQ(spans[0].name, "action:REBOOT");
  EXPECT_EQ(spans[0].parent, process);
  EXPECT_EQ(spans[1].name, "recovery");
}

TEST(TracerTest, UnknownIdIsNoOp) {
  Tracer tracer;
  tracer.SetTraceId(99, 1);
  tracer.AddEvent(99, 5, "e");
  tracer.EndSpan(99, 5);
  EXPECT_EQ(tracer.completed_count(), 0);
  // Closing twice completes once.
  const SpanId id = tracer.StartSpan("s", 0);
  tracer.EndSpan(id, 1);
  tracer.EndSpan(id, 2);
  EXPECT_EQ(tracer.completed_count(), 1);
}

TEST(TracerTest, ClampsOutOfOrderTimes) {
  Tracer tracer;
  const SpanId id = tracer.StartSpan("s", 100);
  tracer.AddEvent(id, 50, "early");  // before the span opened
  tracer.EndSpan(id, 40);            // closes before it opened
  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].events[0].time, 100);
  EXPECT_EQ(spans[0].end, 100);
  EXPECT_EQ(spans[0].duration(), 0);
}

TEST(TracerTest, InstantIsImmediatelyComplete) {
  Tracer tracer;
  const SpanId id = tracer.Instant("inject:drop", 42, "Watchdog", kNoSpan, 5);
  EXPECT_EQ(id, 1);
  EXPECT_EQ(tracer.open_count(), 0u);
  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "inject:drop");
  EXPECT_EQ(spans[0].label, "Watchdog");
  EXPECT_EQ(spans[0].machine, 5);
  EXPECT_EQ(spans[0].duration(), 0);
}

TEST(TracerTest, RingKeepsMostRecentAndCountsDropped) {
  Tracer tracer(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    tracer.Instant("s", i);
  }
  EXPECT_EQ(tracer.completed_count(), 5);
  EXPECT_EQ(tracer.dropped_count(), 2);
  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest surviving span first.
  EXPECT_EQ(spans[0].start, 2);
  EXPECT_EQ(spans[1].start, 3);
  EXPECT_EQ(spans[2].start, 4);
}

TEST(TracerTest, FormatSpansIsStable) {
  Tracer tracer;
  const SpanId id = tracer.StartSpan("recovery", 100, "DiskError", kNoSpan, 2);
  tracer.AddEvent(id, 110, "action_issued:REPLACE");
  tracer.EndSpan(id, 160);
  const std::string text = Tracer::FormatSpans(tracer.Snapshot());
  EXPECT_EQ(text,
            "span id=1 parent=0 name=recovery label=DiskError machine=2 "
            "start=100 end=160 dur=60\n"
            "  event t=110 action_issued:REPLACE\n");
}

TEST(TracerTest, SpansToJsonShape) {
  Tracer tracer;
  tracer.Instant("inject:hang", 7, "NicDown");
  const std::string json = Tracer::SpansToJson(tracer.Snapshot()).ToString();
  EXPECT_NE(json.find("\"name\": \"inject:hang\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"NicDown\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_s\": 0"), std::string::npos);
}

TEST(TracerTest, FilterByLabelExactMatch) {
  Tracer tracer;
  tracer.Instant("recovery", 1, "Watchdog");
  tracer.Instant("recovery", 2, "DiskError");
  tracer.Instant("recovery", 3, "Watchdog");
  tracer.Instant("recovery", 4, "WatchdogX");
  const std::vector<Span> filtered =
      Tracer::FilterByLabel(tracer.Snapshot(), "Watchdog");
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].start, 1);
  EXPECT_EQ(filtered[1].start, 3);
}

TEST(TracerTest, TopSlowestSortsAndFilters) {
  Tracer tracer;
  SpanId a = tracer.StartSpan("recovery", 0);
  tracer.EndSpan(a, 50);
  SpanId b = tracer.StartSpan("recovery", 0);
  tracer.EndSpan(b, 200);
  SpanId c = tracer.StartSpan("action:REBOOT", 0);
  tracer.EndSpan(c, 500);
  SpanId d = tracer.StartSpan("recovery", 0);
  tracer.EndSpan(d, 200);

  const std::vector<Span> spans = tracer.Snapshot();
  const std::vector<Span> top = Tracer::TopSlowest(spans, 2, "recovery");
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, b);  // dur 200, lower id wins the tie with d
  EXPECT_EQ(top[1].id, d);

  const std::vector<Span> all = Tracer::TopSlowest(spans, 10);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].id, c);  // the action span is the slowest overall
}

// Regression for the eviction leak: once the ring overwrites a parent, its
// surviving children used to dump a dangling parent id that could collide
// with a newer span. Snapshot now flags them and the dumps print the
// explicit "(evicted)" sentinel.
TEST(TracerTest, EvictedParentRendersSentinel) {
  Tracer tracer(/*capacity=*/3);
  const SpanId parent = tracer.StartSpan("recovery", 0);
  tracer.EndSpan(parent, 10);
  std::vector<SpanId> children;
  for (int i = 0; i < 4; ++i) {
    const SpanId child =
        tracer.StartSpan("action:REBOOT", 10 + i, {}, parent);
    tracer.EndSpan(child, 20 + i);
    children.push_back(child);
  }
  // Four children through a 3-slot ring evicted the parent and the first
  // child; the three survivors all reference the evicted parent.
  EXPECT_EQ(tracer.dropped_count(), 2);
  const std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& span : spans) {
    EXPECT_EQ(span.parent, parent);
    EXPECT_TRUE(span.parent_evicted) << "span " << span.id;
  }

  const std::string text = Tracer::FormatSpans(spans);
  EXPECT_NE(text.find("parent=(evicted)"), std::string::npos);
  EXPECT_EQ(text.find("parent=1"), std::string::npos);
  const std::string json = Tracer::SpansToJson(spans).ToString();
  EXPECT_NE(json.find("\"(evicted)\""), std::string::npos);
}

// A parent that is merely still open (or retained) must NOT be flagged.
TEST(TracerTest, LiveParentsAreNotFlaggedAsEvicted) {
  Tracer tracer(/*capacity=*/8);
  const SpanId open_parent = tracer.StartSpan("recovery", 0);
  const SpanId child =
      tracer.StartSpan("action:REBOOT", 1, {}, open_parent);
  tracer.EndSpan(child, 5);
  {
    const std::vector<Span> spans = tracer.Snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_FALSE(spans[0].parent_evicted);
  }
  tracer.EndSpan(open_parent, 9);
  for (const Span& span : tracer.Snapshot()) {
    EXPECT_FALSE(span.parent_evicted) << "span " << span.id;
  }
}

}  // namespace
}  // namespace aer::obs
