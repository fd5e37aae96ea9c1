// Spans as a view over trace records.
//
// A Span covers one unit of work on the simulated timeline: a recovery
// process, one action attempt inside it, or an instantaneous annotation
// (injected fault, breaker transition). Components append span records
// (kProcessOpen .. kInstant) to the collector attached as Observers::spans;
// BuildSpans folds a snapshot of them into spans with sim-time timestamps
// (never wall clock: docs/OBSERVABILITY.md), a parent link, an optional
// machine id and a filter label (e.g. the initiating symptom name). The
// ring bounds records: a span whose opening record was evicted leaves the
// view.
#ifndef AER_OBS_SPAN_VIEW_H_
#define AER_OBS_SPAN_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/sim_time.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"

namespace aer::obs {

struct SpanEvent {
  SimTime time = 0;
  std::string label;

  friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;          // "recovery", "action:REBOOT", "inject:drop"...
  std::string label;         // filter key, e.g. the initiating symptom name
  std::int64_t machine = -1; // -1 = not machine-scoped
  // Distributed trace this span belongs to (kNoTrace = untraced). Dumps
  // render it only when set, so untraced flows keep their byte format.
  TraceId trace_id = kNoTrace;
  SimTime start = 0;
  SimTime end = -1;          // -1 while open
  // Set by BuildSpans when `parent` is neither completed nor open in the
  // records. The dumps render such links as the explicit "(evicted)"
  // sentinel instead of a dangling id that could collide with a live span.
  bool parent_evicted = false;
  std::vector<SpanEvent> events;

  SimTime duration() const { return end >= start ? end - start : 0; }

  friend bool operator==(const Span&, const Span&) = default;
};

// The fold: completed spans in completion order (the order their closing
// records arrived). Annotations and closes for a span that is not open in
// `records` are ignored; event times and ends are clamped to the span's
// start, so durations are never negative. Records of other kinds are
// skipped. `open_count`, when given, receives the number of spans still
// open at the end of `records`.
std::vector<Span> BuildSpans(const std::vector<TraceRecord>& records,
                             std::size_t* open_count = nullptr);

// Text dump, one "span ..." line per span plus indented event lines.
std::string FormatSpans(const std::vector<Span>& spans);
JsonValue SpansToJson(const std::vector<Span>& spans);
// Spans whose label equals `label` (e.g. filter by error/symptom name).
std::vector<Span> FilterByLabel(const std::vector<Span>& spans,
                                std::string_view label);
// The n longest spans, ties broken by ascending id; when `name_filter` is
// non-empty only spans with that exact name compete.
std::vector<Span> TopSlowest(const std::vector<Span>& spans, std::size_t n,
                             std::string_view name_filter = {});

}  // namespace aer::obs

#endif  // AER_OBS_SPAN_VIEW_H_
