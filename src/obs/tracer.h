// Lightweight span tracing for recovery processes and training runs.
//
// A Span covers one unit of work on the simulated timeline: a recovery
// process, one action attempt inside it, or an instantaneous annotation
// (injected fault, breaker transition). Spans carry sim-time timestamps
// (never wall clock — the determinism contract in docs/OBSERVABILITY.md),
// a parent link, an optional machine id and a free-form label used for
// filtering (e.g. the initiating symptom name).
//
// Completed spans land in a bounded ring buffer: the tracer keeps the most
// recent `capacity` finished spans and counts the rest as dropped, so
// long simulations cannot grow memory without bound. All mutation goes
// through one mutex; instrumented call sites hold a `Tracer*` that may be
// null (tracing disabled) and must check before calling.
#ifndef AER_OBS_TRACER_H_
#define AER_OBS_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "obs/trace_context.h"

namespace aer::obs {

using SpanId = std::int64_t;  // 0 = no span / no parent
inline constexpr SpanId kNoSpan = 0;

struct SpanEvent {
  SimTime time = 0;
  std::string label;
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
  // Set by Tracer::Snapshot() when `parent` names a span the ring has
  // already evicted (it is neither completed-and-retained nor still open).
  // The dumps render such links as the explicit "(evicted)" sentinel
  // instead of a dangling id that could collide with a live span.
  bool parent_evicted = false;
  std::vector<SpanEvent> events;

  SimTime duration() const { return end >= start ? end - start : 0; }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span with its label, machine and distributed trace id (the
  // arguments Instant shares come in Instant's order); ids are assigned
  // sequentially from 1 so same-seed runs produce identical ids.
  SpanId StartSpan(std::string_view name, SimTime start,
                   std::string_view label = {}, SpanId parent = kNoSpan,
                   std::int64_t machine = -1, TraceId trace_id = kNoTrace);

  // The following are no-ops for unknown (already-closed or never-opened)
  // ids, so call sites need not track span lifetimes precisely.
  // Tags the span with a distributed trace id that arrived after it opened
  // (crash dumps and span dumps become filterable by trace).
  void SetTraceId(SpanId id, TraceId trace_id);
  void AddEvent(SpanId id, SimTime time, std::string_view label);
  // Closes the span; `end` is clamped to the span's start so durations are
  // never negative even if an out-of-order event closes it.
  void EndSpan(SpanId id, SimTime end);

  // Zero-duration span, closed immediately (point annotations).
  SpanId Instant(std::string_view name, SimTime time,
                 std::string_view label = {}, SpanId parent = kNoSpan,
                 std::int64_t machine = -1);

  // Completed spans, oldest first (bounded by `capacity`).
  std::vector<Span> Snapshot() const;

  std::int64_t completed_count() const;
  std::int64_t dropped_count() const;
  std::size_t open_count() const;

  // --- Pure helpers over snapshots (deterministic ordering) ---

  // Text dump, one "span ..." line per span plus indented event lines.
  static std::string FormatSpans(const std::vector<Span>& spans);
  static JsonValue SpansToJson(const std::vector<Span>& spans);
  // Spans whose label equals `label` (e.g. filter by error/symptom name).
  static std::vector<Span> FilterByLabel(const std::vector<Span>& spans,
                                         std::string_view label);
  // The n longest spans, ties broken by ascending id; when `name_filter` is
  // non-empty only spans with that exact name compete.
  static std::vector<Span> TopSlowest(const std::vector<Span>& spans,
                                      std::size_t n,
                                      std::string_view name_filter = {});

 private:
  mutable Mutex mu_;
  const std::size_t capacity_;
  SpanId next_id_ AER_GUARDED_BY(mu_) = 1;
  std::map<SpanId, Span> open_ AER_GUARDED_BY(mu_);
  // Completed spans, ring_next_ = oldest slot once the ring has wrapped.
  std::vector<Span> ring_ AER_GUARDED_BY(mu_);
  std::size_t ring_next_ AER_GUARDED_BY(mu_) = 0;
  std::int64_t completed_ AER_GUARDED_BY(mu_) = 0;
  std::int64_t dropped_ AER_GUARDED_BY(mu_) = 0;

  void FinishLocked(Span span, SimTime end) AER_REQUIRES(mu_);
};

}  // namespace aer::obs

#endif  // AER_OBS_TRACER_H_
