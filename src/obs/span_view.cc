#include "obs/span_view.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace aer::obs {
namespace {

// Indexed by SpanNote.
constexpr std::string_view kNoteText[] = {
    "", "symptom:", "flap_quarantine", "quarantine:rma",
    "ncap:manual_repair", "timeout:backoff=", "adopted", "", "result:cured",
    "result:failed", "timeout", "inject:incident", "inject:drop",
    "inject:delay", "inject:duplicate", "inject:hang", "inject:false_success",
    "guard:fault_absorbed", "guard:invalid_action", "breaker:trip",
    "breaker:half_open"};
static_assert(std::size(kNoteText) ==
              static_cast<std::size_t>(SpanNote::kBreakerHalfOpen) + 1);

std::string_view NoteText(SpanNote note) {
  const auto index = static_cast<std::size_t>(note);
  AER_CHECK_LT(index, std::size(kNoteText)) << "unknown SpanNote";
  return kNoteText[index];
}

std::string EventLabel(const TraceRecord& r) {
  std::string label(NoteText(r.note));
  if (r.note == SpanNote::kSymptom) {
    // Stop at an embedded NUL, as a C-string label would.
    label += std::string_view(r.detail).substr(0, r.detail.find('\0'));
  } else if (r.note == SpanNote::kTimeoutBackoff) {
    label += StrFormat("%d", r.attempt);
  }
  return label;
}

}  // namespace

std::vector<Span> BuildSpans(const std::vector<TraceRecord>& records,
                             std::size_t* open_count) {
  std::unordered_map<SpanId, Span> open;
  std::vector<Span> done;
  for (const TraceRecord& r : records) {
    switch (r.kind) {
      case TraceEventKind::kProcessOpen:
      case TraceEventKind::kAttemptOpen:
      case TraceEventKind::kInstant: {
        Span span;
        span.id = r.span;
        span.parent = r.parent;
        span.machine = r.machine;
        span.trace_id = r.trace_id;
        span.start = r.time;
        if (r.kind == TraceEventKind::kProcessOpen) {
          span.name = "recovery";
          span.label = r.detail;
        } else if (r.kind == TraceEventKind::kAttemptOpen) {
          // The writer stores the action's name: obs/ sits below log/.
          span.name = "action:" + r.detail;
        } else {
          span.name = NoteText(r.note);
          span.label = r.detail;
          span.end = r.time;
          done.push_back(std::move(span));
          break;
        }
        open.emplace(r.span, std::move(span));
        break;
      }
      case TraceEventKind::kAnnotation: {
        const auto it = open.find(r.span);
        if (it == open.end()) break;
        Span& span = it->second;
        if (r.note == SpanNote::kTraceBind) {
          span.trace_id = r.trace_id;
        } else {
          span.events.push_back(
              {std::max(r.time, span.start), EventLabel(r)});
        }
        break;
      }
      case TraceEventKind::kProcessClose:
      case TraceEventKind::kAttemptClose: {
        const auto it = open.find(r.span);
        if (it == open.end()) break;
        Span& span = it->second;
        span.end = std::max(r.time, span.start);
        if (r.note != SpanNote::kNone) {
          span.events.push_back({span.end, EventLabel(r)});
        }
        done.push_back(std::move(span));
        open.erase(it);
        break;
      }
      default:
        break;
    }
  }
  // Flag parent links the ring has severed: a parent that is neither
  // completed nor open in the records was evicted, and dumps must say so
  // rather than print an id that no longer resolves.
  std::unordered_set<SpanId> known;
  for (const Span& span : done) known.insert(span.id);
  for (const auto& [id, span] : open) known.insert(id);
  for (Span& span : done) {
    span.parent_evicted =
        span.parent != kNoSpan && !known.contains(span.parent);
  }
  if (open_count != nullptr) *open_count = open.size();
  return done;
}

std::string FormatSpans(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& span : spans) {
    const std::string parent =
        span.parent_evicted
            ? std::string("(evicted)")
            : StrFormat("%lld", static_cast<long long>(span.parent));
    out += StrFormat(
        "span id=%lld parent=%s name=%s label=%s machine=%lld "
        "start=%lld end=%lld dur=%lld\n",
        static_cast<long long>(span.id), parent.c_str(), span.name.c_str(),
        span.label.empty() ? "-" : span.label.c_str(),
        static_cast<long long>(span.machine),
        static_cast<long long>(span.start), static_cast<long long>(span.end),
        static_cast<long long>(span.duration()));
    if (span.trace_id != kNoTrace) {
      // Appended (never inline) and only when tagged, so untraced dumps —
      // including the pre-tracing goldens — keep their exact bytes.
      out.pop_back();
      out += StrFormat(" trace=%016llx\n",
                       static_cast<unsigned long long>(span.trace_id));
    }
    for (const SpanEvent& event : span.events) {
      out += StrFormat("  event t=%lld %s\n",
                       static_cast<long long>(event.time),
                       event.label.c_str());
    }
  }
  return out;
}

JsonValue SpansToJson(const std::vector<Span>& spans) {
  JsonValue root = JsonValue::Array();
  for (const Span& span : spans) {
    JsonValue value = JsonValue::Object();
    value.Set("id", JsonValue::Int(span.id));
    if (span.parent_evicted) {
      value.Set("parent", JsonValue::String("(evicted)"));
    } else {
      value.Set("parent", JsonValue::Int(span.parent));
    }
    value.Set("name", JsonValue::String(span.name));
    value.Set("label", JsonValue::String(span.label));
    value.Set("machine", JsonValue::Int(span.machine));
    if (span.trace_id != kNoTrace) {
      value.Set("trace_id",
                JsonValue::String(StrFormat(
                    "%016llx",
                    static_cast<unsigned long long>(span.trace_id))));
    }
    value.Set("start", JsonValue::Int(span.start));
    value.Set("end", JsonValue::Int(span.end));
    value.Set("duration_s", JsonValue::Int(span.duration()));
    JsonValue events = JsonValue::Array();
    for (const SpanEvent& event : span.events) {
      JsonValue e = JsonValue::Object();
      e.Set("t", JsonValue::Int(event.time));
      e.Set("label", JsonValue::String(event.label));
      events.Append(std::move(e));
    }
    value.Set("events", std::move(events));
    root.Append(std::move(value));
  }
  return root;
}

std::vector<Span> FilterByLabel(const std::vector<Span>& spans,
                                std::string_view label) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (span.label == label) out.push_back(span);
  }
  return out;
}

std::vector<Span> TopSlowest(const std::vector<Span>& spans, std::size_t n,
                             std::string_view name_filter) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (!name_filter.empty() && span.name != name_filter) continue;
    out.push_back(span);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.duration() != b.duration()) return a.duration() > b.duration();
    return a.id < b.id;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

}  // namespace aer::obs
