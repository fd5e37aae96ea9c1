#include "obs/tracer.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace aer::obs {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  AER_CHECK_GT(capacity, 0u) << "tracer ring buffer needs at least one slot";
}

SpanId Tracer::StartSpan(std::string_view name, SimTime start,
                         std::string_view label, SpanId parent,
                         std::int64_t machine, TraceId trace_id) {
  MutexLock lock(mu_);
  const SpanId id = next_id_++;
  Span& span = open_[id];
  span.id = id;
  span.parent = parent;
  span.name = std::string(name);
  span.label = std::string(label);
  span.machine = machine;
  span.trace_id = trace_id;
  span.start = start;
  return id;
}

void Tracer::SetTraceId(SpanId id, TraceId trace_id) {
  MutexLock lock(mu_);
  auto it = open_.find(id);
  if (it != open_.end()) it->second.trace_id = trace_id;
}

void Tracer::AddEvent(SpanId id, SimTime time, std::string_view label) {
  MutexLock lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& span = it->second;
  // Sim time within a span is monotonic by contract; clamp stragglers so a
  // dump never shows an event before its span opened.
  span.events.push_back({std::max(time, span.start), std::string(label)});
}

void Tracer::FinishLocked(Span span, SimTime end) {
  span.end = std::max(end, span.start);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[ring_next_] = std::move(span);
    ring_next_ = (ring_next_ + 1) % capacity_;
    ++dropped_;
  }
  ++completed_;
}

void Tracer::EndSpan(SpanId id, SimTime end) {
  MutexLock lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span span = std::move(it->second);
  open_.erase(it);
  FinishLocked(std::move(span), end);
}

SpanId Tracer::Instant(std::string_view name, SimTime time,
                       std::string_view label, SpanId parent,
                       std::int64_t machine) {
  MutexLock lock(mu_);
  const SpanId id = next_id_++;
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::string(name);
  span.label = std::string(label);
  span.machine = machine;
  span.start = time;
  FinishLocked(std::move(span), time);
  return id;
}

std::vector<Span> Tracer::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<Span> out;
  out.reserve(ring_.size());
  // ring_next_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  // Flag parent links the eviction policy has severed: a parent id that is
  // neither retained in the ring nor still open was dropped, and dumps must
  // say so rather than print an id that no longer resolves.
  std::set<SpanId> known;
  for (const Span& span : out) known.insert(span.id);
  for (const auto& [id, span] : open_) known.insert(id);
  for (Span& span : out) {
    span.parent_evicted =
        span.parent != kNoSpan && known.find(span.parent) == known.end();
  }
  return out;
}

std::int64_t Tracer::completed_count() const {
  MutexLock lock(mu_);
  return completed_;
}

std::int64_t Tracer::dropped_count() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::size_t Tracer::open_count() const {
  MutexLock lock(mu_);
  return open_.size();
}

std::string Tracer::FormatSpans(const std::vector<Span>& spans) {
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

JsonValue Tracer::SpansToJson(const std::vector<Span>& spans) {
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

std::vector<Span> Tracer::FilterByLabel(const std::vector<Span>& spans,
                                        std::string_view label) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (span.label == label) out.push_back(span);
  }
  return out;
}

std::vector<Span> Tracer::TopSlowest(const std::vector<Span>& spans,
                                     std::size_t n,
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
