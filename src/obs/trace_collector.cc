#include "obs/trace_collector.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace aer::obs {

namespace {

// Indexed by TraceEventKind.
constexpr std::string_view kKindNames[] = {
    "incident", "symptom", "dispatch", "dispatch_drop", "fence_reject",
    "busy_drop", "action_start", "action_done", "cure", "result_deliver",
    "result_lost", "timeout", "adopt", "message_drop", "leader_elected",
    "leader_lost", "node_crash", "node_restart", "process_open",
    "process_close", "attempt_open", "attempt_close", "annotation",
    "instant"};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(TraceEventKind::kInstant) + 1);

}  // namespace

std::string_view TraceEventKindName(TraceEventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kKindNames) ? kKindNames[index] : "unknown";
}

void RecordInstant(TraceCollector* spans, SpanNote note, SimTime time,
                   std::int64_t machine, std::string_view label) {
  if (spans == nullptr) return;
  spans->Record({.time = time, .kind = TraceEventKind::kInstant,
                 .machine = machine, .detail = std::string(label),
                 .note = note});
}

TraceCollector::TraceCollector(TraceCollectorConfig config)
    : config_(config) {
  AER_CHECK_GT(config_.capacity, 0u);
}

void TraceCollector::SetMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    sampled_metric_ = nullptr;
    dropped_metric_ = nullptr;
    return;
  }
  sampled_metric_ = &metrics->GetCounter("aer_trace_sampled_total");
  dropped_metric_ = &metrics->GetCounter("aer_trace_dropped_total");
}

bool TraceCollector::Sampled(TraceId id) const {
  return id == kNoTrace || SampleTrace(id, config_.sample_probability);
}

bool TraceCollector::AddLocked(TraceRecord record) {
  if (!Sampled(record.trace_id)) {
    ++dropped_;
    if (dropped_metric_) dropped_metric_->Inc();
    return false;
  }
  record.seq = next_seq_++;
  ring_.push_back(std::move(record));
  ++recorded_;
  if (sampled_metric_) sampled_metric_->Inc();
  if (ring_.size() > config_.capacity) {
    ring_.pop_front();
    ++dropped_;
    if (dropped_metric_) dropped_metric_->Inc();
  }
  return true;
}

SpanId TraceCollector::Record(TraceRecord record) {
  const bool opens = record.kind == TraceEventKind::kProcessOpen ||
                     record.kind == TraceEventKind::kAttemptOpen ||
                     record.kind == TraceEventKind::kInstant;
  MutexLock lock(mu_);
  if (opens) record.span = next_span_;
  if (!AddLocked(std::move(record)) || !opens) return kNoSpan;
  return next_span_++;
}

void TraceCollector::MergeShards(std::vector<std::vector<TraceRecord>> shards) {
  // Concatenate in shard order, then stable-sort by (time, machine). Each
  // machine lives in exactly one shard and records per machine are appended
  // in time order, so every (time, machine) tie group arrives from a single
  // shard in a thread-independent order — the stable sort therefore yields
  // the same byte stream for any shard count (fleet num_shards() is
  // config-pure) and any thread assignment.
  std::vector<TraceRecord> merged;
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  for (auto& shard : shards) {
    for (auto& record : shard) merged.push_back(std::move(record));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.machine < b.machine;
                   });
  MutexLock lock(mu_);
  for (auto& record : merged) AddLocked(std::move(record));
}

std::vector<TraceRecord> TraceCollector::Snapshot() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::int64_t TraceCollector::recorded_count() const {
  MutexLock lock(mu_);
  return recorded_;
}

std::int64_t TraceCollector::dropped_count() const {
  MutexLock lock(mu_);
  return dropped_;
}

}  // namespace aer::obs
