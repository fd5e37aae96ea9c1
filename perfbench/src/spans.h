// In-memory span recording for the traced benchmark run.
//
// The benchmark's own code opens a span around each call it makes into a
// layer's public functions. A span has a name ("<layer>.<call>"), a wall
// clock start and end, and the span that caused it. Spans stay in memory
// and are written out once, when the run ends. A null recorder disables
// recording, so the untraced runs pay one pointer test per call.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the first call in the process (a fixed epoch, so span
// times of one run are comparable).
std::int64_t NowNs();

inline constexpr int kNoParent = -1;

struct Span {
  int name = 0;             // index into SpanRecorder::names()
  int parent = kNoParent;   // index of the causing span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open

  std::int64_t duration_ns() const {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Returns the id of `name`, registering it on first use. Hot call sites
  // intern once and open spans by id.
  int Intern(std::string_view name);

  // Opens a span and returns its index. Thread-safe.
  int Begin(int name, int parent);
  void End(int span);

  std::vector<Span> spans() const;
  std::vector<std::string> names() const;

  // Writes {"names": [...], "spans": [[name, parent, start_ns, end_ns]...]}.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int, std::less<>> ids_;
};

// RAII span. Without an explicit parent it nests under the innermost open
// ScopedSpan of the calling thread; work fanned out to a pool passes the
// fan-out span's index explicitly.
class ScopedSpan {
 public:
  static constexpr int kInherit = -2;

  ScopedSpan(SpanRecorder* recorder, int name, int parent = kInherit);
  ScopedSpan(SpanRecorder* recorder, std::string_view name,
             int parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_ = kNoParent;
  int saved_current_ = kNoParent;
};

// The innermost open ScopedSpan of the calling thread (kNoParent if none).
int CurrentSpan();

// Aggregates of one span tree: per-name total duration and call count, and
// per-layer self time. A span's self time is its duration minus the part of
// its interval that its children cover (their union, so children running in
// parallel on a pool are not double-counted). The layer is the name's prefix
// up to the first '.'.
struct TreeTotals {
  std::map<std::string, double> seconds;       // by span name
  std::map<std::string, std::int64_t> calls;   // by span name
  std::map<std::string, double> max_seconds;   // longest call, by span name
  std::map<std::string, double> self_seconds;  // by layer
};

// One TreeTotals per root span (parent == kNoParent), in span order, keyed
// by the root's index.
std::map<int, TreeTotals> TotalsByRoot(const std::vector<Span>& spans,
                                       const std::vector<std::string>& names);

// The self time of every span, in span order (exposed for tests).
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

std::string LayerOf(std::string_view span_name);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
