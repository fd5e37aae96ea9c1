#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

thread_local int tls_current = kNoParent;

}  // namespace

std::int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

int SpanRecorder::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int SpanRecorder::Begin(int name, int parent) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::string> SpanRecorder::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"names\": [", out);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fputs("],\n\"spans\": [\n", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s[%d, %d, %lld, %lld]", i == 0 ? "" : ",\n", s.name,
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, int name, int parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  saved_current_ = tls_current;
  id_ = recorder_->Begin(name, parent == kInherit ? tls_current : parent);
  tls_current = id_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string_view name,
                       int parent)
    : ScopedSpan(recorder,
                 recorder == nullptr ? 0 : recorder->Intern(name), parent) {}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->End(id_);
  tls_current = saved_current_;
}

int CurrentSpan() { return tls_current; }

std::string LayerOf(std::string_view span_name) {
  return std::string(span_name.substr(0, span_name.find('.')));
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    // Only the part of the child inside its parent's interval counts.
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.start_ns + s.duration_ns(),
                                     p.start_ns + p.duration_ns());
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<int, TreeTotals> TotalsByRoot(const std::vector<Span>& spans,
                                       const std::vector<std::string>& names) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  // Accumulate by name id first; string keys only once per (root, name).
  struct ByName {
    std::vector<std::int64_t> total_ns, self_ns, calls, max_ns;
  };
  // A child opens after its parent, so the parent's index is smaller and one
  // forward pass resolves every span's root.
  std::vector<int> root(spans.size());
  std::map<int, ByName> by_root;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root[i] = s.parent == kNoParent ? static_cast<int>(i)
                                    : root[static_cast<std::size_t>(s.parent)];
    ByName& b = by_root[root[i]];
    if (b.calls.empty()) {
      b.total_ns.assign(names.size(), 0);
      b.self_ns.assign(names.size(), 0);
      b.calls.assign(names.size(), 0);
      b.max_ns.assign(names.size(), 0);
    }
    const auto n = static_cast<std::size_t>(s.name);
    b.total_ns[n] += s.duration_ns();
    b.self_ns[n] += self[i];
    ++b.calls[n];
    b.max_ns[n] = std::max(b.max_ns[n], s.duration_ns());
  }
  std::map<int, TreeTotals> totals;
  for (const auto& [r, b] : by_root) {
    TreeTotals& t = totals[r];
    for (std::size_t n = 0; n < names.size(); ++n) {
      if (b.calls[n] == 0) continue;
      t.seconds[names[n]] = static_cast<double>(b.total_ns[n]) * 1e-9;
      t.calls[names[n]] = b.calls[n];
      t.max_seconds[names[n]] = static_cast<double>(b.max_ns[n]) * 1e-9;
      t.self_seconds[LayerOf(names[n])] +=
          static_cast<double>(b.self_ns[n]) * 1e-9;
    }
  }
  return totals;
}

}  // namespace perfbench
