// Shim for perfbench/src/serve.cc, which names obs::Tracer and
// completed_count() and changes only with the benchmark: the next benchmark
// change moves it onto a TraceCollector span sink and deletes this header
// with RecoveryManager's two adapters. Lint rule tracer-shim guards it.
#ifndef AER_OBS_TRACER_H_
#define AER_OBS_TRACER_H_

#include <cstdint>

#include "obs/trace_collector.h"

namespace aer::obs {

class Tracer : public TraceCollector {  // aer-lint: allow(tracer-shim)
 public:
  // Near the old 4096-span ring's footprint (a span is 2-4 records).
  Tracer()  // aer-lint: allow(tracer-shim)
      : TraceCollector({.capacity = 4 * 4096}) {}
  std::int64_t completed_count() const { return recorded_count(); }
};

}  // namespace aer::obs

#endif  // AER_OBS_TRACER_H_
