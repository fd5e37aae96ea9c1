// The observability sinks of one run, passed as one value.
//
// Each instrumented component has exactly one attach point,
// SetObservers(const obs::Observers&). A component keeps the sinks it
// writes to, ignores the rest, and passes the same value on to every
// component it owns, so one call at the top of a stack attaches all of it
// (docs/OBSERVABILITY.md "Attaching observers"). Any field may be null
// (that sink is off); a non-null sink must outlive what it is attached to.
// `spans` and `traces` are two collectors: span records never enter the
// causal stream that the trace DAG and critical-path analyzer read.
#ifndef AER_OBS_OBSERVERS_H_
#define AER_OBS_OBSERVERS_H_

namespace aer::obs {

class MetricsRegistry;
class TraceCollector;
class TimeSeriesRecorder;

struct Observers {
  MetricsRegistry* metrics = nullptr;
  TraceCollector* spans = nullptr;   // span records (obs/span_view.h)
  TraceCollector* traces = nullptr;  // causal records (obs/trace_dag.h)
  TimeSeriesRecorder* timeseries = nullptr;
};

}  // namespace aer::obs

#endif  // AER_OBS_OBSERVERS_H_
