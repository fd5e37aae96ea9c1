// The benchmark's three workloads. Each builds its inputs from seeds in
// Setup() and then runs timed passes; a pass is one closed-loop call of the
// pipeline (or, for serve_fleet, the whole served stream, one manager call
// after another).
//
//   train_default  GenerateTrace at default scale, kTrainInputs traces; a
//                  pass takes one, segments, mines, filters, builds types,
//                  splits 40/60, trains the selection-tree policy on the
//                  pool and evaluates it. Training cost moves with the
//                  trace, so a run covers several traces.
//   ingest_paper   FleetSimulator on 40,000 machines x 180 days; a pass runs
//                  the same front end and audits the user-defined policy
//                  (EvaluateFull + BootstrapRatioCI), with no training.
//   serve_fleet    trains as train_default, then simulates a second
//                  40,000-machine stream; a pass serves it through
//                  RecoveryManager over HybridPolicy (serve.h).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "rl/policy.h"
#include "spans.h"

namespace perfbench {

// train_default's traces per run: input 0 uses the seeds as given, input i
// derives its trace and training seeds with aer::DeriveStream(seed, i).
inline constexpr int kTrainInputs = 12;

struct Seeds {
  std::uint64_t trace = 42;   // default-scale training trace
  std::uint64_t stream = 43;  // the 40,000-machine fleet stream
  std::uint64_t train = 42;   // Q-learning exploration
};

struct PassOptions {
  SpanRecorder* spans = nullptr;  // traced pass when set
  bool observers = true;          // serve_fleet: attach obs sinks
  int input = 0;                  // which of the workload's inputs
};

// What one pass produced.
struct PassOutput {
  // Everything the output check compares across passes; must not change.
  std::string digest;
  // Operations attempted and failed in the pass (a pass is one operation,
  // except on serve_fleet where each manager call is).
  std::int64_t attempted = 1;
  std::int64_t failed = 0;
  // Work units completed: episodes, log entries or manager calls.
  std::int64_t events = 0;
  // Policy downtime / logged downtime for the decisions the pass made.
  double relative_cost = 0.0;
  // Workload-specific values for the report (coverage, latencies ...).
  std::map<std::string, double> report;
  // Per-layer counters (every pass; the traced run reports them).
  std::map<std::string, double> layer;
  // serve_fleet: per-call latencies of the pass, microseconds.
  std::vector<float> latency_us;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs. Per-layer counters of the set-up land in layer().
  virtual void Setup(SpanRecorder* spans) = 0;
  // Number of distinct inputs Setup() builds; a pass processes one.
  virtual int inputs() const { return 1; }
  virtual PassOutput Pass(const PassOptions& options) = 0;
  // Name of the work unit behind PassOutput::events.
  virtual const char* event_unit() const = 0;

  const std::map<std::string, double>& layer() const { return layer_; }

 protected:
  std::map<std::string, double> layer_;
};

std::vector<std::string> WorkloadNames();

// The part of train_default's output check that ExperimentRunner::RunOne
// also produces: the serialized policy and both evaluations' totals. A
// train_default pass digest starts with it.
std::string TrainDigest(const aer::TrainedPolicy& policy,
                        const aer::EvalSummary& trained,
                        const aer::EvalSummary& hybrid);

// Null for an unknown name. `pool` must outlive the workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Seeds& seeds, aer::ThreadPool& pool);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
