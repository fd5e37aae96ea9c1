// The serve_fleet loop: replays a logged fleet stream through the online
// decision path (RecoveryManager over a policy), one process at a time in
// start order, each process's symptoms and action results in sim-time order.
//
// The loop plays the fleet: it reports the logged symptoms, asks the manager
// for an action, waits the action's mean duration and reports the result.
// An action cures if it is at least as strong as the action that cured the
// logged process (the paper's stronger-covers-weaker hypothesis), so RMA
// always cures and every served process closes within the N-cap.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/policy.h"
#include "core/recovery_manager.h"
#include "log/recovery_process.h"
#include "spans.h"

namespace perfbench {

struct ServedProcess {
  aer::MachineId machine = 0;
  // Logged symptoms, time-ordered; the first opens the process.
  std::vector<aer::SymptomEvent> symptoms;
  aer::SimTime first_action = 0;  // when the fleet first asks for an action
  aer::RepairAction cure = aer::RepairAction::kRma;  // logged curing action
  aer::SimTime logged_downtime = 0;
};

struct ServeInput {
  std::vector<ServedProcess> processes;  // start order
  const aer::SymptomTable* symptoms = nullptr;
  aer::MachineId max_machine = 0;
  std::int64_t logged_calls = 0;  // calls a pass makes if it matched the log
  std::uint64_t trace_seed = 0;   // seeds the processes' trace ids
};

// Builds the served stream from segmented processes (start order). Processes
// without a repair action (the machine recovered on its own) are skipped.
ServeInput BuildServeInput(std::span<const aer::RecoveryProcess> processes,
                           const aer::SymptomTable& symptoms,
                           std::uint64_t trace_seed);

// The cure rule: `chosen` cures a process the log cured with `logged_cure`
// iff it is at least as strong.
bool Cures(aer::RepairAction chosen, aer::RepairAction logged_cure);

// Sim-time from dispatching `action` to its result: the catalog's mean
// action duration (cluster/fault_catalog.h ActionDurationDefaults).
aer::SimTime ActionDuration(aer::RepairAction action);

struct ServeOptions {
  // Attach a Tracer, a MetricsRegistry and a TraceCollector to the manager,
  // the way the control plane does.
  bool observers = true;
  // Traced pass: one span per manager call. Untraced passes time every call
  // into ServeResult::latency_us instead.
  SpanRecorder* spans = nullptr;
};

struct ServeResult {
  std::uint64_t checksum = 0;    // FNV-1a over the decision stream
  std::int64_t calls = 0;        // manager calls made
  std::int64_t failed = 0;       // calls the manager mishandled
  std::int64_t served = 0;       // processes served
  std::int64_t completed = 0;    // manager stats().processes_completed
  double served_downtime = 0.0;  // Σ sim-time from first symptom to cure
  double logged_downtime = 0.0;
  std::vector<float> latency_us;  // µs, one per call in untraced passes
  std::int64_t history_size_max = 0;
  std::int64_t history_evictions = 0;
  std::int64_t trace_records = 0;  // spans + records the observers kept
};

// One pass over the whole stream with a fresh manager over `policy`.
ServeResult RunServePass(const ServeInput& input, aer::RecoveryPolicy& policy,
                         const ServeOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
