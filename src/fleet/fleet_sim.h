// Discrete-event simulator of a large cluster under automatic recovery.
//
// This is the substitute for the paper's production environment: thousands
// of machines, Poisson fault arrivals drawn from the fault catalog, symptom
// emission, fault detection after a monitoring delay, and a recovery loop
// driven by a pluggable RecoveryPolicy. Every observable event is appended
// to a RecoveryLog in the paper's <time, machine, description> format; the
// ground truth (which fault actually occurred) is returned separately and is
// used only by tests and calibration, never by the learning pipeline. The
// N-th repair action of a process is always manual repair (RMA), which ends
// the process. Events run off a binary-heap queue (fleet/event_queue.h) over
// SoA machine state.
//
// Two run modes, two determinism guarantees (docs/FLEET_SIM.md):
//
//  RunSeedCompat() — single-queue replay of the seed engine's exact draw
//    order (the repository's original simulator, whose output is pinned by
//    golden fingerprints in tests/cluster/fleet_equivalence_test.cc). Every
//    trace the learning pipeline consumes comes from this mode
//    (GenerateTrace), and it accepts stateful, learning policies.
//
//  Run() — the scale path. The fleet is split into contiguous machine-ID
//    shards; each machine owns an independent RNG stream
//    (DeriveStream(seed, machine)) and its own Poisson arrival chain (by
//    superposition, per-machine arrivals at rate 1/mtbf are exactly the
//    seed's fleet-level Poisson process). Shards run on the work-stealing
//    ThreadPool and a serial merge in machine-ID order assembles the
//    result, so the RecoveryLog and SimulationResult are byte-identical
//    for ANY thread count and ANY shard count. The one semantic difference
//    from compat mode: a fault arriving at a machine that is already
//    down is skipped (counted in fault_arrivals_skipped) instead of being
//    redirected to a random healthy machine — victim redirection is global
//    state that would serialize the shards.
//
// Run() invokes the policy concurrently from shard threads, so it requires
// ChooseAction to be pure (the documented RecoveryPolicy contract) and
// OnActionOutcome to be state-free. All shipped stateless policies
// (UserDefinedPolicy, TrainedPolicy, HybridPolicy) qualify; learning
// policies (rl/online_policy.h) must use RunSeedCompat or an external lock.
#ifndef AER_FLEET_FLEET_SIM_H_
#define AER_FLEET_FLEET_SIM_H_

#include <cstdint>

#include "cluster/cluster_sim.h"
#include "cluster/fault_model.h"
#include "cluster/fleet_state.h"
#include "cluster/policy.h"
#include "common/thread_pool.h"
#include "fleet/shard_merge.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "obs/trace_collector.h"

namespace aer::fleet {

// Interned symptom-id / fault-sampling tables shared by all shards of one
// run; defined in fleet_sim.cc.
struct FleetSimTables;

struct FleetSimConfig {
  // The workload parameters, shared verbatim with the seed engine.
  ClusterSimConfig sim;
  // Shard count for Run(). <= 0 derives a count from the fleet size alone
  // (deterministic in the config, never in the host's core count — shard
  // boundaries feed nothing into the output, but keeping the resolved
  // value config-pure keeps the aer_fleet_shards gauge reproducible).
  int num_shards = 0;
};

class FleetSimulator {
 public:
  FleetSimulator(FleetSimConfig config, FaultCatalog catalog);

  // Sharded run. `pool` supplies the worker threads (the calling thread
  // participates); nullptr runs the shards serially. Output is identical
  // either way.
  SimulationResult Run(RecoveryPolicy& policy, ThreadPool* pool = nullptr);

  // Seed-compatibility mode: one queue, one RNG stream, the seed engine's
  // output byte for byte. Deterministic for a given (config seed, catalog,
  // policy); the policy is invoked in deterministic event order.
  SimulationResult RunSeedCompat(RecoveryPolicy& policy);

  // Attaches the metrics and trace-collector sinks; both must outlive the
  // runs. The aer_fleet_* metrics are folded in after the run, so
  // instrumentation never feeds back into the simulation. Each recovery
  // process whose deterministic id passes the collector's head sampling
  // contributes incident/symptom/action/cure records, buffered per shard and
  // merged after the pool barrier (MergeShards) — so the collector contents
  // are byte-identical for any thread count.
  void SetObservers(const obs::Observers& observers) {
    metrics_ = observers.metrics;
    traces_ = observers.traces;
  }

  const FaultCatalog& catalog() const { return catalog_; }

  // The shard count Run() will use (config_.num_shards resolved).
  int num_shards() const;

 private:
  void RunShard(int shard, int num_shards, const FleetSimTables& tables,
                FleetState& state, RecoveryPolicy& policy,
                ShardMerger& merger) const;
  // Serial merge in shard (machine-ID) order + final sorts + metric fold.
  void Finalize(std::vector<ShardOutput> outputs, int shards_used,
                SimulationResult& result);

  FleetSimConfig config_;
  FaultCatalog catalog_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceCollector* traces_ = nullptr;
};

}  // namespace aer::fleet

#endif  // AER_FLEET_FLEET_SIM_H_
