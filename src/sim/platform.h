// The simulation platform facade (Section 4.2): cost estimation plus whole-
// policy replay over logged processes, and the self-validation experiment of
// Figure 7.
//
// Holds references to the processes' symptom table and the error-type
// catalog; both must outlive the platform.
#ifndef AER_SIM_PLATFORM_H_
#define AER_SIM_PLATFORM_H_

#include <span>
#include <vector>

#include "cluster/policy.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "sim/replay.h"

namespace aer {

class SimulationPlatform {
 public:
  // Builds the cost estimator from `processes` (typically the split the
  // policy will be evaluated on, so both compared policies are priced from
  // the same statistics).
  SimulationPlatform(std::span<const RecoveryProcess> processes,
                     const ErrorTypeCatalog& types,
                     const SymptomTable& symptoms,
                     int max_actions_per_process = 20,
                     const CapabilityModel& capabilities =
                         CapabilityModel::TotalOrder());

  const CostEstimator& estimator() const { return estimator_; }
  const ErrorTypeCatalog& types() const { return types_; }
  const SymptomTable& symptoms() const { return symptoms_; }
  int max_actions_per_process() const { return max_actions_; }
  const CapabilityModel& capabilities() const { return capabilities_; }

  struct ReplayOutcome {
    double cost = 0.0;
    int steps = 0;
    // The N-cap forced a manual repair.
    bool forced_manual = false;
  };

  // Replays `policy` against one logged incident: the policy is consulted
  // exactly as online (but without machine history), each chosen action is
  // priced by ProcessReplay, and the paper's N-cap forces RMA at the last
  // slot. `process` must classify to a valid type of the platform's catalog.
  ReplayOutcome ReplayPolicy(const RecoveryProcess& process,
                             RecoveryPolicy& policy) const;

  // Attaches the metrics sink: each ReplayPolicy call feeds the
  // aer_replay_* counters and the cost histogram. Only commutative metric
  // updates are emitted, so parallel evaluation (any interleaving of
  // replays) yields byte-identical snapshots.
  void SetObservers(const obs::Observers& observers);

  struct ValidationRow {
    ErrorTypeId type = kInvalidErrorType;
    double actual_cost = 0.0;     // summed logged downtime
    double estimated_cost = 0.0;  // summed replayed cost
    double ratio = 0.0;           // estimated / actual
    std::int64_t process_count = 0;
  };

  // The Figure 7 experiment: replays `policy` (the user-defined policy that
  // produced the log) over `processes` and reports the per-type ratio of
  // estimated to actual total cost. Ratios near 1.0 validate the platform's
  // hypotheses; the paper's biggest deviation is below 5%.
  std::vector<ValidationRow> ValidateAgainstLog(
      std::span<const RecoveryProcess> processes,
      RecoveryPolicy& policy) const;

 private:
  // Cached handles resolved once in SetObservers so the (const) replay path
  // never takes the registry lock. The pointed-to metrics are thread-safe.
  struct ObsMetrics {
    obs::Counter* replays = nullptr;
    obs::Counter* forced_manual = nullptr;
    obs::Histogram* cost = nullptr;
  };

  const ErrorTypeCatalog& types_;
  const SymptomTable& symptoms_;
  CostEstimator estimator_;
  int max_actions_;
  const CapabilityModel& capabilities_;
  ObsMetrics obs_;
};

}  // namespace aer

#endif  // AER_SIM_PLATFORM_H_
