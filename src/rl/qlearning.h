// Offline Q-learning on the recovery log — the paper's Figure 2 algorithm.
//
// For each error type: repeatedly sample a logged recovery process of that
// type, roll out an episode against the simulation platform choosing actions
// by Boltzmann exploration over the current Q values, record the transitions
// and apply the visit-counted TD(0) update along the episode. The episode is
// capped at N actions, the last slot always being manual repair, so every
// producible policy is proper and the values contract.
//
// Exploration is restricted to the actions observed in the training log for
// the type (others have no cost data) — the reason the result is a *local*
// optimum relative to the original user-defined policy.
#ifndef AER_RL_QLEARNING_H_
#define AER_RL_QLEARNING_H_

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "common/stats.h"
#include "rl/boltzmann.h"
#include "rl/policy.h"
#include "rl/qtable.h"
#include "sim/platform.h"

namespace aer {

struct TrainerConfig {
  // The paper's N (Section 3.2: N = 20).
  int max_actions = 20;
  TemperatureSchedule temperature;
  // Sweep cap; Figure 13 uses 160k.
  std::int64_t max_sweeps = 160000;
  // Convergence may not be declared before this many sweeps: early in
  // training the temperature is still high and the Q values are mostly
  // noise, so apparent stability is meaningless (and the selection tree
  // would happily lock in a bad candidate set).
  std::int64_t min_sweeps = 3000;
  // Convergence detection: the greedy policy must stay unchanged for
  // `stable_checks` consecutive checks, one check every `check_every`
  // sweeps.
  std::int64_t check_every = 200;
  int stable_checks = 25;
  std::uint64_t seed = 1234;
  // 0 = the paper's α = 1/(1+visits); positive = constant learning rate
  // (ablation only, loses the convergence guarantee).
  double fixed_alpha = 0.0;
  // Discount factor. The paper sets γ = 1 so the expected cost equals MTTR
  // (Section 2.2); γ < 1 under-weights the manual-repair tail and is
  // provided for the ablation bench.
  double gamma = 1.0;
  // TD(λ): the update target for step t is the forward-view λ-return
  //   G_t^λ = (1-λ) Σ_{n≥1} λ^{n-1} G_t^{(n)}  (+ the terminal tail),
  // mixing n-step lookaheads of the episode's actual costs with the
  // bootstrapped min-Q. λ = 0 (default) is the paper's TD(0); λ = 1 is
  // Monte-Carlo (pure episode returns). Episodes are capped at N, so the
  // O(T²) per-episode computation is cheap.
  double td_lambda = 0.0;
  // Double Q-learning (van Hasselt): maintain two tables, select the
  // bootstrap action with one and value it with the other, alternating by
  // coin flip. Corrects the min-operator's systematic *underestimation* of
  // costs (the mirror image of max-Q's over-optimism). TD(0) only: the
  // trainer rejects it together with td_lambda > 0.
  bool double_q = false;
  // Collect per-sweep training telemetry (temperature, max |ΔQ|, visit
  // coverage) into TypeTrainingResult::telemetry. Pure observation: the
  // trained tables and policies are bit-identical either way (no extra RNG
  // draws), so flipping this cannot perturb an experiment.
  bool collect_telemetry = false;
};

// Per-type training telemetry (populated when collect_telemetry is set).
// Per-type values are independent of sibling types, so shards from parallel
// training merge deterministically in catalog order — see
// PublishTrainingTelemetry in rl/telemetry.h.
struct TypeTelemetry {
  RunningStat temperature;  // Boltzmann temperature, one sample per sweep
  RunningStat max_q_delta;  // max |ΔQ| across a sweep's updates, per sweep
  std::int64_t q_updates = 0;
  // Visit coverage of the final table: explored (state, action) pairs over
  // states_explored × the type's allowed-action repertoire.
  std::int64_t visited_state_actions = 0;
  std::int64_t explorable_state_actions = 0;
  double visit_coverage = 0.0;
};

struct TypeTrainingResult {
  ErrorTypeId type = kInvalidErrorType;
  // Sweep count at which the finally-stable policy first appeared (the
  // paper's "sweep number before convergence"), or the cap if never stable.
  std::int64_t sweeps = 0;
  // Episodes actually rolled out (= sweeps executed before the convergence
  // break or the cap) — the work unit behind the benches' episodes/sec.
  std::int64_t episodes = 0;
  bool converged = false;
  ActionSequence sequence;  // the generated policy for this type
  std::size_t states_explored = 0;
  std::int64_t training_processes = 0;
  TypeTelemetry telemetry;  // empty unless config.collect_telemetry
};

// Extracts the greedy action sequence for `type` from a Q table: follow the
// minimal-Q explored action from the root failure state until manual repair,
// an unexplored state, or the N cap.
ActionSequence GreedySequence(const QTable& table, ErrorTypeId type,
                              int max_actions);

// Entry-wise mean of two Q tables (entries present in only one are copied
// through) — the read-out view of Double Q-learning's twin tables.
QTable MergeTablesByMean(const QTable& a, const QTable& b);

class QLearningTrainer {
 public:
  // `training` must outlive the trainer. Processes that the catalog cannot
  // classify or that contain no repair actions are skipped.
  QLearningTrainer(const SimulationPlatform& platform,
                   std::span<const RecoveryProcess> training,
                   TrainerConfig config);

  // Trains one error type. If `table_out` is non-null the learned Q table is
  // copied there (for inspection and the selection-tree comparison).
  TypeTrainingResult TrainType(ErrorTypeId type,
                               QTable* table_out = nullptr) const;

  struct TrainingOutput {
    TrainedPolicy policy;
    std::vector<TypeTrainingResult> per_type;
  };

  // Trains every type of the platform's catalog into one deployable policy.
  TrainingOutput TrainAll() const;

  // The processes grouped under one type (for the selection-tree trainer and
  // the experiment harnesses).
  std::span<const RecoveryProcess* const> processes_of(ErrorTypeId type) const;

  const TrainerConfig& config() const { return config_; }
  const SimulationPlatform& platform() const { return platform_; }

 private:
  friend class SelectionTreeTrainer;

  // What varies between trainers; the training loop is otherwise one.
  struct PolicyReadout {
    // The policy `type` follows under the Q values in `table` (the merged
    // view under Double Q). `memo` lives for one Train call, so it holds
    // prices of `type`'s sequences only; a read that prices none ignores it.
    std::function<ActionSequence(const QTable& table, ErrorTypeId type,
                                 PrefixPriceMemo& memo)>
        read;
    // Consecutive unchanged reads, one per check, that declare convergence.
    int stable_checks = 0;
    // The policy a run returns: read the final table again, or keep the
    // last check's read. The two differ only when max_sweeps is not a
    // multiple of check_every.
    bool reread_final = true;
  };

  // The plain trainer's read-out: the greedy sequence (GreedySequence).
  PolicyReadout GreedyReadout() const;

  // The training loop (Figure 2): the sweeps on the type's DeriveStream RNG
  // stream, a policy read every check_every sweeps, convergence once
  // `readout.stable_checks` consecutive reads agree past min_sweeps.
  TypeTrainingResult Train(ErrorTypeId type, const PolicyReadout& readout,
                           QTable* table_out) const;

  // Trains every type with `readout` and assembles the policy.
  TrainingOutput TrainAll(const PolicyReadout& readout) const;

  // What every sweep of one type shares, computed once per Train call.
  struct SweepActions {
    // The type's observed actions: the exploration repertoire.
    std::vector<RepairAction> allowed;
    // Q value of an unexplored (s, a), indexed by ActionIndex(a).
    std::array<double, kNumActions> init_q = {};
  };
  SweepActions SweepActionsOf(ErrorTypeId type) const;

  // One episode: sample a process, roll out, update Q. `sweep` drives the
  // temperature. With `table_b` non-null, Double Q-learning: action
  // selection uses the mean of both tables and each transition updates one
  // of them (coin flip), bootstrapping through the other. A non-null
  // `telemetry` records the sweep's temperature and max |ΔQ| (observation
  // only — identical table bytes either way).
  void RunSweep(ErrorTypeId type,
                std::span<const RecoveryProcess* const> processes,
                const SweepActions& actions, std::int64_t sweep,
                QTable& table, Rng& rng, QTable* table_b,
                TypeTelemetry* telemetry) const;

  // Fills the coverage fields of `telemetry` from a finished table.
  void FillCoverage(ErrorTypeId type, const QTable& table,
                    TypeTelemetry& telemetry) const;

  const SimulationPlatform& platform_;
  TrainerConfig config_;
  std::vector<std::vector<const RecoveryProcess*>> by_type_;
};

// Assembles per-type results, indexed by ErrorTypeId, into one deployable
// policy in catalog order: the single merge behind every TrainAll, so symptom
// names intern in the same order whichever trainer, thread or shard produced
// the results.
QLearningTrainer::TrainingOutput AssembleTrainingOutput(
    const SimulationPlatform& platform,
    std::vector<TypeTrainingResult> per_type);

}  // namespace aer

#endif  // AER_RL_QLEARNING_H_
