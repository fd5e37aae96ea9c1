// Parallel per-error-type training (docs/PARALLELISM.md).
//
// The paper trains one Q-table per error type on that type's recovery
// processes only (Section 4) — types never share state, so training is
// embarrassingly parallel across types. This layer shards TrainAll() by
// ErrorTypeId over a ThreadPool: each shard runs the *serial* trainer's own
// TrainType() with the type's RNG stream derived from the master seed
// (DeriveStream in common/rng.h), and the shards are merged back by the
// serial trainers' own catalog-order AssembleTrainingOutput(). Because a
// shard's draws depend only on (master seed, type) and the
// merge order is fixed, the output — policy, per-type telemetry, and every
// serialized Q-table byte — is identical to the serial trainer's for any
// thread count, including 1. tests/rl/parallel_trainer_test.cc enforces
// this equivalence contract across seeds and thread counts.
#ifndef AER_RL_PARALLEL_TRAINER_H_
#define AER_RL_PARALLEL_TRAINER_H_

#include "common/thread_pool.h"
#include "rl/selection_tree.h"

namespace aer {

class ParallelTrainer {
 public:
  // Shards the plain Q-learning trainer (greedy policy generation). The
  // referenced trainer and pool must outlive this object.
  ParallelTrainer(const QLearningTrainer& base, ThreadPool& pool);

  // Shards the selection-tree trainer (Section 5.3 policy generation).
  ParallelTrainer(const SelectionTreeTrainer& tree, ThreadPool& pool);

  // Drop-in parallel TrainAll(): bit-identical to the serial counterpart.
  // With `tables_out` non-null, also captures every type's final Q-table
  // (indexed by ErrorTypeId) for inspection and the equivalence tests.
  QLearningTrainer::TrainingOutput TrainAll(
      std::vector<QTable>* tables_out = nullptr) const;

  // Total episodes rolled out by the last TrainAll() call (Σ per-type
  // episodes) — the numerator of the benches' episodes/sec.
  static std::int64_t TotalEpisodes(
      const QLearningTrainer::TrainingOutput& output);

 private:
  const QLearningTrainer& base_;
  const SelectionTreeTrainer* tree_;  // null => plain greedy generation
  ThreadPool& pool_;
};

}  // namespace aer

#endif  // AER_RL_PARALLEL_TRAINER_H_
