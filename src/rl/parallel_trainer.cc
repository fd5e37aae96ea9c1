#include "rl/parallel_trainer.h"

#include <utility>

#include "common/profiler.h"

namespace aer {

ParallelTrainer::ParallelTrainer(const QLearningTrainer& base,
                                 ThreadPool& pool)
    : base_(base), tree_(nullptr), pool_(pool) {}

ParallelTrainer::ParallelTrainer(const SelectionTreeTrainer& tree,
                                 ThreadPool& pool)
    : base_(tree.base()), tree_(&tree), pool_(pool) {}

QLearningTrainer::TrainingOutput ParallelTrainer::TrainAll(
    std::vector<QTable>* tables_out) const {
  AER_PROFILE_SCOPE("train_all_parallel");
  const std::size_t num_types = base_.platform().types().num_types();

  // Phase 1 — the shards. Every type is an independent pure function of
  // (master seed, type): TrainType() builds its own RNG, Q-table(s) and
  // episode buffers, and reads only the shared immutable platform, so the
  // pool may run them in any order on any thread.
  std::vector<TypeTrainingResult> per_type(num_types);
  std::vector<QTable> tables(num_types);
  pool_.ParallelFor(num_types, [&](std::size_t t) {
    const ErrorTypeId type = static_cast<ErrorTypeId>(t);
    per_type[t] = tree_ != nullptr ? tree_->TrainType(type, &tables[t])
                                   : base_.TrainType(type, &tables[t]);
  });

  // Phase 2 — the merge, single-threaded: the catalog-order assembly every
  // serial TrainAll() uses, so the serialized policy is byte-identical.
  QLearningTrainer::TrainingOutput output =
      AssembleTrainingOutput(base_.platform(), std::move(per_type));
  if (tables_out != nullptr) *tables_out = std::move(tables);
  return output;
}

std::int64_t ParallelTrainer::TotalEpisodes(
    const QLearningTrainer::TrainingOutput& output) {
  std::int64_t total = 0;
  for (const TypeTrainingResult& r : output.per_type) total += r.episodes;
  return total;
}

}  // namespace aer
