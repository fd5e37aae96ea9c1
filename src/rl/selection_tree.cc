#include "rl/selection_tree.h"

#include "common/check.h"

namespace aer {
namespace {

void Enumerate(const QTable& table, ErrorTypeId type, int max_actions,
               const SelectionTreeConfig& config, ActionSequence& prefix,
               std::vector<ActionSequence>& out) {
  if (out.size() >= config.max_candidates) return;
  if (static_cast<int>(prefix.size()) >= max_actions) {
    out.push_back(prefix);
    return;
  }
  const StateKey s = EncodeState(type, prefix);
  const auto best2 = table.BestTwoActions(s);
  if (!best2.has_value()) {
    // Unexplored state: the path ends here.
    out.push_back(prefix);
    return;
  }

  // Candidate actions of this node: the best, plus the second best when its
  // expected total cost is close enough.
  RepairAction candidates[2];
  int n = 0;
  candidates[n++] = best2->best;
  if (best2->second.has_value() &&
      best2->second_q <= best2->best_q * (1.0 + config.closeness_threshold)) {
    candidates[n++] = *best2->second;
  }

  for (int i = 0; i < n; ++i) {
    prefix.push_back(candidates[i]);
    if (candidates[i] == RepairAction::kRma) {
      if (out.size() < config.max_candidates) out.push_back(prefix);
    } else {
      Enumerate(table, type, max_actions, config, prefix, out);
    }
    prefix.pop_back();
  }
}

}  // namespace

std::vector<ActionSequence> BuildCandidateSequences(
    const QTable& table, ErrorTypeId type, int max_actions,
    const SelectionTreeConfig& config) {
  std::vector<ActionSequence> out;
  ActionSequence prefix;
  Enumerate(table, type, max_actions, config, prefix, out);
  return out;
}

SelectionTreeTrainer::SelectionTreeTrainer(const QLearningTrainer& base,
                                           SelectionTreeConfig config)
    : base_(base), config_(config) {
  AER_CHECK_GE(config_.closeness_threshold, 0.0);
  AER_CHECK_GT(config_.max_candidates, 0u);
  AER_CHECK_GT(config_.stable_checks, 0);
}

ActionSequence SelectionTreeTrainer::Scan(const QTable& table,
                                          ErrorTypeId type,
                                          PrefixPriceMemo& memo) const {
  const TrainerConfig& tc = base_.config();
  std::vector<ActionSequence> candidates =
      BuildCandidateSequences(table, type, tc.max_actions, config_);
  if (config_.seed_escalation_candidates) {
    const std::vector<RepairAction> allowed =
        base_.platform().estimator().ObservedActions(type);
    for (std::size_t start = 0; start < allowed.size(); ++start) {
      // Escalate from allowed[start] upward, trying each level twice
      // (covering repeated-requirement incidents).
      ActionSequence seq;
      for (std::size_t i = start; i < allowed.size(); ++i) {
        seq.push_back(allowed[i]);
        if (allowed[i] != RepairAction::kRma) seq.push_back(allowed[i]);
      }
      candidates.push_back(std::move(seq));
    }
  }

  return CheapestPrefix(candidates, base_.processes_of(type), type,
                        base_.platform().estimator(), tc.max_actions,
                        base_.platform().capabilities(), memo);
}

QLearningTrainer::PolicyReadout SelectionTreeTrainer::Readout() const {
  // The scan is the expensive read, so a run returns its last scan rather
  // than scanning the final table again.
  return {.read = [this](const QTable& table, ErrorTypeId type,
                         PrefixPriceMemo& memo) {
            return Scan(table, type, memo);
          },
          .stable_checks = config_.stable_checks,
          .reread_final = false};
}

TypeTrainingResult SelectionTreeTrainer::TrainType(ErrorTypeId type,
                                                   QTable* table_out) const {
  return base_.Train(type, Readout(), table_out);
}

QLearningTrainer::TrainingOutput SelectionTreeTrainer::TrainAll() const {
  return base_.TrainAll(Readout());
}

}  // namespace aer
