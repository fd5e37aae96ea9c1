#include "rl/sequence.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/check.h"

namespace aer {

namespace {

// A replay partway through a sequence, with what terminalization needs.
struct SequenceProgress {
  ProcessReplay replay;
  RepairAction strongest = RepairAction::kTryNop;
  std::array<int, kNumActions> used = {};

  // Executes `a` as the sequence's next action unless the process is cured
  // or only the cap's manual-repair slot is left. False if `a` was skipped.
  bool Advance(RepairAction a, int max_actions) {
    if (replay.cured() || replay.steps() >= max_actions - 1) return false;
    replay.Step(a);
    ++used[static_cast<std::size_t>(ActionIndex(a))];
    if (ActionStrength(a) > ActionStrength(strongest)) strongest = a;
    return true;
  }
};

// Steps `progress.replay`, a sequence's exhausted replay, to the end of the
// recovery and returns its total simulated downtime: under kEscalate keep
// escalating from the strongest level the sequence reached, with each level
// tried up to twice overall (counting the sequence's own uses of it), manual
// repair once; then manual repair at the cap if still uncured. `observed` is
// the type's ObservedActions.
double Terminalize(SequenceProgress& progress,
                   std::span<const RepairAction> observed, int max_actions,
                   Terminalization terminalization) {
  ProcessReplay& replay = progress.replay;
  if (!replay.cured() && terminalization == Terminalization::kEscalate) {
    for (RepairAction a : observed) {
      if (!AtLeastAsStrong(a, progress.strongest)) continue;
      const int budget = a == RepairAction::kRma ? 1 : 2;
      const int tries =
          budget - progress.used[static_cast<std::size_t>(ActionIndex(a))];
      for (int i = 0; i < tries; ++i) {
        if (replay.cured() || replay.steps() >= max_actions - 1) break;
        replay.Step(a);
      }
      if (replay.cured()) break;
    }
  }
  if (!replay.cured()) {
    replay.Step(RepairAction::kRma);  // forced manual repair at the cap
  }
  return replay.total_cost();
}

double MeanCost(const SequenceEvaluation& eval) {
  return eval.processes > 0
             ? eval.total_cost / static_cast<double>(eval.processes)
             : 0.0;
}

// Adds the prices of every prefix of `candidate` missing from `memo`, each
// exactly as EvaluateSequence(prefix, ..., kEscalate) prices it, with one
// replay walk per process: the replay steps along the candidate and, at each
// missing prefix length, is terminalized and rewound. Once the replay is
// cured or capped it stops moving, so every longer prefix costs what the
// last one did. Costs are summed over processes in their order, as
// EvaluateSequence sums them.
void PricePrefixes(std::span<const RepairAction> candidate,
                   std::span<const RecoveryProcess* const> processes,
                   ErrorTypeId type, const CostEstimator& estimator,
                   int max_actions, const CapabilityModel& capabilities,
                   PrefixPriceMemo& memo) {
  // The memo is prefix-closed (a walk adds every prefix its candidate was
  // missing), so the priced prefixes of `candidate` are its first `priced`.
  std::size_t priced = candidate.size();
  while (priced > 0 &&
         !memo.contains(ActionSequence(candidate.begin(),
                                       candidate.begin() + priced))) {
    --priced;
  }
  if (priced == candidate.size()) return;

  AER_CHECK_GE(max_actions, 1);
  const std::vector<RepairAction> observed = estimator.ObservedActions(type);
  std::vector<SequenceEvaluation> evals(candidate.size());
  for (const RecoveryProcess* p : processes) {
    SequenceProgress progress{
        ProcessReplay(*p, type, estimator, capabilities)};
    double cost = 0.0;
    for (std::size_t k = 0; k < candidate.size(); ++k) {
      const bool moved = progress.Advance(candidate[k], max_actions);
      if (k < priced) continue;
      if (moved || k == priced) {
        const ProcessReplay::Mark mark = progress.replay.Save();
        cost = Terminalize(progress, observed, max_actions,
                           Terminalization::kEscalate);
        progress.replay.Rewind(mark);
      }
      SequenceEvaluation& eval = evals[k];
      eval.total_cost += cost;
      (progress.replay.cured() ? eval.cured_by_sequence : eval.terminalized) +=
          1;
      ++eval.processes;
    }
  }
  for (std::size_t k = priced; k < candidate.size(); ++k) {
    evals[k].mean_cost = MeanCost(evals[k]);
    memo.emplace(ActionSequence(candidate.begin(), candidate.begin() + k + 1),
                 evals[k]);
  }
}

}  // namespace

double SequenceCostOnProcess(std::span<const RepairAction> sequence,
                             const RecoveryProcess& process, ErrorTypeId type,
                             const CostEstimator& estimator, int max_actions,
                             Terminalization terminalization,
                             bool* cured_by_sequence,
                             const CapabilityModel& capabilities) {
  AER_CHECK_GE(max_actions, 1);
  SequenceProgress progress{
      ProcessReplay(process, type, estimator, capabilities)};
  for (RepairAction a : sequence) {
    if (!progress.Advance(a, max_actions)) break;
  }
  if (cured_by_sequence != nullptr) {
    *cured_by_sequence = progress.replay.cured();
  }
  return Terminalize(progress, estimator.ObservedActions(type), max_actions,
                     terminalization);
}

SequenceEvaluation EvaluateSequence(
    std::span<const RepairAction> sequence,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    Terminalization terminalization,
    const CapabilityModel& capabilities) {
  SequenceEvaluation eval;
  for (const RecoveryProcess* p : processes) {
    bool cured = false;
    eval.total_cost += SequenceCostOnProcess(sequence, *p, type, estimator,
                                             max_actions, terminalization,
                                             &cured, capabilities);
    (cured ? eval.cured_by_sequence : eval.terminalized) += 1;
    ++eval.processes;
  }
  eval.mean_cost = MeanCost(eval);
  return eval;
}

ActionSequence CheapestPrefix(
    std::span<const ActionSequence> candidates,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities, PrefixPriceMemo& memo) {
  std::set<ActionSequence> scored;
  for (const ActionSequence& candidate : candidates) {
    PricePrefixes(candidate, processes, type, estimator, max_actions,
                  capabilities, memo);
    for (auto end = candidate.begin(); end != candidate.end();) {
      scored.insert(ActionSequence(candidate.begin(), ++end));
    }
  }
  ActionSequence best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::int64_t best_cured = -1;
  for (const ActionSequence& seq : scored) {
    const auto priced = memo.find(seq);
    AER_CHECK(priced != memo.end()) << "prefix scored but never priced";
    const SequenceEvaluation& eval = priced->second;
    // Preferring self-contained cures, then brevity, drops dead tails
    // (actions past the point where every process is already cured) while
    // keeping genuinely-curing ones.
    const bool better =
        eval.mean_cost < best_cost - 1e-9 ||
        (eval.mean_cost < best_cost + 1e-9 &&
         (eval.cured_by_sequence > best_cured ||
          (eval.cured_by_sequence == best_cured &&
           seq.size() < best.size())));
    if (better) {
      best_cost = eval.mean_cost;
      best_cured = eval.cured_by_sequence;
      best = seq;
    }
  }
  return best;
}

namespace {

class ExactSearcher {
 public:
  ExactSearcher(std::span<const RecoveryProcess* const> processes,
                ErrorTypeId type, const CostEstimator& estimator,
                int max_actions, const ExactSearchConfig& config)
      : processes_(processes),
        type_(type),
        estimator_(estimator),
        max_actions_(max_actions),
        config_(config),
        allowed_(estimator.ObservedActions(type)) {}

  ActionSequence Run() {
    best_cost_ = std::numeric_limits<double>::infinity();
    best_cured_ = -1;
    ActionSequence prefix;
    Consider(prefix);  // the empty sequence (immediate terminalization)
    Descend(prefix);
    return best_;
  }

 private:
  // Cost of the bare prefix: no terminalization, uncured processes pay only
  // what the prefix spent on them. A lower bound for every extension.
  double PrefixLowerBound(std::span<const RepairAction> prefix,
                          bool* all_cured) const {
    double total = 0.0;
    bool cured_all = true;
    for (const RecoveryProcess* p : processes_) {
      ProcessReplay replay(*p, type_, estimator_);
      int steps = 0;
      for (RepairAction a : prefix) {
        if (replay.cured() || steps >= max_actions_ - 1) break;
        replay.Step(a);
        ++steps;
      }
      cured_all = cured_all && replay.cured();
      total += replay.total_cost();
    }
    *all_cured = cured_all;
    return total;
  }

  void Consider(std::span<const RepairAction> prefix) {
    double total = 0.0;
    std::int64_t cured = 0;
    for (const RecoveryProcess* p : processes_) {
      bool cured_by_seq = false;
      total += SequenceCostOnProcess(prefix, *p, type_, estimator_,
                                     max_actions_, config_.terminalization,
                                     &cured_by_seq);
      cured += cured_by_seq ? 1 : 0;
    }
    // Order: cost, then self-contained cures (more is better — the policy
    // should not rely on terminalization for incidents it can finish), then
    // shorter (dead tails never appear in the optimum).
    const bool better =
        total < best_cost_ - 1e-9 ||
        (total < best_cost_ + 1e-9 &&
         (cured > best_cured_ ||
          (cured == best_cured_ && prefix.size() < best_.size())));
    if (better) {
      best_cost_ = total;
      best_cured_ = cured;
      best_.assign(prefix.begin(), prefix.end());
    }
  }

  void Descend(ActionSequence& prefix) {
    if (static_cast<int>(prefix.size()) >= config_.max_length ||
        static_cast<int>(prefix.size()) >= max_actions_ - 1) {
      return;
    }
    bool all_cured = false;
    const double lower_bound = PrefixLowerBound(prefix, &all_cured);
    if (all_cured || lower_bound >= best_cost_) return;

    for (RepairAction a : allowed_) {
      prefix.push_back(a);
      Consider(prefix);
      Descend(prefix);
      prefix.pop_back();
    }
  }

  std::span<const RecoveryProcess* const> processes_;
  ErrorTypeId type_;
  const CostEstimator& estimator_;
  int max_actions_;
  ExactSearchConfig config_;
  std::vector<RepairAction> allowed_;

  double best_cost_ = 0.0;
  std::int64_t best_cured_ = -1;
  ActionSequence best_;
};

}  // namespace

ActionSequence ExactBestSequence(
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const ExactSearchConfig& config) {
  AER_CHECK(!processes.empty());
  return ExactSearcher(processes, type, estimator, max_actions, config).Run();
}

}  // namespace aer
