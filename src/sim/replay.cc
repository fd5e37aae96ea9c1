#include "sim/replay.h"

#include "common/check.h"

namespace aer {

ProcessReplay::ProcessReplay(const RecoveryProcess& process, ErrorTypeId type,
                             const CostEstimator& estimator,
                             const CapabilityModel& capabilities)
    : process_(process),
      type_(type),
      estimator_(estimator),
      capabilities_(capabilities),
      required_(CorrectActions(process)) {
  for (const ActionAttempt& attempt : process.attempts()) {
    occurrence_costs_[static_cast<std::size_t>(ActionIndex(attempt.action))]
        .push_back(static_cast<double>(attempt.cost));
  }
  Reset();
}

void ProcessReplay::Reset() {
  consumed_ = {};
  executed_.clear();
  cured_ = false;
  total_cost_ = static_cast<double>(process_.detection_delay());
}

ProcessReplay::Mark ProcessReplay::Save() const {
  return {executed_.size(), consumed_, cured_, total_cost_};
}

void ProcessReplay::Rewind(const Mark& mark) {
  AER_CHECK_LE(mark.steps, executed_.size());
  executed_.resize(mark.steps);
  consumed_ = mark.consumed;
  cured_ = mark.cured;
  total_cost_ = mark.total_cost;
}

ProcessReplay::StepResult ProcessReplay::Step(RepairAction action) {
  AER_CHECK(!cured_) << "Step(" << ActionName(action)
                     << ") after the process was already cured";
  executed_.push_back(action);

  // Cure check first, so the cost estimate can be outcome-conditional.
  const bool cured =
      action == RepairAction::kRma ||
      CoversRequirementsUnder(executed_, required_, capabilities_);

  // Price the step: actual logged cost when this occurrence of the action
  // exists in the process, per-type average otherwise.
  const auto idx = static_cast<std::size_t>(ActionIndex(action));
  double cost;
  if (consumed_[idx] < occurrence_costs_[idx].size()) {
    cost = occurrence_costs_[idx][consumed_[idx]];
    ++consumed_[idx];
  } else {
    cost = estimator_.EstimateCost(type_, action, cured);
  }

  cured_ = cured;
  total_cost_ += cost;
  return {cost, cured};
}

}  // namespace aer
