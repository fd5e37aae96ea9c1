#include "sim/platform.h"

#include "common/check.h"

namespace aer {

SimulationPlatform::SimulationPlatform(
    std::span<const RecoveryProcess> processes, const ErrorTypeCatalog& types,
    const SymptomTable& symptoms, int max_actions_per_process,
    const CapabilityModel& capabilities)
    : types_(types),
      symptoms_(symptoms),
      estimator_(processes, types),
      max_actions_(max_actions_per_process),
      capabilities_(capabilities) {
  AER_CHECK_GE(max_actions_, 1);
}

SimulationPlatform::ReplayOutcome SimulationPlatform::ReplayPolicy(
    const RecoveryProcess& process, RecoveryPolicy& policy) const {
  const ErrorTypeId type = types_.Classify(process);
  ProcessReplay replay(process, type, estimator_, capabilities_);

  std::vector<RepairAction> tried;
  ReplayOutcome outcome;
  while (!replay.cured()) {
    RepairAction action;
    if (static_cast<int>(tried.size()) >= max_actions_ - 1) {
      action = RepairAction::kRma;  // the paper's N-cap: request manual repair
      outcome.forced_manual = true;
    } else {
      RecoveryContext ctx;
      ctx.machine = process.machine();
      ctx.initial_symptom = process.initial_symptom();
      ctx.initial_symptom_name = symptoms_.Name(process.initial_symptom());
      ctx.tried = tried;
      ctx.process_start = process.start_time();
      ctx.now = process.start_time() + static_cast<SimTime>(replay.total_cost());
      ctx.last_recovery_end = -1;  // machine history is not in the log
      action = policy.ChooseAction(ctx);
    }
    replay.Step(action);
    tried.push_back(action);
  }
  outcome.cost = replay.total_cost();
  outcome.steps = replay.steps();
  if (obs_.replays != nullptr) {
    obs_.replays->Inc();
    if (outcome.forced_manual) obs_.forced_manual->Inc();
    obs_.cost->Observe(outcome.cost);
  }
  return outcome;
}

void SimulationPlatform::SetObservers(const obs::Observers& observers) {
  obs::MetricsRegistry* metrics = observers.metrics;
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.replays = &metrics->GetCounter("aer_replay_total");
  obs_.forced_manual = &metrics->GetCounter("aer_replay_forced_manual_total");
  obs_.cost = &metrics->GetHistogram("aer_replay_cost_seconds");
}

std::vector<SimulationPlatform::ValidationRow>
SimulationPlatform::ValidateAgainstLog(
    std::span<const RecoveryProcess> processes, RecoveryPolicy& policy) const {
  std::vector<ValidationRow> rows(types_.num_types());
  for (std::size_t t = 0; t < rows.size(); ++t) {
    rows[t].type = static_cast<ErrorTypeId>(t);
  }
  for (const RecoveryProcess& p : processes) {
    if (p.attempts().empty()) continue;  // nothing to replay
    const ErrorTypeId type = types_.Classify(p);
    if (type == kInvalidErrorType) continue;
    ValidationRow& row = rows[static_cast<std::size_t>(type)];
    row.actual_cost += static_cast<double>(p.downtime());
    row.estimated_cost += ReplayPolicy(p, policy).cost;
    ++row.process_count;
  }
  for (ValidationRow& row : rows) {
    row.ratio = row.actual_cost > 0 ? row.estimated_cost / row.actual_cost
                                    : 0.0;
  }
  return rows;
}

}  // namespace aer
