// Double Q-learning tests: the twin-table update must preserve the learned
// policy while decoupling bootstrap selection from valuation.
#include <gtest/gtest.h>

#include "rl/qlearning.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;

RecoveryProcess MakeProcess(std::vector<std::pair<RepairAction, SimTime>>
                                attempts_with_costs,
                            SymptomId symptom, MachineId machine,
                            SimTime start) {
  std::vector<SymptomEvent> symptoms = {{start, symptom}};
  std::vector<ActionAttempt> attempts;
  SimTime t = start + 50;
  for (const auto& [action, cost] : attempts_with_costs) {
    attempts.push_back({action, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(machine, std::move(symptoms), std::move(attempts),
                         t);
}

struct Fixture {
  SymptomTable symptoms;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  SimulationPlatform platform;

  static std::vector<RecoveryProcess> Build() {
    std::vector<RecoveryProcess> out;
    SimTime start = 0;
    MachineId m = 0;
    for (int i = 0; i < 50; ++i) {
      out.push_back(MakeProcess({{Y, 900}, {B, 2400}}, 0, m++, start));
      start += 10;
    }
    return out;
  }

  Fixture()
      : processes(Build()),
        catalog(processes, 40),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("stuck");
  }
};

TrainerConfig Config(bool double_q) {
  TrainerConfig config;
  config.double_q = double_q;
  config.max_sweeps = 12000;
  config.min_sweeps = 2000;
  config.check_every = 200;
  config.stable_checks = 10;
  config.seed = 5;
  return config;
}

TEST(MergeTablesByMeanTest, AveragesSharedEntriesCopiesExclusive) {
  QTable a;
  QTable b;
  a.Update(1, Y, 100.0);
  b.Update(1, Y, 300.0);
  a.Update(2, B, 50.0);   // only in a
  b.Update(3, B, 70.0);   // only in b
  const QTable merged = MergeTablesByMean(a, b);
  EXPECT_DOUBLE_EQ(merged.Q(1, Y), 200.0);
  EXPECT_DOUBLE_EQ(merged.Q(2, B), 50.0);
  EXPECT_DOUBLE_EQ(merged.Q(3, B), 70.0);
  EXPECT_EQ(merged.num_states(), 3u);
}

TEST(DoubleQTest, LearnsTheSamePolicyAsSingleQ) {
  Fixture fx;
  const QLearningTrainer single(fx.platform, fx.processes, Config(false));
  const QLearningTrainer twin(fx.platform, fx.processes, Config(true));
  const TypeTrainingResult a = single.TrainType(0);
  const TypeTrainingResult b = twin.TrainType(0);
  ASSERT_FALSE(a.sequence.empty());
  ASSERT_FALSE(b.sequence.empty());
  EXPECT_EQ(a.sequence.front(), B);
  EXPECT_EQ(b.sequence.front(), B);
}

TEST(DoubleQTest, MergedValuesApproximateTrueCosts) {
  Fixture fx;
  const QLearningTrainer twin(fx.platform, fx.processes, Config(true));
  QTable merged;
  twin.TrainType(0, &merged);
  const StateKey root = EncodeState(0, {});
  ASSERT_TRUE(merged.Has(root, B));
  EXPECT_NEAR(merged.Q(root, B), 2400.0, 150.0);
  ASSERT_TRUE(merged.Has(root, Y));
  EXPECT_NEAR(merged.Q(root, Y), 3300.0, 250.0);
}

TEST(DoubleQTest, DeterministicForSeed) {
  Fixture fx;
  const QLearningTrainer twin(fx.platform, fx.processes, Config(true));
  const TypeTrainingResult a = twin.TrainType(0);
  const TypeTrainingResult b = twin.TrainType(0);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.sweeps, b.sweeps);
}

TEST(DoubleQDeathTest, IncompatibleWithTdLambda) {
  Fixture fx;
  TrainerConfig config = Config(true);
  config.td_lambda = 0.5;
  EXPECT_DEATH(QLearningTrainer(fx.platform, fx.processes, config),
               "AER_CHECK");
}

}  // namespace
}  // namespace aer
