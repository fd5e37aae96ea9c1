// Dirty-telemetry behavior of the RecoveryManager: out-of-order and
// duplicate events, per-action timeouts with backoff, flap quarantine, and
// bounded per-machine history. The clean-path behavior is covered by
// recovery_manager_test.cc.
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "core/recovery_manager.h"
#include "obs/observers.h"
#include "obs/trace_collector.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto A = RepairAction::kRma;

TEST(RecoveryManagerRobustnessTest, OutOfOrderSymptomIsClampedNotFatal) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(100, 1, "s1");
  manager.OnSymptom(50, 1, "s2");  // delayed delivery: before the watermark
  EXPECT_EQ(manager.stats().out_of_order_events, 1);
  // The log stays monotonic per process (clamped, not reordered).
  ASSERT_EQ(manager.log().size(), 2u);
  EXPECT_EQ(manager.log().entries()[1].time, 100);
}

TEST(RecoveryManagerRobustnessTest, DuplicateSymptomReportIsAbsorbed) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(100, 1, "s1");
  manager.OnSymptom(100, 1, "s1");  // monitoring delivered it twice
  EXPECT_EQ(manager.stats().duplicate_symptoms, 1);
  EXPECT_EQ(manager.log().size(), 1u);
  // A *different* symptom at the same instant is real information.
  manager.OnSymptom(100, 1, "s2");
  EXPECT_EQ(manager.log().size(), 2u);
}

TEST(RecoveryManagerRobustnessTest, DuplicateRecoveryRequestIsIdempotent) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(0, 1, "s");
  const auto first = manager.OnRecoveryNeeded(10, 1);
  const auto second = manager.OnRecoveryNeeded(11, 1);  // retransmission
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(manager.stats().actions_taken, 1);  // recorded once
  EXPECT_EQ(manager.stats().duplicate_recovery_requests, 1);
}

TEST(RecoveryManagerRobustnessTest, TimeoutFailsActionAndEscalates) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(10, 1), Y);

  // Before the deadline nothing is overdue.
  EXPECT_TRUE(manager.PollTimeouts(100).empty());
  // At/after the deadline the hung action is declared failed.
  const std::vector<MachineId> overdue = manager.PollTimeouts(110);
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0], 1);
  EXPECT_EQ(manager.stats().actions_timed_out, 1);

  // The process escalates past the timed-out action.
  EXPECT_EQ(*manager.OnRecoveryNeeded(120, 1), B);
  manager.OnActionResult(130, 1, /*healthy=*/true);
  // Once closed there is nothing left to time out.
  EXPECT_TRUE(manager.PollTimeouts(500).empty());
}

TEST(RecoveryManagerRobustnessTest, TimeoutDeadlineBacksOff) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  config.timeout_backoff = 2.0;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");

  manager.OnRecoveryNeeded(0, 1);
  ASSERT_EQ(manager.PollTimeouts(100).size(), 1u);  // first deadline: 100

  manager.OnRecoveryNeeded(100, 1);
  // Second action gets 100 * 2 = 200: not yet overdue at +150.
  EXPECT_TRUE(manager.PollTimeouts(250).empty());
  ASSERT_EQ(manager.PollTimeouts(300).size(), 1u);
  EXPECT_EQ(manager.stats().actions_timed_out, 2);
}

TEST(RecoveryManagerRobustnessTest, TimeoutsAdvanceTheNCap) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.max_actions_per_process = 3;
  config.action_timeout = 100;
  config.timeout_backoff = 1.0;  // keep deadlines easy to compute
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  manager.OnRecoveryNeeded(100, 1);
  ASSERT_FALSE(manager.PollTimeouts(200).empty());
  // Two hung actions burned two of the three attempts: cap forces RMA.
  EXPECT_EQ(*manager.OnRecoveryNeeded(200, 1), A);
  EXPECT_EQ(manager.stats().manual_repairs_forced, 1);
}

TEST(RecoveryManagerRobustnessTest, LateResultAfterTimeoutIsIgnored) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  // The timed-out action's real (late) failure report arrives afterwards:
  // nothing is in flight, so it must not double-count an outcome.
  const auto actions_before = manager.stats().actions_taken;
  manager.OnActionResult(150, 1, /*healthy=*/false);
  EXPECT_EQ(manager.stats().stale_results_ignored, 1);
  EXPECT_EQ(manager.stats().actions_taken, actions_before);
  EXPECT_TRUE(manager.HasOpenProcess(1));
}

TEST(RecoveryManagerRobustnessTest, LateHealthyResultStillClosesProcess) {
  // A machine that spontaneously recovers (or whose success report was
  // delayed past the timeout) should not be kept in recovery forever.
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(0, 1, "s");
  manager.OnRecoveryNeeded(0, 1);
  ASSERT_FALSE(manager.PollTimeouts(100).empty());
  manager.OnActionResult(150, 1, /*healthy=*/true);
  EXPECT_FALSE(manager.HasOpenProcess(1));
  EXPECT_EQ(manager.stats().processes_completed, 1);
}

TEST(RecoveryManagerRobustnessTest, FlappingMachineIsQuarantined) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.flap_threshold = 2;
  config.flap_window = kHour;
  RecoveryManager manager(policy, config);

  // Two quick open/close cycles inside the window: still below threshold.
  for (int i = 0; i < 2; ++i) {
    const SimTime t = i * 600;
    manager.OnSymptom(t, 1, "flappy");
    manager.OnRecoveryNeeded(t + 10, 1);
    manager.OnActionResult(t + 20, 1, true);
    EXPECT_FALSE(manager.IsQuarantined(1));
  }
  // Third open within the hour crosses the threshold: straight to RMA.
  manager.OnSymptom(1200, 1, "flappy");
  EXPECT_TRUE(manager.IsQuarantined(1));
  EXPECT_EQ(*manager.OnRecoveryNeeded(1210, 1), A);
  EXPECT_EQ(manager.stats().flap_quarantines, 1);
  manager.OnActionResult(1300, 1, true);

  // Far outside the window the machine gets the normal ladder again.
  manager.OnSymptom(1200 + 10 * kHour, 1, "flappy");
  EXPECT_FALSE(manager.IsQuarantined(1));
  EXPECT_EQ(*manager.OnRecoveryNeeded(1210 + 10 * kHour, 1), Y);
}

TEST(RecoveryManagerRobustnessTest, HistoryIsEvictedAfterRetention) {
  // Regression test for unbounded last-recovery-end growth: one completed
  // process per machine across a large fleet must not be retained forever.
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = kDay;
  RecoveryManager manager(policy, config);

  constexpr int kMachines = 200;
  for (int m = 0; m < kMachines; ++m) {
    const SimTime t = m * 10;
    manager.OnSymptom(t, m, "s");
    manager.OnRecoveryNeeded(t + 1, m);
    manager.OnActionResult(t + 2, m, true);
  }
  EXPECT_EQ(manager.history_size(), static_cast<std::size_t>(kMachines));

  // A trickle of new processes far in the future sweeps the stale entries.
  for (int m = 0; m < 100; ++m) {
    const SimTime t = 10 * kDay + m * 10;
    manager.OnSymptom(t, 1000 + m, "s");
    manager.OnRecoveryNeeded(t + 1, 1000 + m);
    manager.OnActionResult(t + 2, 1000 + m, true);
  }
  EXPECT_LT(manager.history_size(), static_cast<std::size_t>(kMachines));
  EXPECT_GT(manager.stats().history_evictions, 0);
}

TEST(RecoveryManagerRobustnessTest, ExportSnapshotsOpenProcessesInOrder) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  for (MachineId m : {5, 2, 9}) {
    manager.OnSymptom(10, m, "s");
    manager.OnRecoveryNeeded(20, m);
  }
  // Machine 2 completes: only still-open processes are exported.
  manager.OnActionResult(30, 2, /*healthy=*/true);

  const auto snapshots = manager.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].machine, 5);
  EXPECT_EQ(snapshots[1].machine, 9);
  EXPECT_EQ(snapshots[0].symptom, "s");
  EXPECT_EQ(snapshots[0].tried, std::vector<RepairAction>{Y});
}

TEST(RecoveryManagerRobustnessTest, AdoptResumesAttemptHistory) {
  // Leader-side manager works two attempts into a process...
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  EXPECT_EQ(*leader.OnRecoveryNeeded(10, 7), Y);
  leader.OnActionResult(20, 7, /*healthy=*/false);
  EXPECT_EQ(*leader.OnRecoveryNeeded(20, 7), B);
  leader.OnActionResult(30, 7, /*healthy=*/false);
  const auto snapshots = leader.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 1u);

  // ...and the takeover manager resumes at attempt 3, not attempt 1: the
  // user ladder grants reboot two tries, so the next action is the second
  // reboot — never a restarted kTryNop.
  UserDefinedPolicy policy_b;
  RecoveryManager follower(policy_b);
  EXPECT_TRUE(follower.AdoptProcess(40, snapshots[0]));
  EXPECT_EQ(follower.stats().processes_adopted, 1);
  EXPECT_EQ(follower.ActionsTried(7), 2);
  EXPECT_EQ(*follower.OnRecoveryNeeded(50, 7), B);
  follower.OnActionResult(60, 7, /*healthy=*/true);
  EXPECT_EQ(follower.stats().processes_completed, 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptRefusesAnAlreadyOpenProcess) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  manager.OnSymptom(0, 7, "s");
  manager.OnRecoveryNeeded(10, 7);
  const auto snapshots = manager.ExportOpenProcesses();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_FALSE(manager.AdoptProcess(20, snapshots[0]));
  EXPECT_EQ(manager.stats().processes_adopted, 0);
  EXPECT_EQ(manager.ActionsTried(7), 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptedAttemptsCountTowardTheNCap) {
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  leader.OnRecoveryNeeded(10, 7);
  leader.OnActionResult(20, 7, /*healthy=*/false);
  leader.OnRecoveryNeeded(20, 7);

  UserDefinedPolicy policy_b;
  RecoveryManagerConfig config;
  config.max_actions_per_process = 3;
  RecoveryManager follower(policy_b, config);
  ASSERT_TRUE(follower.AdoptProcess(30, leader.ExportOpenProcesses()[0]));
  // Two adopted attempts burned two of three: the cap forces RMA now.
  EXPECT_EQ(*follower.OnRecoveryNeeded(40, 7), A);
  EXPECT_EQ(follower.stats().manual_repairs_forced, 1);
}

TEST(RecoveryManagerRobustnessTest, AdoptResetsInFlightState) {
  // The snapshot is taken while an action is in flight on the old leader;
  // the adopter must not inherit that deadline (the result will never reach
  // it) — only its own next dispatch starts a timeout clock.
  UserDefinedPolicy policy_a;
  RecoveryManager leader(policy_a);
  leader.OnSymptom(0, 7, "s");
  leader.OnRecoveryNeeded(10, 7);  // in flight at export time

  UserDefinedPolicy policy_b;
  RecoveryManagerConfig config;
  config.action_timeout = 100;
  RecoveryManager follower(policy_b, config);
  ASSERT_TRUE(follower.AdoptProcess(20, leader.ExportOpenProcesses()[0]));
  EXPECT_TRUE(follower.PollTimeouts(100000).empty());
  EXPECT_EQ(*follower.OnRecoveryNeeded(30, 7), B);
  ASSERT_EQ(follower.PollTimeouts(130).size(), 1u);
}

TEST(RecoveryManagerRobustnessTest, AdoptCarriesQuarantineAcrossTakeover) {
  UserDefinedPolicy policy;
  RecoveryManager manager(policy);
  OpenProcessSnapshot snapshot;
  snapshot.machine = 7;
  snapshot.start = 0;
  snapshot.symptom = "flappy";
  snapshot.quarantined = true;
  ASSERT_TRUE(manager.AdoptProcess(10, snapshot));
  EXPECT_TRUE(manager.IsQuarantined(7));
  EXPECT_EQ(*manager.OnRecoveryNeeded(20, 7), A);
}

TEST(RecoveryManagerRobustnessTest, RecentHistorySurvivesEviction) {
  UserDefinedPolicy policy;
  RecoveryManagerConfig config;
  config.history_retention = 30 * kDay;
  RecoveryManager manager(policy, config);
  // Complete a process, then many unrelated ones to trigger sweeps.
  manager.OnSymptom(0, 7, "s");
  manager.OnRecoveryNeeded(1, 7);
  manager.OnActionResult(1000, 7, true);
  for (int m = 0; m < 100; ++m) {
    const SimTime t = 2000 + m * 10;
    manager.OnSymptom(t, 100 + m, "s");
    manager.OnRecoveryNeeded(t + 1, 100 + m);
    manager.OnActionResult(t + 2, 100 + m, true);
  }
  // Machine 7's history is inside retention: the recurring-failure shortcut
  // must still see last_recovery_end and skip the watch level.
  manager.OnSymptom(1000 + kHour, 7, "s");
  EXPECT_EQ(*manager.OnRecoveryNeeded(1001 + kHour, 7), B);
}

// Records every outcome the manager reports back.
class OutcomeProbePolicy final : public RecoveryPolicy {
 public:
  RepairAction ChooseAction(const RecoveryContext&) override { return Y; }
  void OnActionOutcome(const RecoveryContext&, RepairAction action,
                       SimTime cost, bool cured) override {
    outcomes.push_back({action, cost, cured});
  }
  std::string_view name() const override { return "outcome-probe"; }

  struct Outcome {
    RepairAction action;
    SimTime cost;
    bool cured;
  };
  std::vector<Outcome> outcomes;
};

// Sim time is a plain integer axis: an action started before t = 0 is still
// an action in flight, and its outcome (result or timeout) must reach the
// policy. A `last_action_start < 0` "no action yet" test once dropped it.
TEST(RecoveryManagerRobustnessTest, OutcomeOfActionStartedAtNegativeTime) {
  OutcomeProbePolicy policy;
  RecoveryManagerConfig config;
  config.action_timeout = 40;
  RecoveryManager manager(policy, config);
  manager.OnSymptom(-60, 1, "s");
  ASSERT_EQ(manager.OnRecoveryNeeded(-50, 1), Y);
  manager.OnActionResult(-20, 1, /*healthy=*/false);
  ASSERT_EQ(policy.outcomes.size(), 1u);
  EXPECT_EQ(policy.outcomes[0].action, Y);
  EXPECT_EQ(policy.outcomes[0].cost, 30);
  EXPECT_FALSE(policy.outcomes[0].cured);

  // The next attempt starts at -15 and times out at -15 + 40.
  ASSERT_EQ(manager.OnRecoveryNeeded(-15, 1), Y);
  EXPECT_EQ(manager.PollTimeouts(25), (std::vector<MachineId>{1}));
  ASSERT_EQ(policy.outcomes.size(), 2u);
  EXPECT_EQ(policy.outcomes[1].cost, 40);
  EXPECT_FALSE(policy.outcomes[1].cured);
}

// A trashed policy (no GuardedPolicy in front) names an action outside
// RepairAction. With a span sink attached the attempt record names the
// action through ActionName, whose range check aborts instead of reading
// past a table.
class OutOfRangePolicy final : public RecoveryPolicy {
 public:
  RepairAction ChooseAction(const RecoveryContext&) override {
    return static_cast<RepairAction>(17);
  }
  std::string_view name() const override { return "out-of-range"; }
};

TEST(RecoveryManagerRobustnessTest, TracedOutOfRangeActionAborts) {
  OutOfRangePolicy policy;
  obs::TraceCollector spans;
  RecoveryManager manager(policy);
  manager.SetObservers({.spans = &spans});
  manager.OnSymptom(0, 1, "s");
  EXPECT_DEATH(manager.OnRecoveryNeeded(10, 1), "unhandled RepairAction 17");
}

}  // namespace
}  // namespace aer
