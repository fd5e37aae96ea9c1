// Acceptance tests for the degraded-operation ladder: every harness run at
// the default severities must terminate with every machine cured, whatever
// combination of event loss, duplication, delay, hung actions, and lying
// success reports is injected.
#include "inject/harness.h"

#include <gtest/gtest.h>

#include "cluster/user_policy.h"
#include "obs/metrics.h"

namespace aer {
namespace {

// With `distinct_machines` every incident hits its own machine (one sick
// episode each); otherwise incidents pile onto 7 machines, so overlapping
// incidents merge into fewer-but-harder episodes — good stress, but the
// cure count then undershoots the incident count by design.
std::vector<HarnessIncident> MakeIncidents(int count,
                                           bool distinct_machines = false) {
  std::vector<HarnessIncident> incidents;
  const char* symptoms[] = {"Watchdog", "DiskError", "EventLog", "NicDown"};
  for (int i = 0; i < count; ++i) {
    HarnessIncident incident;
    incident.time = 100 + i * 700;
    incident.machine = distinct_machines ? i : i % 7;
    incident.symptom = symptoms[i % 4];
    incident.cure_strength = i % kNumActions;
    incidents.push_back(incident);
  }
  return incidents;
}

RecoveryManagerConfig HardenedConfig() {
  RecoveryManagerConfig config;
  // Longer than the slowest honest action (8h RMA), so only injected hangs
  // ever hit the deadline.
  config.action_timeout = 10 * kHour;
  config.flap_threshold = 6;
  config.flap_window = 12 * kHour;
  return config;
}

TEST(InjectionHarnessTest, CleanRunCompletesEverything) {
  UserDefinedPolicy policy;
  InjectionHarness harness(policy, HardenedConfig(), HarnessConfig{});
  const HarnessResult result =
      harness.Run(MakeIncidents(20, /*distinct_machines=*/true));
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.cures, 20);
  EXPECT_EQ(result.hangs_injected, 0);
  EXPECT_EQ(result.manager.actions_timed_out, 0);
}

TEST(InjectionHarnessTest, SurvivesEventLoss) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.5;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.events_dropped, 0);
}

TEST(InjectionHarnessTest, SurvivesDuplicationAndDelay) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.duplicate_event = 0.5;
  config.delay_event = 0.5;
  config.max_delay = 600;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.events_duplicated, 0);
  EXPECT_GT(result.events_delayed, 0);
  // The manager absorbed at least some of the duplicates.
  EXPECT_GT(result.manager.duplicate_symptoms +
                result.manager.out_of_order_events,
            0);
}

TEST(InjectionHarnessTest, SurvivesHangingActions) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.hang_action = 0.4;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.hangs_injected, 0);
  EXPECT_EQ(result.manager.actions_timed_out, result.hangs_injected);
}

TEST(InjectionHarnessTest, SurvivesFalseSuccessReports) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.false_success = 0.5;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_TRUE(result.all_completed);
  EXPECT_GT(result.false_successes_injected, 0);
}

TEST(InjectionHarnessTest, SurvivesEverythingAtOnce) {
  // The acceptance scenario: all injection arms on simultaneously at the
  // documented default severities (docs/ROBUSTNESS.md).
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(40));
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(harness.manager().open_process_count(), 0u);
  // Every injected hang was recovered through the timeout path.
  EXPECT_GE(result.manager.actions_timed_out, result.hangs_injected);
}

TEST(InjectionHarnessTest, DeterministicAcrossRuns) {
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;

  UserDefinedPolicy policy_a;
  InjectionHarness harness_a(policy_a, HardenedConfig(), config);
  const HarnessResult a = harness_a.Run(MakeIncidents(25));

  UserDefinedPolicy policy_b;
  InjectionHarness harness_b(policy_b, HardenedConfig(), config);
  const HarnessResult b = harness_b.Run(MakeIncidents(25));

  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.hangs_injected, b.hangs_injected);
  EXPECT_EQ(a.manager.actions_taken, b.manager.actions_taken);
  EXPECT_EQ(a.manager.total_downtime, b.manager.total_downtime);
}

TEST(InjectionHarnessTest, ReorderDepthTracksDelayedDeliveries) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.delay_event = 1.0;  // every emission slips
  config.max_delay = 600;
  InjectionHarness harness(policy, HardenedConfig(), config);
  obs::MetricsRegistry metrics;
  harness.SetObservers({.metrics = &metrics});
  const HarnessResult result = harness.Run(MakeIncidents(20));

  EXPECT_TRUE(result.all_completed);
  ASSERT_GT(result.events_delayed, 0);
  // Delayed deliveries overtake other traffic: the depth accounting must
  // see at least one reordering, the max bounds every sample, and the
  // stat metric mirrors the same samples one-to-one.
  EXPECT_GT(result.reorder_depth_max, 0);
  EXPECT_GE(result.reorder_depth_sum, result.reorder_depth_max);
  const RunningStat stat =
      metrics.GetStat("aer_inject_reorder_depth").Snapshot();
  EXPECT_EQ(stat.count(), result.events_delayed);
  EXPECT_EQ(static_cast<std::int64_t>(stat.max()),
            result.reorder_depth_max);
  EXPECT_EQ(static_cast<std::int64_t>(stat.sum()),
            result.reorder_depth_sum);
}

TEST(InjectionHarnessTest, PerArmInjectionCountsMirrorIntoMetrics) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.drop_event = 0.2;
  config.duplicate_event = 0.2;
  config.delay_event = 0.2;
  config.hang_action = 0.2;
  config.false_success = 0.2;
  InjectionHarness harness(policy, HardenedConfig(), config);
  obs::MetricsRegistry metrics;
  harness.SetObservers({.metrics = &metrics});
  const HarnessResult result = harness.Run(MakeIncidents(40));

  EXPECT_TRUE(result.all_completed);
  const auto counter = [&metrics](const char* name) {
    return metrics.GetCounter(name).value();
  };
  EXPECT_EQ(counter("aer_inject_incidents_total"), result.incidents);
  EXPECT_EQ(counter("aer_inject_cures_total"), result.cures);
  EXPECT_EQ(counter("aer_inject_events_dropped_total"),
            result.events_dropped);
  EXPECT_EQ(counter("aer_inject_events_duplicated_total"),
            result.events_duplicated);
  EXPECT_EQ(counter("aer_inject_events_delayed_total"),
            result.events_delayed);
  EXPECT_EQ(counter("aer_inject_hangs_total"), result.hangs_injected);
  EXPECT_EQ(counter("aer_inject_false_successes_total"),
            result.false_successes_injected);
}

TEST(InjectionHarnessTest, EventBudgetTurnsLivelockIntoAFailureReport) {
  UserDefinedPolicy policy;
  HarnessConfig config;
  config.max_events = 50;  // far too small for 20 incidents
  InjectionHarness harness(policy, HardenedConfig(), config);
  const HarnessResult result = harness.Run(MakeIncidents(20));
  EXPECT_FALSE(result.all_completed);
  EXPECT_EQ(result.events_processed, 51u);
}

}  // namespace
}  // namespace aer
