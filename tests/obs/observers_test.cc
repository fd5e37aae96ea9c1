// Attach-path goldens: FNV-1a 64 fingerprints of what the sinks hold after a
// control-plane run, a fleet run and a batch of platform replays, recorded
// while each component still had its own setters (SetObservers(Tracer*,
// MetricsRegistry*), SetTraceCollector, SetMetrics) and the control plane
// still wrote every leadership, fencing and injection event as a span too.
// They pin one SetObservers(obs::Observers) per component — forwarded down
// the ctrl stack and re-applied to a coordinator recreated after a crash —
// to the same counters and causal records, and the managers' own spans
// (now folded from span records by obs::BuildSpans) to the same content.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/trace.h"
#include "cluster/user_policy.h"
#include "ctrl/harness.h"
#include "fleet/fleet_sim.h"
#include "fnv.h"
#include "mining/error_type.h"
#include "obs/metrics.h"
#include "obs/observers.h"
#include "obs/trace_collector.h"
#include "obs/span_view.h"
#include "sim/platform.h"

namespace aer {
namespace {

std::uint64_t RegistryFingerprint(const obs::MetricsRegistry& registry) {
  Fnv fnv;
  fnv.Bytes(registry.ExportText({.include_volatile = false}));
  return fnv.value();
}

std::uint64_t RecordsFingerprint(const obs::TraceCollector& traces) {
  Fnv fnv;
  for (const obs::TraceRecord& r : traces.Snapshot()) {
    fnv.Int(static_cast<std::int64_t>(r.trace_id));
    fnv.Int(r.time);
    fnv.Int(static_cast<std::int64_t>(r.kind));
    fnv.Int(r.machine);
    fnv.Int(r.node);
    fnv.Int(r.attempt);
    fnv.Int(r.action);
    fnv.Int(static_cast<std::int64_t>(r.epoch));
    fnv.Int(r.duplicate ? 1 : 0);
    fnv.Bytes(r.detail);
    fnv.Int(static_cast<std::int64_t>(r.seq));
  }
  return fnv.value();
}

// The recovery managers' spans without their ids: extra spans written by
// other components shift every id, not the spans themselves.
std::uint64_t SpansFingerprint(const std::vector<obs::Span>& spans) {
  Fnv fnv;
  for (const obs::Span& span : spans) {
    if (span.name != "recovery" && !span.name.starts_with("action:")) {
      continue;
    }
    fnv.Bytes(span.name);
    fnv.Bytes(span.label);
    fnv.Int(span.machine);
    fnv.Int(static_cast<std::int64_t>(span.trace_id));
    fnv.Int(span.parent != obs::kNoSpan ? 1 : 0);
    fnv.Int(span.start);
    fnv.Int(span.end);
    for (const obs::SpanEvent& event : span.events) {
      fnv.Int(event.time);
      fnv.Bytes(event.label);
    }
  }
  return fnv.value();
}

// Three coordinators under message and machine-hop chaos; node 0 crashes
// at 72 and restarts at 300, so the recreated coordinator must be attached
// again for its counters and records to land.
TEST(ObserversTest, ControlPlaneAttachMatchesGolden) {
  ctrl::ControlHarnessConfig config;
  config.cluster_size = 3;
  config.tick_interval = 5;
  config.net_latency = 1;
  config.reemit_interval = 60;
  config.action_duration = {2, 5, 10, 20};
  config.coordinator.lease.lease_duration = 30;
  config.coordinator.membership.suspect_after = 15;
  config.coordinator.membership.evict_after = 60;
  config.coordinator.election_retry = 10;
  config.net.seed = 11;
  config.net.drop_message = 0.05;
  config.net.delay_message = 0.1;
  config.net.duplicate_message = 0.05;
  config.net.drop_machine_hop = 0.1;
  config.net.delay_machine_hop = 0.1;
  config.net.duplicate_machine_hop = 0.1;
  NetFaultScript script;
  script.crashes = {{72, 0, 300}};
  RecoveryManagerConfig manager_config;
  manager_config.action_timeout = 120;

  UserDefinedPolicy policy;
  obs::MetricsRegistry registry;
  obs::TraceCollector span_records;
  obs::TraceCollector traces;
  traces.SetMetrics(&registry);
  ctrl::ControlPlaneHarness harness(policy, manager_config, config, script);
  harness.SetObservers(
      {.metrics = &registry, .spans = &span_records, .traces = &traces});
  const ctrl::ControlHarnessResult result =
      harness.Run({{50, 7, "NoHeartbeat", 3},
                   {150, 2, "Watchdog", 1},
                   {400, 9, "Watchdog", 0},
                   {420, 4, "DiskError", 2}});
  ASSERT_TRUE(result.all_completed);
  // The script's crash, restart and chaos all happened.
  EXPECT_EQ(result.net.crashes, 1);
  EXPECT_EQ(result.net.restarts, 1);
  EXPECT_GT(result.net.random_drops, 0);
  EXPECT_GT(result.net.machine_drops, 0);
  EXPECT_GT(result.net.machine_duplicates, 0);

  EXPECT_EQ(RegistryFingerprint(registry), 0xed0e44d795a29ad8ULL);
  EXPECT_EQ(RecordsFingerprint(traces), 0xa3703bc7db6b127cULL);
  const std::vector<obs::Span> spans = obs::BuildSpans(span_records.Snapshot());
  EXPECT_EQ(SpansFingerprint(spans), 0xaf7ca556e9444d2dULL);

  // The control plane writes records and counters, not spans: what the
  // span sink holds comes from the recovery managers inside the
  // coordinators.
  ASSERT_FALSE(spans.empty());
  for (const obs::Span& span : spans) {
    EXPECT_TRUE(span.name == "recovery" || span.name.starts_with("action:"))
        << span.name;
  }
}

TEST(ObserversTest, FleetAttachMatchesGolden) {
  fleet::FleetSimConfig config;
  config.sim.num_machines = 80;
  config.sim.duration = 10 * kDay;
  config.sim.machine_mtbf_days = 2.0;
  config.sim.seed = 29;
  UserDefinedPolicy policy;
  obs::MetricsRegistry registry;
  obs::TraceCollector traces({.sample_probability = 0.5});
  traces.SetMetrics(&registry);
  fleet::FleetSimulator sim(config, MakeDefaultCatalog());
  sim.SetObservers({.metrics = &registry, .traces = &traces});
  sim.Run(policy);
  ASSERT_GT(traces.recorded_count(), 0);

  EXPECT_EQ(RegistryFingerprint(registry), 0x8eee29d25016d94ULL);
  EXPECT_EQ(RecordsFingerprint(traces), 0xb85365cc42576501ULL);
}

TEST(ObserversTest, PlatformAttachMatchesGolden) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 50;
  config.sim.duration = 20 * kDay;
  const TraceDataset dataset = GenerateTrace(config);
  const std::vector<RecoveryProcess> processes =
      SegmentIntoProcesses(dataset.result.log).processes;
  const ErrorTypeCatalog catalog(processes, 40);
  SimulationPlatform platform(processes, catalog,
                              dataset.result.log.symptoms());
  obs::MetricsRegistry registry;
  platform.SetObservers({.metrics = &registry});
  UserDefinedPolicy policy;
  Fnv rows;
  for (const SimulationPlatform::ValidationRow& row :
       platform.ValidateAgainstLog(processes, policy)) {
    rows.Int(row.type);
    rows.Double(row.estimated_cost);
    rows.Int(row.process_count);
  }
  ASSERT_GT(registry.GetCounter("aer_replay_total").value(), 0);

  EXPECT_EQ(RegistryFingerprint(registry), 0x57815d18a34a91cbULL);
  EXPECT_EQ(rows.value(), 0xe667bbb9fc5f461bULL);
}

}  // namespace
}  // namespace aer
