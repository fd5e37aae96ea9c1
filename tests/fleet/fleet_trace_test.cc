// Fleet-scale tracing determinism: an attached TraceCollector's contents
// must be byte-identical for any thread count and any shard count (the
// per-shard buffers are merged with MergeShards after the pool barrier,
// same discipline as the log merge), sampling must bound the collector
// without breaking complete-or-nothing, and tracing must never perturb the
// simulation itself.
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"
#include "obs/trace_collector.h"
#include "obs/trace_dag.h"

namespace aer::fleet {
namespace {

ClusterSimConfig WorkloadConfig() {
  ClusterSimConfig config;
  config.num_machines = 60;
  config.duration = 10 * kDay;
  config.machine_mtbf_days = 2.0;
  config.seed = 23;
  return config;
}

std::vector<obs::TraceRecord> RunTraced(int num_shards, int num_threads,
                                        double sample_probability = 1.0) {
  UserDefinedPolicy policy;
  FleetSimConfig config;
  config.sim = WorkloadConfig();
  config.num_shards = num_shards;
  obs::TraceCollector traces({.sample_probability = sample_probability});
  FleetSimulator sim(config, MakeDefaultCatalog());
  sim.SetObservers({.traces = &traces});
  if (num_threads > 1) {
    ThreadPool pool(num_threads);
    sim.Run(policy, &pool);
  } else {
    sim.Run(policy, nullptr);
  }
  return traces.Snapshot();
}

TEST(FleetTraceTest, ThreadAndShardCountInvariant) {
  // {1, 2, 8} worker threads x shard splits: every combination produces the
  // same byte stream (ISSUE acceptance surface).
  const std::vector<obs::TraceRecord> reference = RunTraced(4, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(RunTraced(4, 2), reference);
  EXPECT_EQ(RunTraced(4, 8), reference);
  // Shard-count changes don't move records either (merge is canonical).
  EXPECT_EQ(RunTraced(1, 1), reference);
  EXPECT_EQ(RunTraced(8, 8), reference);
  // And the stream stitches into a well-formed DAG set: every process
  // roots at an incident and parents point backward.
  const obs::TraceDag dag = obs::BuildTraceDag(reference);
  ASSERT_FALSE(dag.processes.empty());
  for (const obs::TraceProcess& process : dag.processes) {
    ASSERT_FALSE(process.nodes.empty());
    EXPECT_EQ(process.nodes[0].parent, -1);
    for (std::size_t i = 1; i < process.nodes.size(); ++i) {
      EXPECT_LT(process.nodes[i].parent, static_cast<int>(i));
    }
  }
}

TEST(FleetTraceTest, SamplingIsCompleteOrNothingAndDeterministic) {
  const std::vector<obs::TraceRecord> full = RunTraced(4, 2, 1.0);
  const std::vector<obs::TraceRecord> sampled = RunTraced(4, 2, 0.25);
  ASSERT_FALSE(full.empty());
  ASSERT_LT(sampled.size(), full.size());
  // The sampled stream is exactly the full stream filtered by the keep
  // decision: kept traces arrive complete, dropped traces leave nothing.
  obs::TraceCollector decider({.sample_probability = 0.25});
  std::vector<obs::TraceRecord> expected;
  for (obs::TraceRecord r : full) {
    if (!decider.Sampled(r.trace_id)) continue;
    r.seq = 0;
    expected.push_back(std::move(r));
  }
  std::vector<obs::TraceRecord> actual;
  for (obs::TraceRecord r : sampled) {
    r.seq = 0;
    actual.push_back(std::move(r));
  }
  EXPECT_EQ(actual, expected);
  // Same rate, different thread count: identical sampled stream.
  EXPECT_EQ(RunTraced(4, 8, 0.25), sampled);
}

TEST(FleetTraceTest, TracingDoesNotPerturbTheSimulation) {
  UserDefinedPolicy policy;
  FleetSimConfig config;
  config.sim = WorkloadConfig();
  config.num_shards = 4;
  FleetSimulator plain(config, MakeDefaultCatalog());
  const SimulationResult untraced = plain.Run(policy);

  UserDefinedPolicy traced_policy;
  obs::TraceCollector traces;
  FleetSimulator traced(config, MakeDefaultCatalog());
  traced.SetObservers({.traces = &traces});
  const SimulationResult with_traces = traced.Run(traced_policy);

  std::ostringstream a;
  untraced.log.Write(a);
  std::ostringstream b;
  with_traces.log.Write(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(traces.recorded_count(), 0);
}

}  // namespace
}  // namespace aer::fleet
