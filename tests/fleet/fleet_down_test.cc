// Regression coverage for whole-fleet-down handling.
//
// The compat engine picks arrival victims from the healthy-machine pool and
// counts an arrival as skipped when the pool is empty; this suite pins the
// observable behavior — fault_arrivals_skipped — under a workload that
// saturates the fleet: arrivals far faster than repairs, so every machine
// spends most of its time down.
#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "fleet/fleet_sim.h"

namespace aer::fleet {
namespace {

// Golden skip count for SaturatedConfig(), recorded from the seed engine's
// bit-exact run (stable across platforms: aer::Rng is xoshiro with
// fixed integer paths).
constexpr std::int64_t kSeedGoldenSkipped = 1538;

// Two machines, a fault every ~35 simulated minutes per machine, repairs
// taking hours: the fleet is fully down for most of the run.
ClusterSimConfig SaturatedConfig() {
  ClusterSimConfig config;
  config.num_machines = 2;
  config.duration = 30 * kDay;
  config.machine_mtbf_days = 0.025;
  config.seed = 17;
  return config;
}

TEST(FleetDownTest, SeedEngineSkipsArrivalsWhenFleetDown) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .RunSeedCompat(policy);
  EXPECT_GT(result.fault_arrivals_skipped, 0);
  EXPECT_GT(result.processes_completed, 0);
  // Skips happen only when the whole fleet is down: recovery processes
  // never overlap beyond the fleet size, and the saturated workload does
  // reach that bound. Sweep the ground-truth intervals; ends sort before
  // starts at equal times, so a machine re-failing at the instant it was
  // cured does not count as overlap.
  std::vector<std::pair<SimTime, int>> edges;
  for (const ProcessGroundTruth& gt : result.ground_truth) {
    edges.push_back({gt.start, +1});
    edges.push_back({gt.end, -1});
  }
  std::sort(edges.begin(), edges.end());
  int down = 0;
  int max_down = 0;
  for (const auto& [time, delta] : edges) {
    down += delta;
    max_down = std::max(max_down, down);
  }
  EXPECT_EQ(max_down, SaturatedConfig().num_machines);
}

TEST(FleetDownTest, CompatEngineMatchesSeedSkipCount) {
  UserDefinedPolicy policy;
  const SimulationResult result =
      FleetSimulator(FleetSimConfig{.sim = SaturatedConfig()},
                     MakeDefaultCatalog())
          .RunSeedCompat(policy);
  EXPECT_EQ(result.fault_arrivals_skipped, kSeedGoldenSkipped);
}

// The sharded engine has per-machine skip semantics (a fault on a down
// machine is lost rather than redirected), so its count is pinned
// separately — and must not depend on thread count.
TEST(FleetDownTest, ShardedEngineSkipCountThreadInvariant) {
  const FleetSimConfig config{.sim = SaturatedConfig(), .num_shards = 2};
  UserDefinedPolicy serial_policy;
  const SimulationResult serial =
      FleetSimulator(config, MakeDefaultCatalog()).Run(serial_policy);
  EXPECT_GT(serial.fault_arrivals_skipped, 0);
  EXPECT_GT(serial.processes_completed, 0);

  ThreadPool pool(2);
  UserDefinedPolicy parallel_policy;
  const SimulationResult parallel =
      FleetSimulator(config, MakeDefaultCatalog())
          .Run(parallel_policy, &pool);
  EXPECT_EQ(parallel.fault_arrivals_skipped, serial.fault_arrivals_skipped);
}

}  // namespace
}  // namespace aer::fleet
