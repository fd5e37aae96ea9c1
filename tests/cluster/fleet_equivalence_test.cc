// Equivalence suite for the fleet simulator (docs/FLEET_SIM.md):
//
//  1. FleetSimulator::RunSeedCompat reproduces the seed engine — the
//     repository's original single-queue simulator — byte for byte. The
//     seed engine was fingerprinted before it was retired: FNV-1a 64 of the
//     serialized log, of the raw entries (interned symptom ids included)
//     and of the ground truth, plus the result counters. The goldens cover
//     seeds × fleet sizes × policies, including the heterogeneity /
//     diurnal / cross-fault-noise paths, and GenerateTrace at small and
//     default scale.
//  2. FleetSimulator::Run (sharded) is byte-identical to itself for any
//     thread count and any shard count.
//
// Together these are the byte-identity proof for every trace the pipeline
// consumes and the determinism proof the parallel engine rests on.
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "cluster/trace.h"
#include "cluster/user_policy.h"
#include "common/thread_pool.h"
#include "core/policy_generator.h"
#include "fleet/fleet_sim.h"
#include "fnv.h"
#include "rl/policy.h"

namespace aer::fleet {
namespace {

std::string Serialize(const RecoveryLog& log) {
  std::ostringstream os;
  log.Write(os);
  return os.str();
}

void ExpectResultsIdentical(const SimulationResult& a,
                            const SimulationResult& b) {
  // Byte-level: the paper-format serialization (resolves symptom ids
  // through each log's own intern table).
  ASSERT_EQ(Serialize(a.log), Serialize(b.log));
  // Entry-level: ids themselves must match too (same intern order).
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    ASSERT_EQ(a.log.entries()[i], b.log.entries()[i]) << "entry " << i;
  }
  ASSERT_EQ(a.ground_truth.size(), b.ground_truth.size());
  for (std::size_t i = 0; i < a.ground_truth.size(); ++i) {
    const ProcessGroundTruth& ga = a.ground_truth[i];
    const ProcessGroundTruth& gb = b.ground_truth[i];
    ASSERT_EQ(ga.machine, gb.machine) << "ground truth " << i;
    ASSERT_EQ(ga.start, gb.start) << "ground truth " << i;
    ASSERT_EQ(ga.end, gb.end) << "ground truth " << i;
    ASSERT_EQ(ga.fault_index, gb.fault_index) << "ground truth " << i;
    ASSERT_EQ(ga.noisy, gb.noisy) << "ground truth " << i;
  }
  EXPECT_EQ(a.fault_arrivals_skipped, b.fault_arrivals_skipped);
  EXPECT_EQ(a.processes_completed, b.processes_completed);
  EXPECT_EQ(a.total_downtime, b.total_downtime);
}

struct Fingerprint {
  std::uint64_t log = 0;      // serialized paper-format log
  std::uint64_t entries = 0;  // raw entries, interned symptom ids included
  std::uint64_t truth = 0;    // ground-truth records
  std::int64_t log_size = 0;
  std::int64_t skipped = 0;
  std::int64_t completed = 0;
  SimTime downtime = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << std::hex << "{log=0x" << f.log << " entries=0x" << f.entries
            << " truth=0x" << f.truth << std::dec << " size=" << f.log_size
            << " skipped=" << f.skipped << " completed=" << f.completed
            << " downtime=" << f.downtime << "}";
}

Fingerprint FingerprintOf(const SimulationResult& r) {
  Fnv log;
  log.Bytes(Serialize(r.log));
  Fnv entries;
  for (const LogEntry& e : r.log.entries()) {
    entries.Int(e.time);
    entries.Int(e.machine);
    entries.Int(static_cast<std::int64_t>(e.kind));
    entries.Int(e.symptom);
    entries.Int(static_cast<std::int64_t>(e.action));
  }
  Fnv truth;
  for (const ProcessGroundTruth& gt : r.ground_truth) {
    truth.Int(gt.machine);
    truth.Int(gt.start);
    truth.Int(gt.end);
    truth.Int(gt.fault_index);
    truth.Int(gt.noisy ? 1 : 0);
  }
  return {.log = log.value(),
          .entries = entries.value(),
          .truth = truth.value(),
          .log_size = static_cast<std::int64_t>(r.log.size()),
          .skipped = r.fault_arrivals_skipped,
          .completed = r.processes_completed,
          .downtime = r.total_downtime};
}

// Fleet size → duration that keeps each run at a few hundred processes so
// the full matrix stays fast under the sanitizer legs.
SimTime DurationFor(int num_machines) {
  if (num_machines <= 1) return 180 * kDay;
  if (num_machines <= 7) return 90 * kDay;
  if (num_machines <= 100) return 30 * kDay;
  return 4 * kDay;
}

ClusterSimConfig MatrixConfig(std::uint64_t seed, int num_machines) {
  ClusterSimConfig config;
  config.num_machines = num_machines;
  config.duration = DurationFor(num_machines);
  config.machine_mtbf_days = 10.0;
  config.seed = seed;
  // Odd seeds exercise the optional paths: machine heterogeneity, diurnal
  // thinning, and cross-fault noise all consume extra draws, so draw-order
  // equivalence must hold with them on as well.
  if (seed % 2 == 1) {
    config.machine_speed_spread = 0.25;
    config.diurnal_amplitude = 0.4;
    config.cross_fault_noise_probability = 0.05;
  }
  return config;
}

SimulationResult RunCompat(const ClusterSimConfig& config,
                           const FaultCatalog& catalog,
                           RecoveryPolicy& policy) {
  return FleetSimulator(FleetSimConfig{.sim = config}, catalog)
      .RunSeedCompat(policy);
}

// A trained Q policy for the second policy arm, generated once from a
// compat-mode log (the pipeline's normal path).
const TrainedPolicy& TrainedQPolicy() {
  static const TrainedPolicy* policy = [] {
    ClusterSimConfig config;
    config.num_machines = 200;
    config.duration = 60 * kDay;
    config.machine_mtbf_days = 10.0;
    config.seed = 301;
    UserDefinedPolicy user;
    const SimulationResult result =
        RunCompat(config, MakeDefaultCatalog(), user);
    return new TrainedPolicy(PolicyGenerator().Generate(result.log));
  }();
  return *policy;
}

struct MatrixGolden {
  bool trained;
  int seed;
  int machines;
  Fingerprint fingerprint;
};

// The seed engine's fingerprints over the matrix, recorded from its last
// revision (stable across platforms: aer::Rng is xoshiro with fixed
// integer paths, and the log format prints integers only).
constexpr MatrixGolden kMatrixGoldens[] = {
    {false, 1, 1,
     {0x53ac3b98f1d9e842ULL, 0x137d3f07b47e4417ULL, 0x6845fd534bb16d60ULL,
      80, 0, 16, 32428}},
    {false, 1, 7,
     {0x4383c413d223ed13ULL, 0x92de124dfd1e6638ULL, 0xd2fb07ee62d2b2acULL,
      364, 0, 68, 249799}},
    {false, 1, 100,
     {0xf3950d0827d4162dULL, 0x6759e45c7d8d7b8eULL, 0xa14e47fbf9d9cfa5ULL,
      1669, 0, 305, 1003232}},
    {false, 1, 10000,
     {0x55aba5c8ed0f033aULL, 0x6150902ca9eda057ULL, 0x72c6480af6ce4e66ULL,
      21771, 0, 3955, 16838559}},
    {false, 2, 1,
     {0x70efe06711e2f6b3ULL, 0x78cdd1ac671e978bULL, 0x8954df833ae3bc16ULL,
      87, 0, 17, 43589}},
    {false, 2, 7,
     {0x068dc10bda1fefedULL, 0x10089570f4ce727eULL, 0x4458b4c3bf87df61ULL,
      380, 0, 70, 212989}},
    {false, 2, 100,
     {0xfde594b8679aa540ULL, 0x924b515cadfb6de2ULL, 0x919a46e88b5d7484ULL,
      1640, 0, 307, 1282985}},
    {false, 2, 10000,
     {0x004bf399d8f88380ULL, 0x805e8446a2cd1d00ULL, 0x2a8695c2b3160ec3ULL,
      22282, 0, 4048, 19501105}},
    {false, 3, 1,
     {0x89e390d27f8e8dc8ULL, 0x86c53d825fa7f58cULL, 0x6121864d7f9ef817ULL,
      113, 0, 19, 149151}},
    {false, 3, 7,
     {0xb786d227f8fd5950ULL, 0x6e7cb1a258c9facaULL, 0x970f15aacb992c5eULL,
      303, 0, 55, 199691}},
    {false, 3, 100,
     {0xe6c92ac1b97b8b62ULL, 0x623a13f85e52e7dfULL, 0x12b6a12134fa7841ULL,
      1458, 0, 255, 1394782}},
    {false, 3, 10000,
     {0xcf1f805cccd72db8ULL, 0xa4672fa7f1866e17ULL, 0x6df73289e9035750ULL,
      22346, 0, 4072, 16324921}},
    {false, 4, 1,
     {0x5068a0b29cb607bdULL, 0xcf4621637b85aa39ULL, 0xc6033eb11126e431ULL,
      86, 0, 16, 34938}},
    {false, 4, 7,
     {0x5cb890b434c44189ULL, 0x6f784634a2d4d406ULL, 0x6729e8460928faebULL,
      305, 0, 56, 255475}},
    {false, 4, 100,
     {0x70f471d9faf588b4ULL, 0x11487f92f2aa6b9fULL, 0xf0294d6e2e22cf65ULL,
      1665, 0, 313, 1245303}},
    {false, 4, 10000,
     {0xc9a33bc0afcfb49aULL, 0x4fb142c4c8872043ULL, 0x99e1a6a09df24184ULL,
      21811, 0, 4006, 17119637}},
    {false, 5, 1,
     {0x1f28806472e893a3ULL, 0x8bdc8297887a1812ULL, 0x80f7b0cf051c4965ULL,
      135, 0, 24, 57209}},
    {false, 5, 7,
     {0xe392d4350ef4ebabULL, 0xd5914b6f2b4f83a1ULL, 0x5843d204e9b05753ULL,
      254, 0, 44, 136554}},
    {false, 5, 100,
     {0xba9ee598ddd995acULL, 0xf1ad6531dab3c78fULL, 0xb35c00f633f9cc57ULL,
      1602, 0, 288, 1796845}},
    {false, 5, 10000,
     {0x541ca0881323c270ULL, 0xa8a53f785daad13dULL, 0xea7001406219571cULL,
      22263, 0, 4054, 17456592}},
    {true, 1, 1,
     {0xf84f522b5ec8e7d8ULL, 0xd23ba84a656dedabULL, 0xfc0eb1793f759d4bULL,
      95, 0, 21, 51603}},
    {true, 1, 7,
     {0x35c6a00cac04c36dULL, 0x4c5f6689fb977ae3ULL, 0x09fc59d90f42e576ULL,
      285, 0, 61, 308656}},
    {true, 1, 100,
     {0xa81de235fecf23f8ULL, 0x366473e4828e6a1bULL, 0x8a2053ac611982feULL,
      1524, 0, 307, 2335196}},
    {true, 1, 10000,
     {0x60a903ec7d26666fULL, 0xd005ddbee9b5d62cULL, 0xa53bbc99d9804eeaULL,
      19447, 0, 3927, 23506355}},
    {true, 2, 1,
     {0x9260c7acf091bfa6ULL, 0x9a8d362a944c7faeULL, 0xd5aea93b85ac1059ULL,
      89, 0, 16, 34063}},
    {true, 2, 7,
     {0x6e205c6f1de39f48ULL, 0xd9e7efe4a7785bdaULL, 0xde12d8702ed63adcULL,
      305, 0, 61, 329011}},
    {true, 2, 100,
     {0x8c129fd4e484a45fULL, 0xe50ce90401bb81a2ULL, 0xbebaf2e79bb300dfULL,
      1470, 0, 309, 1904830}},
    {true, 2, 10000,
     {0x52c1dcc1ecafeef0ULL, 0x17bcba006804862aULL, 0xeecc36e04f6c3336ULL,
      19597, 0, 4008, 25874265}},
    {true, 3, 1,
     {0x00c766ffc14f30bbULL, 0x03f57b73011c8612ULL, 0x775a00090280f7a8ULL,
      97, 0, 19, 107785}},
    {true, 3, 7,
     {0xe97df9cf28ad7bdbULL, 0x97591b396f132a12ULL, 0xc61b1bc740e4cf35ULL,
      290, 0, 56, 410329}},
    {true, 3, 100,
     {0x874271ed40a6d154ULL, 0x2e68f552df7d9846ULL, 0xb1b57a0769012d81ULL,
      1709, 0, 339, 1527206}},
    {true, 3, 10000,
     {0x90f351d8e5f285aaULL, 0x7682d9f0282dc200ULL, 0x032309120996e0a8ULL,
      19472, 0, 3969, 24803121}},
    {true, 4, 1,
     {0xa3fe662e41183fe5ULL, 0x93f55456e90d39caULL, 0x84b3933df4c098f4ULL,
      77, 0, 16, 160546}},
    {true, 4, 7,
     {0x86c0f2c4bf72fae6ULL, 0xc0623f0edc5f1fdfULL, 0xe9dea28d60463e93ULL,
      332, 0, 66, 699646}},
    {true, 4, 100,
     {0x5c866414f767cfb4ULL, 0xf5a09ff24f62f036ULL, 0x5b835b1b6e6435ebULL,
      1519, 0, 309, 1609874}},
    {true, 4, 10000,
     {0x7f792d1e290453e2ULL, 0xc6741577dca6fd09ULL, 0x505360f74e25020dULL,
      19898, 0, 4073, 25350920}},
    {true, 5, 1,
     {0x0745551f044422daULL, 0x185a6f3c903ffd11ULL, 0xfc0cd74e2107ad00ULL,
      115, 1, 23, 178435}},
    {true, 5, 7,
     {0xa7f741044eaa203eULL, 0xfd0a03e7198fd49eULL, 0x7680db0c6948b248ULL,
      263, 0, 56, 119829}},
    {true, 5, 100,
     {0xe43556de47545688ULL, 0x7bfcdd621d87f9b2ULL, 0x6145a18102c16763ULL,
      1518, 0, 307, 2147316}},
    {true, 5, 10000,
     {0x64d039c968882558ULL, 0xb55f6c7c02d21bbdULL, 0x357f037a50b8fda9ULL,
      19218, 0, 3909, 25704874}},
};

class FleetEquivalenceTest : public testing::TestWithParam<bool> {};

// Seeds {1..5} × fleets {1, 7, 100, 10k} × {user policy, trained Q policy}:
// the compat engine reproduces the seed engine's goldens byte for byte.
TEST_P(FleetEquivalenceTest, CompatByteIdenticalToSeedEngine) {
  const bool trained = GetParam();
  const FaultCatalog catalog = MakeDefaultCatalog();
  int checked = 0;
  for (const MatrixGolden& golden : kMatrixGoldens) {
    if (golden.trained != trained) continue;
    const ClusterSimConfig config = MatrixConfig(
        static_cast<std::uint64_t>(golden.seed), golden.machines);
    SimulationResult result;
    if (trained) {
      TrainedPolicy policy = TrainedQPolicy();
      result = RunCompat(config, catalog, policy);
    } else {
      UserDefinedPolicy policy;
      result = RunCompat(config, catalog, policy);
    }
    EXPECT_EQ(FingerprintOf(result), golden.fingerprint)
        << "seed=" << golden.seed << " machines=" << golden.machines
        << " trained=" << trained;
    EXPECT_GT(result.log.size(), 0u);
    ++checked;
  }
  EXPECT_EQ(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(Policies, FleetEquivalenceTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "TrainedQPolicy"
                                             : "UserPolicy";
                         });

struct TraceGolden {
  const char* scale;
  Fingerprint fingerprint;
};

// GenerateTrace(TraceConfigForScale(scale)) with the default seed (42),
// recorded from the seed engine: the traces every bench and figure trains
// on.
const TraceGolden kTraceGoldens[] = {
    {"small",
     {0x7b111ce209d02874ULL, 0x4b9c3704a949641bULL, 0xf5645a612150d58cULL,
      9760, 0, 1779, 8043098}},
    {"default",
     {0x5f31cf1400ff3f0cULL, 0x2dee821a9571bf0cULL, 0x69fc0e634292ef1aULL,
      98890, 0, 18058, 77741800}},
};

TEST(FleetGoldenTest, GenerateTraceMatchesSeedEngine) {
  for (const TraceGolden& golden : kTraceGoldens) {
    const TraceDataset dataset =
        GenerateTrace(TraceConfigForScale(golden.scale));
    EXPECT_EQ(FingerprintOf(dataset.result), golden.fingerprint)
        << "scale=" << golden.scale;
  }
}

ClusterSimConfig ShardedConfig() {
  ClusterSimConfig config;
  config.num_machines = 3000;
  config.duration = 10 * kDay;
  config.machine_mtbf_days = 8.0;
  config.machine_speed_spread = 0.2;
  config.diurnal_amplitude = 0.3;
  config.seed = 99;
  return config;
}

// The sharded engine's output is a pure function of the config: 1, 2 and 8
// pool threads (and no pool at all) produce byte-identical results.
TEST(FleetShardingTest, ThreadCountInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = ShardedConfig(), .num_shards = 8};

  UserDefinedPolicy policy;
  const SimulationResult serial =
      FleetSimulator(config, catalog).Run(policy, nullptr);
  EXPECT_GT(serial.processes_completed, 100);
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    UserDefinedPolicy p;
    const SimulationResult parallel =
        FleetSimulator(config, catalog).Run(p, &pool);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectResultsIdentical(serial, parallel);
  }
}

// Shard boundaries are not allowed to leak into the output either: the
// per-machine stream discipline makes 1, 5 and 32 shards byte-identical.
TEST(FleetShardingTest, ShardCountInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  ThreadPool pool(4);

  UserDefinedPolicy policy;
  const FleetSimConfig one{.sim = ShardedConfig(), .num_shards = 1};
  const SimulationResult baseline =
      FleetSimulator(one, catalog).Run(policy, &pool);
  for (const int shards : {5, 32}) {
    const FleetSimConfig config{.sim = ShardedConfig(),
                                .num_shards = shards};
    UserDefinedPolicy p;
    const SimulationResult result =
        FleetSimulator(config, catalog).Run(p, &pool);
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExpectResultsIdentical(baseline, result);
  }
}

// Thread invariance holds with the trained policy in the loop too (pure
// ChooseAction invoked concurrently from shard threads).
TEST(FleetShardingTest, TrainedPolicyThreadInvariance) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = ShardedConfig(), .num_shards = 8};

  TrainedPolicy serial_policy = TrainedQPolicy();
  const SimulationResult serial =
      FleetSimulator(config, catalog).Run(serial_policy, nullptr);
  ThreadPool pool(8);
  TrainedPolicy parallel_policy = TrainedQPolicy();
  const SimulationResult parallel =
      FleetSimulator(config, catalog).Run(parallel_policy, &pool);
  ExpectResultsIdentical(serial, parallel);
}

// The compat mode shares the sharded engine's event core; its
// repeatability is its own guarantee (two compat runs are bit-equal),
// independent of the recorded goldens.
TEST(FleetShardingTest, CompatIsDeterministic) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  const FleetSimConfig config{.sim = MatrixConfig(3, 100)};
  UserDefinedPolicy a;
  UserDefinedPolicy b;
  const SimulationResult ra = FleetSimulator(config, catalog).RunSeedCompat(a);
  const SimulationResult rb = FleetSimulator(config, catalog).RunSeedCompat(b);
  ExpectResultsIdentical(ra, rb);
}

}  // namespace
}  // namespace aer::fleet
