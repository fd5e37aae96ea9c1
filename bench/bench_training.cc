// Serial vs parallel training throughput (docs/PARALLELISM.md).
//
// Trains the full per-type policy twice from the same master seed — once on
// the serial QLearningTrainer, once sharded by error type over the shared
// ThreadPool — and reports episodes/sec for both plus the speedup. The two
// runs must produce byte-identical serialized policies (the determinism
// contract); the bench aborts if they ever diverge, and folds the serialized
// policy and every per-type Q-table into the BENCH_training.json checksum so
// run_all.py catches numeric drift across commits. The selection-tree
// trainer, whose exact prefix scans the plain arms never run, gets the same
// serial-vs-sharded pair, its own gate and its policy in the checksum.
//
// This TU also carries the compiled-out profiler proof: it defines
// AER_PROFILING_DISABLED before including profiler.h — the state every TU
// has in a -DAER_PROFILING=OFF build — so AER_PROFILE_SCOPE must vanish
// here (static_assert below) and record nothing at run time (checked in
// Run()). The *library* keeps whatever instrumentation the build selected.
#ifndef AER_PROFILING_DISABLED
#define AER_PROFILING_DISABLED
#endif
#include "common/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench_common.h"
#include "bench_json.h"
#include "common/check.h"
#include "mining/error_type.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "rl/parallel_trainer.h"
#include "rl/qlearning.h"
#include "rl/selection_tree.h"
#include "rl/telemetry.h"
#include "sim/platform.h"

namespace aer::bench {
namespace {

static_assert(AER_PROFILING_IS_ON() == 0,
              "this TU disables profiling; the macro must see that");

// Compiles only if AER_PROFILE_SCOPE expands to nothing at all — any object
// construction would be ill-formed in a constexpr function.
constexpr int ProfilerCompiledOut() {
  AER_PROFILE_SCOPE("bench_probe");
  return 1;
}
static_assert(ProfilerCompiledOut() == 1,
              "AER_PROFILE_SCOPE must compile out under "
              "AER_PROFILING_DISABLED");

// The interquartile mean of `values` (the mean of their middle half) and
// its standard error from the winsorized spread (Tukey–McLaughlin): robust
// to the few samples a noisy neighbour disturbs, yet it averages the rest.
struct TrimmedMean {
  double mean = 0.0;
  double se = 0.0;
};

TrimmedMean InterquartileMean(std::vector<double> values) {
  AER_CHECK_GE(values.size(), 4u);
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t g = n / 4;
  const double lo = values[g];
  const double hi = values[n - g - 1];
  double kept = 0.0;
  double winsorized = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= g && i < n - g) kept += values[i];
    winsorized += std::clamp(values[i], lo, hi);
  }
  const double winsorized_mean = winsorized / static_cast<double>(n);
  double sq = 0.0;
  for (const double v : values) {
    const double d = std::clamp(v, lo, hi) - winsorized_mean;
    sq += d * d;
  }
  const double kept_share =
      static_cast<double>(n - 2 * g) / static_cast<double>(n);
  return {kept / static_cast<double>(n - 2 * g),
          std::sqrt(sq / static_cast<double>(n - 1)) /
              (kept_share * std::sqrt(static_cast<double>(n)))};
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Run() {
  Header("training",
         "Section 4 training loop (engineering extension)",
         "Serial vs per-error-type parallel training: same seed, same bytes "
         "out, episodes/sec and speedup recorded to BENCH_training.json.");

  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const SimulationPlatform platform(
      dataset.clean, types, dataset.trace.result.log.symptoms(), 20);
  const ExperimentConfig experiment = DefaultExperimentConfig();
  const TrainerConfig config = experiment.trainer;
  const QLearningTrainer trainer(platform, dataset.clean, config);

  // Serial arm: the unmodified reference trainer.
  const auto serial_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput serial = trainer.TrainAll();
  const double serial_ms = MsSince(serial_start);

  // Parallel arm: sharded by type over the shared pool.
  ThreadPool& pool = GetPool();
  const ParallelTrainer parallel_trainer(trainer, pool);
  std::vector<QTable> tables;
  const auto parallel_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput parallel =
      parallel_trainer.TrainAll(&tables);
  const double parallel_ms = MsSince(parallel_start);

  // Equivalence gate: the serialized policies must match byte for byte.
  std::ostringstream serial_bytes;
  serial.policy.Write(serial_bytes);
  std::ostringstream parallel_bytes;
  parallel.policy.Write(parallel_bytes);
  AER_CHECK(serial_bytes.str() == parallel_bytes.str())
      << "parallel training diverged from the serial trainer";

  const std::int64_t episodes = ParallelTrainer::TotalEpisodes(serial);
  AER_CHECK_EQ(episodes, ParallelTrainer::TotalEpisodes(parallel));
  const double serial_eps = episodes / (serial_ms / 1000.0);
  const double parallel_eps = episodes / (parallel_ms / 1000.0);

  // Selection-tree arms: the policy generation the experiments deploy,
  // serial and sharded, under the same byte-identity gate.
  const SelectionTreeTrainer tree(trainer, experiment.tree);
  const auto tree_serial_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput tree_serial = tree.TrainAll();
  const double tree_serial_ms = MsSince(tree_serial_start);
  const auto tree_parallel_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput tree_parallel =
      ParallelTrainer(tree, pool).TrainAll();
  const double tree_parallel_ms = MsSince(tree_parallel_start);
  std::ostringstream tree_serial_bytes;
  tree_serial.policy.Write(tree_serial_bytes);
  std::ostringstream tree_bytes;
  tree_parallel.policy.Write(tree_bytes);
  AER_CHECK(tree_serial_bytes.str() == tree_bytes.str())
      << "parallel selection-tree training diverged from the serial trainer";
  const std::int64_t tree_episodes =
      ParallelTrainer::TotalEpisodes(tree_serial);
  AER_CHECK_EQ(tree_episodes, ParallelTrainer::TotalEpisodes(tree_parallel));
  const double tree_eps = tree_episodes / (tree_serial_ms / 1000.0);

  // Runtime half of the compiled-out profiler proof (the compile-time half
  // is the static_assert above): a million disabled scopes leave the global
  // registry's call count untouched, because the loop body is literally
  // empty.
  const std::int64_t profile_calls_before =
      ProfileRegistry::Global().TotalCalls();
  for (int i = 0; i < 1000000; ++i) {
    AER_PROFILE_SCOPE("bench_disabled_probe");
  }
  AER_CHECK_EQ(ProfileRegistry::Global().TotalCalls(), profile_calls_before)
      << "a compiled-out AER_PROFILE_SCOPE recorded profiler calls";

  // Telemetry arm: the serial trainer again, with per-episode telemetry
  // collection on and the full observability stack attached — each type's
  // shard is published into a live registry as it finishes, with a
  // TimeSeriesRecorder advancing on cumulative episodes. Two gates:
  // telemetry+recorder is observation-only (byte-identical policy) and
  // near-free (a typical type trains < 5% slower). Each type's telemetry
  // run is timed against a plain TrainType of the same type right next to
  // it, the two alternating which goes first, so host drift hits both
  // halves of a pair alike; the noise allowance comes from the pairs.
  TrainerConfig telemetry_config = config;
  telemetry_config.collect_telemetry = true;
  const QLearningTrainer telemetry_trainer(platform, dataset.clean,
                                           telemetry_config);
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder recorder(
      registry, {.window_width = episodes >= 8 ? episodes / 8 : 1});
  std::vector<TypeTrainingResult> per_type;
  std::int64_t telemetry_episodes = 0;
  std::vector<double> plain_pair_ms;
  std::vector<double> telemetry_pair_ms;
  for (std::size_t t = 0; t < types.num_types(); ++t) {
    const auto type = static_cast<ErrorTypeId>(t);
    const auto train_plain = [&] {
      const auto start = std::chrono::steady_clock::now();
      trainer.TrainType(type);
      plain_pair_ms.push_back(MsSince(start));
    };
    const auto train_telemetry = [&] {
      const auto start = std::chrono::steady_clock::now();
      per_type.push_back(telemetry_trainer.TrainType(type));
      PublishTypeTelemetry(registry, per_type.back());
      telemetry_episodes += per_type.back().episodes;
      recorder.AdvanceTo(telemetry_episodes);
      telemetry_pair_ms.push_back(MsSince(start));
    };
    if (t % 2 == 0) {
      train_plain();
      train_telemetry();
    } else {
      train_telemetry();
      train_plain();
    }
  }
  const auto assemble_start = std::chrono::steady_clock::now();
  const QLearningTrainer::TrainingOutput telemetry =
      AssembleTrainingOutput(platform, std::move(per_type));
  recorder.Finish(telemetry_episodes);
  PublishTrainingSummary(registry, telemetry.per_type);
  double telemetry_ms = MsSince(assemble_start);
  std::vector<double> ratios;
  for (std::size_t t = 0; t < plain_pair_ms.size(); ++t) {
    telemetry_ms += telemetry_pair_ms[t];
    ratios.push_back(telemetry_pair_ms[t] / plain_pair_ms[t]);
  }
  // The overhead is the interquartile mean of the per-type ratios, and the
  // allowance two of its standard errors: a quiet host gets a tight bound.
  const TrimmedMean overhead = InterquartileMean(ratios);
  std::ostringstream telemetry_bytes;
  telemetry.policy.Write(telemetry_bytes);
  AER_CHECK(telemetry_bytes.str() == serial_bytes.str())
      << "telemetry collection changed the trained policy";
  AER_CHECK_LE(overhead.mean, 1.05 + 2.0 * overhead.se)
      << "telemetry overhead above 5%: per-type ratio " << overhead.mean
      << " (interquartile mean of " << ratios.size()
      << " pairs), standard error " << overhead.se;
  AER_CHECK_EQ(telemetry_episodes, episodes)
      << "per-type training diverged from TrainAll's episode count";
  AER_CHECK_GE(recorder.windows_closed(), 1)
      << "the recorder closed no windows over a full training run";
  const double telemetry_eps = episodes / (telemetry_ms / 1000.0);

  PublishTrainingThroughput(registry, telemetry_eps);

  BenchRecord& record = BenchRecord::Instance();
  record.RecordRegistrySnapshot(registry);
  // The windowed deltas are deterministic too (docs/OBSERVABILITY.md), so
  // folding the recorder's export catches drift in *when* counters moved,
  // not just their totals.
  record.FoldChecksum(recorder.ExportText());
  record.SetIntMetric("ts_windows_closed", recorder.windows_closed());
  record.FoldChecksum(parallel_bytes.str());
  for (const QTable& table : tables) {
    std::ostringstream table_bytes;
    table.Write(table_bytes);
    record.FoldChecksum(table_bytes.str());
  }
  record.FoldChecksum(tree_bytes.str());
  record.SetIntMetric("episodes", episodes);
  record.SetIntMetric("tree_episodes", tree_episodes);
  record.SetIntMetric("types", static_cast<std::int64_t>(types.num_types()));
  record.SetMetric("serial_wall_ms", serial_ms);
  record.SetMetric("parallel_wall_ms", parallel_ms);
  record.SetMetric("episodes_per_sec_serial", serial_eps);
  record.SetMetric("episodes_per_sec", parallel_eps);
  record.SetMetric("speedup_vs_serial", serial_eps > 0.0
                                            ? parallel_eps / serial_eps
                                            : 0.0);

  record.SetMetric("episodes_per_sec_telemetry", telemetry_eps);
  record.SetMetric("telemetry_wall_ms", telemetry_ms);
  // The gated tree throughput is the serial arm's: on one thread a slower
  // scan shows in full, without the pool's scheduling noise.
  record.SetMetric("episodes_per_sec_tree", tree_eps);
  record.SetMetric("tree_serial_wall_ms", tree_serial_ms);
  record.SetMetric("tree_parallel_wall_ms", tree_parallel_ms);

  std::printf("\n%-10s %14s %16s\n", "arm", "wall ms", "episodes/sec");
  std::printf("%-10s %14.1f %16.1f\n", "serial", serial_ms, serial_eps);
  std::printf("%-10s %14.1f %16.1f\n", "parallel", parallel_ms, parallel_eps);
  std::printf("%-10s %14.1f %16.1f\n", "telemetry", telemetry_ms,
              telemetry_eps);
  std::printf("%-10s %14.1f %16.1f\n", "tree", tree_serial_ms, tree_eps);
  std::printf("%-10s %14.1f %16.1f\n", "tree par.", tree_parallel_ms,
              tree_episodes / (tree_parallel_ms / 1000.0));
  std::printf("\nepisodes: %lld across %zu types, %d worker thread(s), "
              "speedup %.2fx\n",
              static_cast<long long>(episodes), types.num_types(),
              ThreadPool::DefaultThreadCount(),
              serial_eps > 0.0 ? parallel_eps / serial_eps : 0.0);
  std::printf("serialized policies: identical (%zu bytes; tree %zu bytes, "
              "%lld episodes)\n",
              parallel_bytes.str().size(), tree_bytes.str().size(),
              static_cast<long long>(tree_episodes));
  std::printf("telemetry overhead: %.3fx (interquartile mean of %zu "
              "pairs), standard error %.3f\n",
              overhead.mean, ratios.size(), overhead.se);
  std::printf("time series: %lld windows closed, %lld dropped\n",
              static_cast<long long>(recorder.windows_closed()),
              static_cast<long long>(recorder.windows_dropped()));

  Footer();
}

}  // namespace
}  // namespace aer::bench

int main() {
  aer::bench::Run();
  return 0;
}
