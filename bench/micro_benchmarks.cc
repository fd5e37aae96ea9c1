// google-benchmark micro-benchmarks for the hot paths: Q-table operations,
// Boltzmann sampling, process replay steps, trainer sweeps, log
// segmentation, m-pattern mining and log (de)serialization throughput.
#include <sstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "bench_json.h"
#include "common/string_util.h"
#include "mining/error_type.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "rl/qlearning.h"

namespace aer::bench {
namespace {

void BM_QTableUpdate(benchmark::State& state) {
  QTable table;
  Rng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const StateKey s = i++ % 4096;
    table.Update(s, RepairAction::kReboot, rng.NextDouble() * 1000);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QTableUpdate);

void BM_QTableBestAction(benchmark::State& state) {
  QTable table;
  for (StateKey s = 0; s < 4096; ++s) {
    for (RepairAction a : kAllActions) {
      table.Update(s, a, static_cast<double>(s ^ ActionIndex(a)));
    }
  }
  StateKey s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.BestAction(s++ % 4096));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QTableBestAction);

void BM_BoltzmannSample(benchmark::State& state) {
  Rng rng(2);
  const std::vector<double> costs = {900.0, 2400.0, 9000.0, 90000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBoltzmann(costs, 2000.0, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoltzmannSample);

void BM_StateEncode(benchmark::State& state) {
  const std::vector<RepairAction> tried = {
      RepairAction::kTryNop, RepairAction::kReboot, RepairAction::kReboot,
      RepairAction::kReimage};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeState(17, tried));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateEncode);

void BM_ProcessReplayEpisode(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const ErrorTypeCatalog types(dataset.clean, 40);
  const CostEstimator estimator(dataset.clean, types);
  // Use the most frequent type's first process.
  const RecoveryProcess* process = nullptr;
  for (const RecoveryProcess& p : dataset.clean) {
    if (types.Classify(p) == 0) {
      process = &p;
      break;
    }
  }
  for (auto _ : state) {
    ProcessReplay replay(*process, 0, estimator);
    replay.Step(RepairAction::kTryNop);
    if (!replay.cured()) replay.Step(RepairAction::kReboot);
    if (!replay.cured()) replay.Step(RepairAction::kReimage);
    benchmark::DoNotOptimize(replay.total_cost());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcessReplayEpisode);

void BM_TrainerSweeps(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  static const ErrorTypeCatalog types(dataset.clean, 40);
  static const SimulationPlatform platform(
      dataset.clean, types, dataset.trace.result.log.symptoms(), 20);
  TrainerConfig config;
  config.max_sweeps = state.range(0);
  config.min_sweeps = state.range(0);  // run the full budget
  config.stable_checks = 1 << 20;      // never early-stop
  const QLearningTrainer trainer(platform, dataset.clean, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainType(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["sweeps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainerSweeps)->Arg(2000)->Arg(10000);

void BM_LogSegmentation(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SegmentIntoProcesses(dataset.trace.result.log));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogSegmentation);

void BM_MPatternMining(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  const std::vector<Transaction> txns =
      BuildSymptomTransactions(dataset.all);
  MPatternConfig config;
  config.minp = 0.1;
  const MPatternMiner miner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.MineMaximal(txns));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(txns.size()));
}
BENCHMARK(BM_MPatternMining);

void BM_LogSerializationRoundTrip(benchmark::State& state) {
  const BenchDataset& dataset = GetDataset();
  for (auto _ : state) {
    std::stringstream ss;
    dataset.trace.result.log.Write(ss);
    RecoveryLog parsed;
    benchmark::DoNotOptimize(RecoveryLog::Read(ss, parsed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              dataset.trace.result.log.size()));
}
BENCHMARK(BM_LogSerializationRoundTrip);

// Observability overhead (docs/OBSERVABILITY.md): the instrumented hot
// paths pay one cached-pointer counter increment or histogram observe per
// event, never a registry lookup — these pin the cost of each.
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  // Throwaway probe name in a private registry, never exported — not a
  // catalog entry.
  obs::Counter& counter = registry.GetCounter(
      "aer_bench_counter");  // aer-lint: allow(metric-catalog)
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.GetHistogram(
      "aer_bench_histogram");  // aer-lint: allow(metric-catalog)
  std::uint64_t i = 0;
  for (auto _ : state) {
    histogram.Observe(static_cast<double>(i++ % 100000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsRegistryLookup(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.GetCounter("aer_bench_counter");  // aer-lint: allow(metric-catalog)
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.GetCounter(
        "aer_bench_counter"));  // aer-lint: allow(metric-catalog)
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryLookup);

// One span's write path: open, one symptom annotation and close, written
// as span records the way RecoveryManager writes them.
void BM_ObsSpanLifecycle(benchmark::State& state) {
  obs::TraceCollector spans({.capacity = 1024});
  SimTime now = 0;
  for (auto _ : state) {
    const obs::SpanId span =
        spans.Record({.time = now,
                      .kind = obs::TraceEventKind::kProcessOpen,
                      .detail = "Watchdog"});
    spans.Record({.time = now + 1,
                  .kind = obs::TraceEventKind::kAnnotation,
                  .detail = "Watchdog",
                  .span = span,
                  .note = obs::SpanNote::kSymptom});
    spans.Record({.time = now + 2,
                  .kind = obs::TraceEventKind::kProcessClose,
                  .span = span});
    now += 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanLifecycle);

void BM_ObsRegistryExportText(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter(StrFormat("aer_bench_counter_%02d", i)).Inc(i);
  }
  for (int i = 0; i < 8; ++i) {
    obs::Histogram& h =
        registry.GetHistogram(StrFormat("aer_bench_histogram_%d", i));
    for (int j = 0; j < 100; ++j) h.Observe(j * 97.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.ExportText());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryExportText);

void BM_ClusterSimulation(benchmark::State& state) {
  TraceConfig config = TraceConfigForScale("small");
  config.sim.num_machines = 100;
  config.sim.duration = 30 * kDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateTrace(config));
  }
}
BENCHMARK(BM_ClusterSimulation);

// Console output as usual, plus every benchmark's per-iteration real time
// recorded as a "<name>_ns" metric in BENCH_micro_benchmarks.json so
// run_all.py tracks micro-level regressions alongside the figure benches.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const double ns_per_iter = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      BenchRecord::Instance().SetMetric(run.benchmark_name() + "_ns",
                                        ns_per_iter);
    }
  }
};

}  // namespace
}  // namespace aer::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  aer::bench::BenchRecord::Instance().Begin("micro_benchmarks");
  aer::bench::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  aer::bench::BenchRecord::Instance().Finish();
  return 0;
}
