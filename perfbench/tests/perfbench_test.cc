// Tests of the benchmark's own arithmetic and its serve loop.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "cluster/trace.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "mining/error_type.h"
#include "mining/symptom_clusters.h"
#include "sample_stats.h"
#include "serve.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aer::RepairAction;

// --- percentiles -------------------------------------------------------------

TEST(PercentileTest, NearestRankOnOneToThousand) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.999), 999.0);
  EXPECT_EQ(Percentile(v, 1.0), 1000.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(Percentile(one, 0.999), 7.0);
}

TEST(PercentileTest, TailCountIsSamplesPastTheRank) {
  EXPECT_EQ(TailCount(1000, 0.999), 1u);
  EXPECT_EQ(TailCount(1000, 0.5), 500u);
  // serve_fleet makes about 1.9M calls a pass: p99.9 keeps 1,900 beyond.
  EXPECT_EQ(TailCount(1900000, 0.999), 1900u);
  // Below 10,000 samples p99.9 has fewer than kMinTailSamples beyond it.
  EXPECT_LT(TailCount(9999, 0.999), kMinTailSamples);
  EXPECT_GE(TailCount(10000, 0.999), kMinTailSamples);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// --- self time ---------------------------------------------------------------

TEST(SelfTimeTest, NestedAndParallelChildren) {
  // root [0,100]; a [10,40] and b [30,60] overlap (two pool threads);
  // a has a grandchild [15,20]; c [90,130] runs past the root's end.
  const std::vector<Span> spans = {
      {0, kNoParent, 0, 100},  // 0 root
      {1, 0, 10, 40},          // 1 a
      {1, 0, 30, 60},          // 2 b
      {2, 1, 15, 20},          // 3 grandchild of a
      {1, 0, 90, 130},         // 4 c, clipped to [90,100]
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 40);

  const std::vector<std::string> names = {"bench.pass", "rl.train_type",
                                          "rl.sweep"};
  std::map<int, TreeTotals> totals = TotalsByRoot(spans, names);
  ASSERT_EQ(totals.size(), 1u);
  const TreeTotals& t = totals[0];
  EXPECT_DOUBLE_EQ(t.self_seconds.at("bench"), 40e-9);
  EXPECT_DOUBLE_EQ(t.self_seconds.at("rl"), (25 + 30 + 5 + 40) * 1e-9);
  EXPECT_EQ(t.calls.at("rl.train_type"), 3);
  EXPECT_DOUBLE_EQ(t.seconds.at("rl.train_type"), (30 + 30 + 40) * 1e-9);
  EXPECT_DOUBLE_EQ(t.max_seconds.at("rl.train_type"), 40e-9);
}

TEST(SelfTimeTest, RecorderNestsScopedSpans) {
  SpanRecorder recorder;
  int outer_id = 0;
  {
    const ScopedSpan outer(&recorder, "bench.pass");
    outer_id = outer.id();
    const ScopedSpan inner(&recorder, "log.segment");
    EXPECT_EQ(CurrentSpan(), inner.id());
  }
  EXPECT_EQ(CurrentSpan(), kNoParent);
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const ScopedSpan off(nullptr, "log.segment");  // disabled: no-op
  EXPECT_EQ(recorder.spans().size(), 2u);
}

// --- pool idle ratio -----------------------------------------------------------

TEST(PoolIdleRatioTest, BusyShareOfSlots) {
  // Three slots (two workers + the caller) for 2 s, 4.5 s of type work.
  EXPECT_DOUBLE_EQ(PoolIdleRatio(4.5, 3, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(PoolIdleRatio(6.0, 3, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(PoolIdleRatio(0.0, 3, 2.0), 1.0);
}

// --- serve_fleet loop ----------------------------------------------------------

class FixedPolicy final : public aer::RecoveryPolicy {
 public:
  explicit FixedPolicy(RepairAction action) : action_(action) {}
  RepairAction ChooseAction(const aer::RecoveryContext&) override {
    return action_;
  }
  std::string_view name() const override { return "fixed"; }

 private:
  RepairAction action_;
};

// One logged process on machine 3: two symptoms, REBOOT failed, REIMAGE
// cured.
struct HandBuilt {
  aer::SymptomTable symptoms;
  std::vector<aer::RecoveryProcess> processes;

  HandBuilt() {
    const aer::SymptomId disk = symptoms.Intern("DiskError");
    const aer::SymptomId io = symptoms.Intern("IoTimeout");
    processes.emplace_back(
        3, std::vector<aer::SymptomEvent>{{100, disk}, {150, io}},
        std::vector<aer::ActionAttempt>{{RepairAction::kReboot, 200, 2400, false},
                                        {RepairAction::kReimage, 2600, 9000, true}},
        11600);
  }
};

TEST(ServeLoopTest, CureRuleIsStrongerCoversWeaker) {
  EXPECT_TRUE(Cures(RepairAction::kReimage, RepairAction::kReimage));
  EXPECT_TRUE(Cures(RepairAction::kRma, RepairAction::kReimage));
  EXPECT_FALSE(Cures(RepairAction::kReboot, RepairAction::kReimage));
  EXPECT_FALSE(Cures(RepairAction::kTryNop, RepairAction::kReboot));
}

TEST(ServeLoopTest, StrongEnoughActionCuresAtOnce) {
  const HandBuilt log;
  const ServeInput input = BuildServeInput(log.processes, log.symptoms, 1);
  ASSERT_EQ(input.processes.size(), 1u);
  EXPECT_EQ(input.processes[0].cure, RepairAction::kReimage);
  EXPECT_EQ(input.processes[0].first_action, 200);
  EXPECT_EQ(input.logged_calls, 2 + 2 * 2);

  FixedPolicy reimage(RepairAction::kReimage);
  ServeOptions options;
  const ServeResult r = RunServePass(input, reimage, options);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.served, 1);
  EXPECT_EQ(r.completed, 1);
  EXPECT_EQ(r.calls, 2 + 2);  // two symptoms, one request, one result
  EXPECT_EQ(r.latency_us.size(), 4u);
  // From the first symptom (100) to the cure at 200 + 9000.
  EXPECT_DOUBLE_EQ(r.served_downtime, 200 + 9000 - 100);
  EXPECT_DOUBLE_EQ(r.logged_downtime, 11600 - 100);
}

TEST(ServeLoopTest, WeakActionsRunToTheNCap) {
  const HandBuilt log;
  const ServeInput input = BuildServeInput(log.processes, log.symptoms, 1);
  FixedPolicy nop(RepairAction::kTryNop);
  ServeOptions options;
  options.observers = false;
  const ServeResult r = RunServePass(input, nop, options);
  // The manager forces RMA as the 20th action, which always cures.
  const int n = aer::RecoveryManagerConfig{}.max_actions_per_process;
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.completed, 1);
  EXPECT_EQ(r.calls, 2 + 2 * n);
  EXPECT_DOUBLE_EQ(r.served_downtime,
                   200 + (n - 1) * ActionDuration(RepairAction::kTryNop) +
                       ActionDuration(RepairAction::kRma) - 100);
  // Deterministic decision stream.
  EXPECT_EQ(RunServePass(input, nop, options).checksum, r.checksum);
}

// --- train_default equals ExperimentRunner::RunOne(0.4) ------------------------

TEST(TrainDefaultTest, PassMatchesExperimentRunner) {
  Seeds seeds;
  seeds.trace = 42;
  seeds.train = 42;
  aer::ThreadPool pool(2);
  std::unique_ptr<Workload> workload =
      MakeWorkload("train_default", seeds, pool);
  ASSERT_NE(workload, nullptr);
  workload->Setup(nullptr);
  const PassOutput pass = workload->Pass(PassOptions{});
  EXPECT_EQ(pass.failed, 0);

  // The reference: the repository's own experiment path (bench_common's
  // front end + ExperimentRunner), serial training.
  aer::TraceConfig config = aer::TraceConfigForScale("default");
  config.sim.seed = seeds.trace;
  const aer::TraceDataset trace = aer::GenerateTrace(config);
  const std::vector<aer::RecoveryProcess> all =
      aer::SegmentIntoProcesses(trace.result.log).processes;
  const aer::SymptomClustering clustering(all, aer::MPatternConfig{});
  std::vector<aer::RecoveryProcess> clean;
  for (const std::size_t i : aer::FilterNoisyProcesses(all, clustering).clean) {
    clean.push_back(all[i]);
  }
  aer::ExperimentConfig experiment;
  experiment.trainer.seed = seeds.train;
  const aer::ExperimentRunner runner(clean, trace.result.log.symptoms(),
                                     experiment);
  const aer::ExperimentResult reference = runner.RunOne(0.4);
  const std::string expected =
      TrainDigest(reference.policy, reference.trained, reference.hybrid);
  EXPECT_EQ(pass.digest.substr(0, expected.size()), expected);
  EXPECT_DOUBLE_EQ(pass.relative_cost, reference.hybrid.overall_relative_cost);

  // The traced pass computes the same output.
  SpanRecorder recorder;
  const PassOutput traced = workload->Pass(PassOptions{&recorder, true});
  EXPECT_EQ(traced.digest, pass.digest);
}

}  // namespace
}  // namespace perfbench
