// Concurrency hammers for the mutex-protected components whose lock
// discipline the Clang thread-safety annotations now state in the types
// (docs/STATIC_ANALYSIS.md). The annotations prove "every access holds the
// right lock" at compile time on the clang leg; these tests drive the same
// components from many threads so the TSan leg checks the complementary
// dynamic property — and so regressions fail on every compiler, not just
// under clang.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/profiler.h"
#include "core/guarded_policy.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace aer {
namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 500;

TEST(LockDisciplineTest, ProfilerScopesRaceSnapshotAndReset) {
  ProfileRegistry registry;
  std::atomic<bool> stop{false};

  // Reader thread: merged snapshots must stay well-formed while every
  // worker mutates its shard structure (Enter) and counters (Exit).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const ProfileEntry& entry : registry.Snapshot()) {
        ASSERT_FALSE(entry.path.empty());
        ASSERT_GE(entry.calls, 1);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      ProfileRegistry::Shard& shard = registry.LocalShard();
      for (int i = 0; i < kIterations; ++i) {
        shard.Enter("outer");
        shard.Enter(i % 2 == 0 ? "even" : "odd");
        shard.Exit(10);
        shard.Exit(25);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Every enter/exit pair is accounted for exactly once after the join.
  EXPECT_EQ(registry.TotalCalls(), 2 * kThreads * kIterations);

  registry.Reset();
  EXPECT_EQ(registry.TotalCalls(), 0);
}

TEST(LockDisciplineTest, GuardedPolicyConcurrentDecisionsStayConsistent) {
  class FixedPolicy final : public RecoveryPolicy {
   public:
    RepairAction ChooseAction(const RecoveryContext&) override {
      return RepairAction::kReboot;
    }
    std::string_view name() const override { return "fixed"; }
  };

  FixedPolicy primary;
  FixedPolicy fallback;
  GuardedPolicyConfig config;
  config.baseline_mean_downtime = 100.0;
  GuardedPolicy guard(primary, fallback, config);

  obs::MetricsRegistry metrics;
  guard.SetObservers({.metrics = &metrics});

  // Each thread drives its own disjoint set of machines through full
  // decide -> outcome processes; attribution entries never collide.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&guard, t] {
      for (int i = 0; i < kIterations; ++i) {
        RecoveryContext context;
        context.machine = static_cast<MachineId>(t * kIterations + i);
        context.process_start = 0;
        context.now = 80;  // below baseline: the breaker never trips
        const RepairAction action = guard.ChooseAction(context);
        guard.OnActionOutcome(context, action, 80, /*cured=*/true);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const GuardedPolicy::Stats stats = guard.stats();
  const std::int64_t total = kThreads * kIterations;
  EXPECT_EQ(stats.primary_decisions + stats.fallback_decisions, total);
  EXPECT_EQ(stats.processes_observed, total);
  EXPECT_EQ(stats.faults_absorbed, 0);
  EXPECT_EQ(stats.breaker_trips, 0);
  EXPECT_FALSE(guard.using_fallback());
  // The mirrored metrics saw every decision too.
  std::int64_t mirrored = -1;
  for (const auto& [name, value] : metrics.CounterValues()) {
    if (name == "aer_guard_primary_decisions_total") mirrored = value;
  }
  EXPECT_EQ(mirrored, stats.primary_decisions);
}

TEST(LockDisciplineTest, GuardedPolicyAbsorbsConcurrentFaults) {
  class ThrowingPolicy final : public RecoveryPolicy {
   public:
    RepairAction ChooseAction(const RecoveryContext&) override {
      throw std::runtime_error("corrupted");
    }
    std::string_view name() const override { return "throwing"; }
  };
  class FixedPolicy final : public RecoveryPolicy {
   public:
    RepairAction ChooseAction(const RecoveryContext&) override {
      return RepairAction::kTryNop;
    }
    std::string_view name() const override { return "fixed"; }
  };

  ThrowingPolicy primary;
  FixedPolicy fallback;
  GuardedPolicy guard(primary, fallback);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&guard, t] {
      for (int i = 0; i < kIterations; ++i) {
        RecoveryContext context;
        context.machine = static_cast<MachineId>(t * kIterations + i);
        EXPECT_EQ(guard.ChooseAction(context), RepairAction::kTryNop);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const GuardedPolicy::Stats stats = guard.stats();
  const std::int64_t total = kThreads * kIterations;
  EXPECT_EQ(stats.faults_absorbed, total);
  EXPECT_EQ(stats.fallback_decisions, total);
  EXPECT_EQ(stats.primary_decisions, 0);
}

TEST(LockDisciplineTest, TimeSeriesRecorderRacesWritersAndReaders) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesConfig config;
  config.window_width = 10;
  config.capacity = 4096;
  obs::TimeSeriesRecorder recorder(registry, config);

  obs::Counter& hits = registry.GetCounter("aer_test_hits_total");

  std::atomic<bool> stop{false};
  // Readers exercise every export path while windows open and close.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto windows = recorder.Windows();
        for (const obs::TimeSeriesWindow& w : windows) {
          ASSERT_LT(w.start, w.end);
        }
        (void)recorder.ExportText();
        (void)recorder.windows_closed();
      }
    });
  }

  // Writers bump the counter; one advancer owns the position axis
  // (positions must be monotone, so advancing is single-threaded by
  // contract — the lock protects the window state, not the axis).
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hits] {
      for (int i = 0; i < kIterations; ++i) hits.Inc();
    });
  }
  for (std::int64_t position = 1; position <= 200; ++position) {
    recorder.AdvanceTo(position);
  }
  for (std::thread& writer : writers) writer.join();
  recorder.Finish(1000);
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // After Finish, every increment is in exactly one closed window.
  std::int64_t accounted = 0;
  for (const obs::TimeSeriesWindow& w : recorder.Windows()) {
    for (const auto& [name, delta] : w.counter_deltas) {
      if (name == "aer_test_hits_total") accounted += delta;
    }
  }
  EXPECT_EQ(accounted, kThreads * kIterations);
}

TEST(LockDisciplineTest, MetricsRegistryConcurrentMergeAdds) {
  obs::MetricsRegistry target;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&target] {
      obs::MetricsRegistry shard;
      obs::Counter& local = shard.GetCounter("aer_test_merged_total");
      shard.GetStat("aer_test_latency").Observe(1.5);
      for (int i = 0; i < kIterations; ++i) local.Inc();
      target.MergeFrom(shard);
    });
  }
  std::thread snapshotter([&target] {
    for (int i = 0; i < 50; ++i) (void)target.Snapshot();
  });
  for (std::thread& worker : workers) worker.join();
  snapshotter.join();

  std::int64_t merged = -1;
  for (const auto& [name, value] : target.CounterValues()) {
    if (name == "aer_test_merged_total") merged = value;
  }
  EXPECT_EQ(merged, kThreads * kIterations);
}

}  // namespace
}  // namespace aer
