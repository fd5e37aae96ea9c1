// History eviction of the RecoveryManager at fleet scale. The manager finds
// due entries through an expiry index; these tests hold it to the plain
// definition of eviction: every 64th close, prune every entry's flap opens
// at that close's time and drop each entry that is past retention, has no
// open inside the flap window and no open process. EagerHistory below is
// that definition, swept over the whole history exactly as written, and the
// differential test replays seeded streams of more than 10k machines through
// both, comparing after every call. The metamorphic tests relabel machine
// ids and shift every time, and check that nothing observable moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/recovery_manager.h"
#include "obs/span_view.h"
#include "obs/trace_collector.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;
constexpr auto A = RepairAction::kRma;

// A policy whose choice depends on the machine history the manager hands
// it, so an early or late eviction changes decisions, and which records the
// last_recovery_end of every context it sees.
class HistoryProbePolicy : public RecoveryPolicy {
 public:
  static RepairAction Decide(SimTime last_recovery_end, std::size_t tried) {
    if (last_recovery_end < 0) return tried == 0 ? Y : B;
    return tried == 0 ? B : I;
  }
  RepairAction ChooseAction(const RecoveryContext& context) override {
    seen = context.last_recovery_end;
    return Decide(context.last_recovery_end, context.tried.size());
  }
  void OnActionOutcome(const RecoveryContext& context, RepairAction,
                       SimTime, bool) override {
    seen = context.last_recovery_end;
  }
  std::string_view name() const override { return "history-probe"; }

  SimTime seen = -2;
};

// The reference: the manager's history bookkeeping with the eager sweep
// over every entry at every 64th close.
class EagerHistory {
 public:
  explicit EagerHistory(const RecoveryManagerConfig& config)
      : config_(config) {}

  bool IsQuarantined(MachineId machine) const {
    const auto it = open_.find(machine);
    return it != open_.end() && it->second.quarantined;
  }
  SimTime LastRecoveryEnd(MachineId machine) const {
    return open_.at(machine).last_recovery_end;
  }
  std::size_t size() const { return history_.size(); }
  std::int64_t evictions() const { return evictions_; }

  // OnSymptom.
  void Symptom(SimTime time, MachineId machine) {
    if (const auto it = open_.find(machine); it != open_.end()) {
      Clamp(it->second, time);
      return;
    }
    Process process;
    process.last_event_time = time;
    MachineHistory& history = history_[machine];
    process.last_recovery_end = history.last_recovery_end;
    std::erase_if(history.recent_opens, [&](SimTime open_time) {
      return open_time <= time - config_.flap_window;
    });
    history.recent_opens.push_back(time);
    process.quarantined =
        config_.flap_threshold > 0 &&
        static_cast<int>(history.recent_opens.size()) > config_.flap_threshold;
    open_.emplace(machine, process);
  }

  // AdoptProcess on a machine with no open process.
  void Adopt(SimTime now, const OpenProcessSnapshot& snapshot) {
    Process process;
    process.tried = static_cast<int>(snapshot.tried.size());
    process.quarantined = snapshot.quarantined;
    process.last_event_time = std::max(now, snapshot.last_event_time);
    process.last_recovery_end = history_[snapshot.machine].last_recovery_end;
    open_.emplace(snapshot.machine, process);
  }

  // OnRecoveryNeeded with nothing in flight: the expected decision.
  RepairAction Need(SimTime time, MachineId machine) {
    Process& process = open_.at(machine);
    Clamp(process, time);
    RepairAction action;
    if (process.quarantined ||
        process.tried >= config_.max_actions_per_process - 1) {
      action = A;
    } else {
      action = HistoryProbePolicy::Decide(
          process.last_recovery_end, static_cast<std::size_t>(process.tried));
    }
    ++process.tried;
    return action;
  }

  // OnActionResult for the in-flight action.
  void Result(SimTime time, MachineId machine, bool healthy) {
    const auto it = open_.find(machine);
    const SimTime now = Clamp(it->second, time);
    if (!healthy) return;
    history_[machine].last_recovery_end = now;
    open_.erase(it);
    if (++closes_since_sweep_ >= 64) MaybeEvictHistory(now);
  }

 private:
  struct Process {
    SimTime last_event_time = 0;
    SimTime last_recovery_end = -1;
    bool quarantined = false;
    int tried = 0;
  };
  struct MachineHistory {
    SimTime last_recovery_end = -1;
    std::vector<SimTime> recent_opens;
  };

  static SimTime Clamp(Process& process, SimTime time) {
    if (time < process.last_event_time) return process.last_event_time;
    process.last_event_time = time;
    return time;
  }

  void MaybeEvictHistory(SimTime now) {
    closes_since_sweep_ = 0;
    const SimTime horizon = now - config_.history_retention;
    for (auto it = history_.begin(); it != history_.end();) {
      MachineHistory& history = it->second;
      std::erase_if(history.recent_opens, [&](SimTime open_time) {
        return open_time <= now - config_.flap_window;
      });
      const bool stale = history.last_recovery_end < horizon &&
                         history.recent_opens.empty() &&
                         !open_.contains(it->first);
      if (stale) {
        it = history_.erase(it);
        ++evictions_;
      } else {
        ++it;
      }
    }
  }

  RecoveryManagerConfig config_;
  std::unordered_map<MachineId, Process> open_;
  std::unordered_map<MachineId, MachineHistory> history_;
  int closes_since_sweep_ = 0;
  std::int64_t evictions_ = 0;
};

// One manager call of a stream.
struct Call {
  enum class Kind { kSymptom, kNeed, kResult, kAdopt };
  Kind kind = Kind::kSymptom;
  SimTime time = 0;
  MachineId machine = 0;
  bool healthy = false;            // kResult
  bool quarantined = false;        // kAdopt: the snapshot's flag
  bool tried_one = false;          // kAdopt: the snapshot tried TRYNOP
  SimTime snapshot_watermark = 0;  // kAdopt
};

struct StreamSpec {
  RecoveryManagerConfig config;
  int machines = 12000;
  int episodes = 36000;
  SimTime span = 60 * kDay;
  // Time-sorted: every call in global time order (a machine's episodes do
  // not overlap). Otherwise served in start order like perfbench's serve
  // loop, `concurrency` episodes at a time (1: each runs to completion
  // before the next starts), so the instants of successive sweeps go back
  // and forth, with processes open across them when concurrency > 1.
  bool time_sorted = false;
  int concurrency = 1;
  // A machine's next episode may start before its previous one closed, so
  // its last_recovery_end moves backwards (served streams only).
  bool overlap = false;
  SimTime jitter = 0;         // calls arrive up to this much early
  double flapper_share = 0;   // machines that reopen in quick bursts
  double adopt_share = 0;     // episodes opened by AdoptProcess
};

SimTime ActionTime(Rng& rng) {
  // Mostly minutes to hours, with a tail of multi-day repairs that makes
  // served close instants jump far ahead of the stream.
  if (rng.NextBool(0.02)) return rng.NextInt(kDay, 5 * kDay);
  if (rng.NextBool(0.2)) return rng.NextInt(kHour, 12 * kHour);
  return rng.NextInt(60, kHour);
}

std::vector<Call> MakeStream(const StreamSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  struct Episode {
    MachineId machine = 0;
    SimTime start = 0;
  };
  std::vector<Episode> episodes;
  episodes.reserve(static_cast<std::size_t>(spec.episodes));
  const int flappers =
      static_cast<int>(spec.flapper_share * static_cast<double>(spec.machines));
  while (static_cast<int>(episodes.size()) < spec.episodes) {
    const auto machine = static_cast<MachineId>(
        rng.NextBounded(static_cast<std::uint64_t>(spec.machines)));
    // Late enough that jittered times stay positive.
    const SimTime start = rng.NextInt(kDay, spec.span);
    episodes.push_back({machine, start});
    if (machine < flappers) {
      // A burst of reopens a few tens of minutes apart.
      const int burst = static_cast<int>(rng.NextInt(1, 4));
      for (int i = 1; i <= burst; ++i) {
        episodes.push_back({machine, start + i * rng.NextInt(600, 3 * 3600)});
      }
    }
  }
  std::stable_sort(episodes.begin(), episodes.end(),
                   [](const Episode& a, const Episode& b) {
                     return a.start < b.start;
                   });

  // Each episode's calls, in its own time order.
  std::vector<std::vector<Call>> scripts;
  scripts.reserve(episodes.size());
  std::unordered_map<MachineId, SimTime> free_at;
  for (Episode& episode : episodes) {
    if (!spec.overlap) {
      const auto it = free_at.find(episode.machine);
      if (it != free_at.end() && episode.start <= it->second) {
        episode.start = it->second + 1;
      }
    }
    SimTime t = episode.start;
    std::vector<Call>& script = scripts.emplace_back();
    const auto emit = [&](Call call) {
      call.machine = episode.machine;
      call.time = t;
      script.push_back(call);
    };
    if (rng.NextBool(spec.adopt_share)) {
      Call adopt{.kind = Call::Kind::kAdopt};
      adopt.quarantined = rng.NextBool(0.2);
      adopt.tried_one = rng.NextBool(0.5);
      adopt.snapshot_watermark = t + rng.NextInt(-600, 600);
      emit(adopt);
    } else {
      emit({.kind = Call::Kind::kSymptom});
    }
    const int actions = static_cast<int>(rng.NextInt(1, 3));
    for (int a = 0; a < actions; ++a) {
      t += rng.NextInt(1, 300);
      emit({.kind = Call::Kind::kNeed});
      if (rng.NextBool(0.3)) {
        t += 1;
        emit({.kind = Call::Kind::kSymptom});
      }
      t += ActionTime(rng);
      emit({.kind = Call::Kind::kResult, .healthy = a + 1 == actions});
    }
    free_at[episode.machine] = t;
  }

  std::vector<Call> calls;
  if (spec.time_sorted) {
    for (const std::vector<Call>& script : scripts) {
      calls.insert(calls.end(), script.begin(), script.end());
    }
    std::stable_sort(calls.begin(), calls.end(),
                     [](const Call& a, const Call& b) {
                       return a.time < b.time;
                     });
  } else {
    // Serve up to `concurrency` episodes of distinct machines at once,
    // advancing a random one by one call; the next episode in start order
    // whose machine is idle takes a freed slot.
    std::vector<std::size_t> active;  // episode index
    std::vector<std::size_t> next_call(scripts.size(), 0);
    std::vector<std::size_t> waiting;  // episodes skipped for a busy machine
    std::unordered_map<MachineId, bool> busy;
    std::size_t next_episode = 0;
    const auto admit = [&] {
      while (static_cast<int>(active.size()) < spec.concurrency) {
        const auto idle = std::find_if(
            waiting.begin(), waiting.end(), [&](std::size_t e) {
              return !busy[episodes[e].machine];
            });
        std::size_t e;
        if (idle != waiting.end()) {
          e = *idle;
          waiting.erase(idle);
        } else if (next_episode < scripts.size()) {
          e = next_episode++;
          if (busy[episodes[e].machine]) {
            waiting.push_back(e);
            continue;
          }
        } else {
          return;
        }
        busy[episodes[e].machine] = true;
        active.push_back(e);
      }
    };
    admit();
    while (!active.empty()) {
      const std::size_t slot = rng.NextBounded(active.size());
      const std::size_t e = active[slot];
      calls.push_back(scripts[e][next_call[e]++]);
      if (next_call[e] == scripts[e].size()) {
        busy[episodes[e].machine] = false;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(slot));
        admit();
      }
    }
  }
  for (Call& call : calls) {
    if (spec.jitter > 0 && rng.NextBool(0.3)) {
      call.time -= rng.NextInt(1, spec.jitter);
    }
  }
  return calls;
}

OpenProcessSnapshot SnapshotOf(const Call& call) {
  OpenProcessSnapshot snapshot;
  snapshot.machine = call.machine;
  snapshot.start = call.time - 60;
  snapshot.symptom = "adopted";
  if (call.tried_one) snapshot.tried = {Y};
  snapshot.quarantined = call.quarantined;
  snapshot.last_event_time = call.snapshot_watermark;
  return snapshot;
}

// Runs one call on the manager; the decision for kNeed, else nullopt.
std::optional<RepairAction> Apply(RecoveryManager& manager, const Call& call) {
  switch (call.kind) {
    case Call::Kind::kSymptom:
      manager.OnSymptom(call.time, call.machine, "s");
      return std::nullopt;
    case Call::Kind::kNeed:
      return manager.OnRecoveryNeeded(call.time, call.machine);
    case Call::Kind::kResult:
      manager.OnActionResult(call.time, call.machine, call.healthy);
      return std::nullopt;
    case Call::Kind::kAdopt:
      EXPECT_TRUE(manager.AdoptProcess(call.time, SnapshotOf(call)));
      return std::nullopt;
  }
  return std::nullopt;
}

// Replays `calls` through the manager and the eager reference, comparing
// everything observable after each call; stops at the first mismatch.
void ExpectMatchesEagerSweep(const StreamSpec& spec,
                             const std::vector<Call>& calls) {
  HistoryProbePolicy policy;
  RecoveryManager manager(policy, spec.config);
  EagerHistory reference(spec.config);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& call = calls[i];
    policy.seen = -2;
    const std::optional<RepairAction> decision = Apply(manager, call);
    SCOPED_TRACE("call " + std::to_string(i) + " machine " +
                 std::to_string(call.machine) + " time " +
                 std::to_string(call.time));
    switch (call.kind) {
      case Call::Kind::kSymptom:
        reference.Symptom(call.time, call.machine);
        break;
      case Call::Kind::kAdopt:
        reference.Adopt(call.time, SnapshotOf(call));
        break;
      case Call::Kind::kNeed: {
        const RepairAction expected = reference.Need(call.time, call.machine);
        ASSERT_EQ(decision, expected);
        if (expected != A) {  // the policy chose, not quarantine or N-cap
          ASSERT_EQ(policy.seen, reference.LastRecoveryEnd(call.machine));
        }
        break;
      }
      case Call::Kind::kResult:
        // The outcome report shows the policy the process's history.
        ASSERT_EQ(policy.seen, reference.LastRecoveryEnd(call.machine));
        reference.Result(call.time, call.machine, call.healthy);
        break;
    }
    ASSERT_EQ(manager.history_size(), reference.size());
    ASSERT_EQ(manager.stats().history_evictions, reference.evictions());
    ASSERT_EQ(manager.IsQuarantined(call.machine),
              reference.IsQuarantined(call.machine));
  }
  // The stream must exercise what it claims to.
  EXPECT_GT(reference.evictions(), 1000);
}

RecoveryManagerConfig Config(SimTime retention, SimTime flap_window,
                             int flap_threshold) {
  RecoveryManagerConfig config;
  config.history_retention = retention;
  config.flap_window = flap_window;
  config.flap_threshold = flap_threshold;
  return config;
}

StreamSpec InOrderSpec() {
  StreamSpec spec;
  spec.config = Config(2 * kDay, 6 * kHour, 0);
  spec.time_sorted = true;
  return spec;
}

StreamSpec ServedSpec() {
  StreamSpec spec;
  spec.config = Config(2 * kDay, 6 * kHour, 0);
  spec.flapper_share = 0.05;
  return spec;
}

StreamSpec OutOfOrderSpec() {
  StreamSpec spec = ServedSpec();
  spec.concurrency = 8;
  spec.overlap = true;
  spec.jitter = 3 * kHour;
  return spec;
}

StreamSpec FlapThresholdSpec() {
  StreamSpec spec;
  spec.config = Config(kDay, 6 * kHour, 2);
  spec.concurrency = 4;
  spec.flapper_share = 0.1;
  spec.jitter = kHour;
  return spec;
}

StreamSpec WideFlapWindowSpec() {
  StreamSpec spec;
  spec.config = Config(kDay, 3 * kDay, 3);
  spec.concurrency = 16;
  spec.flapper_share = 0.05;
  spec.overlap = true;
  return spec;
}

StreamSpec AdoptSpec() {
  StreamSpec spec;
  spec.config = Config(kDay, 12 * kHour, 2);
  spec.concurrency = 8;
  spec.flapper_share = 0.05;
  spec.adopt_share = 0.1;
  spec.overlap = true;
  spec.jitter = 2 * kHour;
  return spec;
}

TEST(HistoryEvictionTest, InOrderStreamMatchesEagerSweep) {
  const StreamSpec spec = InOrderSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 101));
}

TEST(HistoryEvictionTest, ServedStreamMatchesEagerSweep) {
  const StreamSpec spec = ServedSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 202));
}

TEST(HistoryEvictionTest, OutOfOrderStreamMatchesEagerSweep) {
  const StreamSpec spec = OutOfOrderSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 303));
}

TEST(HistoryEvictionTest, FlapThresholdStreamMatchesEagerSweep) {
  const StreamSpec spec = FlapThresholdSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 404));
}

TEST(HistoryEvictionTest, FlapWindowBeyondRetentionMatchesEagerSweep) {
  const StreamSpec spec = WideFlapWindowSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 505));
}

TEST(HistoryEvictionTest, AdoptedProcessesMatchEagerSweep) {
  const StreamSpec spec = AdoptSpec();
  ExpectMatchesEagerSweep(spec, MakeStream(spec, 606));
}

// What one replay shows after each call.
struct Observation {
  int decision = -1;  // ActionIndex for kNeed, else -1
  std::size_t history_size = 0;
  std::int64_t evictions = 0;
  bool quarantined = false;
  friend bool operator==(const Observation&, const Observation&) = default;
};

// With `spans`, the manager also writes span records there; with `stats`,
// its final Stats land there.
std::vector<Observation> Observe(const StreamSpec& spec,
                                 const std::vector<Call>& calls,
                                 obs::TraceCollector* spans = nullptr,
                                 RecoveryManager::Stats* stats = nullptr) {
  HistoryProbePolicy policy;
  RecoveryManager manager(policy, spec.config);
  manager.SetObservers({.spans = spans});
  std::vector<Observation> observed;
  observed.reserve(calls.size());
  for (const Call& call : calls) {
    const std::optional<RepairAction> decision = Apply(manager, call);
    observed.push_back({decision ? ActionIndex(*decision) : -1,
                        manager.history_size(),
                        manager.stats().history_evictions,
                        manager.IsQuarantined(call.machine)});
  }
  if (stats != nullptr) *stats = manager.stats();
  return observed;
}

// Machine ids are labels: relabeling them by a permutation changes the
// order in which equal-key entries leave the expiry index, and nothing
// observable may depend on that order.
TEST(HistoryEvictionTest, RelabelingMachinesChangesNothing) {
  for (const StreamSpec& spec :
       {OutOfOrderSpec(), WideFlapWindowSpec(), AdoptSpec()}) {
    const std::vector<Call> calls = MakeStream(spec, 707);
    std::vector<MachineId> relabel(static_cast<std::size_t>(spec.machines));
    std::iota(relabel.begin(), relabel.end(), 0);
    Rng rng(808);
    std::shuffle(relabel.begin(), relabel.end(), rng);
    std::vector<Call> relabeled = calls;
    for (Call& call : relabeled) {
      call.machine = relabel[static_cast<std::size_t>(call.machine)] * 7 + 3;
    }
    const std::vector<Observation> original = Observe(spec, calls);
    EXPECT_GT(original.back().evictions, 1000);
    EXPECT_TRUE(original == Observe(spec, relabeled));
  }
}

// Sim time has no origin: shifting every call of the six seeded streams by
// c leaves every decision, every Stats counter (evictions included) and
// every quarantine flag alone, and moves every span of the derived view by
// exactly c.
TEST(HistoryEvictionTest, ShiftingTimeChangesNothing) {
  constexpr SimTime kShift = 1'000'007;
  const std::pair<StreamSpec, std::uint64_t> streams[] = {
      {InOrderSpec(), 101},        {ServedSpec(), 202},
      {OutOfOrderSpec(), 303},     {FlapThresholdSpec(), 404},
      {WideFlapWindowSpec(), 505}, {AdoptSpec(), 606}};
  for (const auto& [spec, seed] : streams) {
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    const std::vector<Call> calls = MakeStream(spec, seed);
    std::vector<Call> shifted = calls;
    for (Call& call : shifted) {
      call.time += kShift;
      call.snapshot_watermark += kShift;
    }
    obs::TraceCollector spans;
    obs::TraceCollector shifted_spans;
    RecoveryManager::Stats stats;
    RecoveryManager::Stats shifted_stats;
    const std::vector<Observation> original =
        Observe(spec, calls, &spans, &stats);
    EXPECT_GT(original.back().evictions, 1000);
    EXPECT_TRUE(original ==
                Observe(spec, shifted, &shifted_spans, &shifted_stats));
    EXPECT_TRUE(stats == shifted_stats);

    std::vector<obs::Span> expected = obs::BuildSpans(spans.Snapshot());
    ASSERT_FALSE(expected.empty());
    for (obs::Span& span : expected) {
      span.start += kShift;
      span.end += kShift;
      for (obs::SpanEvent& event : span.events) event.time += kShift;
    }
    EXPECT_TRUE(expected == obs::BuildSpans(shifted_spans.Snapshot()));
  }
}

}  // namespace
}  // namespace aer
