#include "rl/sequence.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/fault_catalog.h"
#include "common/rng.h"
#include "rl/selection_tree.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;
constexpr auto A = RepairAction::kRma;

RecoveryProcess MakeProcess(std::vector<std::pair<RepairAction, SimTime>>
                                attempts_with_costs,
                            SymptomId symptom = 0) {
  std::vector<SymptomEvent> symptoms = {{0, symptom}};
  std::vector<ActionAttempt> attempts;
  SimTime t = 50;  // detection delay 50
  for (const auto& [action, cost] : attempts_with_costs) {
    attempts.push_back({action, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(0, std::move(symptoms), std::move(attempts), t);
}

struct Fixture {
  std::vector<RecoveryProcess> storage;
  std::vector<const RecoveryProcess*> processes;
  ErrorTypeCatalog catalog;
  CostEstimator estimator;
  ErrorTypeId type;

  explicit Fixture(std::vector<RecoveryProcess> p)
      : storage(std::move(p)),
        catalog(storage, 40),
        estimator(storage, catalog),
        type(catalog.ClassifySymptom(0)) {
    for (const auto& proc : storage) processes.push_back(&proc);
  }
};

// A "stuck service" type: TRYNOP always fails (cost 900), REBOOT cures
// (cost 2400). Log produced by cheapest-first: [Y fail, B success].
Fixture StuckServiceFixture(int n = 10) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < n; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  return Fixture(std::move(processes));
}

TEST(EvaluateSequenceTest, OriginalSequenceReproducesActualMeanCost) {
  Fixture fx = StuckServiceFixture();
  const ActionSequence original = {Y, B};
  const SequenceEvaluation eval = EvaluateSequence(
      original, fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.processes, 10);
  EXPECT_EQ(eval.cured_by_sequence, 10);
  EXPECT_EQ(eval.terminalized, 0);
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + 2400);
}

TEST(EvaluateSequenceTest, RebootFirstSavesTheWastedWatch) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{B}, fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.cured_by_sequence, 10);
  // REBOOT's actual cost is consumed from the log occurrence.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 2400);
}

TEST(EvaluateSequenceTest, ManualRepairTerminalizationChargesRma) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{Y}, fx.processes, fx.type, fx.estimator, 20,
      Terminalization::kManualRepair);
  EXPECT_EQ(eval.cured_by_sequence, 0);
  EXPECT_EQ(eval.terminalized, 10);
  const ActionDurationDefaults priors;  // RMA unobserved -> prior
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + priors.rma_s);
}

TEST(EvaluateSequenceTest, EscalateTerminalizationContinuesEscalation) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{Y}, fx.processes, fx.type, fx.estimator, 20,
      Terminalization::kEscalate);
  EXPECT_EQ(eval.terminalized, 10);
  // After the exhausted [Y], escalation continues with Y (already used once
  // more... strongest is Y so it retries Y then B): Y(avg fail) then B cures.
  // Y's average failing cost is 900, B's actual 2400.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + 900 + 2400);
}

TEST(EvaluateSequenceTest, CapForcesManualRepair) {
  Fixture fx = StuckServiceFixture();
  // Cap of 2 actions: [Y] then forced RMA even under kEscalate.
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{Y}, fx.processes, fx.type, fx.estimator, 2,
      Terminalization::kEscalate);
  const ActionDurationDefaults priors;
  // Step 1 = Y (actual 900); escalation would continue but the cap says the
  // 2nd slot must be manual repair.
  EXPECT_DOUBLE_EQ(eval.mean_cost, 50 + 900 + priors.rma_s);
}

TEST(EvaluateSequenceTest, EmptyProcessListIsZero) {
  Fixture fx = StuckServiceFixture();
  const SequenceEvaluation eval = EvaluateSequence(
      ActionSequence{B}, {}, fx.type, fx.estimator, 20);
  EXPECT_EQ(eval.processes, 0);
  EXPECT_EQ(eval.mean_cost, 0.0);
}

TEST(ExactBestSequenceTest, StuckServiceOptimumIsRebootFirst) {
  Fixture fx = StuckServiceFixture();
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{B}));
}

TEST(ExactBestSequenceTest, TransientOptimumKeepsCheapestFirst) {
  // 8 of 10 processes cured by TRYNOP (cheap), 2 needed REBOOT.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 8; ++i) processes.push_back(MakeProcess({{Y, 900}}));
  for (int i = 0; i < 2; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  ASSERT_FALSE(best.empty());
  EXPECT_EQ(best.front(), Y);
}

TEST(ExactBestSequenceTest, HardwareOptimumIsStraightToManualRepair) {
  // Everything failed until RMA.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 6; ++i) {
    processes.push_back(MakeProcess(
        {{Y, 900}, {B, 2400}, {B, 2400}, {I, 9000}, {I, 9000}, {A, 90000}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{A}));
}

TEST(ExactBestSequenceTest, RepeatedRequirementNeedsRepeatedAction) {
  // Incidents that took two REBOOTs: the optimum repeats REBOOT rather than
  // jumping to the much costlier REIMAGE.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 10; ++i) {
    processes.push_back(MakeProcess({{B, 2400}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  EXPECT_EQ(best, (ActionSequence{B, B}));
}

TEST(ExactBestSequenceTest, NeverWorseThanObservedBehaviour) {
  // Property: the exact optimum must cost at most what the logged policy
  // cost (the logged sequence is in the search space, restricted to
  // observed actions).
  Fixture fx = StuckServiceFixture();
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  const double best_cost =
      EvaluateSequence(best, fx.processes, fx.type, fx.estimator, 20)
          .mean_cost;
  const double logged_cost =
      EvaluateSequence(
      ActionSequence{Y, B}, fx.processes, fx.type, fx.estimator, 20)
          .mean_cost;
  EXPECT_LE(best_cost, logged_cost + 1e-9);
}

TEST(ExactBestSequenceTest, RespectsObservedActionRestriction) {
  // REIMAGE/RMA never appear in this type's log, so even though the fixture
  // is "hardware-like" the search may only use TRYNOP/REBOOT.
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 4; ++i) {
    processes.push_back(MakeProcess({{Y, 900}, {B, 2400}}));
  }
  Fixture fx(std::move(processes));
  const ActionSequence best =
      ExactBestSequence(fx.processes, fx.type, fx.estimator, 20);
  for (RepairAction a : best) {
    EXPECT_TRUE(a == Y || a == B);
  }
}

// --- CheapestPrefix: the prefix walk and the price memo ---------------------

// A randomized log for one fault of the default catalog: each process
// escalates from a random starting level, repeats a failed action at random,
// and is cured by each attempt with the fault's cure probability (manual
// repair always cures), with durations jittered around the fault's means.
std::vector<RecoveryProcess> RandomProcesses(const FaultType& fault,
                                             SymptomId symptom, int count,
                                             Rng& rng, MachineId& machine,
                                             SimTime& start) {
  std::vector<RecoveryProcess> out;
  for (int i = 0; i < count; ++i) {
    std::vector<SymptomEvent> symptoms = {{start, symptom}};
    std::vector<ActionAttempt> attempts;
    SimTime t = start + 30 + static_cast<SimTime>(rng.NextBounded(60));
    int level = static_cast<int>(rng.NextBounded(2));
    bool cured = false;
    while (!cured) {
      const RepairAction a = attempts.size() >= 6
                                 ? RepairAction::kRma
                                 : ActionFromIndex(level);
      const ActionResponse& r =
          fault.responses[static_cast<std::size_t>(ActionIndex(a))];
      cured = a == RepairAction::kRma || rng.NextBool(r.cure_probability);
      const auto cost = static_cast<SimTime>(
          r.mean_duration_s * (0.5 + rng.NextDouble()));
      attempts.push_back({a, t, cost, cured});
      t += cost;
      if (!rng.NextBool(0.4)) level = std::min(level + 1, kNumActions - 1);
    }
    out.emplace_back(machine++, std::move(symptoms), std::move(attempts), t);
    start += 10;
  }
  return out;
}

Fixture RandomFixture(std::uint64_t seed, int count) {
  const FaultCatalog catalog = MakeDefaultCatalog();
  Rng rng(seed);
  const FaultType& fault =
      catalog.faults[rng.NextBounded(catalog.faults.size())];
  MachineId machine = 0;
  SimTime start = 0;
  return Fixture(RandomProcesses(fault, 0, count, rng, machine, start));
}

// Random candidates, most branching off an earlier one so that the walk
// also starts from partly priced candidates; some put manual repair in the
// middle, and many run past the cap.
std::vector<ActionSequence> RandomCandidates(Rng& rng, int count,
                                             std::size_t max_length) {
  std::vector<ActionSequence> out;
  for (int i = 0; i < count; ++i) {
    ActionSequence seq;
    if (!out.empty() && rng.NextBool(0.7)) {
      const ActionSequence& base = out[rng.NextBounded(out.size())];
      seq.assign(base.begin(),
                 base.begin() + static_cast<std::ptrdiff_t>(
                                    rng.NextBounded(base.size() + 1)));
    }
    const std::size_t length = 1 + rng.NextBounded(max_length);
    while (seq.size() < length) {
      seq.push_back(ActionFromIndex(
          static_cast<int>(rng.NextBounded(kNumActions))));
    }
    out.push_back(std::move(seq));
  }
  return out;
}

void ExpectBitIdentical(const SequenceEvaluation& got,
                        const SequenceEvaluation& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_cost),
            std::bit_cast<std::uint64_t>(want.total_cost));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_cost),
            std::bit_cast<std::uint64_t>(want.mean_cost));
  EXPECT_EQ(got.processes, want.processes);
  EXPECT_EQ(got.cured_by_sequence, want.cured_by_sequence);
  EXPECT_EQ(got.terminalized, want.terminalized);
}

// The walk prices each prefix of a candidate in one replay pass per process;
// every price it stores must be the bits EvaluateSequence computes for that
// prefix on its own.
TEST(CheapestPrefixTest, WalkPricesEveryPrefixExactlyAsEvaluateSequence) {
  int rma_inside = 0;
  int past_cap = 0;
  int cured_mid_prefix = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Fixture fx = RandomFixture(seed, 40);
    for (const CapabilityModel* model :
         {&CapabilityModel::TotalOrder(), &CapabilityModel::IdentityOnly()}) {
      for (const int cap : {2, 3, 5, 20}) {
        Rng rng(seed * 100 + static_cast<std::uint64_t>(cap));
        const std::vector<ActionSequence> candidates =
            RandomCandidates(rng, 24, static_cast<std::size_t>(cap) + 4);
        PrefixPriceMemo memo;
        CheapestPrefix(candidates, fx.processes, fx.type, fx.estimator, cap,
                       *model, memo);
        for (const ActionSequence& candidate : candidates) {
          past_cap += static_cast<int>(candidate.size()) >= cap ? 1 : 0;
          for (std::size_t k = 1; k <= candidate.size(); ++k) {
            const ActionSequence prefix(candidate.begin(),
                                        candidate.begin() + k);
            rma_inside += k < candidate.size() &&
                                  prefix.back() == RepairAction::kRma
                              ? 1
                              : 0;
            const SequenceEvaluation want =
                EvaluateSequence(prefix, fx.processes, fx.type, fx.estimator,
                                 cap, Terminalization::kEscalate, *model);
            cured_mid_prefix += want.cured_by_sequence > 0 &&
                                        want.terminalized > 0
                                    ? 1
                                    : 0;
            const auto it = memo.find(prefix);
            ASSERT_NE(it, memo.end());
            ExpectBitIdentical(it->second, want);
          }
        }
      }
    }
  }
  // The random inputs reach every case the walk distinguishes.
  EXPECT_GT(rma_inside, 0);
  EXPECT_GT(past_cap, 0);
  EXPECT_GT(cured_mid_prefix, 0);
}

// The reference scan: every candidate prefix priced from scratch by
// EvaluateSequence, visited in lexicographic order, strict tie-break.
ActionSequence ReferenceCheapestPrefix(
    std::span<const ActionSequence> candidates,
    std::span<const RecoveryProcess* const> processes, ErrorTypeId type,
    const CostEstimator& estimator, int max_actions,
    const CapabilityModel& capabilities) {
  std::set<ActionSequence> scored;
  for (const ActionSequence& candidate : candidates) {
    for (std::size_t k = 1; k <= candidate.size(); ++k) {
      scored.emplace(candidate.begin(), candidate.begin() + k);
    }
  }
  ActionSequence best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::int64_t best_cured = -1;
  for (const ActionSequence& seq : scored) {
    const SequenceEvaluation eval =
        EvaluateSequence(seq, processes, type, estimator, max_actions,
                         Terminalization::kEscalate, capabilities);
    if (eval.mean_cost < best_cost - 1e-9 ||
        (eval.mean_cost < best_cost + 1e-9 &&
         (eval.cured_by_sequence > best_cured ||
          (eval.cured_by_sequence == best_cured &&
           seq.size() < best.size())))) {
      best_cost = eval.mean_cost;
      best_cured = eval.cured_by_sequence;
      best = seq;
    }
  }
  return best;
}

// A memo carried across a training run's checks must not change any check's
// answer. The candidate sets are those the selection tree scans at each
// check of a real run: the tree's enumeration over the Q table after every
// check_every sweeps (the sweeps do not depend on the read-out, so the plain
// trainer capped at that sweep count reproduces the table), plus the
// escalation seeds.
TEST(CheapestPrefixTest, WarmMemoAnswersEveryCheckLikeAColdOne) {
  const FaultCatalog faults = MakeDefaultCatalog();
  Rng rng(2024);
  std::vector<RecoveryProcess> processes;
  SymptomTable symptoms;
  MachineId machine = 0;
  SimTime start = 0;
  for (SymptomId s = 0; s < 4; ++s) {
    symptoms.Intern("fault" + std::to_string(s));
    const FaultType& fault = faults.faults[static_cast<std::size_t>(s) * 5];
    for (RecoveryProcess& p :
         RandomProcesses(fault, s, 60, rng, machine, start)) {
      processes.push_back(std::move(p));
    }
  }
  const ErrorTypeCatalog catalog(processes, 40);
  const SimulationPlatform platform(processes, catalog, symptoms, 20);
  TrainerConfig config;
  config.check_every = 100;
  config.min_sweeps = 1000000;  // no convergence break: every check runs
  const SelectionTreeConfig tree;

  int checks = 0;
  int misses = 0;
  for (ErrorTypeId type = 0;
       static_cast<std::size_t>(type) < catalog.num_types(); ++type) {
    PrefixPriceMemo warm;
    for (int check = 1; check <= 12; ++check) {
      config.max_sweeps = check * config.check_every;
      const QLearningTrainer trainer(platform, processes, config);
      QTable table;
      trainer.TrainType(type, &table);
      std::vector<ActionSequence> candidates =
          BuildCandidateSequences(table, type, config.max_actions, tree);
      const std::vector<RepairAction> allowed =
          platform.estimator().ObservedActions(type);
      for (std::size_t first = 0; first < allowed.size(); ++first) {
        ActionSequence seed;
        for (std::size_t i = first; i < allowed.size(); ++i) {
          seed.push_back(allowed[i]);
          if (allowed[i] != RepairAction::kRma) seed.push_back(allowed[i]);
        }
        candidates.push_back(std::move(seed));
      }

      const std::span<const RecoveryProcess* const> of_type =
          trainer.processes_of(type);
      const std::size_t warm_size = warm.size();
      PrefixPriceMemo cold;
      const ActionSequence from_warm =
          CheapestPrefix(candidates, of_type, type, platform.estimator(),
                         config.max_actions, platform.capabilities(), warm);
      const ActionSequence from_cold =
          CheapestPrefix(candidates, of_type, type, platform.estimator(),
                         config.max_actions, platform.capabilities(), cold);
      EXPECT_EQ(from_warm, from_cold) << "type " << type << " check " << check;
      EXPECT_EQ(from_cold,
                ReferenceCheapestPrefix(candidates, of_type, type,
                                        platform.estimator(),
                                        config.max_actions,
                                        platform.capabilities()))
          << "type " << type << " check " << check;
      ++checks;
      misses += warm.size() > warm_size ? 1 : 0;
    }
  }
  EXPECT_GE(checks, 4 * 12);
  // Later checks must actually hit the warm memo, or the test shows nothing.
  EXPECT_LT(misses, checks);
}

// Equal cost, equal self-contained cures and equal length: the
// lexicographically first sequence wins, whatever order the candidates come
// in. The logged processes need REBOOT and TRYNOP both (TRYNOP cured last),
// so [TRYNOP, REBOOT] and [REBOOT, TRYNOP] cure every process for the same
// two logged step costs, and every shorter prefix costs more or cures less.
TEST(CheapestPrefixTest, ExactTieGoesToTheLexicographicallyFirstSequence) {
  std::vector<RecoveryProcess> processes;
  for (int i = 0; i < 5; ++i) {
    processes.push_back(MakeProcess({{B, 1000}, {Y, 1000}}));
  }
  const Fixture fx(std::move(processes));
  const ActionSequence yb = {Y, B};
  const ActionSequence by = {B, Y};
  const auto eval = [&](const ActionSequence& seq) {
    return EvaluateSequence(seq, fx.processes, fx.type, fx.estimator, 20);
  };
  // The fixture really is a tie.
  ASSERT_EQ(eval(yb).total_cost, eval(by).total_cost);
  ASSERT_EQ(eval(yb).cured_by_sequence, 5);
  ASSERT_EQ(eval(by).cured_by_sequence, 5);

  for (const std::vector<ActionSequence>& candidates :
       {std::vector<ActionSequence>{by, yb},
        std::vector<ActionSequence>{yb, by}}) {
    PrefixPriceMemo memo;
    EXPECT_EQ(CheapestPrefix(candidates, fx.processes, fx.type, fx.estimator,
                             20, CapabilityModel::TotalOrder(), memo),
              yb);
  }
}

// Independent oracle for the branch-and-bound search: enumerate every
// sequence over the type's observed actions up to the search's length limit
// (max_length, and the cap minus its manual-repair slot), price each with
// EvaluateSequence, and take the best under the search's own order — cost
// within 1e-9, then more self-contained cures, then shorter. No pruning, so
// a bound that cuts off the optimum shows up as a worse (cost, cures) pair.
TEST(ExactBestSequenceTest, MatchesBruteForceEnumeration) {
  struct Priced {
    double cost = 0.0;
    std::int64_t cured = 0;
    std::size_t length = 0;
  };
  int searches = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Fixture fx = RandomFixture(seed, 30);
    const std::vector<RepairAction> observed =
        fx.estimator.ObservedActions(fx.type);
    for (const int cap : {3, 20}) {
      // Every sequence of length 0..min(5, cap - 1), priced once.
      std::vector<Priced> priced;
      std::vector<ActionSequence> frontier = {{}};
      for (int length = 0; length <= std::min(5, cap - 1); ++length) {
        std::vector<ActionSequence> next;
        for (const ActionSequence& seq : frontier) {
          const SequenceEvaluation eval = EvaluateSequence(
              seq, fx.processes, fx.type, fx.estimator, cap);
          priced.push_back(
              {eval.total_cost, eval.cured_by_sequence, seq.size()});
          for (const RepairAction a : observed) {
            next.push_back(seq);
            next.back().push_back(a);
          }
        }
        frontier = std::move(next);
      }
      for (int max_length = 1; max_length <= 5; ++max_length) {
        const std::size_t limit =
            static_cast<std::size_t>(std::min(max_length, cap - 1));
        double min_cost = std::numeric_limits<double>::infinity();
        for (const Priced& p : priced) {
          if (p.length <= limit) min_cost = std::min(min_cost, p.cost);
        }
        Priced want{min_cost, -1, 0};
        for (const Priced& p : priced) {
          if (p.length > limit || p.cost >= min_cost + 1e-9) continue;
          if (p.cured > want.cured ||
              (p.cured == want.cured && p.length < want.length)) {
            want = p;
          }
        }
        const ActionSequence got = ExactBestSequence(
            fx.processes, fx.type, fx.estimator, cap,
            {.max_length = max_length});
        const SequenceEvaluation got_eval = EvaluateSequence(
            got, fx.processes, fx.type, fx.estimator, cap);
        EXPECT_NEAR(got_eval.total_cost, want.cost, 1e-9)
            << "seed " << seed << " cap " << cap << " max_length "
            << max_length;
        EXPECT_EQ(got_eval.cured_by_sequence, want.cured)
            << "seed " << seed << " cap " << cap << " max_length "
            << max_length;
        EXPECT_EQ(got.size(), want.length)
            << "seed " << seed << " cap " << cap << " max_length "
            << max_length;
        ++searches;
      }
    }
  }
  EXPECT_EQ(searches, 20 * 2 * 5);
}

}  // namespace
}  // namespace aer
