// Trainer goldens: FNV-1a 64 fingerprints of everything a training run
// produces — the serialized policy, every type's serialized Q table, and the
// per-type results including telemetry — recorded from the plain and
// selection-tree trainers while each still ran its own copy of the sweep
// loop. They pin the shared training loop to those bytes for every trainer
// variant, with the sweep cap both on and off the check_every grid: off the
// grid, the plain trainer re-reads the final table while the tree returns
// its last scan.
#include <cctype>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fnv.h"
#include "rl/selection_tree.h"

namespace aer {
namespace {

constexpr auto Y = RepairAction::kTryNop;
constexpr auto B = RepairAction::kReboot;
constexpr auto I = RepairAction::kReimage;

RecoveryProcess MakeProcess(
    std::vector<std::pair<RepairAction, SimTime>> attempts_with_costs,
    SymptomId symptom, MachineId machine, SimTime start) {
  std::vector<SymptomEvent> symptoms = {{start, symptom}};
  std::vector<ActionAttempt> attempts;
  SimTime t = start + 50;
  for (const auto& [action, cost] : attempts_with_costs) {
    attempts.push_back({action, t, cost, false});
    t += cost;
  }
  attempts.back().cured = true;
  return RecoveryProcess(machine, std::move(symptoms), std::move(attempts),
                         t);
}

// Four types: reboot-first, trynop-first, reimage-bound, and a mixed type
// whose near-tied first actions keep the greedy policy flipping.
struct Workload {
  SymptomTable symptoms;
  std::vector<RecoveryProcess> processes;
  ErrorTypeCatalog catalog;
  SimulationPlatform platform;

  static std::vector<RecoveryProcess> Build() {
    std::vector<RecoveryProcess> out;
    SimTime start = 0;
    MachineId m = 0;
    const auto add = [&](int count,
                         std::vector<std::pair<RepairAction, SimTime>> steps,
                         SymptomId symptom) {
      for (int i = 0; i < count; ++i) {
        out.push_back(MakeProcess(steps, symptom, m++, start));
        start += 10;
      }
    };
    add(60, {{Y, 900}, {B, 2400}}, 0);
    add(45, {{Y, 900}}, 1);
    add(15, {{Y, 900}, {B, 2400}}, 1);
    add(30, {{Y, 900}, {B, 2400}, {B, 2400}, {I, 9000}}, 2);
    add(20, {{B, 2400}}, 3);
    add(20, {{Y, 900}, {Y, 900}, {B, 2400}}, 3);
    add(8, {{Y, 900}, {B, 2400}, {I, 9000}}, 3);
    return out;
  }

  Workload()
      : processes(Build()),
        catalog(processes, 5),
        platform(processes, catalog, symptoms, 20) {
    symptoms.Intern("stuck");
    symptoms.Intern("transient");
    symptoms.Intern("reimage");
    symptoms.Intern("mixed");
  }
};

void AddStat(Fnv& fnv, const RunningStat& s) {
  fnv.Int(s.count());
  fnv.Double(s.mean());
  fnv.Double(s.min());
  fnv.Double(s.max());
  fnv.Double(s.sum());
  fnv.Double(s.variance());
}

template <typename Trainer>
std::uint64_t FingerprintOf(const Trainer& trainer, std::size_t num_types) {
  Fnv fnv;
  const QLearningTrainer::TrainingOutput output = trainer.TrainAll();
  std::ostringstream policy;
  output.policy.Write(policy);
  fnv.Bytes(policy.str());
  for (std::size_t t = 0; t < num_types; ++t) {
    QTable table;
    trainer.TrainType(static_cast<ErrorTypeId>(t), &table);
    std::ostringstream bytes;
    table.Write(bytes);
    fnv.Bytes(bytes.str());
  }
  for (const TypeTrainingResult& r : output.per_type) {
    fnv.Int(r.type);
    fnv.Int(r.sweeps);
    fnv.Int(r.episodes);
    fnv.Int(r.converged ? 1 : 0);
    fnv.Int(static_cast<std::int64_t>(r.states_explored));
    fnv.Int(r.training_processes);
    fnv.Int(static_cast<std::int64_t>(r.sequence.size()));
    for (const RepairAction a : r.sequence) fnv.Int(ActionIndex(a));
    const TypeTelemetry& tm = r.telemetry;
    AddStat(fnv, tm.temperature);
    AddStat(fnv, tm.max_q_delta);
    fnv.Int(tm.q_updates);
    fnv.Int(tm.visited_state_actions);
    fnv.Int(tm.explorable_state_actions);
    fnv.Double(tm.visit_coverage);
  }
  return fnv.value();
}

// One golden per trainer/variant/budget case. Variants: the default config,
// double_q, td_lambda 0.5, gamma 0.95, fixed_alpha 0.05 and (tree only)
// seed_escalation_candidates off. Budgets: "converging" (cap 4000, a
// multiple of check_every 100; min_sweeps 500), "converging_4050" (the cap
// off the check grid), "capped_4050" (min_sweeps past the cap, so every type
// runs to it) and "capped_15" (check_every 10, cap 15, min_sweeps past it:
// the Q values still move between the last check and the cap, so here
// re-reading the final table and keeping the last read give different
// policies in several variants of each trainer).
struct Golden {
  std::string_view name;
  std::uint64_t fingerprint;
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

// Recorded before the merge of the two training loops; see the file comment.
constexpr Golden kGoldens[] = {
    {"plain/default/converging", 0x19ae8595c9900a01ULL},
    {"plain/default/converging_4050", 0xf9b717cc65cc06c8ULL},
    {"plain/default/capped_4050", 0x7f4aea7cbd4303fULL},
    {"plain/default/capped_15", 0xec9d728fc7bbea32ULL},
    {"plain/double_q/converging", 0x6aad4703f68efa8cULL},
    {"plain/double_q/converging_4050", 0x272920cd887cca2dULL},
    {"plain/double_q/capped_4050", 0x8ea8650e4a982444ULL},
    {"plain/double_q/capped_15", 0x6476d29190a0bec1ULL},
    {"plain/td_lambda_0.5/converging", 0x22b0a325c19b52dbULL},
    {"plain/td_lambda_0.5/converging_4050", 0x2a06beb291afe04dULL},
    {"plain/td_lambda_0.5/capped_4050", 0x6dfc3c4d83f40227ULL},
    {"plain/td_lambda_0.5/capped_15", 0xb25960f807587c98ULL},
    {"plain/gamma_0.95/converging", 0xe430634ccf04d5f2ULL},
    {"plain/gamma_0.95/converging_4050", 0xbbe76c1f981f577ULL},
    {"plain/gamma_0.95/capped_4050", 0x61a0639a482e676dULL},
    {"plain/gamma_0.95/capped_15", 0x4f8712467c749289ULL},
    {"plain/fixed_alpha_0.05/converging", 0x5e589b0c94492274ULL},
    {"plain/fixed_alpha_0.05/converging_4050", 0xd6a5527933c76e51ULL},
    {"plain/fixed_alpha_0.05/capped_4050", 0xa701fa1550f783b2ULL},
    {"plain/fixed_alpha_0.05/capped_15", 0xbaffd0259b9fb0f5ULL},
    {"tree/default/converging", 0x83d1206d86d1a226ULL},
    {"tree/default/converging_4050", 0x83d1206d86d1a226ULL},
    {"tree/default/capped_4050", 0x9f0847adee52b3b7ULL},
    {"tree/default/capped_15", 0x71299b8d6b5f4df2ULL},
    {"tree/double_q/converging", 0x3ea102531f24e364ULL},
    {"tree/double_q/converging_4050", 0x3ea102531f24e364ULL},
    {"tree/double_q/capped_4050", 0x2a4f12eeb1222aacULL},
    {"tree/double_q/capped_15", 0xbbc7bb79f544b5bbULL},
    {"tree/td_lambda_0.5/converging", 0xd5531ba8bfcfbc68ULL},
    {"tree/td_lambda_0.5/converging_4050", 0xd5531ba8bfcfbc68ULL},
    {"tree/td_lambda_0.5/capped_4050", 0x38c9db9571f9f9d6ULL},
    {"tree/td_lambda_0.5/capped_15", 0x7823ad1fbef4ae1bULL},
    {"tree/gamma_0.95/converging", 0x370abfb277770062ULL},
    {"tree/gamma_0.95/converging_4050", 0x370abfb277770062ULL},
    {"tree/gamma_0.95/capped_4050", 0x94f58d2288740215ULL},
    {"tree/gamma_0.95/capped_15", 0x68c487ef5a8626d1ULL},
    {"tree/fixed_alpha_0.05/converging", 0xf562f0ae38113eeaULL},
    {"tree/fixed_alpha_0.05/converging_4050", 0xf562f0ae38113eeaULL},
    {"tree/fixed_alpha_0.05/capped_4050", 0x6cdbaaa2ede69d48ULL},
    {"tree/fixed_alpha_0.05/capped_15", 0x5baebf8e475e78c3ULL},
    {"tree/no_seed_escalation/converging", 0x3bca9902c846a370ULL},
    {"tree/no_seed_escalation/converging_4050", 0x3bca9902c846a370ULL},
    {"tree/no_seed_escalation/capped_4050", 0x908d260a771ca9fbULL},
    {"tree/no_seed_escalation/capped_15", 0xf67ad4eb2cc124b1ULL},
};

std::vector<std::string_view> Split(std::string_view name) {
  std::vector<std::string_view> parts;
  for (std::size_t at = 0;;) {
    const std::size_t slash = name.find('/', at);
    parts.push_back(name.substr(at, slash - at));
    if (slash == std::string_view::npos) return parts;
    at = slash + 1;
  }
}

// Builds the trainer config and tree config a golden's name describes.
void Configure(std::string_view variant, std::string_view budget,
               TrainerConfig& config, SelectionTreeConfig& tree_config) {
  config.check_every = budget == "capped_15" ? 10 : 100;
  config.collect_telemetry = true;
  config.max_sweeps = budget == "converging"  ? 4000
                     : budget == "capped_15" ? 15
                                             : 4050;
  config.min_sweeps = budget.starts_with("capped") ? 1000000 : 500;
  if (variant == "double_q") {
    config.double_q = true;
  } else if (variant == "td_lambda_0.5") {
    config.td_lambda = 0.5;
  } else if (variant == "gamma_0.95") {
    config.gamma = 0.95;
  } else if (variant == "fixed_alpha_0.05") {
    config.fixed_alpha = 0.05;
  } else if (variant == "no_seed_escalation") {
    tree_config.seed_escalation_candidates = false;
  } else {
    ASSERT_EQ(variant, "default");
  }
  ASSERT_TRUE(budget == "converging" || budget == "converging_4050" ||
              budget == "capped_4050" || budget == "capped_15")
      << budget;
}

class TrainerGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(TrainerGoldenTest, FingerprintMatchesRecordedGolden) {
  const Golden& golden = GetParam();
  const std::vector<std::string_view> parts = Split(golden.name);
  ASSERT_EQ(parts.size(), 3u);
  TrainerConfig config;
  SelectionTreeConfig tree_config;
  Configure(parts[1], parts[2], config, tree_config);

  const Workload w;
  const std::size_t num_types = w.catalog.num_types();
  ASSERT_EQ(num_types, 4u);
  const QLearningTrainer base(w.platform, w.processes, config);
  const std::uint64_t actual =
      parts[0] == "tree"
          ? FingerprintOf(SelectionTreeTrainer(base, tree_config), num_types)
          : FingerprintOf(base, num_types);
  EXPECT_EQ(golden.fingerprint, actual)
      << golden.name << ": 0x" << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, TrainerGoldenTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name(info.param.name);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace aer
