#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "fleet/event_queue.h"

namespace aer::fleet {

// Interned symptom ids and fault-sampling tables, shared by every shard.
// Interning follows the seed engine's order exactly (per fault: primary,
// then its secondaries; then generics) so symptom ids — and therefore log
// bytes — match the seed engine for the same catalog.
struct FleetSimTables {
  std::vector<SymptomId> primary;
  std::vector<std::vector<SymptomId>> aux;
  std::vector<SymptomId> generic;
  std::vector<double> cum_rate;
  double total_rate = 0.0;
  int emitted_capacity = 1;  // primary + largest secondary set
};

namespace {

using Tables = FleetSimTables;

Tables BuildTables(const FaultCatalog& catalog, SymptomTable& symtab) {
  Tables t;
  t.primary.resize(catalog.faults.size());
  t.aux.resize(catalog.faults.size());
  int max_aux = 0;
  for (std::size_t f = 0; f < catalog.faults.size(); ++f) {
    t.primary[f] = symtab.Intern(catalog.faults[f].primary_symptom);
    for (const SecondarySymptom& s : catalog.faults[f].secondary_symptoms) {
      t.aux[f].push_back(symtab.Intern(s.name));
    }
    max_aux = std::max(max_aux, static_cast<int>(t.aux[f].size()));
  }
  t.generic.resize(catalog.generic_symptoms.size());
  for (std::size_t g = 0; g < catalog.generic_symptoms.size(); ++g) {
    t.generic[g] = symtab.Intern(catalog.generic_symptoms[g].name);
  }
  t.cum_rate.reserve(catalog.faults.size());
  for (const FaultType& f : catalog.faults) {
    t.total_rate += f.relative_rate;
    t.cum_rate.push_back(t.total_rate);
  }
  t.emitted_capacity = 1 + max_aux;
  return t;
}

// Seed-exact weighted fault draw (one NextDouble).
std::size_t SampleFault(Rng& rng, const Tables& t) {
  const double u = rng.NextDouble() * t.total_rate;
  const auto it = std::lower_bound(t.cum_rate.begin(), t.cum_rate.end(), u);
  return static_cast<std::size_t>(std::min<std::ptrdiff_t>(
      it - t.cum_rate.begin(),
      static_cast<std::ptrdiff_t>(t.cum_rate.size()) - 1));
}

// The recovery-process state machine, shared verbatim between compat and
// sharded modes. Draw order inside a process is the seed engine's, draw for
// draw; the Mode supplies which RNG stream the draws come from and how
// event ties are numbered:
//
//   CompatMode — one global Rng + a global push counter, replaying the
//     seed's (time, push-seq) heap order.
//   ShardMode — per-machine Rng streams + (machine, kind, seq) ties,
//     making every machine's timeline independent of all others.
template <typename Mode>
class EngineCore {
 public:
  EngineCore(const ClusterSimConfig& cfg, const FaultCatalog& catalog,
             const Tables& tables, FleetState& state, EventQueue& queue,
             RecoveryPolicy& policy, ShardOutput& out, Mode& mode,
             const obs::TraceCollector* traces = nullptr)
      : cfg_(cfg),
        catalog_(catalog),
        t_(tables),
        st_(state),
        queue_(queue),
        policy_(policy),
        out_(out),
        mode_(mode),
        traces_(traces) {}

  // Buffers one sampled causal trace record into the shard output. The id
  // is a pure function of (seed, machine, process ordinal) and the sampling
  // decision a pure function of the id, so every shard agrees without
  // coordination and tracing never perturbs the simulation.
  void Trace(SimTime time, MachineId m, obs::TraceEventKind kind, int attempt,
             int action, std::string detail = {}) {
    if (traces_ == nullptr) return;
    const obs::TraceId id =
        obs::MakeTraceId(cfg_.seed, m, st_.process_seq(m));
    if (!traces_->Sampled(id)) return;
    out_.trace.push_back({.trace_id = id, .time = time, .kind = kind,
                          .machine = m, .attempt = attempt, .action = action,
                          .detail = std::move(detail)});
  }

  void Push(SimTime time, FleetEventKind kind, MachineId machine,
            std::uint32_t process_seq, SymptomId symptom,
            RepairAction action) {
    FleetEvent ev;
    ev.kind = kind;
    ev.machine = machine;
    ev.process_seq = process_seq;
    ev.symptom = symptom;
    ev.action = action;
    queue_.Schedule(time, mode_.NextTie(machine, kind), ev);
  }

  // Fault arrival accepted on a healthy machine: open a recovery process.
  // `f` was sampled by the caller (the victim-selection draw, if any,
  // precedes the fault draw — seed order).
  void BeginProcess(SimTime now, MachineId m, std::size_t f, Rng& rng) {
    st_.set_healthy(m, false);
    st_.bump_process_seq(m);
    st_.set_fault_index(m, static_cast<std::int32_t>(f));
    st_.set_noisy(m, false);
    st_.ClearProcess(m);
    st_.set_process_start(m, now);
    const std::uint32_t pseq = st_.process_seq(m);
    const FaultType& fault = catalog_.faults[f];

    // Primary symptom opens the process.
    out_.entries.push_back(LogEntry::Symptom(now, m, t_.primary[f]));
    st_.PushEmitted(m, t_.primary[f]);
    Trace(now, m, obs::TraceEventKind::kIncident, -1, -1,
          fault.primary_symptom);
    Trace(now, m, obs::TraceEventKind::kSymptom, -1, -1,
          fault.primary_symptom);

    // Detection completes after the monitoring delay; all secondary
    // symptoms land inside that window.
    const SimTime detect_delay = std::max<SimTime>(
        30, static_cast<SimTime>(rng.NextLogNormalWithMean(
                cfg_.mean_detection_delay_s, cfg_.detection_delay_sigma)));
    for (std::size_t a = 0; a < fault.secondary_symptoms.size(); ++a) {
      if (!rng.NextBool(fault.secondary_symptoms[a].probability)) continue;
      const SimTime offset =
          1 + static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                  std::max<SimTime>(detect_delay - 1, 1))));
      Push(now + offset, FleetEventKind::kSymptom, m, pseq, t_.aux[f][a],
           RepairAction::kTryNop);
      st_.PushEmitted(m, t_.aux[f][a]);
    }

    // Generic machine-level noise symptoms.
    for (std::size_t g = 0; g < t_.generic.size(); ++g) {
      if (!rng.NextBool(catalog_.generic_symptoms[g].probability)) continue;
      st_.set_noisy(m, true);
      const SimTime offset =
          1 + static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                  std::max<SimTime>(detect_delay - 1, 1))));
      Push(now + offset, FleetEventKind::kSymptom, m, pseq, t_.generic[g],
           RepairAction::kTryNop);
    }

    // Optional cross-fault noise: an unrelated fault's primary symptom
    // leaks into this process.
    if (rng.NextBool(cfg_.cross_fault_noise_probability)) {
      const std::size_t other = SampleFault(rng, t_);
      if (other != f) {
        st_.set_noisy(m, true);
        const SimTime offset =
            1 +
            static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
                std::max<SimTime>(detect_delay - 1, 1))));
        Push(now + offset, FleetEventKind::kSymptom, m, pseq,
             t_.primary[other], RepairAction::kTryNop);
      }
    }

    Push(now + detect_delay, FleetEventKind::kChooseAction, m, pseq,
         kInvalidSymptom, RepairAction::kTryNop);
  }

  void HandleSymptom(const ScheduledEvent& e) {
    if (Stale(e)) return;
    out_.entries.push_back(
        LogEntry::Symptom(e.time, e.event.machine, e.event.symptom));
    Trace(e.time, e.event.machine, obs::TraceEventKind::kSymptom, -1, -1);
  }

  void HandleChooseAction(const ScheduledEvent& e) {
    if (Stale(e)) return;
    StartAction(e.time, e.event.machine);
  }

  void HandleActionDone(const ScheduledEvent& e) {
    if (Stale(e)) return;
    const MachineId m = e.event.machine;
    Rng& rng = mode_.RngFor(m);
    const std::size_t f = static_cast<std::size_t>(st_.fault_index(m));
    const FaultType& fault = catalog_.faults[f];
    const double cure_p =
        fault.responses[static_cast<std::size_t>(ActionIndex(e.event.action))]
            .cure_probability;
    const bool cured = rng.NextBool(cure_p);

    // Result monitoring: the tried span excludes the action whose outcome
    // is being reported.
    {
      RecoveryContext ctx;
      ctx.machine = m;
      ctx.initial_symptom = t_.primary[f];
      ctx.initial_symptom_name = fault.primary_symptom;
      AER_CHECK_GT(st_.tried_count(m), 0);
      ctx.tried = std::span<const RepairAction>(
          st_.tried_data(m), static_cast<std::size_t>(st_.tried_count(m) - 1));
      ctx.process_start = st_.process_start(m);
      ctx.now = e.time;
      ctx.last_recovery_end = st_.last_recovery_end(m);
      policy_.OnActionOutcome(ctx, e.event.action,
                              e.time - st_.last_action_start(m), cured);
    }

    Trace(e.time, m, obs::TraceEventKind::kActionDone,
          st_.tried_count(m) - 1, ActionIndex(e.event.action),
          cured ? "cured" : "sick");
    if (cured) {
      Trace(e.time, m, obs::TraceEventKind::kCure, st_.tried_count(m) - 1,
            ActionIndex(e.event.action));
      out_.entries.push_back(LogEntry::Success(e.time, m));
      out_.ground_truth.push_back({.machine = m,
                                   .start = st_.process_start(m),
                                   .end = e.time,
                                   .fault_index = st_.fault_index(m),
                                   .noisy = st_.noisy(m)});
      ++out_.processes_completed;
      out_.total_downtime += e.time - st_.process_start(m);
      st_.set_healthy(m, true);
      st_.set_last_recovery_end(m, e.time);
      mode_.OnCured(m);
      return;
    }
    // Result monitoring is machine-local: the failed outcome is "delivered"
    // with zero transit, so the decision gap shows up as timeout_wait in
    // the critical path rather than an unattributed hole.
    Trace(e.time, m, obs::TraceEventKind::kResultDeliver,
          st_.tried_count(m) - 1, ActionIndex(e.event.action), "sick");
    // Failed: maybe re-emit a realized symptom, then choose the next action
    // after a decision gap.
    if (rng.NextBool(cfg_.symptom_reemit_probability) &&
        st_.emitted_count(m) > 0) {
      const SymptomId s = st_.emitted_at(
          m, static_cast<int>(rng.NextBounded(
                 static_cast<std::uint64_t>(st_.emitted_count(m)))));
      const SimTime offset = 5 + static_cast<SimTime>(rng.NextBounded(50));
      Push(e.time + offset, FleetEventKind::kSymptom, m, st_.process_seq(m),
           s, RepairAction::kTryNop);
    }
    const SimTime gap =
        cfg_.min_decision_gap_s +
        static_cast<SimTime>(rng.NextBounded(static_cast<std::uint64_t>(
            cfg_.max_decision_gap_s - cfg_.min_decision_gap_s + 1)));
    Push(e.time + gap, FleetEventKind::kChooseAction, m, st_.process_seq(m),
         kInvalidSymptom, RepairAction::kTryNop);
  }

 private:
  bool Stale(const ScheduledEvent& e) const {
    const MachineId m = e.event.machine;
    return st_.healthy(m) || st_.process_seq(m) != e.event.process_seq;
  }

  void StartAction(SimTime now, MachineId m) {
    Rng& rng = mode_.RngFor(m);
    const std::size_t f = static_cast<std::size_t>(st_.fault_index(m));
    const FaultType& fault = catalog_.faults[f];

    RepairAction action;
    if (st_.tried_count(m) >= cfg_.max_actions_per_process - 1) {
      // The paper's N cap: end the process by requesting manual repair.
      action = RepairAction::kRma;
    } else {
      RecoveryContext ctx;
      ctx.machine = m;
      ctx.initial_symptom = t_.primary[f];
      ctx.initial_symptom_name = fault.primary_symptom;
      ctx.tried = std::span<const RepairAction>(
          st_.tried_data(m), static_cast<std::size_t>(st_.tried_count(m)));
      ctx.process_start = st_.process_start(m);
      ctx.now = now;
      ctx.last_recovery_end = st_.last_recovery_end(m);
      action = policy_.ChooseAction(ctx);
    }

    st_.PushTried(m, action);
    st_.set_last_action_start(m, now);
    out_.entries.push_back(LogEntry::Action(now, m, action));
    Trace(now, m, obs::TraceEventKind::kDispatch, st_.tried_count(m) - 1,
          ActionIndex(action));
    Trace(now, m, obs::TraceEventKind::kActionStart,
          st_.tried_count(m) - 1, ActionIndex(action));
    const ActionResponse& resp =
        fault.responses[static_cast<std::size_t>(ActionIndex(action))];
    const SimTime duration = std::max<SimTime>(
        1, static_cast<SimTime>(
               st_.speed(m) * rng.NextLogNormalWithMean(resp.mean_duration_s,
                                                        resp.duration_sigma)));
    Push(now + duration, FleetEventKind::kActionDone, m, st_.process_seq(m),
         kInvalidSymptom, action);
  }

  const ClusterSimConfig& cfg_;
  const FaultCatalog& catalog_;
  const Tables& t_;
  FleetState& st_;
  EventQueue& queue_;
  RecoveryPolicy& policy_;
  ShardOutput& out_;
  Mode& mode_;
  const obs::TraceCollector* traces_ = nullptr;
};

// One global RNG + global push counter: the seed engine's draw and tie
// order.
struct CompatMode {
  explicit CompatMode(std::uint64_t seed) : rng(seed) {}
  Rng& RngFor(MachineId) { return rng; }
  std::uint64_t NextTie(MachineId, FleetEventKind) { return seq++; }
  void OnCured(MachineId m) { state->PoolAdd(m); }

  Rng rng;
  std::uint64_t seq = 0;
  FleetState* state = nullptr;
};

// Per-machine RNG streams and (machine, kind, seq) ties. No draw and no
// byte of state crosses a machine boundary, so shard composition — and
// with it thread count and shard count — cannot affect the output.
struct ShardMode {
  ShardMode(MachineId begin, MachineId end, std::uint64_t seed)
      : base(begin) {
    const std::size_t n = static_cast<std::size_t>(end - begin);
    rngs.reserve(n);
    for (MachineId m = begin; m < end; ++m) {
      rngs.emplace_back(DeriveStream(seed, static_cast<std::uint64_t>(m)));
    }
    seqs.assign(n, 0);
  }
  Rng& RngFor(MachineId m) {
    return rngs[static_cast<std::size_t>(m - base)];
  }
  std::uint64_t NextTie(MachineId m, FleetEventKind kind) {
    // (machine, kind, per-machine seq): 30 bits of machine id, 2 of kind,
    // 32 of sequence. The ctor checks the fleet fits the machine field.
    return (static_cast<std::uint64_t>(m) << 34) |
           (static_cast<std::uint64_t>(kind) << 32) |
           static_cast<std::uint64_t>(
               seqs[static_cast<std::size_t>(m - base)]++);
  }
  void OnCured(MachineId) {}

  MachineId base;
  std::vector<Rng> rngs;
  std::vector<std::uint32_t> seqs;
};

}  // namespace

FleetSimulator::FleetSimulator(FleetSimConfig config, FaultCatalog catalog)
    : config_(config), catalog_(std::move(catalog)) {
  const ClusterSimConfig& sim = config_.sim;
  AER_CHECK_GT(sim.num_machines, 0);
  // The sharded tie packs the machine id into 30 bits.
  AER_CHECK_LE(sim.num_machines, 1 << 28);
  AER_CHECK_GT(sim.duration, 0);
  AER_CHECK_GT(sim.machine_mtbf_days, 0.0);
  AER_CHECK_GE(sim.max_actions_per_process, 1);
  AER_CHECK_LE(sim.min_decision_gap_s, sim.max_decision_gap_s);
  AER_CHECK_GE(sim.diurnal_amplitude, 0.0);
  AER_CHECK_LT(sim.diurnal_amplitude, 1.0);
  catalog_.Validate();
}

int FleetSimulator::num_shards() const {
  const int machines = config_.sim.num_machines;
  if (config_.num_shards > 0) return std::min(config_.num_shards, machines);
  // Config-pure default: one shard per 16k machines, capped at 64 (a 10^6
  // fleet gets 62 shards; small test fleets run single-shard).
  return std::clamp(machines / 16384, 1, 64);
}

SimulationResult FleetSimulator::RunSeedCompat(RecoveryPolicy& policy) {
  AER_PROFILE_SCOPE("fleet_run_compat");
  const ClusterSimConfig& cfg = config_.sim;
  SimulationResult result;
  const FleetSimTables tables = BuildTables(catalog_, result.log.symptoms());

  FleetState state(FleetState::Layout{
      .num_machines = cfg.num_machines,
      .tried_capacity = cfg.max_actions_per_process,
      .emitted_capacity = tables.emitted_capacity,
      .with_healthy_pool = true});
  EventQueue queue;
  CompatMode mode(cfg.seed);
  mode.state = &state;
  ShardOutput out;
  EngineCore<CompatMode> engine(cfg, catalog_, tables, state, queue, policy,
                                out, mode, traces_);

  // Seed draw order: per-machine speeds first (only when spread > 0), then
  // the first arrival.
  if (cfg.machine_speed_spread > 0.0) {
    for (MachineId m = 0; m < cfg.num_machines; ++m) {
      state.set_speed(
          m, std::max(0.1, 1.0 + cfg.machine_speed_spread *
                                     (2.0 * mode.rng.NextDouble() - 1.0)));
    }
  }

  // Global Poisson arrivals across the fleet, diurnal modulation by
  // thinning against the peak rate — the seed engine's scheme verbatim.
  const double fleet_rate = static_cast<double>(cfg.num_machines) /
                            (cfg.machine_mtbf_days * static_cast<double>(kDay));
  const double peak_rate = fleet_rate * (1.0 + cfg.diurnal_amplitude);
  const auto schedule_next_arrival = [&](SimTime now) {
    const SimTime dt = std::max<SimTime>(
        1, static_cast<SimTime>(mode.rng.NextExponential(1.0 / peak_rate)));
    if (now + dt <= cfg.duration) {
      engine.Push(now + dt, FleetEventKind::kFaultArrival, 0, 0,
                  kInvalidSymptom, RepairAction::kTryNop);
    }
  };
  const auto accept_arrival = [&](SimTime t) {
    if (cfg.diurnal_amplitude == 0.0) return true;
    const double rate =
        fleet_rate * (1.0 + cfg.diurnal_amplitude *
                                std::sin(2.0 * 3.14159265358979323846 *
                                         static_cast<double>(t % kDay) /
                                         static_cast<double>(kDay)));
    return mode.rng.NextDouble() < rate / peak_rate;
  };
  schedule_next_arrival(0);

  ScheduledEvent e;
  while (queue.PopNext(&e)) {
    ++out.events_processed;
    switch (e.event.kind) {
      case FleetEventKind::kFaultArrival: {
        schedule_next_arrival(e.time);
        if (!accept_arrival(e.time)) break;  // thinned (off-peak)
        ++out.fault_arrivals;
        if (state.pool_empty()) {
          ++out.fault_arrivals_skipped;  // whole fleet is down
          break;
        }
        const MachineId m = state.pool_at(
            mode.rng.NextBounded(state.pool_size()));
        state.PoolRemove(m);
        const std::size_t f = SampleFault(mode.rng, tables);
        engine.BeginProcess(e.time, m, f, mode.rng);
        break;
      }
      case FleetEventKind::kSymptom:
        engine.HandleSymptom(e);
        break;
      case FleetEventKind::kChooseAction:
        engine.HandleChooseAction(e);
        break;
      case FleetEventKind::kActionDone:
        engine.HandleActionDone(e);
        break;
    }
  }
  out.peak_pending = queue.peak_size();

  std::vector<ShardOutput> outputs;
  outputs.push_back(std::move(out));
  Finalize(std::move(outputs), /*shards_used=*/1, result);
  return result;
}

void FleetSimulator::RunShard(int shard, int shards, const FleetSimTables& t,
                              FleetState& state, RecoveryPolicy& policy,
                              ShardMerger& merger) const {
  AER_PROFILE_SCOPE("fleet_shard");
  const ClusterSimConfig& cfg = config_.sim;
  const MachineId begin = static_cast<MachineId>(
      static_cast<std::int64_t>(cfg.num_machines) * shard / shards);
  const MachineId end = static_cast<MachineId>(
      static_cast<std::int64_t>(cfg.num_machines) * (shard + 1) / shards);

  ShardOutput out;
  EventQueue queue;
  ShardMode mode(begin, end, cfg.seed);
  EngineCore<ShardMode> engine(cfg, catalog_, t, state, queue, policy, out,
                               mode, traces_);

  // Per-machine Poisson arrivals: superposing num_machines independent
  // rate-1/mtbf processes gives exactly the seed engine's fleet-level
  // Poisson process, but with no draw shared across machines. Diurnal
  // thinning applies the same relative modulation (the fleet/machine rate
  // ratio cancels out of rate(t)/peak).
  const double machine_rate =
      1.0 / (cfg.machine_mtbf_days * static_cast<double>(kDay));
  const double peak_rate = machine_rate * (1.0 + cfg.diurnal_amplitude);
  const auto schedule_next_arrival = [&](MachineId m, SimTime now) {
    const SimTime dt = std::max<SimTime>(
        1, static_cast<SimTime>(
               mode.RngFor(m).NextExponential(1.0 / peak_rate)));
    if (now + dt <= cfg.duration) {
      engine.Push(now + dt, FleetEventKind::kFaultArrival, m, 0,
                  kInvalidSymptom, RepairAction::kTryNop);
    }
  };
  const auto accept_arrival = [&](MachineId m, SimTime time) {
    if (cfg.diurnal_amplitude == 0.0) return true;
    const double factor =
        (1.0 + cfg.diurnal_amplitude *
                   std::sin(2.0 * 3.14159265358979323846 *
                            static_cast<double>(time % kDay) /
                            static_cast<double>(kDay))) /
        (1.0 + cfg.diurnal_amplitude);
    return mode.RngFor(m).NextDouble() < factor;
  };

  // Machine init mirrors the seed stream discipline per machine: the speed
  // draw (when spread > 0) comes first, then the first arrival.
  for (MachineId m = begin; m < end; ++m) {
    if (cfg.machine_speed_spread > 0.0) {
      state.set_speed(
          m, std::max(0.1, 1.0 + cfg.machine_speed_spread *
                                     (2.0 * mode.RngFor(m).NextDouble() -
                                      1.0)));
    }
    schedule_next_arrival(m, 0);
  }

  ScheduledEvent e;
  while (queue.PopNext(&e)) {
    ++out.events_processed;
    const MachineId m = e.event.machine;
    switch (e.event.kind) {
      case FleetEventKind::kFaultArrival: {
        schedule_next_arrival(m, e.time);
        if (!accept_arrival(m, e.time)) break;  // thinned (off-peak)
        ++out.fault_arrivals;
        if (!state.healthy(m)) {
          // The machine is mid-recovery; the fault is lost. The seed engine
          // instead redirects arrivals to a random healthy machine — global
          // state the shards deliberately do not share (docs/FLEET_SIM.md).
          ++out.fault_arrivals_skipped;
          break;
        }
        const std::size_t f = SampleFault(mode.RngFor(m), t);
        engine.BeginProcess(e.time, m, f, mode.RngFor(m));
        break;
      }
      case FleetEventKind::kSymptom:
        engine.HandleSymptom(e);
        break;
      case FleetEventKind::kChooseAction:
        engine.HandleChooseAction(e);
        break;
      case FleetEventKind::kActionDone:
        engine.HandleActionDone(e);
        break;
    }
  }
  out.peak_pending = queue.peak_size();
  merger.Add(shard, std::move(out));
}

SimulationResult FleetSimulator::Run(RecoveryPolicy& policy,
                                     ThreadPool* pool) {
  AER_PROFILE_SCOPE("fleet_run");
  SimulationResult result;
  const FleetSimTables tables = BuildTables(catalog_, result.log.symptoms());
  const int shards = num_shards();

  // One global SoA block; shards own disjoint machine-id ranges of it.
  FleetState state(FleetState::Layout{
      .num_machines = config_.sim.num_machines,
      .tried_capacity = config_.sim.max_actions_per_process,
      .emitted_capacity = tables.emitted_capacity,
      .with_healthy_pool = false});
  ShardMerger merger(shards);
  const auto run_shard = [&](std::size_t s) {
    RunShard(static_cast<int>(s), shards, tables, state, policy, merger);
  };
  if (pool != nullptr && pool->num_threads() > 1 && shards > 1) {
    pool->ParallelFor(static_cast<std::size_t>(shards), run_shard);
  } else {
    for (int s = 0; s < shards; ++s) run_shard(static_cast<std::size_t>(s));
  }

  Finalize(merger.TakeAll(), shards, result);
  return result;
}

void FleetSimulator::Finalize(std::vector<ShardOutput> outputs,
                              int shards_used, SimulationResult& result) {
  AER_PROFILE_SCOPE("fleet_merge");
  std::int64_t arrivals = 0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::size_t num_gt = 0;
  for (const ShardOutput& out : outputs) num_gt += out.ground_truth.size();
  result.ground_truth.reserve(num_gt);
  if (traces_ != nullptr) {
    // Same discipline as the log merge: per-shard buffers handed over in
    // shard order, stably sorted by (time, machine) inside the collector.
    std::vector<std::vector<obs::TraceRecord>> trace_shards;
    trace_shards.reserve(outputs.size());
    for (ShardOutput& out : outputs) {
      trace_shards.push_back(std::move(out.trace));
    }
    traces_->MergeShards(std::move(trace_shards));
  }
  // Serial merge in shard (== machine-ID) order; the final stable sorts
  // put entries in the seed engine's (time, machine) order with per-key
  // insertion order preserved.
  for (ShardOutput& out : outputs) {
    for (const LogEntry& entry : out.entries) result.log.Append(entry);
    for (const ProcessGroundTruth& gt : out.ground_truth) {
      result.ground_truth.push_back(gt);
    }
    result.fault_arrivals_skipped += out.fault_arrivals_skipped;
    result.processes_completed += out.processes_completed;
    result.total_downtime += out.total_downtime;
    arrivals += out.fault_arrivals;
    events += out.events_processed;
    peak_pending = std::max(peak_pending, out.peak_pending);
  }
  result.log.SortByTime();
  std::stable_sort(
      result.ground_truth.begin(), result.ground_truth.end(),
      [](const ProcessGroundTruth& a, const ProcessGroundTruth& b) {
        if (a.start != b.start) return a.start < b.start;
        return a.machine < b.machine;
      });

  if (metrics_ != nullptr) {
    metrics_->GetCounter("aer_fleet_events_total")
        .Inc(static_cast<std::int64_t>(events));
    metrics_->GetCounter("aer_fleet_arrivals_total").Inc(arrivals);
    metrics_->GetCounter("aer_fleet_arrivals_skipped_total")
        .Inc(result.fault_arrivals_skipped);
    metrics_->GetCounter("aer_fleet_processes_total")
        .Inc(result.processes_completed);
    metrics_->GetCounter("aer_fleet_downtime_seconds_total")
        .Inc(result.total_downtime);
    metrics_->GetGauge("aer_fleet_machines")
        .Set(static_cast<double>(config_.sim.num_machines));
    metrics_->GetGauge("aer_fleet_shards")
        .Set(static_cast<double>(shards_used));
    metrics_->GetGauge("aer_fleet_wheel_peak_events")
        .Set(static_cast<double>(peak_pending));
  }
}

}  // namespace aer::fleet
