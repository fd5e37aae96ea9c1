#include "workloads.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "cluster/fault_catalog.h"
#include "cluster/trace.h"
#include "cluster/user_policy.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "eval/bootstrap.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/split.h"
#include "fleet/fleet_sim.h"
#include "mining/error_type.h"
#include "mining/symptom_clusters.h"
#include "rl/parallel_trainer.h"
#include "sample_stats.h"
#include "serve.h"

namespace perfbench {
namespace {

using aer::RecoveryProcess;

constexpr int kFleetMachines = 40000;
constexpr double kTrainFraction = 0.4;  // the paper's test 2
constexpr int kBootstrapResamples = 2000;

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// Delegates every decision to the served policy, timing it as an rl.choose
// span and asking the trained policy whether it would have answered (the
// hybrid's fallback rate). Used only in traced passes.
class ProbePolicy final : public aer::RecoveryPolicy {
 public:
  ProbePolicy(aer::RecoveryPolicy& inner, const aer::TrainedPolicy& trained,
              SpanRecorder* spans)
      : inner_(inner),
        trained_(trained),
        spans_(spans),
        choose_(spans->Intern("rl.choose")),
        probe_(spans->Intern("bench.fallback_probe")) {}

  aer::RepairAction ChooseAction(const aer::RecoveryContext& context) override {
    aer::RepairAction action;
    {
      const ScopedSpan span(spans_, choose_);
      action = inner_.ChooseAction(context);
    }
    const ScopedSpan span(spans_, probe_);
    ++calls_;
    if (!trained_.Lookup(context.initial_symptom_name, context.tried)) {
      ++fallbacks_;
    }
    return action;
  }

  void OnActionOutcome(const aer::RecoveryContext& context,
                       aer::RepairAction action, aer::SimTime cost,
                       bool cured) override {
    inner_.OnActionOutcome(context, action, cost, cured);
  }

  std::string_view name() const override { return inner_.name(); }

  void AddCounters(std::map<std::string, double>& layer) const {
    layer["rl.fallback_ratio"] =
        calls_ > 0 ? static_cast<double>(fallbacks_) / static_cast<double>(calls_)
                   : 0.0;
  }

 private:
  aer::RecoveryPolicy& inner_;
  const aer::TrainedPolicy& trained_;
  SpanRecorder* spans_;
  const int choose_;
  const int probe_;
  std::int64_t calls_ = 0;
  std::int64_t fallbacks_ = 0;
};

// The pipeline's front end, shared by every workload: segment -> mine ->
// filter -> types -> split -> both simulation platforms.
struct FrontEnd {
  std::vector<RecoveryProcess> clean;
  std::unique_ptr<aer::ErrorTypeCatalog> types;
  aer::TrainTestSplit split;
  std::unique_ptr<aer::SimulationPlatform> train_platform;
  std::unique_ptr<aer::SimulationPlatform> test_platform;
};

void RunFrontEnd(const aer::RecoveryLog& log, SpanRecorder* spans,
                 FrontEnd& out, std::map<std::string, double>& layer) {
  std::vector<RecoveryProcess> all;
  {
    const ScopedSpan span(spans, "log.segment");
    all = aer::SegmentIntoProcesses(log).processes;
  }
  std::unique_ptr<aer::SymptomClustering> clustering;
  {
    const ScopedSpan span(spans, "mining.cluster");
    clustering =
        std::make_unique<aer::SymptomClustering>(all, aer::MPatternConfig{});
  }
  aer::NoiseFilterResult filtered;
  {
    const ScopedSpan span(spans, "mining.filter");
    filtered = aer::FilterNoisyProcesses(all, *clustering);
  }
  out.clean.reserve(filtered.clean.size());
  for (const std::size_t i : filtered.clean) {
    out.clean.push_back(std::move(all[i]));
  }
  const aer::ExperimentConfig experiment;
  {
    const ScopedSpan span(spans, "mining.types");
    out.types = std::make_unique<aer::ErrorTypeCatalog>(out.clean,
                                                        experiment.max_types);
  }
  {
    const ScopedSpan span(spans, "eval.split");
    out.split = aer::SplitByTime(out.clean, kTrainFraction);
  }
  {
    const ScopedSpan span(spans, "sim.platform");
    const int max_actions = experiment.trainer.max_actions;
    out.train_platform = std::make_unique<aer::SimulationPlatform>(
        out.split.train, *out.types, log.symptoms(), max_actions);
    out.test_platform = std::make_unique<aer::SimulationPlatform>(
        out.split.test, *out.types, log.symptoms(), max_actions);
  }
  layer["log.entries"] += static_cast<double>(log.size());
  layer["log.processes"] += static_cast<double>(all.size());
  layer["mining.clusters"] = static_cast<double>(clustering->clusters().size());
  layer["mining.clean_ratio"] = filtered.clean_fraction;
}

// Sum of the profile time of every scope path that ends in `scope`, e.g.
// "train_type" matches "pool_task/train_type" but not "train_type/x".
double ProfileSeconds(const std::vector<aer::ProfileEntry>& entries,
                      std::string_view scope) {
  double ns = 0.0;
  for (const aer::ProfileEntry& e : entries) {
    const std::string_view path = e.path;
    if (path == scope ||
        (path.ends_with(scope) && path[path.size() - scope.size() - 1] == '/')) {
      ns += static_cast<double>(e.total_ns);
    }
  }
  return ns * 1e-9;
}

// The shards ParallelTrainer::TrainAll runs, with a span around each
// SelectionTreeTrainer::TrainType, merged in catalog order exactly as
// ParallelTrainer merges them (the output check compares the two).
aer::QLearningTrainer::TrainingOutput TrainTraced(
    const aer::SelectionTreeTrainer& tree, aer::ThreadPool& pool,
    SpanRecorder* spans, int parent) {
  const aer::SimulationPlatform& platform = tree.base().platform();
  const std::size_t num_types = platform.types().num_types();
  std::vector<aer::TypeTrainingResult> per_type(num_types);
  const int name = spans->Intern("rl.train_type");
  pool.ParallelFor(num_types, [&](std::size_t t) {
    const ScopedSpan span(spans, name, parent);
    per_type[t] = tree.TrainType(static_cast<aer::ErrorTypeId>(t));
  });
  aer::QLearningTrainer::TrainingOutput output;
  for (std::size_t t = 0; t < num_types; ++t) {
    const auto type = static_cast<aer::ErrorTypeId>(t);
    if (!per_type[t].sequence.empty()) {
      output.policy.AddType(
          {std::string(platform.symptoms().Name(platform.types().symptom_of(type))),
           per_type[t].sequence});
    }
    output.per_type.push_back(std::move(per_type[t]));
  }
  return output;
}

// Trains the selection-tree policy on the front end's training split, as
// ExperimentRunner::RunOne does, on the pool.
aer::TrainedPolicy TrainPolicy(const FrontEnd& front, std::uint64_t seed,
                               aer::ThreadPool& pool, SpanRecorder* spans,
                               std::map<std::string, double>& layer) {
  const ScopedSpan span(spans, "rl.train_all");
  const double cpu_start = ProcessCpuSeconds();
  aer::ExperimentConfig config;
  config.trainer.seed = seed;
  const aer::QLearningTrainer trainer(*front.train_platform, front.split.train,
                                      config.trainer);
  const aer::SelectionTreeTrainer tree(trainer, config.tree);
  aer::QLearningTrainer::TrainingOutput output;
  if (spans == nullptr) {
    output = aer::ParallelTrainer(tree, pool).TrainAll();
  } else {
    aer::ProfileRegistry::Global().Reset();
    output = TrainTraced(tree, pool, spans, span.id());
    // Split the per-type time into Q-learning sweeps and the rest (tree
    // scans) with the program's own profiler scopes.
    const auto profile = aer::ProfileRegistry::Global().Snapshot();
    const double sweep_s = ProfileSeconds(profile, "train_type/train_sweep");
    layer["rl.sweep_s"] = sweep_s;
    layer["rl.scan_s"] = ProfileSeconds(profile, "train_type") - sweep_s;
  }
  layer["rl.train_cpu_s"] = ProcessCpuSeconds() - cpu_start;
  std::int64_t trained_types = 0;
  std::int64_t converged = 0;
  for (const aer::TypeTrainingResult& r : output.per_type) {
    if (r.training_processes == 0) continue;
    ++trained_types;
    if (r.converged) ++converged;
  }
  layer["rl.episodes"] =
      static_cast<double>(aer::ParallelTrainer::TotalEpisodes(output));
  layer["rl.converged_ratio"] =
      trained_types > 0
          ? static_cast<double>(converged) / static_cast<double>(trained_types)
          : 0.0;
  layer["pool.slots"] = pool.num_threads() + 1;  // the caller participates
  return std::move(output.policy);
}

std::string SummaryDigest(const char* label, const aer::EvalSummary& s) {
  std::ostringstream out;
  out << label << ' ' << s.total_processes << ' ' << s.total_handled << ' '
      << Fmt("%.17g", s.total_actual_cost) << ' '
      << Fmt("%.17g", s.total_policy_cost) << '\n';
  return out.str();
}

std::string IntervalDigest(const aer::BootstrapInterval& ci) {
  return "ci " + Fmt("%.17g", ci.point) + ' ' + Fmt("%.17g", ci.low) + ' ' +
         Fmt("%.17g", ci.high) + '\n';
}

bool IntervalSane(const aer::BootstrapInterval& ci) {
  return ci.low <= ci.point && ci.point <= ci.high && ci.low > 0.0;
}

aer::BootstrapInterval Bootstrap(const aer::EvalSummary& summary,
                                 aer::ThreadPool& pool, SpanRecorder* spans,
                                 std::map<std::string, double>& layer) {
  const ScopedSpan span(spans, "eval.bootstrap");
  layer["eval.pairs"] = static_cast<double>(summary.samples.size());
  return aer::BootstrapRatioCI(summary.samples, kBootstrapResamples, 0.95, 1,
                               &pool);
}

aer::SimulationResult SimulateFleet(std::uint64_t seed, aer::ThreadPool& pool,
                                    SpanRecorder* spans,
                                    std::map<std::string, double>& layer) {
  const ScopedSpan span(spans, "fleet.simulate");
  aer::fleet::FleetSimConfig config;
  config.sim.num_machines = kFleetMachines;  // 180 days by default
  config.sim.seed = seed;
  aer::fleet::FleetSimulator sim(config, aer::MakeDefaultCatalog());
  aer::UserDefinedPolicy policy;
  aer::SimulationResult result = sim.Run(policy, &pool);
  layer["fleet.log_entries"] = static_cast<double>(result.log.size());
  return result;
}

aer::TraceDataset GenerateDefaultTrace(std::uint64_t seed, SpanRecorder* spans,
                                       std::map<std::string, double>& layer) {
  const ScopedSpan span(spans, "cluster.generate");
  aer::TraceConfig config = aer::TraceConfigForScale("default");
  config.sim.seed = seed;
  aer::TraceDataset trace = aer::GenerateTrace(config);
  layer["cluster.log_entries"] += static_cast<double>(trace.result.log.size());
  return trace;
}

// --- train_default ---------------------------------------------------------

class TrainDefault final : public Workload {
 public:
  TrainDefault(const Seeds& seeds, aer::ThreadPool& pool)
      : seeds_(seeds), pool_(pool) {}

  void Setup(SpanRecorder* spans) override {
    for (int i = 0; i < kTrainInputs; ++i) {
      const auto derive = [i](std::uint64_t seed) {
        return i == 0 ? seed
                      : aer::DeriveStream(seed, static_cast<std::uint64_t>(i));
      };
      train_seeds_.push_back(derive(seeds_.train));
      traces_.push_back(GenerateDefaultTrace(derive(seeds_.trace), spans, layer_));
    }
  }

  int inputs() const override { return kTrainInputs; }

  PassOutput Pass(const PassOptions& options) override {
    SpanRecorder* spans = options.spans;
    const auto input = static_cast<std::size_t>(options.input);
    PassOutput out;
    FrontEnd front;
    RunFrontEnd(traces_[input].result.log, spans, front, out.layer);
    const aer::TrainedPolicy policy =
        TrainPolicy(front, train_seeds_[input], pool_, spans, out.layer);

    const aer::PolicyEvaluator evaluator(*front.test_platform);
    aer::EvalSummary trained;
    aer::EvalSummary hybrid;
    {
      const ScopedSpan span(spans, "eval.evaluate");
      trained = evaluator.EvaluateTrained(policy, front.split.test);
    }
    {
      aer::UserDefinedPolicy user;
      aer::HybridPolicy hybrid_policy(policy, user);
      const ScopedSpan span(spans, "eval.evaluate");
      if (spans != nullptr) {
        ProbePolicy probe(hybrid_policy, policy, spans);
        hybrid = evaluator.EvaluateFull(probe, front.split.test);
        probe.AddCounters(out.layer);
      } else {
        hybrid = evaluator.EvaluateFull(hybrid_policy, front.split.test);
      }
    }
    const aer::BootstrapInterval ci = Bootstrap(hybrid, pool_, spans, out.layer);

    out.digest = TrainDigest(policy, trained, hybrid) + IntervalDigest(ci);
    out.failed = IntervalSane(ci) && policy.num_types() > 0 &&
                         trained.total_handled > 0
                     ? 0
                     : 1;
    out.events = static_cast<std::int64_t>(out.layer["rl.episodes"]);
    out.relative_cost = hybrid.overall_relative_cost;
    out.report["hybrid_relative_cost"] = hybrid.overall_relative_cost;
    out.report["trained_coverage"] = trained.overall_coverage;
    out.report["trained_relative_cost"] = trained.overall_relative_cost;
    return out;
  }

  const char* event_unit() const override { return "training episodes"; }

 private:
  Seeds seeds_;
  aer::ThreadPool& pool_;
  std::vector<aer::TraceDataset> traces_;
  std::vector<std::uint64_t> train_seeds_;
};

// --- ingest_paper ----------------------------------------------------------

class IngestPaper final : public Workload {
 public:
  IngestPaper(const Seeds& seeds, aer::ThreadPool& pool)
      : seeds_(seeds), pool_(pool) {}

  void Setup(SpanRecorder* spans) override {
    stream_ = SimulateFleet(seeds_.stream, pool_, spans, layer_);
  }

  PassOutput Pass(const PassOptions& options) override {
    SpanRecorder* spans = options.spans;
    PassOutput out;
    FrontEnd front;
    RunFrontEnd(stream_.log, spans, front, out.layer);
    const aer::PolicyEvaluator evaluator(*front.test_platform);
    aer::UserDefinedPolicy user;
    aer::EvalSummary full;
    {
      const ScopedSpan span(spans, "eval.evaluate");
      full = evaluator.EvaluateFull(user, front.split.test);
    }
    const aer::BootstrapInterval ci = Bootstrap(full, pool_, spans, out.layer);

    std::ostringstream digest;
    digest << "clean " << front.clean.size() << '\n' << "types";
    for (std::size_t t = 0; t < front.types->num_types(); ++t) {
      const auto type = static_cast<aer::ErrorTypeId>(t);
      digest << ' ' << front.types->symptom_of(type) << ':'
             << front.types->count_of(type);
    }
    digest << '\n' << SummaryDigest("user", full) << IntervalDigest(ci);
    out.digest = digest.str();
    out.failed = IntervalSane(ci) && !front.clean.empty() &&
                         front.types->num_types() > 0
                     ? 0
                     : 1;
    out.events = static_cast<std::int64_t>(stream_.log.size());
    out.relative_cost = full.overall_relative_cost;
    out.report["user_relative_cost"] = full.overall_relative_cost;
    out.report["clean_processes"] = static_cast<double>(front.clean.size());
    return out;
  }

  const char* event_unit() const override { return "log entries"; }

 private:
  Seeds seeds_;
  aer::ThreadPool& pool_;
  aer::SimulationResult stream_;
};

// --- serve_fleet -----------------------------------------------------------

class ServeFleet final : public Workload {
 public:
  ServeFleet(const Seeds& seeds, aer::ThreadPool& pool)
      : seeds_(seeds), pool_(pool) {}

  void Setup(SpanRecorder* spans) override {
    {
      const aer::TraceDataset trace =
          GenerateDefaultTrace(seeds_.trace, spans, layer_);
      FrontEnd front;
      RunFrontEnd(trace.result.log, spans, front, layer_);
      policy_ = TrainPolicy(front, seeds_.train, pool_, spans, layer_);
    }
    const aer::SimulationResult stream =
        SimulateFleet(seeds_.stream, pool_, spans, layer_);
    std::vector<RecoveryProcess> processes;
    {
      const ScopedSpan span(spans, "log.segment");
      processes = aer::SegmentIntoProcesses(stream.log).processes;
    }
    layer_["log.entries"] += static_cast<double>(stream.log.size());
    layer_["log.processes"] += static_cast<double>(processes.size());
    symptoms_ = stream.log.symptoms();
    input_ = BuildServeInput(processes, symptoms_, seeds_.stream);
  }

  PassOutput Pass(const PassOptions& options) override {
    SpanRecorder* spans = options.spans;
    aer::UserDefinedPolicy user;
    aer::HybridPolicy hybrid(policy_, user);
    ServeOptions serve;
    serve.observers = options.observers;
    serve.spans = spans;

    PassOutput out;
    ServeResult result;
    if (spans != nullptr) {
      ProbePolicy probe(hybrid, policy_, spans);
      result = RunServePass(input_, probe, serve);
      probe.AddCounters(out.layer);
    } else {
      result = RunServePass(input_, hybrid, serve);
    }
    out.digest = "decisions " + std::to_string(result.checksum) + " completed " +
                 std::to_string(result.completed) + '\n';
    out.attempted = result.calls;
    out.failed = result.failed + (result.completed == result.served ? 0 : 1);
    out.events = result.calls;
    out.relative_cost = result.served_downtime / result.logged_downtime;
    out.report["served_processes"] = static_cast<double>(result.served);
    out.latency_us = std::move(result.latency_us);
    out.layer["core.processes"] = static_cast<double>(result.completed);
    out.layer["core.history_size_max"] =
        static_cast<double>(result.history_size_max);
    out.layer["core.history_evictions"] =
        static_cast<double>(result.history_evictions);
    out.layer["obs.trace_records"] = static_cast<double>(result.trace_records);
    return out;
  }

  const char* event_unit() const override { return "manager calls"; }

 private:
  Seeds seeds_;
  aer::ThreadPool& pool_;
  aer::TrainedPolicy policy_;
  aer::SymptomTable symptoms_;
  ServeInput input_;
};

}  // namespace

std::string TrainDigest(const aer::TrainedPolicy& policy,
                        const aer::EvalSummary& trained,
                        const aer::EvalSummary& hybrid) {
  std::ostringstream digest;
  policy.Write(digest);
  digest << SummaryDigest("trained", trained) << SummaryDigest("hybrid", hybrid);
  return digest.str();
}

std::vector<std::string> WorkloadNames() {
  return {"train_default", "ingest_paper", "serve_fleet"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Seeds& seeds,
                                       aer::ThreadPool& pool) {
  if (name == "train_default") return std::make_unique<TrainDefault>(seeds, pool);
  if (name == "ingest_paper") return std::make_unique<IngestPaper>(seeds, pool);
  if (name == "serve_fleet") return std::make_unique<ServeFleet>(seeds, pool);
  return nullptr;
}

}  // namespace perfbench
