// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-seed n] [--stream-seed n] [--train-seed n]
//             [--setup-only 1] [--spans-out path]
//
// --trace 0 sets the workload up, then runs timed passes for --seconds and
// reports the end-to-end metrics; setup_s runs from process start to the
// first pass. --setup-only 1 stops after the set-up and prints only
// {"setup_s": ...}, so a caller can time several set-ups in fresh processes
// (run.py reports their median). --trace 1
// sets up once with spans on, then alternates untraced and traced passes
// (serve_fleet adds a pass with the observers detached) and reports the
// per-layer metrics, the tracing overhead and a self-time table; the spans
// are written to --spans-out. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sample_stats.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kPoolThreads = 2;  // + the calling thread in ParallelFor

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  Seeds seeds;
  bool setup_only = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <train_default|"
               "ingest_paper|serve_fleet> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-seed n] [--stream-seed n] [--train-seed n] "
               "[--setup-only 1] [--spans-out path]\n",
               why);
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Usage("not a whole number");
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool trace_seed = false, stream_seed = false, train_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseU64(value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseU64(value));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(ParseU64(value));
    } else if (flag == "--trace-seed") {
      args.seeds.trace = ParseU64(value);
      trace_seed = true;
    } else if (flag == "--stream-seed") {
      args.seeds.stream = ParseU64(value);
      stream_seed = true;
    } else if (flag == "--train-seed") {
      args.seeds.train = ParseU64(value);
      train_seed = true;
    } else if (flag == "--setup-only") {
      args.setup_only = ParseU64(value) != 0;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty() || args.seconds <= 0 || args.trace < 0 ||
      args.trace > 1) {
    Usage("missing or invalid arguments");
  }
  // --seed drives every input unless a seed is given on its own; the fleet
  // stream differs from the training trace.
  if (!trace_seed) args.seeds.trace = args.seed;
  if (!stream_seed) args.seeds.stream = args.seed + 1;
  if (!train_seed) args.seeds.train = args.seed;
  return args;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Checks every pass's output against the first pass over the same input.
struct OutputCheck {
  std::map<int, std::string> digests;  // by input
  std::int64_t passes = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool consistent = true;

  void Add(int input, const PassOutput& out) {
    ++passes;
    const auto [it, first] = digests.emplace(input, out.digest);
    if (!first && it->second != out.digest) {
      consistent = false;
      ++failed;
      std::fprintf(stderr, "perfbench: pass %lld output differs from the "
                   "first pass over input %d\n",
                   static_cast<long long>(passes), input);
    }
    attempted += out.attempted;
    failed += out.failed;
  }
  bool correct() const { return consistent && failed == 0; }
};

// Mean over a workload's inputs of a per-input value.
double MeanOverInputs(const std::map<int, double>& by_input) {
  double sum = 0.0;
  for (const auto& [input, value] : by_input) sum += value;
  return sum / static_cast<double>(by_input.size());
}

void PrintJson(const OutputCheck& check, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              check.correct() ? "true" : "false",
              static_cast<long long>(check.attempted),
              static_cast<long long>(check.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintRow(const char* name, double value, const char* unit,
              const std::string& samples) {
  std::printf("  %-30s %16.6f %-6s %s\n", name, value, unit, samples.c_str());
}

std::string N(std::int64_t n) { return "n=" + std::to_string(n); }

// m[key], or 0 when absent (a layer the workload does not call).
template <typename Map>
double Get(const Map& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

// "median of n (min .. max)" for a sample list.
std::string Describe(const std::vector<double>& v, const char* what) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  char buf[128];
  std::snprintf(buf, sizeof(buf), "n=%zu %s, median (min %.4f, max %.4f)",
                v.size(), what, *lo, *hi);
  return buf;
}

// --- untraced run: end-to-end metrics -------------------------------------

int RunEndToEnd(const Args& args, std::int64_t process_start_ns) {
  aer::ThreadPool pool(kPoolThreads);
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seeds, pool);
  workload->Setup(nullptr);
  const double setup_s = Seconds(NowNs() - process_start_ns);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  const double setup_peak_rss_mb = PeakRssMb();

  OutputCheck check;
  std::vector<double> pass_s, cpu_s, events_per_s;
  std::map<int, double> relative_cost;
  std::map<std::string, std::map<int, double>> report;
  std::vector<double> p50_us, p999_us;  // serve_fleet, one per pass
  std::int64_t calls = 0;
  std::int64_t events = 0;
  const int inputs = workload->inputs();
  const std::int64_t run_start = NowNs();
  // Every input once and the first one again (the output check), then on
  // round-robin until the time is up.
  while (check.passes <= inputs || Seconds(NowNs() - run_start) < args.seconds) {
    PassOptions options;
    options.input = static_cast<int>(check.passes % inputs);
    const double cpu_start = ProcessCpuSeconds();
    const std::int64_t start = NowNs();
    PassOutput out = workload->Pass(options);
    pass_s.push_back(Seconds(NowNs() - start));
    cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    check.Add(options.input, out);
    events = out.events;
    events_per_s.push_back(static_cast<double>(out.events) / pass_s.back());
    relative_cost[options.input] = out.relative_cost;
    for (const auto& [name, value] : out.report) {
      report[name][options.input] = value;
    }
    if (!out.latency_us.empty()) {
      calls = static_cast<std::int64_t>(out.latency_us.size());
      p50_us.push_back(Percentile(out.latency_us, 0.5));
      p999_us.push_back(Percentile(out.latency_us, 0.999));
    }
  }

  const std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"pass_s", Median(pass_s), "s"},
      {"cpu_s", Median(cpu_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"events_per_s", Median(events_per_s), "1/s"},
      {"relative_cost", MeanOverInputs(relative_cost), "ratio"},
  };

  std::printf("perfbench %s  seeds: trace %llu, stream %llu, train %llu  "
              "pool %d threads + caller\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seeds.trace),
              static_cast<unsigned long long>(args.seeds.stream),
              static_cast<unsigned long long>(args.seeds.train), kPoolThreads);
  PrintRow("setup_s", metrics[0].value, "s", "n=1 set-up, process start to pass 1");
  PrintRow("pass_s", metrics[1].value, "s", Describe(pass_s, "passes"));
  PrintRow("cpu_s", metrics[2].value, "s", Describe(cpu_s, "passes"));
  PrintRow("peak_rss_mb", metrics[3].value, "MB", "n=1 process");
  PrintRow("  of which set-up", setup_peak_rss_mb, "MB", "peak before the passes");
  PrintRow("events_per_s", metrics[4].value, "1/s",
           Describe(events_per_s, "passes") + ", " + std::to_string(events) +
               " " + workload->event_unit() + " in the last");
  const std::string per_input = "mean over " + N(inputs) + " inputs";
  PrintRow("relative_cost", metrics[5].value, "ratio", per_input);
  PrintRow("failed_ratio",
           static_cast<double>(check.failed) /
               static_cast<double>(check.attempted),
           "ratio", N(check.attempted) + " attempted");
  for (const auto& [name, by_input] : report) {
    PrintRow(name.c_str(), MeanOverInputs(by_input), "", per_input);
  }
  if (!p50_us.empty()) {
    // Percentiles of each pass's calls, then the median over passes.
    const std::string per_pass =
        std::to_string(calls) + " calls a pass, median over " +
        N(static_cast<std::int64_t>(p50_us.size())) + " passes";
    PrintRow("event_us_p50", Median(p50_us), "us", per_pass);
    const std::size_t tail = TailCount(static_cast<std::size_t>(calls), 0.999);
    PrintRow("event_us_p999", Median(p999_us), "us",
             per_pass + ", " + std::to_string(tail) + " beyond p99.9" +
                 (tail < kMinTailSamples ? " (too few to report)" : ""));
  }
  PrintJson(check, metrics);
  return 0;
}

// --- traced run: per-layer metrics -----------------------------------------

int RunTraced(const Args& args) {
  aer::ThreadPool pool(kPoolThreads);
  SpanRecorder recorder;
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seeds, pool);
  int setup_root = 0;
  {
    const ScopedSpan setup(&recorder, "bench.setup");
    setup_root = setup.id();
    workload->Setup(&recorder);
  }

  const bool serve = args.workload == "serve_fleet";
  OutputCheck check;
  std::vector<double> untraced_s, traced_s, detached_s;
  std::vector<int> traced_roots;
  std::vector<std::map<std::string, double>> traced_layers;
  const std::int64_t run_start = NowNs();
  const auto timed_pass = [&](const PassOptions& options,
                              std::vector<double>& wall) {
    const std::int64_t start = NowNs();
    PassOutput out = workload->Pass(options);
    wall.push_back(Seconds(NowNs() - start));
    check.Add(options.input, out);
    return out;
  };
  // Each round runs one input untraced, then traced (then, on serve_fleet,
  // with the observers detached), so the overheads compare like with like.
  for (int round = 0;
       round == 0 || Seconds(NowNs() - run_start) < args.seconds; ++round) {
    const int input = round % workload->inputs();
    timed_pass(PassOptions{nullptr, true, input}, untraced_s);
    {
      const ScopedSpan pass(&recorder, "bench.pass");
      traced_roots.push_back(pass.id());
      traced_layers.push_back(
          timed_pass(PassOptions{&recorder, true, input}, traced_s).layer);
    }
    if (serve) timed_pass(PassOptions{nullptr, false, input}, detached_s);
  }

  const std::vector<Span> spans = recorder.spans();
  const std::vector<std::string> names = recorder.names();
  std::map<int, TreeTotals> totals = TotalsByRoot(spans, names);
  const TreeTotals& setup_totals = totals[setup_root];

  // A value is the set-up's plus the median over traced passes.
  const auto combine = [&](const auto& pick) {
    std::vector<double> per_pass;
    for (const int root : traced_roots) per_pass.push_back(pick(totals[root]));
    return pick(setup_totals) + Median(per_pass);
  };
  const auto seconds = [&](const std::string& name) {
    return combine([&](const TreeTotals& t) { return Get(t.seconds, name); });
  };
  const auto calls = [&](const std::string& name) {
    return combine([&](const TreeTotals& t) { return Get(t.calls, name); });
  };
  const auto max_seconds = [&](const std::string& name) {
    return combine(
        [&](const TreeTotals& t) { return Get(t.max_seconds, name); });
  };
  const auto self = [&](const std::string& layer) {
    return combine(
        [&](const TreeTotals& t) { return Get(t.self_seconds, layer); });
  };
  // Counters: the set-up's if it has one, else the median over traced passes.
  const auto counter = [&](const std::string& name) {
    if (workload->layer().contains(name)) return workload->layer().at(name);
    std::vector<double> per_pass;
    for (const auto& layer : traced_layers) per_pass.push_back(Get(layer, name));
    return Median(per_pass);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  // p99.9 of OnActionResult over every traced pass.
  double on_result_p999_us = 0.0;
  {
    std::vector<double> us;
    for (const Span& s : spans) {
      if (names[static_cast<std::size_t>(s.name)] == "core.on_action_result") {
        us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
      }
    }
    if (!us.empty()) on_result_p999_us = Percentile(us, 0.999);
  }

  const double train_s = seconds("rl.train_all");
  const double slots = counter("pool.slots");
  std::vector<Metric> metrics = {
      {"rl.train_s", train_s, "s"},
      {"rl.train_cpu_s", counter("rl.train_cpu_s"), "s"},
      {"rl.episodes_per_s", ratio(counter("rl.episodes"), train_s), "1/s"},
      {"rl.sweep_s", counter("rl.sweep_s"), "s"},
      {"rl.scan_s", counter("rl.scan_s"), "s"},
      {"rl.type_s_max", max_seconds("rl.train_type"), "s"},
      {"rl.converged_ratio", counter("rl.converged_ratio"), "ratio"},
      {"rl.choose_us", 1e6 * ratio(seconds("rl.choose"), calls("rl.choose")),
       "us"},
      {"rl.fallback_ratio", counter("rl.fallback_ratio"), "ratio"},
      {"pool.idle_ratio",
       train_s > 0.0 && slots > 0.0
           ? PoolIdleRatio(seconds("rl.train_type"), static_cast<int>(slots),
                           train_s)
           : 0.0,
       "ratio"},
      {"log.segment_s", seconds("log.segment"), "s"},
      {"log.entries_per_s",
       ratio(counter("log.entries"), seconds("log.segment")), "1/s"},
      {"log.processes", counter("log.processes"), "count"},
      {"mining.cluster_s", seconds("mining.cluster"), "s"},
      {"mining.filter_s", seconds("mining.filter"), "s"},
      {"mining.types_s", seconds("mining.types"), "s"},
      {"mining.clean_ratio", counter("mining.clean_ratio"), "ratio"},
      {"mining.clusters", counter("mining.clusters"), "count"},
      {"sim.platform_s", seconds("sim.platform"), "s"},
      {"eval.evaluate_s", seconds("eval.evaluate"), "s"},
      {"eval.bootstrap_s", seconds("eval.bootstrap"), "s"},
      {"eval.pairs", counter("eval.pairs"), "count"},
      {"cluster.generate_s", seconds("cluster.generate"), "s"},
      {"cluster.log_entries", counter("cluster.log_entries"), "count"},
      {"fleet.simulate_s", seconds("fleet.simulate"), "s"},
      {"fleet.log_entries_per_s",
       ratio(counter("fleet.log_entries"), seconds("fleet.simulate")), "1/s"},
      {"core.on_symptom_s", seconds("core.on_symptom"), "s"},
      {"core.on_recovery_needed_s", seconds("core.on_recovery_needed"), "s"},
      {"core.on_action_result_s", seconds("core.on_action_result"), "s"},
      {"core.on_action_result_us_p999", on_result_p999_us, "us"},
      {"core.history_size_max", counter("core.history_size_max"), "count"},
      {"core.history_evictions", counter("core.history_evictions"), "count"},
      {"core.processes", counter("core.processes"), "count"},
      {"obs.attach_overhead_ratio",
       serve ? Median(untraced_s) / Median(detached_s) - 1.0 : 0.0, "ratio"},
      {"obs.trace_records", counter("obs.trace_records"), "count"},
      {"bench.trace_overhead_ratio",
       Median(traced_s) / Median(untraced_s) - 1.0, "ratio"},
  };
  for (const char* layer : {"cluster", "fleet", "log", "mining", "sim", "rl",
                            "eval", "core", "bench"}) {
    metrics.push_back({std::string(layer) + ".self_s", self(layer), "s"});
  }

  std::printf("perfbench %s traced: %zu traced / %zu untraced passes%s, "
              "%zu spans\n",
              args.workload.c_str(), traced_s.size(), untraced_s.size(),
              serve ? " (+ observers detached)" : "", spans.size());
  std::printf("  pass wall: untraced %.4f s, traced %.4f s (overhead %+.2f%%)\n",
              Median(untraced_s), Median(traced_s),
              100.0 * (Median(traced_s) / Median(untraced_s) - 1.0));
  std::printf("  self time by layer (set-up + median traced pass):\n");
  std::map<std::string, bool> layers;
  for (const std::string& name : names) layers[LayerOf(name)] = true;
  for (const auto& [layer, unused] : layers) {
    std::printf("    %-10s %12.6f s\n", layer.c_str(), self(layer));
  }
  for (const Metric& m : metrics) {
    PrintRow(m.name.c_str(), m.value, m.unit.c_str(), "");
  }
  if (!args.spans_out.empty() && !recorder.WriteJson(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    return 1;
  }
  PrintJson(check, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::NowNs();
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == args.workload;
  }
  if (!known) perfbench::Usage("unknown workload");
  return args.trace == 0 ? perfbench::RunEndToEnd(args, process_start)
                         : perfbench::RunTraced(args);
}
