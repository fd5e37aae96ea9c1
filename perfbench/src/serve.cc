#include "serve.h"

#include <algorithm>
#include <type_traits>

#include "cluster/fault_catalog.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace_collector.h"
#include "obs/trace_context.h"
#include "obs/tracer.h"

namespace perfbench {
namespace {

using aer::RepairAction;
using aer::SimTime;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t Fold(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffU;
    hash *= kFnvPrime;
  }
  return hash;
}

// Runs one manager call, timing it into a span (traced) or `latency_us`.
template <typename F>
auto TimedCall(const ServeOptions& options, int span_name,
               std::vector<float>& latency_us, F&& call) {
  const ScopedSpan span(options.spans, span_name);
  const bool timed = options.spans == nullptr;
  const std::int64_t start = timed ? NowNs() : 0;
  const auto record = [&] {
    if (timed) latency_us.push_back(static_cast<float>(NowNs() - start) * 1e-3f);
  };
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    call();
    record();
  } else {
    auto result = call();
    record();
    return result;
  }
}

}  // namespace

ServeInput BuildServeInput(std::span<const aer::RecoveryProcess> processes,
                           const aer::SymptomTable& symptoms,
                           std::uint64_t trace_seed) {
  ServeInput input;
  input.symptoms = &symptoms;
  input.trace_seed = trace_seed;
  input.processes.reserve(processes.size());
  for (const aer::RecoveryProcess& p : processes) {
    if (p.attempts().empty()) continue;
    ServedProcess served;
    served.machine = p.machine();
    served.symptoms = p.symptoms();
    served.first_action = p.attempts().front().start;
    served.cure = p.final_action();
    served.logged_downtime = p.downtime();
    input.max_machine = std::max(input.max_machine, p.machine());
    input.logged_calls += static_cast<std::int64_t>(
        p.symptoms().size() + 2 * p.attempts().size());
    input.processes.push_back(std::move(served));
  }
  return input;
}

bool Cures(RepairAction chosen, RepairAction logged_cure) {
  return aer::AtLeastAsStrong(chosen, logged_cure);
}

SimTime ActionDuration(RepairAction action) {
  const aer::ActionDurationDefaults mean;
  switch (action) {
    case RepairAction::kTryNop:
      return static_cast<SimTime>(mean.trynop_s);
    case RepairAction::kReboot:
      return static_cast<SimTime>(mean.reboot_s);
    case RepairAction::kReimage:
      return static_cast<SimTime>(mean.reimage_s);
    case RepairAction::kRma:
      return static_cast<SimTime>(mean.rma_s);
  }
  return static_cast<SimTime>(mean.rma_s);
}

ServeResult RunServePass(const ServeInput& input, aer::RecoveryPolicy& policy,
                         const ServeOptions& options) {
  AER_CHECK(input.symptoms != nullptr);
  aer::obs::Tracer tracer;
  aer::obs::MetricsRegistry metrics;
  aer::obs::TraceCollector traces;
  aer::RecoveryManager manager(policy);
  if (options.observers) {
    traces.SetMetrics(&metrics);
    manager.SetObservers(&tracer, &metrics);
    manager.SetTraceCollector(&traces);
  }
  SpanRecorder* spans = options.spans;
  const int on_symptom = spans ? spans->Intern("core.on_symptom") : 0;
  const int on_needed = spans ? spans->Intern("core.on_recovery_needed") : 0;
  const int on_result = spans ? spans->Intern("core.on_action_result") : 0;

  ServeResult result;
  if (spans == nullptr) {
    result.latency_us.reserve(static_cast<std::size_t>(input.logged_calls));
  }
  const auto machines = static_cast<std::size_t>(input.max_machine) + 1;
  std::vector<SimTime> free_at(machines, -1);     // last close per machine
  std::vector<std::uint64_t> episodes(machines, 0);
  const int max_steps = aer::RecoveryManagerConfig{}.max_actions_per_process;
  std::uint64_t checksum = kFnvOffset;

  for (const ServedProcess& p : input.processes) {
    const auto m = static_cast<std::size_t>(p.machine);
    // A served process can outlast the logged one; the machine's next
    // process then starts just after it, shifted as a whole.
    const SimTime start = p.symptoms.front().time;
    const SimTime shift = free_at[m] >= start ? free_at[m] - start + 1 : 0;
    const aer::obs::TraceContext trace{
        aer::obs::MakeTraceId(input.trace_seed, p.machine, ++episodes[m])};

    std::size_t next_symptom = 0;
    const auto report_symptoms_until = [&](SimTime limit) {
      for (; next_symptom < p.symptoms.size() &&
             p.symptoms[next_symptom].time + shift <= limit;
           ++next_symptom) {
        const aer::SymptomEvent& s = p.symptoms[next_symptom];
        TimedCall(options, on_symptom, result.latency_us, [&] {
          manager.OnSymptom(s.time + shift, p.machine,
                            input.symptoms->Name(s.symptom), trace);
        });
        ++result.calls;
      }
    };

    SimTime now = p.first_action + shift;
    report_symptoms_until(now);
    bool cured = false;
    for (int step = 0; !cured; ++step) {
      const std::optional<RepairAction> action =
          TimedCall(options, on_needed, result.latency_us,
                    [&] { return manager.OnRecoveryNeeded(now, p.machine); });
      ++result.calls;
      if (!action.has_value() || step >= max_steps) {
        ++result.failed;  // no decision for an open process, or no N-cap
        break;
      }
      checksum = Fold(checksum, static_cast<std::uint64_t>(
                                    aer::ActionIndex(*action)));
      const SimTime done = now + ActionDuration(*action);
      report_symptoms_until(done - 1);  // seen while the action runs
      cured = Cures(*action, p.cure);
      TimedCall(options, on_result, result.latency_us,
                [&] { manager.OnActionResult(done, p.machine, cured); });
      ++result.calls;
      now = done;
    }
    checksum = Fold(checksum, ~std::uint64_t{0});  // process separator
    ++result.served;
    if (cured) {
      result.served_downtime += static_cast<double>(now - (start + shift));
      free_at[m] = now;
    }
    result.logged_downtime += static_cast<double>(p.logged_downtime);
    result.history_size_max =
        std::max(result.history_size_max,
                 static_cast<std::int64_t>(manager.history_size()));
  }

  result.checksum = checksum;
  result.completed = manager.stats().processes_completed;
  result.history_evictions = manager.stats().history_evictions;
  result.trace_records = tracer.completed_count() + traces.recorded_count();
  return result;
}

}  // namespace perfbench
