// Scenario workloads: sim-fault-ladder (end to end, traced, pinned) and
// analysis-grid (traced and pinned).
//
// Both generate `e2esync-scenario v1` specs from the seed and run them
// through the shipped pipeline: parse_scenario, then run_fault_sweep (the
// driver behind `e2e run` for faults specs, which exposes
// FaultCell::events_processed) or run_grid / run_scenario (figure 13).
// The checks and the traced passes drive the layers underneath directly
// on the same generated systems and compare hashes with the pipeline.
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/cache.h"
#include "core/analysis/interference.h"
#include "core/analysis/sa_ds.h"
#include "core/analysis/sa_pm.h"
#include "core/protocols/factory.h"
#include "experiments/faults.h"
#include "experiments/sweep.h"
#include "metrics/eer_collector.h"
#include "metrics/schedule_hash.h"
#include "scenario/defaults.h"
#include "scenario/driver.h"
#include "scenario/executor.h"
#include "scenario/plan.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/timesvc/time_service.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace e2e;

// Pass sizes of the end-to-end runs, and their expected time on the
// reference host (units_for). The traced run uses larger passes.
constexpr int kSimSystems = 1;
constexpr int kSimHorizonPeriods = 10;
constexpr double kSimRequestSeconds = 0.0025;
/// Times every end-to-end request is run; it keeps the fastest.
constexpr int kSimPasses = 4;
/// Thread count of the timed end-to-end requests, and of the re-check.
constexpr int kItemThreads = 1;
constexpr int kCheckThreads = 4;

// --- spec generation ---------------------------------------------------

/// sim-fault-ladder: all six protocols with the time service on, over an
/// ideal -> clock -> clock+loss -> severe (with a partition) ladder. The
/// engine, protocol callbacks, fault injector and time service do nearly
/// all the work; analysis runs only for the PM-family bounds.
constexpr const char* kLadderProtocols[] = {"DS", "PM", "MPM", "RG", "MPM-R", "PM-E"};
constexpr const char* kLadderSeverities[] = {
    "ideal -",
    "clock offset=150000,drift-ppm=15000",
    "clock-loss offset=150000,drift-ppm=15000,loss-prob=0.02,delay=2000,dup-prob=0.02",
    "severe offset=300000,drift-ppm=30000,loss-prob=0.1,delay=5000,dup-prob=0.05,"
    "timer-jitter=1000,stall-prob=0.02,stall=2000,partition-at=2000000,partition-for=2000000"};
constexpr int kLadderCells = 24;  ///< severities x protocols

/// The whole ladder (`cell` < 0) or its one cell `cell` (severity-major).
std::string sim_spec(std::uint64_t seed, int systems, int horizon_periods, int cell = -1) {
  std::ostringstream out;
  out << "e2esync-scenario v1\n"
      << "scenario faults\n"
      << "seed " << seed << "\n"
      << "systems " << systems << "\n"
      << "horizon-periods " << horizon_periods << "\n"
      << "threads " << kItemThreads << "\n"
      << "config 4 60\n"
      << "timesvc interval=25000\n";
  for (int p = 0; p < 6; ++p) {
    if (cell < 0 || cell % 6 == p) out << "protocol " << kLadderProtocols[p] << "\n";
  }
  for (int v = 0; v < 4; ++v) {
    if (cell < 0 || cell / 6 == v) out << "severity " << kLadderSeverities[v] << "\n";
  }
  return out.str();
}

/// analysis-grid: SA/PM and SA/DS, cold, on every system of the paper's
/// 7x5 (N, U) grid (figure 13). Simulator and admission are bypassed.
std::string grid_spec(std::uint64_t seed, int systems) {
  std::ostringstream out;
  out << "e2esync-scenario v1\n"
      << "scenario figure\n"
      << "figure 13\n"
      << "seed " << seed << "\n"
      << "systems " << systems << "\n"
      << "threads " << kItemThreads << "\n";
  return out.str();
}

constexpr int kTraceSimSystems = 10;
constexpr int kTraceSimHorizonPeriods = 30;
constexpr int kTraceGridSystems = 16;

ScenarioSpec parse(const std::string& text, Tracer* tracer = nullptr) {
  Scope span{tracer, "scenario.parse_scenario"};
  return parse_scenario(text, ScenarioDefaults{});
}

/// The figure driver's translation of a figure spec (scenario/driver.cpp).
SweepOptions figure_sweep_options(const ScenarioSpec& spec) {
  SweepOptions options;
  options.systems_per_config = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.threads = spec.threads;
  options.run_simulation = false;
  return options;
}

/// The driver's translation of a faults spec (scenario/driver.cpp).
FaultSweepOptions fault_options(const ScenarioSpec& spec) {
  FaultSweepOptions options;
  options.systems = spec.systems;
  options.seed = spec.seed;
  options.horizon_periods = spec.horizon_periods;
  options.config = spec.grid.front();
  options.severities = spec.severities;
  options.protocols = spec.protocols;
  options.threads = spec.threads;
  options.timesvc = spec.timesvc;
  return options;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out{path};
  out << text;
}

// --- sim-fault-ladder ----------------------------------------------------

/// One shared system of the sweep, drawn exactly as run_fault_sweep draws
/// it (same attempt forks, same SA/PM constructibility filter).
struct SimCase {
  TaskSystem system;
  SubtaskTable bounds;
  Time horizon = 0;
  std::uint64_t fault_seed_mix = 0;
};

bool pm_constructible(const TaskSystem& system, const SubtaskTable& bounds) {
  for (const Task& t : system.tasks()) {
    for (const Subtask& s : t.subtasks) {
      const bool is_last = s.ref.index + 1 == static_cast<std::int32_t>(t.chain_length());
      if (!is_last && is_infinite(bounds.at(s.ref))) return false;
    }
  }
  return true;
}

std::vector<SimCase> make_sim_cases(const FaultSweepOptions& options, Tracer* tracer) {
  std::vector<SimCase> cases;
  Rng master{options.seed};
  const int max_attempts = options.systems * 20 + 50;
  for (int attempt = 0;
       attempt < max_attempts && cases.size() < static_cast<std::size_t>(options.systems);
       ++attempt) {
    Rng rng = master.fork(static_cast<std::uint64_t>(attempt));
    std::optional<TaskSystem> system;
    {
      Scope span{tracer, "workload.generate_system", attempt};
      system.emplace(generate_system(rng, options_for(options.config)));
    }
    SubtaskTable bounds;
    {
      Scope span{tracer, "analysis.sa_pm", attempt};
      bounds = analyze_sa_pm(*system).subtask_bounds;
    }
    if (!pm_constructible(*system, bounds)) continue;
    const Time horizon =
        std::min<Time>(system->horizon_ticks(options.horizon_periods), 400'000'000);
    cases.push_back(SimCase{std::move(*system), std::move(bounds), horizon,
                            std::uint64_t{0x9E3779B97F4A7C15} *
                                static_cast<std::uint64_t>(attempt + 1)});
  }
  return cases;
}

std::vector<std::string> cell_hashes(const FaultSweepResult& result) {
  std::vector<std::string> out;
  for (const FaultCell& cell : result.cells) {
    out.push_back(cell.severity + "/" + std::string{to_string(cell.kind)} + "=" +
                  hex64(cell.schedule_hash));
  }
  return out;
}

std::int64_t total_events(const FaultSweepResult& result) {
  std::int64_t events = 0;
  for (const FaultCell& cell : result.cells) events += cell.events_processed;
  return events;
}

/// A fresh `e2e run` pays the SA/PM bounds every time; clearing the
/// process-wide cache makes every pass do the same.
FaultSweepResult sweep_pass(const FaultSweepOptions& options, ScenarioExecutor& executor) {
  AnalysisCache::shared().clear();
  return run_fault_sweep(options, executor);
}

/// One simulation of the sweep's work item, driven directly.
struct SimRun {
  SimStats stats;
  std::uint64_t schedule_hash = 0;
  double run_us = 0.0;
};

SimRun simulate_case(const SimCase& sc, const FaultSeverity& severity, ProtocolKind kind,
                     const TimeServiceConfig& timesvc_config, bool with_collector,
                     std::optional<Engine>& engine, Tracer* tracer, std::int64_t id) {
  FaultPlan plan = severity.plan;
  plan.seed += sc.fault_seed_mix;
  std::optional<FaultInjector> faults;
  {
    Scope span{tracer, "sim.fault_injector", id};
    faults.emplace(sc.system, plan);
  }
  std::optional<TimeService> timesvc;
  if (timesvc_config.enabled()) {
    Scope span{tracer, "sim.timesvc_init", id};
    timesvc.emplace(sc.system, &*faults, timesvc_config);
  }
  std::unique_ptr<SyncProtocol> protocol;
  {
    Scope span{tracer, "protocols.make_protocol", id};
    protocol = make_protocol(kind, sc.system, &sc.bounds);
  }
  const EngineOptions engine_options{
      .horizon = sc.horizon,
      .faults = &*faults,
      .timesvc = timesvc.has_value() ? &*timesvc : nullptr};
  {
    Scope span{tracer, "sim.engine_reset", id};
    if (engine.has_value()) {
      engine->reset(sc.system, *protocol, engine_options);
    } else {
      engine.emplace(sc.system, *protocol, engine_options);
    }
  }
  ScheduleHash hash;
  engine->add_sink(&hash);
  std::optional<EerCollector> collector;
  if (with_collector) {
    collector.emplace(sc.system);
    engine->add_sink(&*collector);
  }
  SimRun run;
  const Clock::time_point t0 = Clock::now();
  {
    Scope span{tracer, "sim.engine_run", id};
    engine->run();
  }
  run.run_us = us_between(t0, Clock::now());
  if (timesvc.has_value()) {
    Scope span{tracer, "sim.timesvc_advance_all", id};
    timesvc->advance_all(sc.horizon);
  }
  run.stats = engine->stats();
  run.schedule_hash = hash.value();
  return run;
}

}  // namespace

void run_sim(const Options& options, Report& report) {
  // Each request is a generated one-cell faults scenario: its own seed
  // (drawn from the run's seed) and so its own system, simulated under
  // one (severity, protocol) cell of the ladder; consecutive requests
  // cycle through the ladder's 24 cells. A request is what `e2e run`
  // does with such a spec: parse it and start the executor (set-up), then
  // run_fault_sweep, one thread, which draws the system, bounds it with
  // SA/PM and simulates it. The process-wide analysis cache is cleared per
  // request, as a fresh process would start. The requests run in
  // kSimPasses passes spread over the run, and each keeps the fastest of
  // its times (see run_admission); the passes must agree on every
  // schedule hash.
  // A request's time is the CPU time of the thread that runs it (it runs
  // inline on one thread, without I/O or waits, so on an idle host this
  // equals its wall time). A request of a few milliseconds is often
  // descheduled for a slice by other tenants of a shared host, which
  // inflates its wall time and, through it, the p99; the wall-clock
  // figures are printed beside the metrics.
  const int requests = units_for(options.seconds, kSimPasses * kSimRequestSeconds);
  std::vector<double> setup_s(static_cast<std::size_t>(requests), 1e300);
  std::vector<double> request_us(static_cast<std::size_t>(requests), 1e300);
  std::vector<double> wall_us(static_cast<std::size_t>(requests), 1e300);
  std::vector<std::int64_t> events(static_cast<std::size_t>(requests), 0);
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(requests), 0);
  std::vector<ScenarioSpec> specs;
  for (int pass = 0; pass < kSimPasses; ++pass) {
    for (int i = 0; i < requests; ++i) {
      const auto k = static_cast<std::size_t>(i);
      const std::string text =
          sim_spec(hash_combine(options.seed, static_cast<std::uint64_t>(i)), kSimSystems,
                   kSimHorizonPeriods, i % kLadderCells);
      AnalysisCache::shared().clear();
      const Clock::time_point t0 = Clock::now();
      ScenarioSpec spec = parse(text);
      const FaultSweepOptions sweep = fault_options(spec);
      ScenarioExecutor executor{spec.threads};
      const Clock::time_point t1 = Clock::now();
      const double cpu1 = thread_cpu_us();
      const FaultSweepResult result = run_fault_sweep(sweep, executor);
      const double cpu2 = thread_cpu_us();
      const Clock::time_point t2 = Clock::now();
      setup_s[k] = std::min(setup_s[k], seconds_between(t0, t1));
      request_us[k] = std::min(request_us[k], cpu2 - cpu1);
      wall_us[k] = std::min(wall_us[k], us_between(t1, t2));
      report.attempted += 1;
      const std::uint64_t hash = result.cells.front().schedule_hash;
      if (pass > 0) {
        if (hash != hashes[k]) report.fail(1, "request " + std::to_string(i) + " diverged");
        continue;
      }
      hashes[k] = hash;
      events[k] = total_events(result);
      specs.push_back(std::move(spec));
      if (i < kLadderCells) {
        // The first ladder cycle also goes through the shipped `e2e run`.
        const std::string path = options.out_dir + "/sim" + std::to_string(i) + ".e2es";
        write_text(path, text);
        report.lists["spec_paths"].push_back(path);
        report.lists["cell_hashes"].push_back(cell_hashes(result).front());
      }
    }
  }
  std::vector<double> rate(static_cast<std::size_t>(requests));
  for (std::size_t k = 0; k < rate.size(); ++k) {
    rate[k] = static_cast<double>(events[k]) / request_us[k] * 1e6;
  }
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  report.metrics["setup_s"] = median(setup_s);
  report.metrics["throughput_per_s"] = median(rate);
  report.metrics["latency_p50_us"] = percentile(request_us, 50);
  report.metrics["latency_p99_us"] = percentile(request_us, 99);
  report.metrics["wall_p50_us"] = percentile(wall_us, 50);
  report.metrics["wall_p99_us"] = percentile(wall_us, 99);
  report.metrics["requests"] = requests;

  // Every request again through the layers directly (draw, SA/PM,
  // protocol, fault injector, time service, engine), a few at a time.
  ScenarioExecutor checker{kCheckThreads};
  const std::vector<std::uint64_t> direct = checker.map<std::uint64_t>(
      requests, [&](std::int64_t i, ScenarioExecutor::WorkerSlot& slot) {
        const FaultSweepOptions sweep = fault_options(specs[static_cast<std::size_t>(i)]);
        const std::vector<SimCase> cases = make_sim_cases(sweep, nullptr);
        if (cases.empty()) return std::uint64_t{0};
        const SimRun run = simulate_case(cases.front(), sweep.severities.front(),
                                         sweep.protocols.front(), sweep.timesvc, false,
                                         slot.engine, nullptr, i);
        return hash_combine(0, run.schedule_hash);
      });
  for (int i = 0; i < requests; ++i) {
    if (direct[static_cast<std::size_t>(i)] != hashes[static_cast<std::size_t>(i)]) {
      report.fail(1, "request " + std::to_string(i) + " differs from the direct drive");
    }
  }
}

void trace_sim(const Options& options, Tracer& tracer, Report& report) {
  const std::string text = sim_spec(options.seed, kTraceSimSystems, kTraceSimHorizonPeriods);
  const ScenarioSpec spec = parse(text, &tracer);
  {
    Scope span{&tracer, "scenario.expand_scenario"};
    (void)expand_scenario(spec);
  }
  const FaultSweepOptions sweep = fault_options(spec);

  // The shipped pipeline, untraced, at 1, 2 and 4 threads (thread-count
  // scaling; every thread count must give the same cells).
  double sweep_s[5] = {};
  FaultSweepResult plain;
  const std::uint64_t hits0 = AnalysisCache::shared().hits();
  const std::uint64_t misses0 = AnalysisCache::shared().misses();
  for (const int threads : {1, 2, 4}) {
    ScenarioExecutor executor{threads};
    const Clock::time_point t0 = Clock::now();
    FaultSweepResult result = sweep_pass(sweep, executor);
    sweep_s[threads] = seconds_between(t0, Clock::now());
    if (threads == 1) {
      const std::uint64_t hits = AnalysisCache::shared().hits() - hits0;
      const std::uint64_t misses = AnalysisCache::shared().misses() - misses0;
      report.metrics["analysis.cache_hit_ratio"] =
          hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                            : 0.0;
      plain = std::move(result);
    } else if (cell_hashes(result) != cell_hashes(plain)) {
      report.fail(static_cast<std::int64_t>(result.cells.size()),
                  "sim-fault-ladder: cells differ at " + std::to_string(threads) + " threads");
    }
  }
  report.metrics["exec.speedup.sim.t2"] = sweep_s[1] / sweep_s[2];
  report.metrics["exec.speedup.sim.t4"] = sweep_s[1] / sweep_s[4];

  // The same work items, driven layer by layer from one thread.
  std::vector<SimCase> cases;
  {
    Scope span{&tracer, "bench.sim_cases"};
    cases = make_sim_cases(sweep, &tracer);
  }
  const Clock::time_point traced_begin = Clock::now();
  std::optional<Engine> engine;
  SimStats total;
  std::int64_t id = 0;
  std::size_t cell_index = 0;
  for (const FaultSeverity& severity : sweep.severities) {
    for (const ProtocolKind kind : sweep.protocols) {
      std::uint64_t cell_hash = 0;
      double run_us = 0.0;
      std::int64_t events = 0;
      for (const SimCase& sc : cases) {
        Scope item{&tracer, "bench.sim_item", id};
        const SimRun run =
            simulate_case(sc, severity, kind, sweep.timesvc, false, engine, &tracer, id++);
        cell_hash = hash_combine(cell_hash, run.schedule_hash);
        run_us += run.run_us;
        events += run.stats.events_processed;
        total.events_processed += run.stats.events_processed;
        total.dispatches += run.stats.dispatches;
        total.preemptions += run.stats.preemptions;
        total.sync_signals += run.stats.sync_signals;
        total.timer_interrupts += run.stats.timer_interrupts;
        total.idle_points += run.stats.idle_points;
        total.dropped_signals += run.stats.dropped_signals;
        total.late_signals += run.stats.late_signals;
        total.duplicated_signals += run.stats.duplicated_signals;
        total.deferred_releases += run.stats.deferred_releases;
      }
      report.metrics["sim.ns_per_event." + std::string{to_string(kind)} + "." +
                     severity.label] =
          events > 0 ? run_us * 1000.0 / static_cast<double>(events) : 0.0;
      report.attempted += 1;
      if (cell_index >= plain.cells.size() ||
          plain.cells[cell_index].schedule_hash != cell_hash) {
        report.fail(1, "sim-fault-ladder: direct drive differs from the sweep in cell " +
                           severity.label + "/" + std::string{to_string(kind)});
      }
      ++cell_index;
    }
  }
  const double traced_s = seconds_between(traced_begin, Clock::now());
  report.metrics["trace.overhead_share.sim"] = traced_s / sweep_s[1] - 1.0;
  report.metrics["sim.events"] = static_cast<double>(total.events_processed);
  report.metrics["sim.dispatches"] = static_cast<double>(total.dispatches);
  report.metrics["sim.preemptions"] = static_cast<double>(total.preemptions);
  report.metrics["sim.sync_signals"] = static_cast<double>(total.sync_signals);
  report.metrics["sim.timer_interrupts"] = static_cast<double>(total.timer_interrupts);
  report.metrics["sim.idle_points"] = static_cast<double>(total.idle_points);
  report.metrics["sim.dropped_signals"] = static_cast<double>(total.dropped_signals);
  report.metrics["sim.late_signals"] = static_cast<double>(total.late_signals);
  report.metrics["sim.duplicated_signals"] = static_cast<double>(total.duplicated_signals);
  report.metrics["sim.deferred_releases"] = static_cast<double>(total.deferred_releases);
  report.metrics["sim.reset_us"] = mean(tracer.durations_us("sim.engine_reset"));
  report.metrics["protocols.make_us"] = mean(tracer.durations_us("protocols.make_protocol"));

  // Sink and time-service shares, untraced: the ideal rung with and
  // without an EerCollector attached, the clock rung with and without the
  // time service.
  const auto ns_per_event = [&](const FaultSeverity& severity, const TimeServiceConfig& ts,
                                bool collector) {
    double us = 0.0;
    std::int64_t events = 0;
    for (const ProtocolKind kind : sweep.protocols) {
      for (const SimCase& sc : cases) {
        const SimRun run = simulate_case(sc, severity, kind, ts, collector, engine, nullptr, 0);
        us += run.run_us;
        events += run.stats.events_processed;
      }
    }
    return us * 1000.0 / static_cast<double>(std::max<std::int64_t>(events, 1));
  };
  const FaultSeverity& ideal = sweep.severities.front();
  const FaultSeverity& clock = sweep.severities[1];
  const double bare = ns_per_event(ideal, sweep.timesvc, false);
  const double with_sink = ns_per_event(ideal, sweep.timesvc, true);
  report.metrics["metrics.sink_share"] = with_sink / bare - 1.0;
  const double without_ts = ns_per_event(clock, TimeServiceConfig{}, false);
  const double with_ts = ns_per_event(clock, sweep.timesvc, false);
  report.metrics["timesvc.share"] = 1.0 - without_ts / with_ts;
}

void selfcheck_sim(Report& report) {
  const ScenarioSpec spec = parse(sim_spec(1, 2, 6));
  const FaultSweepOptions sweep = fault_options(spec);
  ScenarioExecutor executor{spec.threads};
  const FaultSweepResult a = sweep_pass(sweep, executor);
  const FaultSweepResult b = sweep_pass(sweep, executor);
  report.attempted += static_cast<std::int64_t>(a.cells.size() + b.cells.size());
  if (cell_hashes(a) != cell_hashes(b) || total_events(a) != total_events(b)) {
    report.fail(static_cast<std::int64_t>(b.cells.size()),
                "selfcheck sim-fault-ladder: work counts did not repeat");
  }
  std::uint64_t combined = 0;
  for (const FaultCell& cell : a.cells) combined = hash_combine(combined, cell.schedule_hash);
  const std::string pin = std::string{"pin."} + kSimFaultLadder + ".";
  report.strings[pin + "schedule_hash"] = hex64(combined);
  report.strings[pin + "events"] = std::to_string(total_events(a));
  report.strings[pin + "requests"] = std::to_string(a.cells.size());
  std::string hashes;
  for (const std::string& cell : cell_hashes(a)) hashes += cell + " ";
  report.strings[pin + "cell_hashes"] = hashes;
}

// --- analysis-grid -------------------------------------------------------

namespace {

/// Draws the grid's systems exactly as run_configuration does.
std::vector<TaskSystem> make_grid_systems(const ScenarioSpec& spec, Tracer* tracer) {
  const SweepOptions sweep;  // the figure driver's defaults
  std::vector<TaskSystem> systems;
  std::int64_t id = 0;
  for (const Configuration& config : paper_configurations()) {
    GeneratorOptions gen = options_for(config);
    gen.priority_policy = sweep.priority_policy;
    gen.non_preemptible_fraction = sweep.non_preemptible_fraction;
    gen.release_jitter_fraction = sweep.release_jitter_fraction;
    gen.period_mean = sweep.period_mean;
    gen.period_distribution = sweep.period_distribution;
    std::vector<Rng> streams = ScenarioExecutor::fork_streams(
        spec.seed ^ (static_cast<std::uint64_t>(config.subtasks_per_task) << 32) ^
            static_cast<std::uint64_t>(config.utilization_percent),
        spec.systems);
    for (Rng& rng : streams) {
      Scope span{tracer, "workload.generate_system", id++};
      systems.push_back(generate_system(rng, gen));
    }
  }
  return systems;
}

std::string run_grid_report(const ScenarioSpec& spec) {
  std::istringstream in;
  std::ostringstream out;
  (void)run_scenario(spec, in, out);
  return out.str();
}

struct GridAnalysis {
  std::int64_t ieert_passes = 0;
  std::int64_t failures = 0;
  std::vector<std::int64_t> failures_per_cell;
};

GridAnalysis analyze_grid(const std::vector<TaskSystem>& systems, int per_cell,
                          Tracer* tracer) {
  GridAnalysis out;
  std::int64_t id = 0;
  for (const TaskSystem& system : systems) {
    if (id % per_cell == 0) out.failures_per_cell.push_back(0);
    Scope item{tracer, "bench.grid_item", id};
    std::optional<InterferenceMap> map;
    {
      Scope span{tracer, "analysis.interference_map", id};
      map.emplace(system);
    }
    {
      Scope span{tracer, "analysis.sa_pm", id};
      (void)analyze_sa_pm(system, *map);
    }
    SaDsResult ds;
    {
      Scope span{tracer, "analysis.sa_ds", id};
      ds = analyze_sa_ds(system, *map, SaDsOptions{});
    }
    out.ieert_passes += ds.passes;
    if (ds.any_failure()) {
      ++out.failures;
      ++out.failures_per_cell.back();
    }
    ++id;
  }
  return out;
}

}  // namespace

void trace_grid(const Options& options, Tracer& tracer, Report& report) {
  const std::string text = grid_spec(options.seed, kTraceGridSystems);
  const ScenarioSpec spec = parse(text, &tracer);
  {
    Scope span{&tracer, "scenario.expand_scenario"};
    (void)expand_scenario(spec);
  }

  // The sweep behind figure 13 at 1, 2 and 4 threads.
  SweepOptions sweep = figure_sweep_options(spec);
  double grid_s[5] = {};
  std::vector<ConfigResult> plain;
  for (const int threads : {1, 2, 4}) {
    sweep.threads = threads;
    const Clock::time_point t0 = Clock::now();
    std::vector<ConfigResult> results = run_grid(sweep);
    grid_s[threads] = seconds_between(t0, Clock::now());
    if (threads == 1) plain = std::move(results);
  }
  report.metrics["exec.speedup.grid.t2"] = grid_s[1] / grid_s[2];
  report.metrics["exec.speedup.grid.t4"] = grid_s[1] / grid_s[4];

  const Clock::time_point traced_begin = Clock::now();
  std::vector<TaskSystem> systems;
  {
    Scope span{&tracer, "bench.grid_systems"};
    systems = make_grid_systems(spec, &tracer);
  }
  const GridAnalysis analysis = analyze_grid(systems, spec.systems, &tracer);
  const double traced_s = seconds_between(traced_begin, Clock::now());
  report.metrics["trace.overhead_share.analysis"] = traced_s / grid_s[1] - 1.0;
  report.attempted += static_cast<std::int64_t>(systems.size());
  for (std::size_t c = 0; c < plain.size(); ++c) {
    if (c >= analysis.failures_per_cell.size() ||
        analysis.failures_per_cell[c] != plain[c].ds_failures) {
      report.fail(spec.systems, "analysis-grid: direct analysis differs from the sweep in cell " +
                                    std::to_string(c));
    }
  }
  report.metrics["analysis.sa_pm_us"] = mean(tracer.durations_us("analysis.sa_pm"));
  report.metrics["analysis.sa_ds_us"] = mean(tracer.durations_us("analysis.sa_ds"));
  report.metrics["analysis.interference_us"] =
      mean(tracer.durations_us("analysis.interference_map"));
  report.metrics["analysis.ieert_passes"] = static_cast<double>(analysis.ieert_passes);
  report.metrics["analysis.sa_ds_failures"] = static_cast<double>(analysis.failures);
  report.metrics["workload.generate_us"] = mean(tracer.durations_us("workload.generate_system"));

  // Spec handling, untraced, repeated for a readable figure.
  constexpr int kRepeats = 200;
  const std::string sim_text = sim_spec(options.seed, kTraceSimSystems, kTraceSimHorizonPeriods);
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < kRepeats; ++k) (void)parse(k % 2 ? text : sim_text);
  const Clock::time_point t1 = Clock::now();
  const ScenarioSpec sim = parse(sim_text);
  for (int k = 0; k < kRepeats; ++k) (void)expand_scenario(k % 2 ? spec : sim);
  const Clock::time_point t2 = Clock::now();
  report.metrics["scenario.parse_us"] = us_between(t0, t1) / kRepeats;
  report.metrics["scenario.expand_us"] = us_between(t1, t2) / kRepeats;
}

void selfcheck_grid(Report& report) {
  const ScenarioSpec spec = parse(grid_spec(1, 2));
  const std::string a = run_grid_report(spec);
  const std::string b = run_grid_report(spec);
  const std::vector<TaskSystem> systems = make_grid_systems(spec, nullptr);
  const GridAnalysis x = analyze_grid(systems, spec.systems, nullptr);
  const GridAnalysis y = analyze_grid(systems, spec.systems, nullptr);
  report.attempted += 2 * static_cast<std::int64_t>(systems.size());
  if (a != b || x.ieert_passes != y.ieert_passes || x.failures != y.failures) {
    report.fail(static_cast<std::int64_t>(systems.size()),
                "selfcheck analysis-grid: work counts did not repeat");
  }
  const std::string pin = std::string{"pin."} + kAnalysisGrid + ".";
  report.strings[pin + "report_digest"] = hex64(fnv1a64(a));
  report.strings[pin + "ieert_passes"] = std::to_string(x.ieert_passes);
  report.strings[pin + "sa_ds_failures"] = std::to_string(x.failures);
  report.strings[pin + "requests"] = std::to_string(systems.size());
}

}  // namespace perfbench
