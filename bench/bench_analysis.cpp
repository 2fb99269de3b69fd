// Analysis warm start: HOPA priority optimization timed cold
// (warm_start = false: every round analyzes from scratch) against warm
// (the default: one AnalysisScratch carried across rounds for
// signature-exact reuse), plus the breakdown-utilization search (SA/PM
// and SA/DS, every probe a cold analysis). The two HOPA runs must produce
// bit-identical results; the report's `variants` section records wall
// time, speedup and a result hash per variant.
//
// Variant hashes are cross-folded so the generic agreement check in
// write_perf_report (all variant hashes equal) tests exactly "the warm
// HOPA run matches the cold one": each HOPA variant folds its own results
// with the breakdown results, and the breakdown variant folds the cold
// HOPA results with its own, so all three agree iff hopa-warm ==
// hopa-cold.
//
// `--json[=path]` additionally times the warm runs at several thread
// counts (E2E_BENCH_THREADS or 1,2,4,8; systems fan out over the pool)
// and exits nonzero on any cross-thread or cross-variant hash mismatch.
//
// E2E_* overrides: docs/cli_and_formats.md.
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/analysis/cache.h"
#include "core/analysis/hopa.h"
#include "exec/thread_pool.h"
#include "experiments/breakdown.h"
#include "report/perf_json.h"
#include "scenario/defaults.h"
#include "report/table.h"
#include "workload/generator.h"

namespace {

using namespace e2e;

std::vector<TaskSystem> make_systems(int count, int subtasks, int utilization,
                                     std::uint64_t seed) {
  std::vector<TaskSystem> systems;
  systems.reserve(static_cast<std::size_t>(count));
  Rng master{seed};
  for (int i = 0; i < count; ++i) {
    Rng rng = master.fork(static_cast<std::uint64_t>(i));
    systems.push_back(generate_system(
        rng, options_for(
                 {.subtasks_per_task = subtasks, .utilization_percent = utilization})));
  }
  return systems;
}

std::uint64_t fold_double(std::uint64_t acc, double v) {
  return hash_combine(acc, std::bit_cast<std::uint64_t>(v));
}

struct SystemOutcome {
  std::uint64_t hash = 0;
  std::int64_t events = 0;  ///< SA/PM rounds + breakdown searches run
};

SystemOutcome run_hopa_one(const TaskSystem& system, const HopaOptions& options) {
  const HopaResult r = optimize_priorities_hopa(system, options);
  SystemOutcome out;
  out.hash = fold_double(out.hash, r.initial_margin);
  out.hash = fold_double(out.hash, r.margin);
  out.hash = hash_combine(out.hash, system_content_hash(r.system));
  out.events = r.iterations_run + 1;
  return out;
}

SystemOutcome run_breakdown_one(const TaskSystem& system) {
  SystemOutcome out;
  out.hash = fold_double(out.hash, breakdown_utilization(system, AnalysisKind::kSaPm));
  out.hash = fold_double(out.hash, breakdown_utilization(system, AnalysisKind::kSaDs));
  out.events = 2;
  return out;
}

/// Serial sweep over all systems; returns the index-order folded hash.
template <typename RunOne>
std::uint64_t sweep(const std::vector<TaskSystem>& systems, const RunOne& run_one) {
  std::uint64_t h = 0;
  for (const TaskSystem& system : systems) {
    h = hash_combine(h, run_one(system).hash);
  }
  return h;
}

template <typename Fn>
double timed(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const ScenarioDefaults defaults = ScenarioDefaults::load();
  const int system_count = defaults.analysis_systems;
  const int subtasks = defaults.analysis_subtasks;
  const int utilization = defaults.analysis_utilization;
  const int hopa_iters = defaults.hopa_iters;
  const int hopa_repeats = defaults.analysis_repeats;
  const std::uint64_t seed = defaults.analysis_seed;

  try {
    const ArgParser args{argc, argv};
    args.expect_known({"json"});

    const std::vector<TaskSystem> systems =
        make_systems(system_count, subtasks, utilization, seed);

    const HopaOptions hopa_cold{.iterations = hopa_iters, .warm_start = false};
    const HopaOptions hopa_warm{.iterations = hopa_iters};

    // One-thread variant measurements: cold first (it is the baseline).
    std::uint64_t h_hopa_cold = 0, h_hopa_warm = 0;
    std::uint64_t h_bd = 0;
    const double w_hopa_cold = timed([&] {
      for (int rep = 0; rep < hopa_repeats; ++rep) {
        h_hopa_cold = sweep(systems, [&](const TaskSystem& s) {
          return run_hopa_one(s, hopa_cold);
        });
      }
    });
    const double w_hopa_warm = timed([&] {
      for (int rep = 0; rep < hopa_repeats; ++rep) {
        h_hopa_warm = sweep(systems, [&](const TaskSystem& s) {
          return run_hopa_one(s, hopa_warm);
        });
      }
    });
    const double w_bd = timed([&] {
      h_bd = sweep(systems, [&](const TaskSystem& s) { return run_breakdown_one(s); });
    });

    const auto speedup = [](double cold, double warm) {
      return warm > 0.0 ? cold / warm : 0.0;
    };
    const std::vector<PerfVariant> variants{
        {.name = "hopa-cold",
         .wall_seconds = w_hopa_cold,
         .speedup_vs_legacy = 1.0,
         .result_hash = hash_combine(h_hopa_cold, h_bd)},
        {.name = "hopa-warm",
         .wall_seconds = w_hopa_warm,
         .speedup_vs_legacy = speedup(w_hopa_cold, w_hopa_warm),
         .result_hash = hash_combine(h_hopa_warm, h_bd)},
        {.name = "breakdown",
         .wall_seconds = w_bd,
         .speedup_vs_legacy = 1.0,
         .result_hash = hash_combine(h_hopa_cold, h_bd)},
    };

    if (!args.has("json")) {
      TextTable table({"workload", "cold wall", "warm wall", "speedup", "identical"});
      table.add_row({"HOPA (" + std::to_string(hopa_iters) + " rounds)",
                     TextTable::fmt(w_hopa_cold, 3) + "s",
                     TextTable::fmt(w_hopa_warm, 3) + "s",
                     TextTable::fmt(speedup(w_hopa_cold, w_hopa_warm), 2) + "x",
                     h_hopa_cold == h_hopa_warm ? "yes" : "NO"});
      table.add_row({"breakdown search", TextTable::fmt(w_bd, 3) + "s", "-", "-", "-"});
      std::cout << "== Analysis warm start vs cold (" << system_count
                << " systems, N=" << subtasks << ", U=" << utilization << "%) ==\n\n"
                << table.to_string();
      return h_hopa_cold == h_hopa_warm ? 0 : 5;
    }

    const std::string path = args.value_string("json", "BENCH_analysis.json");
    std::ostringstream workload;
    workload << system_count << " systems, N=" << subtasks << ", U=" << utilization
             << "%, HOPA " << hopa_iters
             << " rounds + SA/PM and SA/DS breakdown searches";
    return write_perf_report(
        "analysis", workload.str(), path, bench_thread_counts(),
        [&](int threads) {
          // Warm workload fanned out over the pool, one system per
          // item; outcomes merge serially in system-index order, so the
          // folded hash is thread-count independent.
          exec::ThreadPool pool{threads};
          std::vector<SystemOutcome> outcomes(systems.size());
          pool.parallel_for_indexed(
              static_cast<std::int64_t>(systems.size()),
              [&](std::int64_t index, int /*worker*/) {
                const TaskSystem& system = systems[static_cast<std::size_t>(index)];
                SystemOutcome merged = run_hopa_one(system, hopa_warm);
                const SystemOutcome bd = run_breakdown_one(system);
                merged.hash = hash_combine(merged.hash, bd.hash);
                merged.events += bd.events;
                outcomes[static_cast<std::size_t>(index)] = merged;
              });
          PerfRunOutcome outcome;
          for (const SystemOutcome& o : outcomes) {
            outcome.events += o.events;
            outcome.schedule_hash = hash_combine(outcome.schedule_hash, o.hash);
          }
          return outcome;
        },
        // The ladder's per-system work is microseconds, far below the
        // pool's dispatch overhead, so its "speedups" are noise; the
        // variants section is this bench's real measurement. Declare
        // that instead of silently passing the scaling gate.
        std::cout, PerfWriteOptions{.variants = variants, .gate_exempt = true});
  } catch (const InvalidArgument& e) {
    std::cerr << "bench_analysis: " << e.what() << "\n";
    return 1;
  }
}
