// The benchmark's workloads and the traced per-layer passes.
//
// admit-pm-churn and sim-fault-ladder are end-to-end workloads;
// admit-ds-grow and analysis-grid are measured by the traced run and
// pinned, but their end-to-end figures moved too much from run to run on
// the reference host to gate on (README.md). Every input is generated
// from the run's seed. `run_*` functions are
// the untraced end-to-end measurements (trace 0); `trace_*` functions are
// the traced run (trace 1); `selfcheck_*` run a small fixed-seed instance
// twice, assert that every deterministic work count repeats, and report
// the values run.py compares against the pins in expected.json.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "trace.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for generated inputs and the span dump.
  std::string out_dir;
  /// Pin mode: run only the small fixed-seed instance, through the
  /// reference paths (full-recompute admission engines).
  bool pin = false;
};

inline constexpr const char* kAdmitDsGrow = "admit-ds-grow";
inline constexpr const char* kAdmitPmChurn = "admit-pm-churn";
inline constexpr const char* kSimFaultLadder = "sim-fault-ladder";
inline constexpr const char* kAnalysisGrid = "analysis-grid";

/// Work units (streams, scenario passes) a run of `seconds` performs: the
/// count that takes about that long on the reference host. It depends on
/// --seconds alone, so every run of a seed does the same work on any host,
/// and faster code finishes sooner instead of doing more.
[[nodiscard]] inline int units_for(double seconds, double seconds_per_unit) {
  return std::max(1, static_cast<int>(std::lround(seconds / seconds_per_unit)));
}

void run_admission(const Options& options, Report& report);
void trace_admission(const Options& options, Tracer& tracer, Report& report);
void selfcheck_admission(const std::string& workload, bool full_recompute, Report& report);

void run_sim(const Options& options, Report& report);
void trace_sim(const Options& options, Tracer& tracer, Report& report);
void selfcheck_sim(Report& report);

void trace_grid(const Options& options, Tracer& tracer, Report& report);
void selfcheck_grid(Report& report);

}  // namespace perfbench
