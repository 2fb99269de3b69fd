// Algorithm SA/PM (paper Section 4.1): schedulability analysis for the
// PM and MPM protocols -- and, by the paper's Theorem 1, for the RG
// protocol as well.
//
// Every subtask is (or behaves like) a strictly periodic task on its
// processor, so Lehoczky's busy-period analysis applies per subtask:
//
//   Step 1  D_{i,j} = min{ t>0 : t = sum_{T_{k,l} in H u {self}} ceil(t/p_k) e_{k,l} }
//   Step 2  M_{i,j} = ceil(D_{i,j} / p_i)
//   Step 3  C_{i,j}(m) = min{ t>0 : t = m e_{i,j} + sum_{H} ceil(t/p_k) e_{k,l} }
//           R_{i,j}(m) = C_{i,j}(m) - (m-1) p_i
//   Step 4  R_{i,j} = max_m R_{i,j}(m)
//   Step 5  R_i = sum_j R_{i,j}
//
// Extensions beyond the paper (both no-ops on paper-model systems):
//  * bounded release jitter J_i (Task::release_jitter): every ceiling
//    becomes ceil((t+J)/p), the instance count and per-instance response
//    pick up +J. With nonzero jitter the per-subtask bounds are measured
//    against the nominal periodic grid and are conservative (each R_{i,j}
//    absorbs J_i once, so the summed EER bound over-counts it);
//  * blocking by non-preemptible lower-priority subtasks (blocking.h).
#pragma once

#include "core/analysis/bounds.h"
#include "core/analysis/interference.h"
#include "core/analysis/scratch.h"
#include "task/system.h"

namespace e2e {

struct SaPmOptions {
  /// Divergence cap for the busy-period / completion-time fixpoints, as a
  /// multiple of the system's maximum period. A processor with
  /// utilization > 1 has no finite busy period; the cap turns that into a
  /// clean "unbounded" verdict. 300 mirrors the paper's failure cutoff.
  double cap_period_multiplier = 300.0;
};

/// Runs Algorithm SA/PM on `system`. Subtask entries and task EER bounds
/// are kTimeInfinity where the analysis could not find a finite bound.
[[nodiscard]] AnalysisResult analyze_sa_pm(const TaskSystem& system,
                                           const SaPmOptions& options = {});

/// As above, reusing a prebuilt interference map (the experiment sweeps
/// analyze the same system under several algorithms). When `scratch` is
/// non-null the run records its converged fixpoints there and copies the
/// previous run's bound, without iterating, for every subtask whose
/// demand equation is bit-identical (see core/analysis/scratch.h).
/// Results are bit-identical with or without a scratch.
[[nodiscard]] AnalysisResult analyze_sa_pm(const TaskSystem& system,
                                           const InterferenceMap& interference,
                                           const SaPmOptions& options = {},
                                           AnalysisScratch* scratch = nullptr);

}  // namespace e2e
