// Algorithm SA/DS (paper Figure 11): schedulability analysis for the
// Direct Synchronization protocol.
//
// Starting from the optimistic estimate R_{i,j} = sum_{m<=j} e_{i,m},
// Algorithm IEERT is applied repeatedly until the IEER-bound table reaches
// a fixpoint (Theorem 2: any fixpoint consists of correct upper bounds).
// The operator is monotone and the start is an under-approximation, so the
// iterates only grow; when a bound exceeds the paper's cutoff of 300 times
// the task's period it is declared infinite ("failure"), matching the
// failure criterion used for Figure 12.
//
// The iteration itself is sweep_sa_ds_to_fixpoint: repeated in-place
// ieert_sweep()s (see ieert.h) until a sweep changes nothing. The offline
// analysis and the online admission engine (src/admission/engine_ds.cpp)
// both run it, under the options sa_ds_ieert_options derives, and both
// start a cold run through sweep_sa_ds_from_init.
#pragma once

#include "core/analysis/bounds.h"
#include "core/analysis/ieert.h"
#include "core/analysis/interference.h"
#include "task/system.h"

namespace e2e {

struct SaDsOptions {
  /// A task's bound is declared infinite once it exceeds this multiple of
  /// the task's period (the paper uses 300).
  double failure_period_multiplier = 300.0;
  /// Safety net on the number of IEERT passes. Divergence is normally
  /// caught by the multiplier cap long before this triggers.
  int max_passes = 10000;
  /// Use the best-case-refined jitter terms (see IeertOptions). Off by
  /// default: the paper's Algorithm SA/DS uses the plain R_{u,v-1} jitter.
  bool refine_jitter_with_best_case = false;
};

struct SaDsResult {
  /// IEER bounds per subtask (cumulative along each chain); the entry for
  /// a task's last subtask is the task's EER bound.
  AnalysisResult analysis;
  /// Number of IEERT passes executed.
  int passes = 0;
  /// True if the iteration reached an exact fixpoint (including fixpoints
  /// with infinite entries); false only if max_passes was exhausted, in
  /// which case all bounds are conservatively set to infinity.
  bool converged = false;

  /// The paper's per-task "failure": no finite EER bound found.
  [[nodiscard]] bool task_failed(TaskId id) const {
    return is_infinite(analysis.eer_bounds.at(id.index()));
  }
  /// System-level failure as counted in Figure 12: any task failed.
  [[nodiscard]] bool any_failure() const { return !analysis.all_bounded(); }
};

[[nodiscard]] SaDsResult analyze_sa_ds(const TaskSystem& system,
                                       const SaDsOptions& options = {});

/// As above, reusing a prebuilt interference map.
[[nodiscard]] SaDsResult analyze_sa_ds(const TaskSystem& system,
                                       const InterferenceMap& interference,
                                       const SaDsOptions& options = {});

/// Figure 11 step 1, the optimistic initial estimate: calls
/// `visit(subtask, r0)` for each subtask of `task` in chain order, with
/// r0 = R_{i,j} = the sum of its own and its predecessors' execution
/// times -- an under-approximation of every IEER bound.
template <typename Visit>
void for_each_optimistic_init(const Task& task, Visit&& visit) {
  Duration cumulative = 0;
  for (const Subtask& s : task.subtasks) {
    cumulative += s.execution_time;
    visit(s, cumulative);
  }
}

/// The IEERT options every SA/DS sweep of `system` runs under: the
/// per-task failure cutoff (options.failure_period_multiplier x period)
/// applied inside each pass, and a fixpoint divergence cap of twice the
/// largest cutoff -- no equation needs solving past it, which keeps
/// sweeps cheap once a chain is beyond salvation.
[[nodiscard]] IeertOptions sa_ds_ieert_options(const TaskSystem& system,
                                               const SaDsOptions& options);

struct SaDsSweeps {
  int passes = 0;          ///< sweeps run, the last one included
  bool converged = false;  ///< the last sweep changed no entry
};

/// Figure 11 step 2: sweeps `table` in place with IEERT until a sweep
/// changes no entry (converged) or `max_passes` sweeps ran. Because each
/// sweep applies the failure cutoff to every entry it recomputes, "no
/// change" is exactly the paper's R == cap(IEERT(T, R)). `state` and
/// `undo` are forwarded to every ieert_sweep.
[[nodiscard]] SaDsSweeps sweep_sa_ds_to_fixpoint(const TaskSystem& system,
                                                 const InterferenceMap& interference,
                                                 SubtaskTable& table,
                                                 const IeertOptions& ieert, int max_passes,
                                                 IeertIncrementalState& state,
                                                 IeertSweepUndo* undo = nullptr);

/// Figure 11 steps 1-2 over `table` in place: every entry back to the
/// optimistic init, every seed emptied and no dirty flags, then
/// sweep_sa_ds_to_fixpoint. analyze_sa_ds runs this over a fresh table
/// and the admission engine over its persistent one, so the two agree
/// byte for byte even where the pass budget runs out. `table` and
/// `state.seeds` must be shaped like `system`. With `undo`, every entry
/// is journaled before its first write.
[[nodiscard]] SaDsSweeps sweep_sa_ds_from_init(const TaskSystem& system,
                                               const InterferenceMap& interference,
                                               SubtaskTable& table,
                                               const IeertOptions& ieert, int max_passes,
                                               IeertIncrementalState& state,
                                               IeertSweepUndo* undo = nullptr);

}  // namespace e2e
