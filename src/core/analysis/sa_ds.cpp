#include "core/analysis/sa_ds.h"

#include <algorithm>

#include "common/math.h"

namespace e2e {

IeertOptions sa_ds_ieert_options(const TaskSystem& system, const SaDsOptions& options) {
  Duration max_cutoff = 0;
  for (const Task& t : system.tasks()) {
    max_cutoff =
        std::max(max_cutoff, sat_scale(options.failure_period_multiplier, t.period));
  }
  return IeertOptions{.cap = sat_mul(max_cutoff, 2),
                      .refine_jitter_with_best_case = options.refine_jitter_with_best_case,
                      .failure_period_multiplier = options.failure_period_multiplier};
}

SaDsSweeps sweep_sa_ds_to_fixpoint(const TaskSystem& system,
                                   const InterferenceMap& interference, SubtaskTable& table,
                                   const IeertOptions& ieert, int max_passes,
                                   IeertIncrementalState& state, IeertSweepUndo* undo) {
  SaDsSweeps run;
  while (run.passes < max_passes) {
    ++run.passes;
    if (ieert_sweep(system, interference, table, ieert, state, undo) == 0) {
      run.converged = true;
      break;
    }
  }
  return run;
}

SaDsResult analyze_sa_ds(const TaskSystem& system, const SaDsOptions& options) {
  return analyze_sa_ds(system, InterferenceMap{system}, options);
}

SaDsResult analyze_sa_ds(const TaskSystem& system, const InterferenceMap& interference,
                         const SaDsOptions& options) {
  SaDsResult result;

  // Initialization (Figure 11 step 1): R_{i,j} = sum of own and
  // predecessors' execution times -- an optimistic lower estimate.
  SubtaskTable current{system, 0};
  for (const Task& t : system.tasks()) {
    Duration cumulative = 0;
    for (const Subtask& s : t.subtasks) {
      cumulative += s.execution_time;
      current.set(s.ref, cumulative);
    }
  }

  // Iterate (Figure 11 step 2) until R == IEERT(T, R). The first sweep
  // recomputes every entry; later ones skip entries whose inputs did not
  // change (see ieert.h).
  IeertIncrementalState state;
  state.warm.resize(interference.subtask_count());
  const SaDsSweeps run =
      sweep_sa_ds_to_fixpoint(system, interference, current,
                              sa_ds_ieert_options(system, options), options.max_passes,
                              state);
  result.passes = run.passes;
  result.converged = run.converged;

  result.analysis.subtask_bounds = current;
  result.analysis.eer_bounds.assign(system.task_count(), kTimeInfinity);
  if (result.converged) {
    for (const Task& t : system.tasks()) {
      // Figure 11 step 3: the EER bound is the last subtask's IEER bound.
      result.analysis.eer_bounds[t.id.index()] = current.at(t.last_subtask().ref);
    }
  }
  finalize_schedulability(system, result.analysis);
  return result;
}

}  // namespace e2e
