#include "core/analysis/sa_pm.h"

#include "common/math.h"
#include "core/analysis/blocking.h"
#include "core/analysis/kernels.h"

namespace e2e {

AnalysisResult analyze_sa_pm(const TaskSystem& system, const SaPmOptions& options) {
  return analyze_sa_pm(system, InterferenceMap{system}, options);
}

AnalysisResult analyze_sa_pm(const TaskSystem& system,
                             const InterferenceMap& interference,
                             const SaPmOptions& options) {
  AnalysisResult result;
  result.subtask_bounds = SubtaskTable{system, 0};
  result.eer_bounds.assign(system.task_count(), 0);

  const Time cap = sat_scale(options.cap_period_multiplier, system.max_period());

  for (const Task& t : system.tasks()) {
    Duration eer = 0;
    for (const Subtask& s : t.subtasks) {
      const ResponseEquation eq{.period = t.period,
                                .exec = s.execution_time,
                                .jitter = t.release_jitter,
                                .blocking = blocking_term(system, s),
                                .cap = cap};
      const Duration r = solve_response_bound(eq, interference.soa_of(s.ref), nullptr);
      result.subtask_bounds.set(s.ref, r);
      eer = sat_add(eer, r);
    }
    result.eer_bounds[t.id.index()] = eer;  // Step 5
  }
  finalize_schedulability(system, result);
  return result;
}

}  // namespace e2e
